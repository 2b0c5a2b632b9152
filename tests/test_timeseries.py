import codecs
import datetime as dt
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigensectors import (
    ConfigurationError,
    EigensectorsError,
    InsufficientDataError,
    NormalizedReturns,
    ParseError,
    PricePanel,
    ShiftRule,
    ValidationError,
    ZeroVarianceError,
    align_calendar,
    correlation_matrix,
    drop_assets,
    forward_fill,
    generate,
    load_metadata,
    load_prices,
    log_returns,
    normalize_returns,
    prices_from_returns,
    trim_to_common_range,
)

from helpers import (
    EDGE_FLOATS,
    PAPER_SCAN,
    align_calendar_oracle,
    days,
    forward_fill_oracle,
    load_prices_oracle,
    panel,
    returns,
    trim_oracle,
)


LONG_HEADER = "date,asset,price\n"


def long_csv(rows):
    return io.StringIO(LONG_HEADER + "\n".join(rows) + "\n")


def test_load_long_all_cells_present():
    p = load_prices(
        long_csv(
            [
                "2015-01-05,AAA,10.0",
                "2015-01-06,AAA,10.5",
                "2015-01-07,AAA,10.2",
                "2015-01-05,BBB,20.0",
                "2015-01-06,BBB,21.0",
                "2015-01-07,BBB,19.5",
            ]
        )
    )
    assert p.assets == ("AAA", "BBB")
    assert p.n_dates == 3
    assert not np.isnan(p.prices).any()
    assert p.prices[0, 0] == 10.0 and p.prices[1, 2] == 19.5


def test_load_long_absent_cell_marked_missing():
    p = load_prices(
        long_csv(
            [
                "2015-01-05,AAA,10.0",
                "2015-01-07,AAA,10.2",
                "2015-01-05,BBB,20.0",
                "2015-01-06,BBB,21.0",
                "2015-01-07,BBB,19.5",
            ]
        )
    )
    mask = np.isnan(p.prices)
    assert mask[0, 1] and mask.sum() == 1


def test_load_long_negative_price_names_asset_and_date():
    with pytest.raises(ValidationError) as err:
        load_prices(
            long_csv(
                [
                    "2015-01-05,AAA,10.0",
                    "2015-01-06,AAA,-5.0",
                    "2015-01-05,BBB,20.0",
                ]
            )
        )
    assert "AAA" in str(err.value) and "2015-01-06" in str(err.value)


def test_load_long_bad_date_reports_line_number():
    with pytest.raises(ParseError) as err:
        load_prices(long_csv(["2015-01-05,AAA,10.0", "not-a-date,AAA,10.5"]))
    assert err.value.line_number == 3


def test_load_long_bad_price_reports_line_number():
    with pytest.raises(ParseError) as err:
        load_prices(long_csv(["2015-01-05,AAA,abc"]))
    assert err.value.line_number == 2


@pytest.mark.parametrize("price", ["inf", "-inf"])
@pytest.mark.parametrize("fmt", ["long", "wide"])
def test_load_non_finite_price_reports_line_number(fmt, price):
    if fmt == "long":
        source = long_csv(["2015-01-05,AAA,10.0", f"2015-01-06,AAA,{price}"])
    else:
        source = io.StringIO(f"date,AAA\n2015-01-05,10.0\n2015-01-06,{price}\n")
    with pytest.raises(ParseError, match="unparsable price") as err:
        load_prices(source, fmt=fmt)
    assert err.value.line_number == 3


def test_load_long_missing_column():
    with pytest.raises(ParseError):
        load_prices(io.StringIO("date,ticker,price\n2015-01-05,AAA,10.0\n"))


def test_load_long_duplicate_observation_rejected():
    with pytest.raises(ValidationError) as err:
        load_prices(
            long_csv(["2015-01-05,AAA,10.0", "2015-01-05,AAA,11.0"])
        )
    assert "duplicate" in str(err.value)


def test_load_wide_with_missing_cells():
    text = (
        "date,AAA,BBB\n"
        "2015-01-05,10.0,20.0\n"
        "2015-01-06,,21.0\n"
        "2015-01-07,10.2,19.5\n"
    )
    p = load_prices(io.StringIO(text), fmt="wide")
    assert p.assets == ("AAA", "BBB")
    assert np.isnan(p.prices)[0, 1]
    assert p.prices[1, 1] == 21.0


@pytest.mark.parametrize("header", ["date,AAA,,CCC", "date,AAA, ,CCC", "date\tAAA\t\tCCC"])
def test_load_wide_empty_asset_name_rejected(header):
    sep = "\t" if "\t" in header else ","
    row = sep.join(["2015-01-05", "1.0", "2.0", "3.0"])
    with pytest.raises(ParseError, match="empty asset name") as err:
        load_prices(io.StringIO(f"{header}\n{row}\n"), fmt="wide")
    assert err.value.line_number == 1


def test_load_wide_ragged_row_reports_line():
    text = "date,AAA,BBB\n2015-01-05,10.0\n"
    with pytest.raises(ParseError) as err:
        load_prices(io.StringIO(text), fmt="wide")
    assert err.value.line_number == 2


def test_load_tab_delimiter_sniffed():
    text = "date\tasset\tprice\n2015-01-05\tAAA\t10.0\n2015-01-06\tAAA\t10.5\n2015-01-05\tBBB\t20.0\n2015-01-06\tBBB\t20.5\n2015-01-07\tAAA\t10.2\n2015-01-07\tBBB\t20.1\n"
    p = load_prices(io.StringIO(text))
    assert p.n_assets == 2 and p.n_dates == 3


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_load_non_utf8_reports_line_of_first_bad_byte(end):
    lines = [b"date\tAAA\tBBB", b"2015-01-05\t1\t2", b"2015-01-06\t1\t2", b"2015-01-07\t\xff\t3",
             b"2015-01-08\t\xe9\t3"]
    with pytest.raises(ParseError, match=r"not UTF-8 text \(byte 0xff\)") as err:
        load_prices(io.BytesIO(end.join(lines) + end), fmt="wide")
    assert err.value.line_number == 4
    with pytest.raises(ParseError) as err:
        load_metadata(io.BytesIO(end.join([b"asset,category", b"AAA,Caf\xe9"]) + end))
    assert err.value.line_number == 2


BIG = "1" + "0" * 200_000  # over csv's default field size limit of 131072 characters


@pytest.mark.parametrize(
    ("fmt", "lines"),
    [
        ("wide", ["date,AAA,BBB", "2015-01-05,1,2", "2015-01-06,1,2", f"2015-01-07,{BIG},3"]),
        ("long", ["date,asset,price", "2015-01-05,AAA,1", "2015-01-06,AAA,1", f"2015-01-07,AAA,{BIG}"]),
        ("long", ["date,asset,price", "2015-01-05,AAA,1", "2015-01-06,AAA,1", f"2015-01-07,{BIG},1"]),
        ("long", ["date,asset,price", "2015-01-05,AAA,1", "2015-01-06,AAA,1", f'2015-01-07,"A,{BIG}",1']),
    ],
    ids=["wide", "long", "long_asset", "long_quoted_asset"],
)
def test_load_oversized_cell_is_a_parse_error(fmt, lines):
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        load_prices(io.StringIO("\n".join(lines) + "\n"), fmt=fmt)
    assert err.value.line_number == 4
    # an earlier bad row still wins
    lines[1] = lines[1].replace("2015-01-05", "2015-01-5x")
    with pytest.raises(ParseError, match="unparsable date") as err:
        load_prices(io.StringIO("\n".join(lines) + "\n"), fmt=fmt)
    assert err.value.line_number == 2


def test_load_metadata_oversized_cell_is_a_parse_error():
    with pytest.raises(ParseError, match="field larger than field limit") as err:
        load_metadata(io.StringIO(f"asset,category\nAAA,Tech\nBBB,{BIG}\n"))
    assert err.value.line_number == 3


def test_load_utf8_names():
    text = "date,Åland,Zürich\n2015-01-05,1,2\n2015-01-06,1,2\n2015-01-07,1,3\n"
    p = load_prices(io.BytesIO(text.encode()), fmt="wide")
    assert p.assets == ("Zürich", "Åland")  # sorted by code point
    assert load_metadata(io.BytesIO("Åland,Énergie\n".encode())) == {"Åland": "Énergie"}


@pytest.mark.parametrize(
    ("fmt", "text"),
    [
        ("long", "date,asset,price\n2015-01-05,AAA,1\n2015-01-06,AAA,2\n2015-01-07,BBB,3\n"),
        ("wide", "date,AAA,BBB\n2015-01-05,1,2\n2015-01-06,1,2\n2015-01-07,1,3\n"),
    ],
    ids=["long", "wide"],
)
def test_load_skips_utf8_byte_order_mark(fmt, text):
    marked = load_prices(io.BytesIO(codecs.BOM_UTF8 + text.encode()), fmt=fmt)
    assert_same_outcome(marked, load_prices(io.StringIO(text), fmt=fmt))


def test_load_metadata_skips_utf8_byte_order_mark():
    marked = io.BytesIO(codecs.BOM_UTF8 + b"asset,category\nAAA,Tech\n")
    assert load_metadata(marked) == {"AAA": "Tech"}


def test_load_unknown_format_rejected():
    with pytest.raises(ConfigurationError):
        load_prices(io.StringIO("x"), fmt="square")


def test_load_metadata_skips_header_row():
    meta = load_metadata(io.StringIO("asset,category\nAAA,Tech\nBBB,Fin\n"))
    assert meta == {"AAA": "Tech", "BBB": "Fin"}


def test_load_metadata_without_header():
    meta = load_metadata(io.StringIO("AAA,Tech\nBBB,Fin\n"))
    assert meta == {"AAA": "Tech", "BBB": "Fin"}


def test_load_metadata_short_row_rejected():
    with pytest.raises(ParseError):
        load_metadata(io.StringIO("AAA,Tech\nBBB\n"))


def test_panel_rejects_unordered_dates_naming_first_pair():
    d = days(4)
    with pytest.raises(ValidationError) as err:
        PricePanel(assets=("A", "B"), dates=(d[0], d[1], d[1], d[0]), prices=np.ones((2, 4)))
    assert str(err.value) == f"dates not strictly increasing at {d[1]} -> {d[1]}"


# --- vectorized ingest against the per-cell oracle in helpers

# Quoted cells below put a line break only where csv strips it, so that a file
# read with CRLF or CR line ends gives the same panel as the LF original.
MISSING_CELLS = ["", " ", "NA", "na", " NA ", "nan", "NaN", '""', '"NA"', '"\n"']
PRICE_FORMATS = ["{!r}", "{:.4f}", " {!r} ", "{:g}", "\x0b{!r}\t", '"{!r}"', '"{!r}\n"']
DATE_FORMATS = ["{}", " {} ", '"{}"', '"\n{}"']
LONG_NAME = "Z" * 300  # wider than the first guess at a text column's width


def outcome(fn, *args):
    try:
        return fn(*args)
    except EigensectorsError as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), got
        assert str(got) == str(want)
        assert getattr(got, "line_number", None) == getattr(want, "line_number", None)
        return
    assert not isinstance(got, Exception), got
    assert got.assets == want.assets
    assert got.dates == want.dates
    assert np.array_equal(got.prices, want.prices, equal_nan=True)


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


@st.composite
def price_rows(draw, fmt):
    """(header, rows, delimiter) of a random small panel in one layout.

    Listings are staggered, cells go missing at random, price and date texts
    vary in format, padding and quoting, and long rows come in random order,
    some with extra trailing fields. Blank rows of several kinds fall between.
    """
    n = draw(st.integers(2, 4))
    d = draw(st.integers(3, 9))
    delim = draw(st.sampled_from([",", "\t"]))
    pool = st.sampled_from(["AAA", "BBB", "CCC", "#x", "x9", LONG_NAME, f"A{delim}B", 'Q"R'])
    names = draw(st.lists(pool, min_size=n, max_size=n, unique=True))
    offsets = sorted(draw(st.sets(st.integers(0, 40), min_size=d, max_size=d)))
    dates = [dt.date(2015, 1, 1) + dt.timedelta(days=o) for o in offsets]
    date_texts = [draw(st.sampled_from(DATE_FORMATS)).format(x) for x in dates]
    starts = draw(st.lists(st.integers(0, d // 2), min_size=n, max_size=n))
    cells = []
    for i in range(n):
        row = []
        for j in range(d):
            if j < starts[i] or draw(st.integers(0, 4)) == 0:
                row.append(None)
            else:
                price = draw(st.floats(0.01, 500.0))
                row.append(draw(st.sampled_from(PRICE_FORMATS)).format(price))
        cells.append(row)
    if fmt == "long":
        header = ["date", "asset", "price"]
        name_cells = [
            quoted(name) if delim in name or '"' in name else draw(st.sampled_from(["{}", " {}"])).format(name)
            for name in names
        ]
        rows = []
        for i in range(n):
            for j in range(d):
                if cells[i][j] is None:
                    continue
                if draw(st.integers(0, 3)) == 0:  # the same asset, quoted with a line break
                    name_cells[i] = quoted(names[i] + "\n")
                extra = draw(st.lists(st.sampled_from(["", "x", "9", "#"]), max_size=2))
                rows.append([date_texts[j], name_cells[i], cells[i][j], *extra])
        rows = draw(st.permutations(rows))
    else:
        header = ["date", *(quoted(name) if delim in name or '"' in name else name for name in names)]
        missing = st.sampled_from(MISSING_CELLS)
        rows = [
            [date_texts[j]] + [draw(missing) if c[j] is None else c[j] for c in cells]
            for j in range(d)
        ]
    rows = list(rows)
    for _ in range(draw(st.integers(0, 2))):
        blank = draw(st.sampled_from([[], [" "], [""] * len(header), ['""', " "], ["\x0b"]]))
        rows.insert(draw(st.integers(0, len(rows))), blank)
    return header, rows, delim


def as_text(header, rows, delim):
    return "\n".join(delim.join(r) for r in [header, *rows]) + "\n"


def check_against_oracle(text, fmt):
    want = outcome(load_prices_oracle, text, fmt)
    for end in ("\r\n", "\r"):  # the oracle splits on LF only; the loader takes any line end
        twin = io.BytesIO(text.replace("\n", end).encode())
        assert_same_outcome(outcome(load_prices, twin, fmt), want)
    got = outcome(load_prices, io.StringIO(text), fmt)
    assert_same_outcome(got, want)
    if isinstance(want, Exception):
        return
    for step, oracle in ((forward_fill, forward_fill_oracle), (trim_to_common_range, trim_oracle)):
        want, got = outcome(oracle, want), outcome(step, got)
        assert_same_outcome(got, want)
        if isinstance(want, Exception):
            return


@pytest.mark.parametrize("fmt", ["long", "wide"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ingest_matches_oracle(fmt, data):
    check_against_oracle(as_text(*data.draw(price_rows(fmt))), fmt)


def inject_fault(kind, row, fmt):
    """The row with one fault of the given kind (a duplicate is inserted separately)."""
    row = list(row)
    price_col = 2 if fmt == "long" else 1
    if kind == "bad_date":
        row[0] = "2015-13-45"
    elif kind == "bad_price":
        row[price_col] = "abc"
    elif kind == "inf":
        row[price_col] = "inf"
    elif kind == "non_positive":
        row[price_col] = "-1.5"
    elif kind == "ragged":
        row = row[:-1] if fmt == "wide" else row[:2]
    return row


FAULT_MESSAGES = {
    "bad_date": "unparsable date",
    "bad_price": "unparsable price",
    "inf": "unparsable price",
    "non_positive": "non-positive price",
    "duplicate": "duplicate observation",
    "ragged": "fields, got",
}
FAULTS = list(FAULT_MESSAGES)


def faulty_text(header, rows, delim, fmt, faults):
    """Apply (kind, position) faults in turn; a duplicate repeats the first clean row."""
    rows = [list(r) for r in rows]
    clean = [r for r in rows if r and any(c.strip() for c in r)]
    for kind, pos in faults if clean else []:
        pos %= len(rows)
        if kind == "duplicate":
            rows.insert(pos, list(clean[0]))
        elif len(rows[pos]) == len(header):
            rows[pos] = inject_fault(kind, rows[pos], fmt)
    return as_text(header, rows, delim)


@pytest.mark.parametrize("fmt", ["long", "wide"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_multi_fault_files_match_oracle(fmt, data):
    header, rows, delim = data.draw(price_rows(fmt))
    faults = data.draw(
        st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 50)), min_size=1, max_size=4)
    )
    check_against_oracle(faulty_text(header, rows, delim, fmt, faults), fmt)


@pytest.mark.parametrize("fmt", ["long", "wide"])
@pytest.mark.parametrize("first,second", list(itertools.permutations(FAULTS, 2)))
def test_first_fault_in_file_order_wins(fmt, first, second):
    if fmt == "long":
        header = ["date", "asset", "price"]
        rows = [[f"2015-01-0{5 + j}", a, f"{10 + j}.5"] for j in range(4) for a in ("AAA", "BBB")]
    else:
        header = ["date", "AAA", "BBB"]
        rows = [[f"2015-01-0{5 + j}", f"{10 + j}.5", "20.0"] for j in range(8)]
    text = faulty_text(header, rows, ",", fmt, [(first, 2), (second, 5)])
    got = outcome(load_prices, io.StringIO(text), fmt)
    assert_same_outcome(got, outcome(load_prices_oracle, text, fmt))
    assert FAULT_MESSAGES[first] in str(got)


@pytest.mark.parametrize(
    ("fmt", "text"),
    [
        ("long", 'date,asset,price\n2015-01-05,"A\nB",1.0\n2015-01-06,AAA,bad\n'),
        ("wide", 'date,"A\nB",CCC\n2015-01-05,1.0,2.0\n2015-01-06,bad,2.0\n'),
    ],
    ids=["long", "wide"],
)
def test_fault_after_quoted_line_break_names_its_physical_line(fmt, text):
    check_against_oracle(text, fmt)
    with pytest.raises(ParseError, match="unparsable price") as err:
        load_prices(io.StringIO(text), fmt=fmt)
    assert err.value.line_number == 4


def test_metadata_fault_after_quoted_line_break_names_its_physical_line():
    with pytest.raises(ParseError) as err:
        load_metadata(io.StringIO('asset,category\n"A\nB",Tech\nCCC\n'))
    assert err.value.line_number == 4


# np.loadtxt reads what csv reads only when its body is prepared; one case per trap.
LOADTXT_TRAPS = {
    "cr_line_ends": ("wide", "date,AAA,BBB\r2015-01-05,1,2\r2015-01-06,,3\r2015-01-07,2,NA\r"),
    "whitespace_lines": ("long", "date,asset,price\n  \n2015-01-05,AAA,1\n\t\n2015-01-06,AAA,2\n , , \n"
                                 '"",""\n2015-01-07,BBB,3\n \x0b'),
    "wide_blank_rows": ("wide", "date,AAA,BBB\n , ,\n2015-01-05,1,2\n,,\n2015-01-06,1,2\n\"\",\" \",\n"
                                "2015-01-07,1,3\n"),
    "comment_char": ("long", "date,asset,price\n2015-01-05,#AAA,1\n2015-01-06,#AAA,2\n2015-01-07,B#,3\n"),
    "comment_price": ("wide", "date,AAA,BBB\n2015-01-05,1,2\n2015-01-06,#2,2\n2015-01-07,1,3\n"),
    "quoted_delimiter": ("long", 'date,asset,price\n2015-01-05,"A,B",1\n"2015-01-06","A,B","2"\n'
                                 "2015-01-07,C,3\n"),
    "quoted_line_break": ("long", 'date,asset,price\n2015-01-05,"A\nB",1\n2015-01-06,"A\nB",2\n'
                                  '"2015-01-07\n",C,"3\n"\n'),
    "quoted_missing": ("wide", 'date,AAA,BBB\n2015-01-05,1,""\n2015-01-06,"NA",2\n2015-01-07,"\n",3\n'
                               '2015-01-08,"5\n",3\n'),
    "quoted_cell_holding_missing": ("wide", 'date\tAAA\n2015-01-06\t"\n \t"NA"\n2015-01-07\t1\n'),
    "extra_fields": ("long", "date,asset,price\n2015-01-05,AAA,1,x,\n2015-01-06,AAA,2,\n2015-01-07,BBB,3\n"),
    "long_name": ("long", f"date,asset,price\n2015-01-05,{'Z' * 300},1\n2015-01-06,{'Z' * 300},2\n"
                          "2015-01-07,BBB,3\n"),
    "padded_texts": ("long", "date\tasset\tprice\n 2015-01-05 \t AAA\t 1.5 \n2015-01-06\tAAA\t\x0b2\x1c\n"
                             "2015-01-07\tBBB\t3\n"),
    "signed_nan": ("wide", "date,AAA,BBB\n2015-01-05,1,2\n2015-01-06,-nan,2\n2015-01-07,1,3\n"),
    "unclosed_quote": ("wide", 'date,AAA\n2015-01-05,1\n2015-01-06,1\n2015-01-07,"\n'),
    "one_asset_wide": ("wide", "date,AAA\n2015-01-05,1\n2015-01-06,\n2015-01-07,2\n"),
}


@pytest.mark.parametrize(("fmt", "text"), LOADTXT_TRAPS.values(), ids=LOADTXT_TRAPS.keys())
def test_loadtxt_trap_matches_oracle(fmt, text):
    want = outcome(load_prices_oracle, text.replace("\r", "\n"), fmt)  # the oracle counts LF lines only
    assert_same_outcome(outcome(load_prices, io.BytesIO(text.encode()), fmt), want)


@pytest.fixture
def loadtxt_dtypes(monkeypatch):
    """The dtype of each np.loadtxt call made while the test runs."""
    calls, real = [], np.loadtxt

    def spy(*args, **kwargs):
        calls.append(np.dtype(kwargs["dtype"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


def test_wide_missing_cells_are_read_in_one_pass(loadtxt_dtypes):
    text = 'date,AAA,BBB\n2015-01-05,1,\n2015-01-06,NA,2\n2015-01-07, na ,""\n2015-01-08,2,3\n'
    got = load_prices(io.StringIO(text), fmt="wide")
    assert len(loadtxt_dtypes) == 1
    assert_same_outcome(got, load_prices_oracle(text, "wide"))


def test_text_columns_widen_only_to_their_own_cells(loadtxt_dtypes):
    name = "ACME_HOLDINGS_PLC_ORD"  # 21 characters, more than the first guess of 16
    rows = [f"2015-01-{j:02d},{asset},{j}" for j in range(5, 25) for asset in (name, "B")]
    rows[3] += "," + "x" * 5000  # an extra trailing field, which no column reads
    text = "date,asset,price\n" + "\n".join(rows) + "\n"
    got = load_prices(io.StringIO(text))
    assert got.assets == (name, "B")
    widths = [{k: dtype[k].itemsize for k in ("date", "asset")} for dtype in loadtxt_dtypes]
    assert widths == [{"date": 16, "asset": 16}, {"date": 16, "asset": 32}]


@pytest.mark.parametrize("fmt", ["long", "wide"])
@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(min_value=5e-324, allow_infinity=False), min_size=3, max_size=8))
def test_17_digit_prices_read_back_bit_identical(fmt, values):
    values = [x for x in EDGE_FLOATS if 0.0 < x < math.inf] + values
    dates = [dt.date(2015, 1, 1) + dt.timedelta(days=j) for j in range(len(values))]
    if fmt == "long":
        text = "date,asset,price\n" + "".join(f"{t},AAA,{x:.17g}\n{t},BBB,1\n" for t, x in zip(dates, values))
    else:
        text = "date,AAA,BBB\n" + "".join(f"{t},{x:.17g},1\n" for t, x in zip(dates, values))
    p = load_prices(io.StringIO(text), fmt=fmt)
    assert p.prices[0].tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize("cell", ["1_0", "\uff11\uff12", "\u00a05", "5\u3000"])
@pytest.mark.parametrize("fmt", ["long", "wide"])
def test_price_cells_are_ascii_decimal_floats(fmt, cell):
    if fmt == "long":
        text = f"date,asset,price\n2015-01-05,AAA,1\n2015-01-06,AAA,{cell}\n2015-01-07,AAA,2\n"
    else:
        text = f"date,AAA\n2015-01-05,1\n2015-01-06,{cell}\n2015-01-07,2\n"
    with pytest.raises(ParseError, match="unparsable price") as err:
        load_prices(io.StringIO(text), fmt=fmt)
    assert err.value.line_number == 3
    assert_same_outcome(outcome(load_prices, io.StringIO(text), fmt), outcome(load_prices_oracle, text, fmt))


@pytest.mark.parametrize("row", ["\u3000", "\u00a0,\u00a0"])
def test_row_of_non_ascii_whitespace_is_not_blank(row):
    text = f"date,AAA\n2015-01-05,1\n{row}\n2015-01-06,1\n2015-01-07,2\n"
    with pytest.raises(ParseError) as err:
        load_prices(io.StringIO(text), fmt="wide")
    assert err.value.line_number == 3
    assert_same_outcome(outcome(load_prices, io.StringIO(text), "wide"), outcome(load_prices_oracle, text, "wide"))


def test_nul_byte_is_a_parse_error():
    with pytest.raises(ParseError, match="NUL byte") as err:
        load_prices(io.BytesIO(b"date,asset,price\n2015-01-05,AAA,1\n2015-01-06,A\0,1\n"))
    assert err.value.line_number == 3


# --- calendar alignment

FRI = dt.date(2015, 1, 9)
SUN = dt.date(2015, 1, 11)
MON = dt.date(2015, 1, 12)
TUE = dt.date(2015, 1, 13)


def test_align_empty_rules_is_identity():
    p = panel([[10, 11, 12], [20, 21, 22]])
    q = align_calendar(p, [])
    assert q.dates == p.dates
    assert np.array_equal(q.prices, p.prices)


def test_align_moves_sunday_to_preceding_friday():
    p = panel(
        [[None, 5.0, 6.0, 6.1], [3.0, None, 3.5, 3.6]],
        assets=("SUN", "OTH"),
        dates=(FRI, SUN, MON, TUE),
    )
    q = align_calendar(p, [ShiftRule(assets=("SUN",), source="sunday", target="friday")])
    # Sunday's observation lands on Friday and the empty Sunday column drops.
    assert q.dates == (FRI, MON, TUE)
    i = q.assets.index("SUN")
    assert q.prices[i, 0] == 5.0


def test_align_collision_keeps_target_day_value():
    p = panel(
        [[4.0, 5.0, 6.0, 6.1], [3.0, None, 3.5, 3.6]],
        assets=("SUN", "OTH"),
        dates=(FRI, SUN, MON, TUE),
    )
    q = align_calendar(p, [ShiftRule(assets=("SUN",), source=6, target=4)])
    i = q.assets.index("SUN")
    assert q.dates == (FRI, MON, TUE)
    assert q.prices[i, 0] == 4.0  # Friday retained, shifted Sunday value dropped


def test_align_unknown_asset_rejected():
    p = panel([[10, 11, 12], [20, 21, 22]])
    rule = ShiftRule(assets=("GHOST",), source=6, target=4)
    with pytest.raises(ConfigurationError):
        align_calendar(p, [rule])


def test_align_conflicting_rules_rejected():
    p = panel([[10, 11, 12], [20, 21, 22]], assets=("X", "Y"))
    rules = [
        ShiftRule(assets=("X",), source=6, target=4),
        ShiftRule(assets=("X",), source=6, target=3),
    ]
    with pytest.raises(ConfigurationError):
        align_calendar(p, rules)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_align_calendar_matches_oracle(data):
    n = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(3, 16))
    start = dt.date(2015, 1, 5) + dt.timedelta(days=data.draw(st.integers(0, 6)))
    grid = data.draw(
        st.lists(
            st.lists(st.one_of(st.none(), st.floats(1.0, 9.0)), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    p = panel(grid, dates=days(d, start))
    sources = data.draw(st.lists(st.integers(0, 6), max_size=3, unique=True))
    rules = [
        ShiftRule(
            assets=tuple(data.draw(st.lists(st.sampled_from(p.assets), max_size=n))),
            source=source,
            target=data.draw(st.integers(0, 6).filter(lambda t, s=source: t != s)),
        )
        for source in sources
    ]
    assert_same_outcome(outcome(align_calendar, p, rules), outcome(align_calendar_oracle, p, rules))


def test_shift_rule_validation():
    with pytest.raises(ConfigurationError):
        ShiftRule(assets=("X",), source="sunday", target="sunday")
    with pytest.raises(ConfigurationError):
        ShiftRule(assets=("X",), source="noday", target="friday")
    with pytest.raises(ConfigurationError):
        ShiftRule(assets=("X",), source=7, target=4)


# --- forward fill and trimming

def test_forward_fill_fills_gaps_with_last_price():
    p = panel([[10, None, None, 11], [1, 1, 1, 1]])
    q = forward_fill(p)
    assert list(q.prices[0]) == [10, 10, 10, 11]
    assert list(q.prices[1]) == [1, 1, 1, 1]


def test_forward_fill_identity_when_complete():
    p = panel([[10, 11, 12], [20, 21, 22]])
    q = forward_fill(p)
    assert np.array_equal(q.prices, p.prices)


def test_forward_fill_keeps_leading_gap():
    p = panel([[None, 5, 6], [7, 8, 9]])
    q = forward_fill(p)
    assert math.isnan(q.prices[0, 0])  # leading gap stays missing
    assert list(q.prices[0, 1:]) == [5, 6]
    assert list(q.prices[1]) == [7, 8, 9]
    with pytest.raises(InsufficientDataError):
        trim_to_common_range(q)  # only 2 common dates survive here
    wide = panel([[None, 5, 6, 7], [7, 8, 9, 10]])
    trimmed = trim_to_common_range(forward_fill(wide))
    assert trimmed.n_dates == 3
    assert trimmed.dates == wide.dates[1:]


def test_forward_fill_idempotent():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = rng.integers(2, 6)
        d = rng.integers(3, 12)
        grid = rng.uniform(1.0, 50.0, size=(n, d))
        holes = rng.random((n, d)) < 0.3
        holes[:, 0] = False  # keep a first observation per asset
        grid[holes] = np.nan
        p = panel(grid.tolist())
        once = forward_fill(p)
        twice = forward_fill(once)
        assert np.array_equal(once.prices, twice.prices, equal_nan=True)


def test_forward_fill_rejects_empty_asset():
    p = panel([[None, None, None], [1, 2, 3]])
    with pytest.raises(InsufficientDataError) as err:
        forward_fill(p)
    assert "A0" in str(err.value)


# --- log returns

def test_log_returns_are_log_ratios():
    e = math.e
    p = panel([[1.0, e, e**2], [1.0, 1.0, 1.0]])
    rm = log_returns(p)
    assert np.allclose(rm.values[0], [1.0, 1.0])
    assert np.allclose(rm.values[1], [0.0, 0.0])
    assert rm.n_observations == p.n_dates - 1
    assert rm.dates == p.dates[1:]


def test_log_returns_constant_prices_zero():
    p = panel([[7, 7, 7, 7], [3, 3, 3, 3]])
    assert not log_returns(p).values.any()


def test_log_returns_single_interval():
    # a 2-date panel is barred by the panel invariant (D >= 3), so the
    # one-observation case runs as delta_t = 2 over three dates
    e = math.e
    p = panel([[1.0, e, e**2], [2.0, 2.0, 2.0]])
    rm = log_returns(p, delta_t=2)
    assert rm.values.shape == (2, 1)
    assert np.isclose(rm.values[0, 0], 2.0)


def test_log_returns_delta_t_bounds():
    p = panel([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(InsufficientDataError):
        log_returns(p, delta_t=3)
    for bad in (0, -1, 1.5):
        with pytest.raises(ConfigurationError):
            log_returns(p, delta_t=bad)


def test_log_returns_reject_missing_cells():
    p = panel([[1, None, 3], [4, 5, 6]])
    with pytest.raises(ValidationError):
        log_returns(p)


def test_log_returns_exponential_growth_constant_rows():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = rng.uniform(-0.05, 0.05)
        p0 = rng.uniform(1.0, 100.0)
        d = int(rng.integers(5, 20))
        delta = int(rng.integers(1, 4))
        prices = p0 * np.exp(g * np.arange(d))
        p = panel([prices.tolist(), (2 * prices).tolist()])
        rm = log_returns(p, delta_t=delta)
        assert np.allclose(rm.values, g * delta)


# --- normalization

def test_normalize_two_point_row():
    nr = normalize_returns(returns([[1.0, 3.0], [0.0, 2.0]]))
    assert np.allclose(nr.values[0], [-1.0, 1.0])


def test_normalize_fixed_point():
    row = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2 / 3)
    nr = normalize_returns(returns([row.tolist(), [1.0, 2.0, 0.0]]))
    assert np.abs(nr.values[0] - row).max() < 1e-12


def test_normalize_zero_variance_names_asset():
    with pytest.raises(ZeroVarianceError) as err:
        normalize_returns(returns([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]], assets=("FLAT", "OK")))
    assert "FLAT" in str(err.value)
    assert err.value.assets == ["FLAT"]


def test_normalize_random_panels_unit_moments():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        t = int(rng.integers(2, 60))
        vals = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4.0), size=(n, t))
        nr = normalize_returns(returns(vals))
        assert np.abs(nr.values.mean(axis=1)).max() < 1e-12
        assert np.abs(nr.values.std(axis=1) - 1.0).max() < 1e-12


def test_normalized_rows_reject_nan():
    # NaN fails every comparison, so a "> 1e-12" check alone lets it through
    unit = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2 / 3)
    with pytest.raises(ValidationError, match="mean 0"):
        NormalizedReturns(assets=("A", "B"), dates=days(3), values=[[np.nan] * 3, unit])


def test_normalize_recentres_a_steady_drift():
    # 0.01 per step plus 1e-9 noise: after scaling the tiny deviations up,
    # the row means sit ~1e-9 off 0 until the rows are centred again
    steps = 0.01 + 1e-9 * np.random.default_rng(0).standard_normal((3, 300))
    rm = log_returns(panel(np.exp(np.cumsum(steps, axis=1)).tolist()))
    nr = normalize_returns(rm)
    assert np.abs(nr.values.mean(axis=1)).max() <= 1e-12
    assert np.abs(nr.values.std(axis=1) - 1.0).max() <= 1e-12


def test_normalize_keeps_centred_rows_bit_identical():
    # rows that pass the mean check are not centred again, so C keeps its bits
    rm = log_returns(prices_from_returns(generate(PAPER_SCAN, seed=1)[0]))
    means, stds = rm.values.mean(axis=1), rm.values.std(axis=1)
    plain = NormalizedReturns(rm.assets, rm.dates, (rm.values - means[:, None]) / stds[:, None])
    nr = normalize_returns(rm)
    assert np.array_equal(nr.values, plain.values)
    assert np.array_equal(correlation_matrix(nr).values, correlation_matrix(plain).values)


def test_zero_variance_listing_and_drop():
    rm = returns([[1, 1, 1], [1, 2, 3], [4, 4, 4]], assets=("P", "Q", "R"))
    with pytest.raises(ZeroVarianceError) as err:
        normalize_returns(rm)
    assert err.value.assets == ["P", "R"]
    kept = drop_assets(rm, ["P"])
    assert kept.assets == ("Q", "R")
    with pytest.raises(InsufficientDataError):
        drop_assets(rm, ["P", "Q"])
