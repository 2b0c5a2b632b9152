import codecs
import csv
import datetime as dt
import io
import itertools
import math
import os
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eigensectors.timeseries as ts
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


@pytest.mark.parametrize("fmt", ["long", "wide"])
def test_empty_price_file_is_a_parse_error(fmt):
    with pytest.raises(ParseError) as err:
        load_prices(io.BytesIO(b""), fmt)
    assert str(err.value) == "line 1: empty input"


def test_wide_header_with_only_a_date_column_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        load_prices(io.StringIO("date\n2015-01-05\n2015-01-06\n"), "wide")
    assert str(err.value) == "line 1: wide header needs a date column plus asset columns"


def test_load_prices_on_a_missing_path_is_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_prices(tmp_path / "nope.csv")


@pytest.fixture
def indexed(monkeypatch):
    """The keys of each _index call made while the test runs."""
    calls, real = [], ts._index

    def spy(texts, key):
        keys, position = real(texts, key)
        calls.append(keys)
        return keys, position

    monkeypatch.setattr(ts, "_index", spy)
    return calls


@pytest.mark.parametrize("blank_row", [False, True], ids=["loadtxt", "csv"])
def test_long_row_with_an_empty_asset_is_a_parse_error(indexed, blank_row):
    """loadtxt reads the empty cell, and _index's keys hold it; a whitespace-only row,
    which loadtxt rejects, sends the file to csv before any _index call."""
    rows = ["2015-01-05,AAA,1", "2015-01-05,,2", "2015-01-06,AAA,2", "2015-01-07,AAA,3"]
    if blank_row:
        rows.insert(2, "   ")
    with pytest.raises(ParseError) as err:
        load_prices(long_csv(rows))
    assert str(err.value) == "line 3: empty asset identifier"
    assert indexed == [] if blank_row else "" in indexed[0]  # the asset column's keys


def test_header_only_wide_file_matches_oracle(loadtxt_dtypes):
    """The decimal route reads a body of no lines as an empty table, so no float pass runs."""
    check_against_oracle("date,AAA,BBB\n", "wide")
    assert loadtxt_dtypes == []


@pytest.mark.parametrize(
    ("assets", "prices", "message"),
    [
        (("A", "A"), np.ones((2, 3)), "duplicate asset identifiers"),
        (("A", "B"), np.ones((3, 2)), r"price grid shape \(3, 2\) != \(2, 3\)"),
        (("A", "B"), [[1, 2, 3], [1, 0, 3]], "non-positive prices"),
    ],
    ids=["duplicate_assets", "grid_shape", "non_positive_price"],
)
def test_panel_rejects_an_invalid_grid(assets, prices, message):
    with pytest.raises(ValidationError, match=message):
        PricePanel(assets=assets, dates=days(3), prices=prices)


def test_normalized_rows_reject_a_std_other_than_1():
    unit = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2 / 3)
    with pytest.raises(ValidationError, match="std 1"):
        NormalizedReturns(assets=("A", "B"), dates=days(3), values=[unit, 2 * unit])


@pytest.mark.parametrize("route", ["loadtxt", "csv"])
def test_wide_assets_with_no_price_are_named_in_one_warning(monkeypatch, route):
    def fail(*args):  # a ValueError sends the file on to the csv route, any other ends the test
        raise (ValueError if route == "csv" else AssertionError)(f"the file was not read by {route}")

    monkeypatch.setattr(ts, "_read_rows" if route == "loadtxt" else "_table", fail)
    text = "date,A,B,C,D\n2015-01-05,1,,2,\n2015-01-06,2,,3,NA\n2015-01-07,3,NA,1,\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p = load_prices(io.StringIO(text), fmt="wide")
        assert load_prices(io.StringIO(text.replace("NA,1,", "NA,1,4")), fmt="wide").assets == ("A", "C", "D")
        assert load_prices(io.StringIO(text.replace(",,", ",5,")), fmt="wide").assets == ("A", "B", "C")
    assert p.assets == ("A", "C")
    assert p.prices.tolist() == [[1.0, 2.0, 3.0], [2.0, 3.0, 1.0]]
    assert [str(w.message) for w in caught] == [f"assets with no price left out: {x}" for x in ("B, D", "B", "D")]


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


LIMIT_WIDE = [["date", "AAA", "BBB"], ["2015-01-05", "1", "2"], ["2015-01-06", "1", "2"], ["2015-01-07", "3", "2"],
              ["2015-01-08", "1", "3"]]
LIMIT_LONG = [["date", "asset", "price"], ["2015-01-05", "AAA", "1"], ["2015-01-06", "AAA", "2"],
              ["2015-01-07", "BBB", "3"], ["2015-01-08", "BBB", "4"]]
# column -> (layout, rows, the index of the column whose cell in row 3 is padded)
LIMIT_FILES = {
    "wide_price": ("wide", LIMIT_WIDE, 1),
    "long_price": ("long", LIMIT_LONG, 2),
    "long_asset": ("long", LIMIT_LONG, 1),
    "long_date": ("long", LIMIT_LONG, 0),
}


@pytest.mark.parametrize("style", ["unquoted", "quoted", "quoted_lf", "quoted_tab", "quoted_commas"])
@pytest.mark.parametrize("column", sorted(LIMIT_FILES))
@pytest.mark.parametrize("length", [65535, 65536, 131071, 131072, 131073])
def test_cell_at_the_field_size_limit_matches_oracle(length, column, style):
    """A cell of length characters, its text padded (around a line break or a tab when so
    styled, or with every other character a comma), reads as the oracle reads it; where
    csv's limit rejects it, as a ParseError."""
    fmt, rows, col = LIMIT_FILES[column]
    rows = [list(row) for row in rows]
    text = rows[3][col]
    pad = length - len(text)
    if style == "quoted_commas":  # a comma in every block: only _table's field width can tell
        cell = (", " * pad)[:pad] + text
    else:  # the tab style pads with \x1c, which str.strip and loadtxt's float parse drop too
        inner, fill = {"quoted_lf": ("\n", " "), "quoted_tab": ("\t", "\x1c")}.get(style, (" ", " "))
        cell = fill * (pad // 2) + inner + fill * (pad - 1 - pad // 2) + text
    rows[3][col] = cell if style == "unquoted" else quoted(cell)
    delim = "\t" if style == "quoted_tab" else ","
    file = "".join(delim.join(row) + "\n" for row in rows)
    try:
        want = outcome(load_prices_oracle, file, fmt)
    except csv.Error as exc:
        assert length > ts._FIELD_LIMIT and "field larger than field limit" in str(exc)
        with pytest.raises(ParseError, match=r"field larger than field limit \(131072\)"):
            load_prices(io.StringIO(file), fmt)
        return
    assert length <= ts._FIELD_LIMIT
    assert_same_outcome(outcome(load_prices, io.StringIO(file), fmt), want)


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
LONG_NAME = "Z" * 300  # wider than a text column's 16-byte field


def outcome(fn, *args):
    """fn(*args), or the EigensectorsError it raises, and the text of each warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except EigensectorsError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


def assert_same_outcome(got, want):
    """got and want are the same panel or error, and give the same warnings. Each is an
    outcome or a bare panel or error, which gave none."""
    got, got_warnings = got if isinstance(got, tuple) else (got, [])
    want, want_warnings = want if isinstance(want, tuple) else (want, [])
    assert got_warnings == want_warnings
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
    """The loader reads text as the oracle does from memory, and from a file, with each line end."""
    want = outcome(load_prices_oracle, text, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        for end in ("\n", "\r\n", "\r"):  # the oracle splits on LF only; the loader takes any line end
            path.write_bytes(text.replace("\n", end).encode())
            assert_same_outcome(outcome(load_prices, path, fmt), want)
            if end != "\n":
                assert_same_outcome(outcome(load_prices, io.BytesIO(path.read_bytes()), fmt), want)
    got = outcome(load_prices, io.StringIO(text), fmt)
    assert_same_outcome(got, want)
    if isinstance(want[0], Exception):
        return
    for step, oracle in ((forward_fill, forward_fill_oracle), (trim_to_common_range, trim_oracle)):
        want, got = outcome(oracle, want[0]), outcome(step, got[0])
        assert_same_outcome(got, want)
        if isinstance(want[0], Exception):
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
    assert FAULT_MESSAGES[first] in str(got[0])


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


# Files that np.loadtxt reads otherwise than csv does, or not at all; one case per trap.
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
    # the wide table is the grid unless a date is priced on two rows, which csv reads
    "wide_repeated_date_complementary": ("wide", "date,AAA,BBB\n2015-01-05,1,\n2015-01-06,1,2\n2015-01-05,,2\n"
                                                 "2015-01-07,1,3\n"),
    "wide_repeated_date_duplicate": ("wide", "date,AAA,BBB\n2015-01-05,1,2\n2015-01-06,1,2\n2015-01-05,3,\n"
                                             "2015-01-07,1,3\n"),
    "wide_repeated_empty_row": ("wide", "date,AAA,BBB\n2015-01-05,1,2\n2015-01-06,,\n2015-01-06,NA,\n"
                                        "2015-01-07,1,3\n2015-01-08,2,2\n"),
    "wide_priced_then_empty_row": ("wide", "date,AAA,BBB\n2015-01-05,1,2\n2015-01-06,1,2\n2015-01-06,,\n"
                                           "2015-01-07,1,3\n"),
    "wide_unordered_dates": ("wide", "date,AAA,BBB\n2015-01-07,1,3\n2015-01-05,1,\n2015-01-09,,4\n"
                                     "2015-01-06,2,2\n"),
    # plain bodies, of digits, dots, signs, delimiters and LF only, which the decimal route reads when it can
    "dotted_date": ("wide", "date,AAA,BBB\n2015.01.05,1,2\n2015-01-06,1,2\n2015-01-07,1,3\n"),  # 20150105 is a date
    "dotted_date_end": ("wide", "date,AAA,BBB\n20150105.,1,2\n2015-01-06,1,2\n2015-01-07,1,3\n"),
    **{f"plain_cell_{name}": ("wide", f"date,AAA,BBB\n2015-01-05,1,2\n2015-01-06,{cell},2\n2015-01-07,1,3\n")
       for name, cell in {"two_dots": "1.2.3", "lone_dot": ".", "lone_plus": "+", "lone_minus": "-",
                          "leading_dot": ".5", "trailing_dot": "5.", "signed_leading_dot": "+.5",
                          "sign_after_dot": ".+5", "negative_zero": "-0.0", "19_digits": "1234567890123456789",
                          "19_digits_with_a_dot": "1.234567890123456789", "23_decimals": "0." + "0" * 22 + "1",
                          "int64_minimum": "-9223372036854775808", "18_nines": "99999999999999999.9",
                          "19_digits_led_by_0": "0.078855913067573072", "19_digits_led_by_00": "00123456789012345678",
                          "signed_19_digits_led_by_0": "+0.078855913067573072",
                          "20_digits_led_by_0": "0.0788559130675730721"}.items()},
    "plain_blank_line": ("wide", "date,AAA,BBB\n2015-01-05,1.5,2\n\n2015-01-06,1,2\n2015-01-07,1,3\n"),
    "plain_no_final_line_end": ("wide", "date,AAA,BBB\n2015-01-05,1.5,2\n2015-01-06,1,2\n2015-01-07,1,3.25"),
    "plain_tab_delimiter": ("wide", "date\tAAA\tBBB\n2015-01-05\t1.5\t2\n2015-01-06\t+1\t.2\n2015-01-07\t1\t3.\n"),
    "plain_short_row": ("wide", "date,AAA,BBB\n2015-01-05,1.5,2\n2015-01-06,1\n2015-01-07,1,3,\n"),
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


@pytest.fixture
def rewrites(monkeypatch):
    """The body handed to each _with_nan call made while the test runs."""
    calls, real = [], ts._with_nan

    def spy(body, delim):
        calls.append(body)
        return real(body, delim)

    monkeypatch.setattr(ts, "_with_nan", spy)
    return calls


@pytest.fixture
def no_row_pass(monkeypatch):
    """Fail the test if the loader falls back to reading the file one csv row at a time."""

    def fail(*args):
        pytest.fail("the file was read one csv row at a time")

    monkeypatch.setattr(ts, "_read_rows", fail)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("delim", [",", "\t"])
def test_wide_empty_and_na_cells_are_read_by_loadtxt_alone(loadtxt_dtypes, rewrites, no_row_pass, delim, end):
    rows = [["date", "AAA", "BBB", "CCC"], ["2015-01-05", "1", "", ""], ["2015-01-06", "NA", "2", "NA"],
            ["2015-01-07", "", "NA", ""], ["2015-01-08", "2", "3", "4"], ["2015-01-09", "NA", "NA", ""]]
    text = end.join(delim.join(r) for r in rows)  # the last cell is empty, with no line end after it
    got = load_prices(io.StringIO(text), fmt="wide")
    assert len(loadtxt_dtypes) == 2  # the file as written, then with its missing cells as nan
    assert len(rewrites) == 1
    assert_same_outcome(got, load_prices_oracle(text.replace("\r", ""), "wide"))


def plain_wide_text(rows=1100, assets=25, low=0.1, high=1000):
    """A wide file of '%.17g' prices drawn from [low, high), with no missing cell, of
    more than two blocks of the decimal route. Above 0.1 each has at most 18 digits."""
    prices = np.random.default_rng(rows).uniform(low, high, (rows, assets))
    lines = [f"{t}," + ",".join(f"{x:.17g}" for x in row) for t, row in zip(days(rows), prices.tolist())]
    text = "\n".join(["date," + ",".join(f"A{i:02d}" for i in range(assets)), *lines, ""])
    assert len(text) > 2 * ts._BLOCK
    return text, prices


def test_plain_wide_file_is_read_by_int64_passes_alone(tmp_path, loadtxt_dtypes, rewrites, no_row_pass):
    text, prices = plain_wide_text()
    path = tmp_path / "prices.csv"
    path.write_text(text)
    got = load_prices(path, "wide")
    assert len(loadtxt_dtypes) >= 3  # one pass a block
    assert all(dtype["price"].base == np.int64 for dtype in loadtxt_dtypes)
    assert rewrites == []
    assert got.prices.tobytes() == prices.T.tobytes()
    assert_same_outcome(got, load_prices_oracle(text, "wide"))


def test_plain_wide_file_of_prices_below_a_tenth_is_read_by_int64_passes_alone(loadtxt_dtypes, no_row_pass):
    """'%.17g' writes such a price with 19 digits, the first of them 0, which int64 holds."""
    text, prices = plain_wide_text(low=0.01, high=0.1)
    assert max(len(f"{x:.17g}") for x in prices.ravel().tolist()) == 20  # '0.0' and 17 digits
    got = load_prices(io.StringIO(text), "wide")
    assert loadtxt_dtypes and all(dtype["price"].base == np.int64 for dtype in loadtxt_dtypes)
    assert got.prices.tobytes() == prices.T.tobytes()
    assert got.prices.tobytes() == load_prices_oracle(text, "wide").prices.tobytes()


@pytest.mark.parametrize(
    "last",
    [",", ",NA", ",1e2", ",1.5E+2", ",1234567890123456789", ",0.00000000000000000000001", "\n7"],
    ids=["gap", "NA", "exponent", "signed_exponent", "19_digits", "23_decimals", "split_row"],
)
def test_wide_file_that_is_not_plain_makes_no_int64_pass(loadtxt_dtypes, last):
    """The body is judged whole before any pass, so its last cell keeps the file off the decimal route."""
    text, _ = plain_wide_text()
    text = text[: text.rindex(",")] + last + "\n"
    assert_same_outcome(outcome(load_prices, io.StringIO(text), "wide"), outcome(load_prices_oracle, text, "wide"))
    assert loadtxt_dtypes and all(dtype["price"].base == float for dtype in loadtxt_dtypes)


def regex_calls(fn, *args):
    """fn(*args), and the name of each method of a compiled regex that it called."""
    calls, outer = [], sys.getprofile()

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), re.Pattern):
            calls.append(arg.__name__)

    sys.setprofile(profile)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(outer)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_regular_long_file_is_one_loadtxt_pass_and_no_regex_search(loadtxt_dtypes, no_row_pass, end):
    rows = [f"2015-01-{j:02d},{asset},{j}.5" for j in range(5, 25) for asset in ("AAA", "BBB")]
    text = end.join(["date,asset,price", *rows]) + end
    got, calls = regex_calls(load_prices, io.BytesIO(text.encode()))
    assert len(loadtxt_dtypes) == 1
    # match is anchored to the header line; finditer stops at the header's line end
    assert calls and set(calls) <= {"match", "finditer"}
    assert_same_outcome(got, load_prices_oracle(text.replace("\r", ""), "long"))


@pytest.fixture
def csv_reads(monkeypatch):
    """The arguments of each call to the csv reference reader made while the test runs."""
    calls, real = [], ts._read_rows

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ts, "_read_rows", spy)
    return calls


def test_text_cell_that_fills_its_field_sends_the_file_to_csv(loadtxt_dtypes, csv_reads):
    name = "ACME_HOLDINGS_PLC_ORD"  # 21 characters, more than a text field's 16 bytes
    rows = [f"2015-01-{j:02d},{asset},{j}" for j in range(5, 25) for asset in (name, "B")]
    rows[3] += "," + "x" * 5000  # an extra trailing field, which no column reads
    text = "date,asset,price\n" + "\n".join(rows) + "\n"
    got = load_prices(io.StringIO(text))
    assert got.assets == (name, "B")
    widths = [{k: dtype[k].itemsize for k in ("date", "asset")} for dtype in loadtxt_dtypes]
    assert widths == [{"date": 16, "asset": 16}]  # one loadtxt pass, then csv
    assert len(csv_reads) == 1
    assert_same_outcome(got, load_prices_oracle(text, "long"))


def text_file(fmt, name, rows, date_width=10):
    """A price file in which name is an asset, each date cell is padded to date_width, and
    the long layout lists name on its first row alone."""
    dates = [f"{dt.date(1950, 1, 1) + dt.timedelta(days=i)}".rjust(date_width) for i in range(rows)]
    if fmt == "long":
        return "date,asset,price\n" + "".join(
            f"{dates[i // 2]},{'B%05d' % (i % 2) if i else name},{i % 7 + 1}\n" for i in range(rows)
        )
    return f"date,{name},B\n" + "".join(f"{t},{i % 7 + 1},{i % 5 + 1}\n" for i, t in enumerate(dates))


@pytest.mark.parametrize("length", [15, 16, 17, 300])
@pytest.mark.parametrize("fmt", ["long", "wide"])
def test_text_cells_of_any_length_match_oracle(loadtxt_dtypes, csv_reads, fmt, length):
    """A text cell of 16 bytes or more, an asset in the long layout and a padded date in the
    wide one, may be cut by its 16-byte field, so csv reads the file."""
    text = text_file(fmt, "N" * length, 12, date_width=length if fmt == "wide" else 10)
    assert_same_outcome(load_prices(io.StringIO(text), fmt), load_prices_oracle(text, fmt))
    assert bool(csv_reads) == (length >= 16)
    check_against_oracle(text, fmt)  # from a file too, and with each line end
    assert {dtype[k].itemsize for dtype in loadtxt_dtypes for k in dtype.names if dtype[k].kind == "S"} == {16}


def test_wide_file_with_a_cut_date_goes_to_csv_after_one_pass(loadtxt_dtypes, rewrites, csv_reads):
    """A padded date fills its field; loadtxt rejects no row, so no missing cell is rewritten."""
    text = text_file("wide", "A", 12, date_width=16)
    assert_same_outcome(outcome(load_prices, io.StringIO(text), "wide"), outcome(load_prices_oracle, text, "wide"))
    assert (len(loadtxt_dtypes), len(rewrites), len(csv_reads)) == (1, 0, 1)


def test_wide_file_with_a_cell_over_the_field_limit_is_not_read_by_loadtxt(loadtxt_dtypes, rewrites):
    text = f"date,AAA,BBB\n2015-01-05,1,\n2015-01-06,1,2\n2015-01-07,{BIG},3\n"
    with pytest.raises(csv.Error, match=r"field larger than field limit \(131072\)"):
        load_prices_oracle(text, "wide")
    with pytest.raises(ParseError, match=r"field larger than field limit \(131072\)") as err:
        load_prices(io.StringIO(text), "wide")
    assert err.value.line_number == 4
    assert (len(loadtxt_dtypes), len(rewrites)) == (0, 0)


@pytest.mark.parametrize("route", ["load_prices", "_read_rows"])
@pytest.mark.parametrize("fmt", ["long", "wide"])
def test_one_long_name_costs_no_copy_per_row(fmt, route):
    """A 2000-character name, on one row of a long file or in a wide header, is not
    copied to every row: 20000 rows load in a few MB."""
    name = "N" * 2000
    data = text_file(fmt, name, 20_000).encode()
    header = ["date", "asset", "price"] if fmt == "long" else ["date", name, "B"]
    load = {"load_prices": lambda: load_prices(io.BytesIO(data), fmt),
            "_read_rows": lambda: ts._read_rows(data, ",", fmt, header, [0, 1, 2] if fmt == "long" else [0])}
    tracemalloc.start()
    try:
        load[route]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"{peak / 2**20:.1f} MiB"


def test_clean_wide_file_is_read_into_the_grid_itself(tmp_path, no_row_pass):
    """A clean wide file costs, beyond its bytes, under three panels of memory and a
    quarter: the table, the grid, which is the panel's own prices, and blocks of the
    body's bytes, with no index array per cell."""
    prices = np.random.default_rng(0).uniform(1, 100, (120, 1500))
    path = tmp_path / "wide.csv"
    lines = [f"{t}," + ",".join(map(repr, row)) for t, row in zip(days(1500), prices.T.tolist())]
    path.write_text("\n".join(["date," + ",".join(f"A{i:03d}" for i in range(120)), *lines, ""]))
    load_prices(path, "wide")  # the first load imports what numpy imports lazily
    tracemalloc.start()
    try:
        panel = load_prices(path, "wide")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(panel.prices, prices)
    panels = (peak - path.stat().st_size) / panel.prices.nbytes
    assert panels <= 3.25, f"{panels:.2f} panels beyond the file's bytes"


@pytest.mark.parametrize("delim", [",", "\t"])
def test_regular_file_with_a_short_last_block_is_read_by_loadtxt(no_row_pass, delim):
    # 3275 rows of 20 bytes, then a row whose price runs past the first block of 65536 bytes,
    # so the short block after it holds no delimiter
    rows = [f"2015-01-{5 + i % 3:02d},A{i // 3:05d},1" for i in range(3275)]
    rows.append("2015-01-08,A00000,1." + "0" * 100)
    text = "".join(delim.join(row.split(",")) + "\n" for row in ["date,asset,price", *rows])
    assert_same_outcome(load_prices(io.StringIO(text)), load_prices_oracle(text, "long"))


@pytest.fixture
def loadtxt_sources(monkeypatch):
    """The source handed to each np.loadtxt call made while the test runs, with its skiprows."""
    calls, real = [], np.loadtxt

    def spy(fname, *args, **kwargs):
        calls.append((fname, kwargs.get("skiprows", 0)))
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


LONG_ROWS = "".join(f"2015-01-{j:02d},{asset},{j}.5\n" for j in range(5, 25) for asset in ("AAA", "BBB"))


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_regular_file_is_handed_to_loadtxt_by_path_unless_it_holds_a_cr(tmp_path, loadtxt_sources, end):
    path = tmp_path / "prices.csv"
    path.write_bytes(("date,asset,price\n" + LONG_ROWS).replace("\n", end).encode())
    got = load_prices(path)
    if end == "\n":
        assert loadtxt_sources == [(os.fspath(path), 1)]
    else:  # text mode would read each CR as LF
        assert [type(source) for source, _ in loadtxt_sources] == [io.BytesIO]
    assert_same_outcome(got, load_prices(io.BytesIO(path.read_bytes())))


def test_plain_text_file_with_a_compressed_suffix_is_read_from_memory(tmp_path, loadtxt_sources):
    path = tmp_path / "prices.csv.gz"  # numpy would open it with gzip
    path.write_text("date,asset,price\n" + LONG_ROWS)
    got = load_prices(path)
    assert [type(source) for source, _ in loadtxt_sources] == [io.BytesIO]
    assert_same_outcome(got, load_prices(io.StringIO(path.read_text())))


@pytest.mark.parametrize(
    ("fmt", "text", "header_lines"),
    [
        ("long", 'date,asset,price,"note\nspanning\nlines"\n' + LONG_ROWS.replace("\n", ",x\n"), 3),
        # an exponent keeps the wide file off the decimal route; a wide file is read from memory alone,
        # from the end of its header
        ("wide", 'date,"AA\nA",BBB\n' + "".join(f"2015-01-{j:02d},{j},15e-1\n" for j in range(5, 25)), 0),
    ],
    ids=["long", "wide"],
)
def test_file_with_a_byte_order_mark_and_a_multi_line_header_skips_its_physical_lines(
    tmp_path, loadtxt_sources, fmt, text, header_lines
):
    path = tmp_path / "prices.csv"
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    got = load_prices(path, fmt)
    sources = [(source if isinstance(source, str) else type(source), skip) for source, skip in loadtxt_sources]
    assert sources == [(os.fspath(path) if fmt == "long" else io.BytesIO, header_lines)]
    assert_same_outcome(got, load_prices(io.BytesIO(path.read_bytes()), fmt))
    assert_same_outcome(got, load_prices_oracle(text, fmt))


def pipe_path(tmp_path, kind):
    """A path that reads from a pipe, and the raw file descriptor to close afterwards, if any."""
    if kind == "named_pipe":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        path = tmp_path / "prices.csv"
        os.mkfifo(path)
        return path, lambda: os.open(path, os.O_WRONLY), None
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd on this platform")
    read_end, write_end = os.pipe()  # as a shell's process substitution <(...) hands one over
    return Path(f"/dev/fd/{read_end}"), lambda: write_end, read_end


@pytest.mark.parametrize("kind", ["named_pipe", "process_substitution"])
def test_pipe_is_read_once(tmp_path, kind):
    days = [dt.date(2010, 1, 1) + dt.timedelta(days=j) for j in range(4000)]
    text = "date,asset,price\n" + "".join(f"{t},{a},{t.day}.5\n" for t in days for a in ("A", "B"))
    assert len(text) > 65536  # more than a pipe buffer holds
    path, open_writer, read_end = pipe_path(tmp_path, kind)

    def write():
        with os.fdopen(open_writer(), "w") as pipe:
            pipe.write(text)

    result = {}
    writer = threading.Thread(target=write, daemon=True)
    reader = threading.Thread(target=lambda: result.update(got=outcome(load_prices, path, "long")), daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=20)
    blocked = reader.is_alive()
    if blocked and kind == "named_pipe":  # a second open waits for a writer: let it see one that writes nothing
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
    reader.join(timeout=20)
    writer.join(timeout=20)
    if read_end is not None:
        os.close(read_end)
    assert not blocked, "the loader opened the pipe a second time"
    assert_same_outcome(result["got"], load_prices(io.StringIO(text)))


def change_before_loadtxt(monkeypatch, path, change, row):
    """Make each np.loadtxt call first change the file at path: grown by row, replaced by
    a new file of the same bytes, or touched."""
    real, text = np.loadtxt, path.read_text()

    def rewrite_then_load(fname, *args, **kwargs):
        if change == "grown":
            path.write_text(text + row)
        elif change == "replaced":  # the same bytes in a new file moved over the old one
            (path.parent / "new.csv").write_text(text)
            os.replace(path.parent / "new.csv", path)
        else:
            os.utime(path, ns=(0, path.stat().st_mtime_ns + 10**9))
        return real(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", rewrite_then_load)


@pytest.mark.parametrize("change", ["grown", "replaced", "touched"])
def test_file_that_changes_before_loadtxt_reads_it_is_a_parse_error(tmp_path, monkeypatch, change):
    path = tmp_path / "prices.csv"
    path.write_text("date,asset,price\n" + LONG_ROWS)
    change_before_loadtxt(monkeypatch, path, change, "2015-01-26,AAA,9\n")
    with pytest.raises(ParseError, match="changed while it was read") as err:
        load_prices(path)
    assert "\n" not in str(err.value)


WIDE_BODIES = {  # one for each wide route: the decimal route, the float pass, and the float pass after a rewrite
    "plain": "".join(f"2015-01-{j:02d},{j},1.5\n" for j in range(5, 25)),
    "exponent": "".join(f"2015-01-{j:02d},{j},15e-1\n" for j in range(5, 25)),
    "empty_cells": "".join(f"2015-01-{j:02d},{j},{'' if j % 3 else 2}\n" for j in range(5, 25)),
}


@pytest.mark.parametrize("body", ["exponent", "empty_cells"])
def test_regular_wide_file_is_read_once(tmp_path, loadtxt_sources, no_row_pass, body):
    """loadtxt reads a wide file's bytes from memory, so it never opens the file again."""
    path = tmp_path / "prices.csv"
    path.write_text("date,AAA,BBB\n" + WIDE_BODIES[body])
    got = load_prices(path, "wide")
    passes = 1 if body == "exponent" else 2  # the file as written, then with its missing cells as nan
    assert [(type(source), skip) for source, skip in loadtxt_sources] == [(io.BytesIO, 0)] * passes
    assert_same_outcome(got, load_prices_oracle(path.read_text(), "wide"))


@pytest.mark.parametrize("change", ["grown", "replaced", "touched"])
@pytest.mark.parametrize("body", sorted(WIDE_BODIES))
def test_wide_file_that_changes_before_loadtxt_reads_it_loads_the_bytes_read_first(
    tmp_path, monkeypatch, body, change
):
    path = tmp_path / "prices.csv"
    text = "date,AAA,BBB\n" + WIDE_BODIES[body]
    path.write_text(text)
    change_before_loadtxt(monkeypatch, path, change, "2015-01-26,9,9\n")
    assert_same_outcome(outcome(load_prices, path, "wide"), outcome(load_prices_oracle, text, "wide"))


# cells of 140000 characters or more with a delimiter in every block, as csv reads them
OVER_LIMIT_CELLS = {
    "commas": "x," * 70_000,
    "line_break_every_64k": "\n".join(("x," * 70_000)[i : i + 65536] for i in range(0, 140_000, 65536)),
    "doubled_quotes": ("x," * 500 + '""') * 140,  # each doubled quote is one character
}


@pytest.mark.parametrize("stray_quote", [False, True], ids=["quoted", "stray_quote"])
@pytest.mark.parametrize("style", sorted(OVER_LIMIT_CELLS))
def test_quoted_cell_over_the_field_limit_in_an_unread_column_is_a_parse_error(tmp_path, style, stray_quote):
    cell = OVER_LIMIT_CELLS[style]
    first = '2015-01-05,A"A,1\n' if stray_quote else "2015-01-05,AAA,1\n"  # csv keeps a quote inside a cell
    text = "date,asset,price\n" + first + f'2015-01-06,AAA,2\n2015-01-07,BBB,3,"{cell}"\n2015-01-08,BBB,4\n'
    with pytest.raises(csv.Error, match=r"field larger than field limit \(131072\)"):
        load_prices_oracle(text, "long")
    path = tmp_path / "prices.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=r"field larger than field limit \(131072\)") as err:
        load_prices(io.StringIO(text))
    assert_same_outcome(outcome(load_prices, path, "long"), err.value)
    if style == "commas":  # a CR would lengthen a cell with line breaks, so only this one is read at every line end
        assert err.value.line_number == 4
        # the same file with the cell at the limit loads as csv reads it
        check_against_oracle(text.replace(cell, cell[: ts._FIELD_LIMIT]), "long")


def index_by_sorting(texts, key):
    """_index's result by a sort of every text."""
    distinct, inverse = np.unique(texts, return_inverse=True)
    keys = [key(t) for t in distinct.tolist()]
    ordered = sorted(set(keys))
    return ordered, np.array([ordered.index(k) for k in keys], np.intp)[inverse.ravel()]


def assert_same_index(texts, key):
    got, want = ts._index(texts, key), index_by_sorting(texts, key)
    assert got[0] == want[0]
    assert got[1].dtype == np.intp and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("width", range(1, 10))
def test_index_of_bytes_matches_a_sort(width):
    """Cells of 1 to width bytes in loadtxt's 16-byte field, scattered, in runs and sorted;
    a cell of 16 bytes may have been cut, so it is a ValueError. Also runs whose heads
    already rise strictly in _index's order of cells (as little-endian integers up to 8
    bytes wide, else as bytes), the same with a last run that falls back, and one cell."""
    rng = np.random.default_rng(width)
    pool = ["".join(rng.choice(list("AZ09 ."), rng.integers(1, width + 1))) for _ in range(40)]
    pool += ["A", " A", "A "][: width]  # padded twins share a key
    scattered = rng.choice(pool, 500)
    runs = np.repeat(rng.choice(pool, 60), rng.integers(1, 6, 60))
    little = max(map(len, pool)) <= 8
    rising = sorted(set(pool), key=(lambda t: int.from_bytes(t.encode(), "little")) if little else None)
    rising_runs = np.repeat(rising, rng.integers(1, 4, len(rising)))
    falling_last = np.append(rising_runs, rising[0])
    for texts in (scattered, runs, np.sort(scattered), rising_runs, falling_last, pool[:1]):
        cells = np.array([t.encode() for t in texts], dtype="S16")
        assert_same_index(cells, ts._text)
        assert_same_index(cells[::3], ts._text)  # a strided column
        cells[len(cells) // 2] = b"A" * 16
        with pytest.raises(ValueError, match="may have been cut"):
            ts._index(cells, ts._text)
    assert_same_index(np.array([], dtype="S16"), ts._text)


@pytest.mark.parametrize("order", ["date", "asset"])
def test_long_file_of_names_one_to_nine_bytes_wide_matches_oracle(order):
    names = ["B", "Q9", "ACE", "A.BC", "XYZ12", "LONG_6", "SEVEN77", "EIGHT_88", "NINE_9999"]
    dates = [dt.date(2015, 1, 1) + dt.timedelta(days=j) for j in range(12)]
    cells = [(t, name, f"{1 + i + j / 8:g}") for j, t in enumerate(dates) for i, name in enumerate(names)
             if (i + j) % 5]  # every fifth cell is missing
    if order == "asset":
        cells.sort(key=lambda cell: cell[1])
    text = "date,asset,price\n" + "".join(f"{t},{name},{price}\n" for t, name, price in cells)
    got = load_prices(io.StringIO(text))
    assert got.assets == tuple(sorted(names))
    assert_same_outcome(got, load_prices_oracle(text, "long"))


def test_long_load_numbers_texts_without_an_inverse_sort(monkeypatch):
    """Each text column's run heads are sorted and searched: no argsort, and no np.unique,
    with or without its inverse."""
    calls = []
    for name in ("unique", "argsort", "sort"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _name=name, _real=real, **kw: calls.append(_name) or _real(*a, **kw))
    rows = [f"2015-01-{j:02d},{asset},{j}" for j in range(5, 25) for asset in ("AAA", "BBBBBBBBBB")]
    got = load_prices(io.StringIO("date,asset,price\n" + "\n".join(rows) + "\n"))
    assert calls and set(calls) == {"sort"}
    assert got.assets == ("AAA", "BBBBBBBBBB") and got.n_dates == 20


def test_clean_wide_file_makes_no_signed_nan_search():
    text = "date,AAA,BBB\n" + "".join(f"2015-01-{j:02d},{j}.5,{j}\n" for j in range(5, 25))
    got, calls = regex_calls(load_prices, io.BytesIO(text.encode()), "wide")
    assert "search" not in calls
    assert_same_outcome(got, load_prices_oracle(text, "wide"))


@pytest.mark.parametrize("cell", ["-nan", "+NaN", '"-nan"', " -NAN "])
def test_signed_nan_is_the_csv_readers_fault(cell):
    text = f"date,AAA,BBB\n2015-01-05,1,2\n2015-01-06,,3\n2015-01-07,{cell},2\n2015-01-08,1,3\n"
    with pytest.raises(ParseError, match="unparsable price") as err:
        load_prices(io.StringIO(text), fmt="wide")
    assert err.value.line_number == 4
    assert_same_outcome(outcome(load_prices, io.StringIO(text), "wide"), outcome(load_prices_oracle, text, "wide"))


def with_nan_in_every_pass(body, delim):
    """_with_nan with no pass skipped."""
    d = delim.encode()
    body += b"\n"
    for cell in (b"", b"NA"):
        for end in (d, d, b"\r", b"\n"):
            body = body.replace(d + cell + end, d + b"nan" + end)
    return body


@pytest.mark.parametrize("delim", [",", "\t"])
def test_with_nan_skips_only_passes_that_change_nothing(delim):
    rows = [["2015-01-05", "1", "", ""], ["2015-01-06", "NA", "2", "NA"], ["2015-01-07", "", "NA", ""],
            ["2015-01-08", "2", "3", "4"], ["2015-01-09", "NA", "NA", ""]]
    for kept in (rows, [[c.replace("NA", "") for c in r] for r in rows]):  # with and without NA cells
        lf = "\n".join(delim.join(r) for r in kept).encode()
        crlf = lf.replace(b"\n", b"\r\n")
        assert ts._with_nan(lf, delim) == with_nan_in_every_pass(lf, delim)
        assert ts._with_nan(crlf, delim) == with_nan_in_every_pass(crlf, delim)
        assert ts._with_nan(crlf, delim).replace(b"\r", b"") == ts._with_nan(lf, delim)


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


def assert_scaled_as_float_reads(digits, decimals):
    """_scaled gives each digits * 10**-decimals bit for bit as float() reads the decimal."""
    got = ts._scaled(np.array(digits, np.int64), np.array(decimals, np.int8))
    want = np.array([float(f"{d}e-{k}") for d, k in zip(digits, decimals)])
    assert got.tobytes() == want.tobytes(), [(d, k) for d, k, x, y in zip(digits, decimals, got, want) if x != y]


DECIMALS = st.tuples(
    st.integers(1, 18).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1)) | st.just(0),
    st.integers(0, 22),
    st.sampled_from([1, -1]),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(DECIMALS, min_size=1, max_size=40))
def test_scaled_decimals_are_what_float_reads(cells):
    assert_scaled_as_float_reads([sign * d for d, _, sign in cells], [k for _, k, _ in cells])


def test_scaled_halfway_points_are_what_float_reads():
    """Points exactly halfway between neighbouring doubles, and the decimals one unit in
    their last digit either side. One with at most 18 digits and 22 decimals lies in a
    binade from 2**51 up; trailing zeros add decimals."""
    rng = np.random.default_rng(51)
    digits, decimals = [], []
    for p in range(51, 60):
        for x in 2.0**p * (1 + rng.random(20)):
            half = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
            k = max(0, 53 - p)
            for zeros in range(3):
                d = int(half * 10 ** (k + zeros))
                assert d == half * 10 ** (k + zeros)
                if d + 1 < 10**18:
                    digits += [d - 1, d, d + 1]
                    decimals += [k + zeros] * 3
    assert len(digits) > 300
    assert_scaled_as_float_reads(digits, decimals)


def test_scaled_powers_of_two_and_their_neighbours_are_what_float_reads():
    """Each power of two, exactly and as repr writes it, and each double beside it as repr
    writes it; and the decimals one unit in their last digit either side. Below a power of
    two the gap between doubles is half the gap above it."""
    digits, decimals = [], []
    for j in range(-22, 60):
        x = 2.0**j
        for text in (Decimal(x), repr(x), repr(math.nextafter(x, 0)), repr(math.nextafter(x, math.inf))):
            exact = Decimal(text)
            k = max(0, -exact.as_tuple().exponent)
            d = int(exact.scaleb(k))
            if k <= 22 and d + 1 < 10**18:
                digits += [d - 1, d, d + 1]
                decimals += [k] * 3
    assert len(digits) > 400
    assert_scaled_as_float_reads(digits, decimals)


@pytest.mark.parametrize(
    "digits",
    [715391039848324505, 256 * 5**22 - 34],  # the second just below 2**-14 = 256 * 5**22 * 10**-22
    ids=["inside_a_binade", "below_a_power_of_two"],
)
def test_scaled_cell_that_rounds_wrong_from_its_two_halves_takes_float(digits):
    """With digits = q 5**22 + r, r/5**22 lies below a point halfway between two doubles by
    less than RN(r/5**22) is off, so q + RN(r/5**22) is a tie that rounds away from
    q + r/5**22: only float() of the cell's own digits gives its value. Below a power of
    two the halfway point is a quarter of the gap above it."""
    q, r = divmod(digits, 5**22)
    assert (q + r / 5**22) * 2.0**-22 != float(f"{digits}e-22")
    assert_scaled_as_float_reads([digits], [22])


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(DECIMALS, min_size=3, max_size=12))
def test_plain_decimal_prices_read_as_float_reads_them(cells):
    texts = [f"{d:0{k + 1}d}" for d, k, _ in cells]
    texts = [f"{t[: len(t) - k]}.{t[len(t) - k :]}" if k else t for t, (_, k, _) in zip(texts, cells)]
    dates = [dt.date(2015, 1, 1) + dt.timedelta(days=j) for j in range(len(cells))]
    text = "date,AAA,BBB\n" + "".join(f"{t},{x},1\n" for t, x in zip(dates, texts))
    assert_same_outcome(outcome(load_prices, io.StringIO(text), "wide"), outcome(load_prices_oracle, text, "wide"))


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
    with pytest.raises(ConfigurationError, match=r"weekday out of range 0\.\.6: 7"):
        ShiftRule(assets=("X",), source=7, target=4)
    # a weekday number is an integer: 6.5 is not Sunday
    for bad in (6.5, float("nan"), float("inf"), None):
        with pytest.raises(ConfigurationError, match="weekday must be an integer"):
            ShiftRule(assets=("X",), source=bad, target=4)
    assert ShiftRule(assets=("X",), source=6.0, target=np.int64(4)) == ShiftRule(("X",), "sunday", "friday")


# --- forward fill and trimming

def test_forward_fill_fills_gaps_with_last_price():
    p = panel([[10, None, None, 11], [1, 1, 1, 1]])
    q = forward_fill(p)
    assert list(q.prices[0]) == [10, 10, 10, 11]
    assert list(q.prices[1]) == [1, 1, 1, 1]


def test_forward_fill_identity_when_complete():
    """A panel with no missing cell comes back as it is, its prices bit for bit; one gap still fills."""
    p = panel([[10, 0.1 + 0.2, 12], [20, 21, 22]])
    before = p.prices.copy()
    q = forward_fill(p)
    assert q is p and q.prices.tobytes() == before.tobytes()
    gap = panel([[10, 0.1 + 0.2, None], [20, 21, 22]])
    filled = forward_fill(gap)
    assert filled is not gap and math.isnan(gap.prices[0, 2])
    assert filled.prices[0].tolist() == [10, 0.1 + 0.2, 0.1 + 0.2]


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
    for bad in (0, -1, 1.5, float("nan"), float("inf"), float("-inf"), None):
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
