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
    ParseError,
    PricePanel,
    ShiftRule,
    ValidationError,
    ZeroVarianceError,
    align_calendar,
    drop_assets,
    forward_fill,
    load_metadata,
    load_prices,
    log_returns,
    normalize_returns,
    trim_to_common_range,
    zero_variance_assets,
)

from helpers import (
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
    assert not p.missing_mask().any()
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
    mask = p.missing_mask()
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
    assert p.missing_mask()[0, 1]
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
    ],
    ids=["wide", "long"],
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

MISSING_CELLS = ["", " ", "NA", "na", " NA ", "nan", "NaN"]
PRICE_FORMATS = ["{!r}", "{:.4f}", " {!r} ", "{:g}"]


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
    assert got.first_valid == want.first_valid


@st.composite
def price_rows(draw, fmt):
    """(header, rows, delimiter) of a random small panel in one layout.

    Listings are staggered, cells go missing at random, price and date texts
    vary in format and padding, and long rows come in random order.
    """
    n = draw(st.integers(2, 4))
    d = draw(st.integers(3, 9))
    pool = st.sampled_from(["AAA", "BBB", "CCC", "DDD", "x9"])
    names = draw(st.lists(pool, min_size=n, max_size=n, unique=True))
    offsets = sorted(draw(st.sets(st.integers(0, 40), min_size=d, max_size=d)))
    dates = [dt.date(2015, 1, 1) + dt.timedelta(days=o) for o in offsets]
    date_texts = [draw(st.sampled_from(["{}", " {} "])).format(x) for x in dates]
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
    delim = draw(st.sampled_from([",", "\t"]))
    if fmt == "long":
        header = ["date", "asset", "price"]
        rows = [
            [date_texts[j], draw(st.sampled_from(["{}", " {}"])).format(names[i]), cells[i][j]]
            for i in range(n)
            for j in range(d)
            if cells[i][j] is not None
        ]
        rows = draw(st.permutations(rows))
    else:
        header = ["date", *names]
        missing = st.sampled_from(MISSING_CELLS)
        rows = [
            [date_texts[j]] + [draw(missing) if c[j] is None else c[j] for c in cells]
            for j in range(d)
        ]
    rows = list(rows)
    for _ in range(draw(st.integers(0, 2))):
        blank = draw(st.sampled_from([[], [" "], [""] * len(header)]))
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
    p.first_valid = data.draw(st.sampled_from([None, {"A0": p.dates[0]}]))
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


def test_forward_fill_leading_gap_records_first_valid():
    p = panel([[None, 5, 6], [7, 8, 9]])
    q = forward_fill(p)
    assert math.isnan(q.prices[0, 0])  # leading gap stays missing
    assert q.first_valid["A0"] == q.dates[1]
    assert q.first_valid["A1"] == q.dates[0]
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
        assert once.first_valid == twice.first_valid


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


def test_zero_variance_listing_and_drop():
    rm = returns([[1, 1, 1], [1, 2, 3], [4, 4, 4]], assets=("P", "Q", "R"))
    assert zero_variance_assets(rm) == ["P", "R"]
    kept = drop_assets(rm, ["P"])
    assert kept.assets == ("Q", "R")
    with pytest.raises(InsufficientDataError):
        drop_assets(rm, ["P", "Q"])
