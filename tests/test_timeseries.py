import datetime as dt
import io
import math

import numpy as np
import pytest

from eigensectors import (
    ConfigurationError,
    InsufficientDataError,
    ParseError,
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

from helpers import days, panel, returns


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


def test_load_wide_ragged_row_reports_line():
    text = "date,AAA,BBB\n2015-01-05,10.0\n"
    with pytest.raises(ParseError) as err:
        load_prices(io.StringIO(text), fmt="wide")
    assert err.value.line_number == 2


def test_load_tab_delimiter_sniffed():
    text = "date\tasset\tprice\n2015-01-05\tAAA\t10.0\n2015-01-06\tAAA\t10.5\n2015-01-05\tBBB\t20.0\n2015-01-06\tBBB\t20.5\n2015-01-07\tAAA\t10.2\n2015-01-07\tBBB\t20.1\n"
    p = load_prices(io.StringIO(text))
    assert p.n_assets == 2 and p.n_dates == 3


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
    assert nr.means[0] == 2.0
    assert nr.stds[0] == 1.0


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
