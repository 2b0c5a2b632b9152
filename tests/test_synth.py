"""Synthetic market generator: determinism, planted truth, analytic oracle."""

import datetime as dt
import json

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eigensectors import (
    BlockSpec,
    ConfigurationError,
    MarketSpec,
    NormalizedReturns,
    PricePanel,
    correlation_matrix,
    eigendecompose,
    generate,
    load_market_spec,
    load_prices,
    log_returns,
    metadata_from_truth,
    mp_bounds,
    normalize_returns,
    population_correlation,
    prices_from_returns,
    select_components,
    write_panel_wide,
)
from eigensectors.synth import MAX_OBSERVATIONS, MAX_SCALE, asset_names, spec_from_dict, truth_to_dict
from helpers import EDGE_FLOATS, days, spectrum_of, write_panel_wide_oracle

ONE_BLOCK = MarketSpec(
    n_assets=50,
    n_observations=2000,
    market_strength=1.0,
    blocks=(
        BlockSpec(
            assets=tuple(range(20)),
            loading=1.0,
            sign_pattern=(1,) * 10 + (-1,) * 10,
            name="Planted",
        ),
    ),
)


# ------------------------------------------------------------------ generation


def test_generate_shapes_names_dates():
    nr, _ = generate(MarketSpec(n_assets=7, n_observations=40, market_strength=0.5), seed=1)
    assert nr.values.shape == (7, 40)
    assert nr.assets == asset_names(7)
    assert len(nr.dates) == 40
    assert all(d.weekday() < 5 for d in nr.dates)
    assert all(a < b for a, b in zip(nr.dates, nr.dates[1:]))
    assert nr.dates[0] == dt.date(2000, 1, 4)
    assert np.abs(nr.values.mean(axis=1)).max() < 1e-12
    assert np.abs(nr.values.std(axis=1) - 1.0).max() < 1e-12


def test_generate_dates_skip_the_weekend():
    nr, _ = generate(MarketSpec(n_assets=3, n_observations=6), seed=0)
    # Tuesday 2000-01-04 to Friday 2000-01-07, then Monday 2000-01-10
    assert nr.dates == tuple(dt.date(2000, 1, d) for d in (4, 5, 6, 7, 10, 11))


@pytest.mark.parametrize(
    ("first", "before"),
    [
        (dt.date(2000, 1, 10), dt.date(2000, 1, 7)),  # Monday: the Friday before
        (dt.date(2000, 1, 11), dt.date(2000, 1, 10)),  # Tuesday: the Monday before
        (dt.date(2000, 1, 8), dt.date(2000, 1, 7)),  # Saturday: that Friday
        (dt.date(2000, 1, 9), dt.date(2000, 1, 7)),  # Sunday: that Friday
    ],
    ids=["mon", "tue", "sat", "sun"],
)
def test_prices_start_on_the_weekday_before_the_first_return(first, before):
    dates = (first,) + tuple(first + dt.timedelta(days=j) for j in (3, 4))
    nr = NormalizedReturns(("A", "B"), dates, np.array([[1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]]) * 1.5**0.5)
    assert prices_from_returns(nr).dates == (before,) + dates


def test_generate_is_deterministic():
    a, truth_a = generate(ONE_BLOCK, seed=4)
    b, truth_b = generate(ONE_BLOCK, seed=4)
    c, _ = generate(ONE_BLOCK, seed=5)
    assert a.values.tobytes() == b.values.tobytes()
    assert truth_a == truth_b
    assert a.values.tobytes() != c.values.tobytes()
    # a seed is judged by the library's integer rule: a numpy or integral float seed is that seed
    assert generate(ONE_BLOCK, seed=np.int64(4))[0].values.tobytes() == a.values.tobytes()
    assert generate(ONE_BLOCK, seed=4.0)[1] == truth_a
    for bad in (float("nan"), float("inf"), None):
        with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
            generate(ONE_BLOCK, seed=bad)


def test_ground_truth_records_planting():
    spec = MarketSpec(
        n_assets=12,
        n_observations=100,
        market_strength=0.7,
        noise_std=1.5,
        blocks=(
            BlockSpec(assets=(0, 3, 5), loading=2.0, sign_pattern=(1, -1, 1), name="Metals"),
            BlockSpec(assets=(6, 7), loading=1.0),
        ),
    )
    _, truth = generate(spec, seed=9)
    assert truth.market_strength == 0.7
    assert truth.noise_std == 1.5
    assert truth.seed == 9
    named, default = truth.blocks
    assert named.name == "Metals"
    assert named.assets == (0, 3, 5)
    assert named.positive == (0, 5)
    assert named.negative == (3,)
    assert named.loading == 2.0
    # unnamed block gets a positional name; no sign pattern means all positive
    assert default.name == "BLK1"
    assert default.positive == (6, 7)
    assert default.negative == ()


def test_noise_only_market_fits_reference_band():
    law = mp_bounds(10.0)
    for seed in range(3):
        nr, truth = generate(MarketSpec(n_assets=100, n_observations=1000), seed=seed)
        assert truth.blocks == []
        w = spectrum_of(nr).eigenvalues
        outside = np.mean((w < law.lambda_min) | (w > law.lambda_max))
        assert outside <= 0.02


def test_planted_block_recovered_across_seeds():
    block = set(ONE_BLOCK.blocks[0].assets)
    for seed in range(3):
        nr, _ = generate(ONE_BLOCK, seed=seed)
        part = select_components(spectrum_of(nr), 1, 0.15)
        assert set(part.positive) | set(part.negative) == block
        assert len(part.positive) == len(part.negative) == 10


# ------------------------------------------------------------ analytic oracle


def test_population_identity_for_pure_noise():
    c = population_correlation(MarketSpec(n_assets=5, n_observations=100))
    assert np.array_equal(c.values, np.eye(5))
    assert c.n_observations == 100


def test_population_one_factor_analytics():
    # rho = m^2/(m^2 + sigma^2) off the diagonal; top eigenvalue 1 + (N-1) rho
    n = 50
    c = population_correlation(MarketSpec(n_assets=n, n_observations=100, market_strength=1.0))
    off = c.values[~np.eye(n, dtype=bool)]
    assert np.allclose(off, 0.5, atol=1e-12)
    spec = eigendecompose(c)
    assert spec.eigenvalues[0] == pytest.approx(1 + (n - 1) * 0.5, abs=1e-9)
    assert np.allclose(spec.eigenvalues[1:], 0.5, atol=1e-9)
    top = spec.vector(0)
    assert np.allclose(top, 1.0 / np.sqrt(n), atol=1e-9)


def test_population_opposite_signs_anticorrelate():
    spec = MarketSpec(
        n_assets=2,
        n_observations=100,
        blocks=(BlockSpec(assets=(0, 1), loading=2.0, sign_pattern=(1, -1)),),
    )
    c = population_correlation(spec)
    assert c.values[0, 1] == pytest.approx(-0.8, abs=1e-12)  # -g^2/(g^2 + 1)


def test_population_matrices_are_valid_correlations():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(4, 30))
        cut = int(rng.integers(2, n))
        members = tuple(int(i) for i in rng.choice(n, size=cut, replace=False))
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=cut))
        spec = MarketSpec(
            n_assets=n,
            n_observations=50,
            market_strength=float(rng.uniform(0.0, 2.0)),
            noise_std=float(rng.uniform(0.5, 2.0)),
            blocks=(BlockSpec(assets=members, loading=float(rng.uniform(0.5, 3.0)), sign_pattern=signs),),
        )
        # constructor checks symmetry/diagonal/range; decomposition checks PSD
        eigendecompose(population_correlation(spec))


def test_empirical_matrix_converges_to_population():
    target = population_correlation(ONE_BLOCK).values
    bound = 5.0 / np.sqrt(ONE_BLOCK.n_observations)
    worst = 0.0
    for seed in range(10):
        nr, _ = generate(ONE_BLOCK, seed=seed)
        c = correlation_matrix(nr)
        worst = max(worst, float(np.abs(c.values - target).max()))
    assert worst < bound


# ------------------------------------------------------------- configuration


@pytest.mark.filterwarnings("error")
def test_generate_at_the_largest_scales():
    # every scale at MAX_SCALE: the rows standardize with no overflow
    spec = MarketSpec(
        n_assets=5,
        n_observations=100,
        market_strength=MAX_SCALE,
        noise_std=MAX_SCALE,
        blocks=(BlockSpec(assets=(0, 1), loading=MAX_SCALE, sign_pattern=(1, -1)),),
    )
    nr, _ = generate(spec, seed=0)
    assert np.isfinite(nr.values).all()


def test_spec_validation():
    bad = [
        dict(n_assets=1, n_observations=100),
        dict(n_assets=5, n_observations=2),
        dict(n_assets=5, n_observations=100, market_strength=-0.1),
        dict(n_assets=5, n_observations=100, noise_std=0.0),
        # NaN compares False, so a plain "< 0" check lets it through
        dict(n_assets=5, n_observations=100, market_strength=float("nan")),
        dict(n_assets=5, n_observations=100, market_strength=float("inf")),
        dict(n_assets=5, n_observations=100, noise_std=float("nan")),
        dict(n_assets=5, n_observations=100, noise_std=float("inf")),
        # finite, but the squares that standardize the rows would overflow
        dict(n_assets=5, n_observations=100, market_strength=1e160),
        dict(n_assets=5, n_observations=100, market_strength=1e300),
        dict(n_assets=5, n_observations=100, noise_std=1e300),
        # positive, but the squares of the noise would underflow
        dict(n_assets=5, n_observations=100, noise_std=1e-160),
        dict(n_assets=5, n_observations=100, noise_std=1e-300),
        # the weekday dates of the returns would run past 9999-12-31
        dict(n_assets=5, n_observations=MAX_OBSERVATIONS + 1),
        # the sizes are integers, refused at construction rather than inside the draw
        dict(n_assets=3.5, n_observations=100),
        dict(n_assets=None, n_observations=100),
        dict(n_assets=5, n_observations=100.5),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigurationError):
            MarketSpec(**kwargs)
    with pytest.raises(ConfigurationError, match="market_strength must be >= 0 and <= 1e"):
        MarketSpec(n_assets=5, n_observations=100, market_strength=1e160)
    with pytest.raises(ConfigurationError, match=r"noise_std must be >= 1e-100 and <= 1e\+100"):
        MarketSpec(n_assets=5, n_observations=100, noise_std=1e-300)
    generate(MarketSpec(n_assets=5, n_observations=50, noise_std=1 / MAX_SCALE))  # the smallest noise runs
    spec = MarketSpec(n_assets=12.0, n_observations=np.int64(50))  # whole sizes are stored as ints
    assert (type(spec.n_assets), type(spec.n_observations)) == (int, int)
    bad_blocks = [
        BlockSpec(assets=(0, 1), loading=0.0),
        BlockSpec(assets=(0, 1), loading=float("nan")),
        BlockSpec(assets=(0, 1), loading=float("inf")),
        BlockSpec(assets=(0, 1), loading=1e300),
        BlockSpec(assets=(), loading=1.0),
        BlockSpec(assets=(0, 0), loading=1.0),
        BlockSpec(assets=(0, 9), loading=1.0),
        # an index is an integer (0.5 below), refused at construction rather than inside the draw
        BlockSpec(assets=(float("nan"), 1), loading=1.0),
        BlockSpec(assets=(None, 1), loading=1.0),
        BlockSpec(assets=(0, 1), loading=1.0, sign_pattern=(1,)),
        BlockSpec(assets=(0, 1), loading=1.0, sign_pattern=(1, 0)),
    ]
    for block in bad_blocks:
        with pytest.raises(ConfigurationError):
            MarketSpec(n_assets=5, n_observations=100, blocks=(block,))
    with pytest.raises(ConfigurationError, match=r"block 0: asset index must be a non-negative integer, got 0\.5"):
        MarketSpec(n_assets=5, n_observations=100, blocks=(BlockSpec(assets=(0.5, 1), loading=1.0),))
    spec = MarketSpec(n_assets=5, n_observations=50, blocks=(BlockSpec(assets=(0.0, np.int64(1)), loading=1.0),))
    assert [type(i) for i in spec.blocks[0].assets] == [int, int]  # whole indices are stored as ints
    assert generate(spec)[1].blocks[0].assets == (0, 1)
    with pytest.raises(ConfigurationError, match="overlap"):
        MarketSpec(
            n_assets=5,
            n_observations=100,
            blocks=(
                BlockSpec(assets=(0, 1), loading=1.0),
                BlockSpec(assets=(1, 2), loading=1.0),
            ),
        )


def test_spec_from_dict_round_trip():
    cfg = {
        "n_assets": 10,
        "n_observations": 200,
        "market_strength": 0.8,
        "noise_std": 1.2,
        "blocks": [
            {"assets": [0, 1, 2], "loading": 1.5, "sign_pattern": [1, -1, 1], "name": "X"},
            {"assets": [5, 6], "loading": 2.0},
        ],
    }
    spec = spec_from_dict(cfg)
    assert spec == MarketSpec(
        n_assets=10,
        n_observations=200,
        market_strength=0.8,
        noise_std=1.2,
        blocks=(
            BlockSpec(assets=(0, 1, 2), loading=1.5, sign_pattern=(1, -1, 1), name="X"),
            BlockSpec(assets=(5, 6), loading=2.0),
        ),
    )
    assert spec_from_dict({"n_assets": 3, "n_observations": 10}) == MarketSpec(3, 10)


def test_spec_from_dict_errors():
    with pytest.raises(ConfigurationError, match="missing key"):
        spec_from_dict({"n_observations": 100})
    with pytest.raises(ConfigurationError, match="bad market config value"):
        spec_from_dict({"n_assets": "many", "n_observations": 100})
    with pytest.raises(ConfigurationError, match="missing key"):
        spec_from_dict({"n_assets": 5, "n_observations": 100, "blocks": [{"assets": [0]}]})


@pytest.mark.parametrize(
    "cfg",
    [
        {"n_assets": 5, "n_observations": 1e400},  # JSON's 1e400 parses as inf
        {"n_assets": 5.5, "n_observations": 100},
        {"n_assets": 5, "n_observations": 100.5},
        {"n_assets": 5, "n_observations": 100, "blocks": [{"assets": [0, 1.5], "loading": 1.0}]},
        {"n_assets": 5, "n_observations": 100,
         "blocks": [{"assets": [0, 1], "loading": 1.0, "sign_pattern": [1, -1.5]}]},
        {"n_assets": True, "n_observations": 100},  # JSON's true is no number, nor is "12"
        {"n_assets": "12", "n_observations": 100},
        {"n_assets": 5, "n_observations": 100, "blocks": [{"assets": [0, True], "loading": 1.0}]},
        {"n_assets": 5, "n_observations": 100, "blocks": [{"assets": [0, 1], "loading": True}]},
        {"n_assets": 5, "n_observations": 100, "market_strength": "0.5"},
        {"n_assets": 5, "n_observations": 100, "noise_std": True},
        # only a JSON string names a block
        {"n_assets": 5, "n_observations": 100, "blocks": [{"assets": [0], "loading": 1.0, "name": True}]},
        {"n_assets": 5, "n_observations": 100, "blocks": [{"assets": [0], "loading": 1.0, "name": 5}]},
        {"n_assets": 5, "n_observations": 100, "blocks": [{"assets": [0], "loading": 1.0, "name": None}]},
    ],
    ids=["infinite_count", "fractional_assets", "fractional_observations", "fractional_index",
         "fractional_sign", "boolean_assets", "string_assets", "boolean_index", "boolean_loading",
         "string_market_strength", "boolean_noise_std", "boolean_name", "number_name", "null_name"],
)
def test_spec_from_dict_wants_whole_numbers(cfg):
    with pytest.raises(ConfigurationError, match="bad market config value"):
        spec_from_dict(cfg)
    # an integral float still reads as its integer
    assert spec_from_dict({"n_assets": 5.0, "n_observations": 100}) == MarketSpec(5, 100)


def test_generate_too_large_a_grid_is_out_of_memory():
    with pytest.raises(MemoryError, match="does not fit"):
        generate(MarketSpec(n_assets=10**20, n_observations=5))


def test_load_market_spec(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps({"n_assets": 4, "n_observations": 50}))
    assert load_market_spec(path) == (MarketSpec(4, 50), 0)
    path.write_text(json.dumps({"n_assets": 4, "n_observations": 50, "seed": 9}))
    assert load_market_spec(path) == (MarketSpec(4, 50), 9)
    for seed in ('"x"', "2.5", "true", '"12"'):
        path.write_text(f'{{"n_assets": 4, "n_observations": 50, "seed": {seed}}}')
        with pytest.raises(ConfigurationError, match="bad market config value"):
            load_market_spec(path)
    # no number of the document may be non-finite, not even one that names a block
    for field in ('"seed": 1e400', '"seed": NaN', '"market_strength": Infinity',
                  '"blocks": [{"assets": [0], "loading": 1.0, "name": NaN}]'):
        path.write_text(f'{{"n_assets": 4, "n_observations": 50, {field}}}')
        with pytest.raises(ConfigurationError, match="must be finite"):
            load_market_spec(path)
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="JSON"):
        load_market_spec(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="object"):
        load_market_spec(path)


# ------------------------------------------------------------------- export


def test_prices_round_trip_through_returns():
    nr, _ = generate(MarketSpec(n_assets=4, n_observations=60, market_strength=0.5), seed=2)
    panel = prices_from_returns(nr)
    assert panel.prices.shape == (4, 61)
    assert np.all(panel.prices > 0)
    assert panel.dates[1:] == nr.dates
    assert panel.dates[0] < nr.dates[0]
    assert panel.dates[0].weekday() < 5
    back = normalize_returns(log_returns(panel, 1))
    assert np.abs(back.values - nr.values).max() < 1e-10
    assert back.dates == nr.dates


def test_panel_wide_file_round_trip(tmp_path):
    nr, _ = generate(MarketSpec(n_assets=3, n_observations=20), seed=6)
    panel = prices_from_returns(nr)
    path = tmp_path / "panel.csv"
    write_panel_wide(panel, path)
    loaded = load_prices(path, fmt="wide")
    assert loaded.assets == panel.assets
    assert loaded.dates == panel.dates
    assert np.array_equal(loaded.prices, panel.prices)


def test_panel_wide_preserves_missing_cells(tmp_path):
    nr, _ = generate(MarketSpec(n_assets=3, n_observations=20), seed=6)
    panel = prices_from_returns(nr)
    panel.prices[1, 4] = np.nan
    path = tmp_path / "panel.csv"
    write_panel_wide(panel, path)
    loaded = load_prices(path, fmt="wide")
    assert np.isnan(loaded.prices[1, 4])
    assert np.isnan(loaded.prices).sum() == 1


CELLS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))


@st.composite
def price_grids(draw):
    """Any float grid, with an independent NaN mask, so some date rows are mostly empty."""
    shape = (draw(st.integers(2, 6)), draw(st.integers(3, 30)))
    grid = draw(arrays(np.float64, shape, elements=CELLS))
    grid[draw(arrays(np.bool_, shape))] = np.nan
    return grid


def _gappy(n, t, gaps=()):
    grid = 100.0 + np.arange(n * t).reshape(n, t) / 7.0
    for i, j in gaps:
        grid[i, j] = np.nan
    return grid


def _assert_panel_matches_oracle(grid, directory):
    n, t = grid.shape
    assets = ("nan", *asset_names(n)[1:])  # a name that the missing-cell rewrite must not touch
    panel = PricePanel(assets=assets, dates=days(t), prices=np.ones((n, t)))
    panel.prices = grid  # the writer formats any float; PricePanel rejects some of these
    write_panel_wide(panel, directory / "panel.csv")
    write_panel_wide_oracle(panel, directory / "oracle.csv")
    assert (directory / "panel.csv").read_bytes() == (directory / "oracle.csv").read_bytes()


@pytest.mark.parametrize(
    "grid",
    [
        _gappy(4, 6, [(0, 1), (3, 1), (0, 4), (3, 5)]),
        _gappy(5, 4, [(1, 2), (2, 2), (3, 2), (0, 3), (1, 3)]),
        _gappy(6, 5, [(i, 3) for i in range(6) if i != 2]),
        _gappy(3, 4, [(i, 2) for i in range(3)]),
        np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]),
        _gappy(2, 3000, [(0, 0), (1, 1), (0, 2999)]),
    ],
    ids=["nan_first_and_last_asset", "adjacent_nans", "mostly_nan_row", "all_nan_row",
         "edge_values", "two_assets_long"],
)
def test_panel_wide_matches_oracle_cases(tmp_path, grid):
    _assert_panel_matches_oracle(grid, tmp_path)


@settings(max_examples=150, deadline=None)
@given(grid=price_grids())
def test_panel_wide_matches_oracle(grid):
    with tempfile.TemporaryDirectory() as directory:
        _assert_panel_matches_oracle(grid, Path(directory))


def test_metadata_and_truth_serialization():
    spec = MarketSpec(
        n_assets=5,
        n_observations=100,
        blocks=(BlockSpec(assets=(1, 3), loading=1.0, sign_pattern=(1, -1), name="Energy"),),
    )
    nr, truth = generate(spec, seed=0)
    assert metadata_from_truth(truth, nr.assets) == {"A001": "Energy", "A003": "Energy"}
    d = truth_to_dict(truth, nr.assets)
    assert d["seed"] == 0
    assert d["blocks"] == [
        {
            "name": "Energy",
            "assets": ["A001", "A003"],
            "positive": ["A001"],
            "negative": ["A003"],
            "loading": 1.0,
        }
    ]


def test_asset_name_widths():
    assert asset_names(5) == ("A000", "A001", "A002", "A003", "A004")
    names = asset_names(1500)
    assert names[0] == "A0000" and names[-1] == "A1499"
    assert len(set(names)) == 1500
