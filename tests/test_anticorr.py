"""Subsector cross-correlation, random baselines, and the mode scan."""

import dataclasses
import itertools

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng
from scipy import stats

from eigensectors import anticorr
from eigensectors import (
    BlockSpec,
    ConfigurationError,
    CorrelationMatrix,
    EigenSpectrum,
    MarketSpec,
    SubsectorPartition,
    block_averages,
    correlation_matrix,
    eigendecompose,
    generate,
    is_single_signed,
    mean_offdiagonal,
    mode_scan,
    normalize_returns,
    random_baseline,
    report_to_dict,
    sector_table,
    select_components,
    significant_eigenvalues,
    write_scan_delimited,
)
from helpers import (
    FIXTURE_4X4,
    PAPER_SCAN,
    baseline_raw_moments,
    combination_series,
    noise_returns,
    returns,
    series_cross_correlation,
    spectrum_of,
)

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

TWO_BLOCK = MarketSpec(
    n_assets=50,
    n_observations=2000,
    market_strength=1.0,
    blocks=(
        BlockSpec(tuple(range(16)), 1.0, (1,) * 8 + (-1,) * 8, "Big"),
        BlockSpec(tuple(range(16, 24)), 1.2, (1,) * 4 + (-1,) * 4, "Small"),
    ),
)

# C route vs series oracle: the identities hold exactly, so only rounding
# separates the two (observed <= 2e-15)
ORACLE_TOL = 1e-12


def two_asset_panel():
    """Two positively correlated series; mode 1 splits them one per side."""
    rng = default_rng(0)
    base = rng.standard_normal(500)
    noise = rng.standard_normal((2, 500))
    return normalize_returns(returns(np.vstack([base + 0.6 * noise[0], base + 0.6 * noise[1]])))


def matrix_and_spectrum(nr):
    c = correlation_matrix(nr)
    return c, eigendecompose(c)


def oracle_panel(name):
    if name == "one_block":
        return generate(ONE_BLOCK, seed=0)[0]
    return noise_returns(12, 400, 21)


# ------------------------------------------------------------ series oracle


def test_series_singleton_scales_row():
    nr = noise_returns(4, 100, 0)
    assert np.array_equal(combination_series(nr, [0.3], (2,)), 0.3 * nr.values[2])


def test_series_signed_weights_cancel():
    row = default_rng(5).standard_normal(200)
    nr = normalize_returns(returns(np.vstack([row, row])))
    # equal and opposite weights over identical rows: exact cancellation
    series = combination_series(nr, [0.5, -0.5], (0, 1))
    assert np.all(series == 0.0)
    raw, pearson = series_cross_correlation(series, nr.values[0])
    assert raw == 0.0 and np.isnan(pearson)


def test_series_recovers_planted_factor():
    # a pure one-factor market's top mode, summed with its own weights,
    # reproduces the driving factor almost exactly
    spec_cfg = MarketSpec(n_assets=50, n_observations=2000, market_strength=1.0)
    nr, _ = generate(spec_cfg, seed=3)
    part = select_components(spectrum_of(nr), 0, 0.0)
    assert len(part.positive) == 50 and len(part.negative) == 0
    series = combination_series(nr, part.positive_weights, part.positive)
    factor = default_rng(SeedSequence(3).spawn(2)[0]).standard_normal(2000)
    assert abs(np.corrcoef(series, factor)[0, 1]) > 0.95


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("u_c", [0.15, 0.0])
@pytest.mark.parametrize("panel_name", ["one_block", "noise"])
def test_scan_matches_series_oracle(panel_name, u_c):
    nr = oracle_panel(panel_name)
    c, spec = matrix_and_spectrum(nr)
    report = mode_scan(c, spec, u_c, trials=100, seed=0)
    assert report.rows
    for row in report.rows:
        part = row.partition
        raw, pearson = series_cross_correlation(
            combination_series(nr, part.positive_weights, part.positive),
            combination_series(nr, part.negative_weights, part.negative),
        )
        assert abs(row.c_raw - raw) <= ORACLE_TOL
        assert abs(row.c_pearson - pearson) <= ORACLE_TOL


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("u_c", [0.15, 0.0])
@pytest.mark.parametrize("panel_name", ["one_block", "noise"])
def test_baseline_matches_series_oracle(panel_name, u_c):
    # the evaluator behind every baseline trial, handed explicit placements
    # drawn here, so the check holds for any draw the baseline makes
    nr = oracle_panel(panel_name)
    c, spec = matrix_and_spectrum(nr)
    part = select_components(spec, 1, u_c)
    w_plus, w_minus = part.positive_weights, part.negative_weights
    n_plus, k = w_plus.size, w_plus.size + w_minus.size
    order = default_rng(9).permuted(np.tile(np.arange(c.n_assets), (60, 1)), axis=1)
    plus, minus = order[:, :n_plus], order[:, n_plus:k]
    raw, pearson = anticorr._cross_correlation(c.values, plus, w_plus, minus, w_minus)
    scale = np.abs(w_plus).sum() * np.abs(w_minus).sum()
    for p, m, got_raw, got_pearson in zip(plus, minus, raw, pearson):
        cross = w_plus @ c.values[np.ix_(p, m)] @ w_minus
        var_plus = w_plus @ c.values[np.ix_(p, p)] @ w_plus
        var_minus = w_minus @ c.values[np.ix_(m, m)] @ w_minus
        assert abs(got_raw - cross) <= 1e-12 * scale
        assert abs(got_pearson - cross / np.sqrt(var_plus * var_minus)) <= 1e-12
        want = series_cross_correlation(
            combination_series(nr, w_plus, p), combination_series(nr, w_minus, m)
        )
        assert abs(got_raw - want[0]) <= ORACLE_TOL
        assert abs(got_pearson - want[1]) <= ORACLE_TOL


@pytest.mark.parametrize("n, k", [(40, 2), (40, 9), (40, 10), (40, 40), (259, 2), (259, 38)])
def test_gathered_and_dense_evaluators_agree(monkeypatch, n, k):
    # k = 9 and 38 are the largest k on the gather route at N = 40 and 259;
    # the two routes sum in different orders, so they agree to rounding
    c = correlation_matrix(noise_returns(n, 4 * n, n + k)).values
    rng = default_rng(k)
    n_plus = k // 2
    w_plus, w_minus = rng.uniform(-1.0, 1.0, n_plus), rng.uniform(-1.0, 1.0, k - n_plus)
    order = rng.permuted(np.tile(np.arange(n), (30, 1)), axis=1)
    plus, minus = order[:, :n_plus], order[:, n_plus:k]
    routes = {route: anticorr._cross_correlation(c, plus, w_plus, minus, w_minus) for route in each_route(monkeypatch)}
    dense, gathered = routes["dense"], routes["gather"]
    scale = np.abs(w_plus).sum() * np.abs(w_minus).sum()
    assert np.abs(gathered[0] - dense[0]).max() <= 1e-12 * scale
    assert np.abs(gathered[1] - dense[1]).max() <= 1e-12


def test_observed_split_takes_its_baselines_route(monkeypatch):
    # one evaluator and one route rule for the observed value and its baseline:
    # a gathered mode's values are the forced gather of its one placement, bit
    # for bit, and a u_c = 0 mode's (k = N) the forced dense products
    c, spec = matrix_and_spectrum(generate(TWO_BLOCK, seed=0)[0])
    routes = []
    for u_c in (0.15, 0.0):
        for row in mode_scan(c, spec, u_c, trials=100, seed=0).rows:
            part = row.partition
            gathers = anticorr._gathers(row.n_positive + row.n_negative, c.n_assets)
            routes.append((u_c, gathers))
            with monkeypatch.context() as forced:
                forced.setattr(anticorr, "_GATHER_RATIO", ROUTES["gather" if gathers else "dense"])
                (raw,), (pearson,) = anticorr._cross_correlation(
                    c.values, np.array([part.positive]), part.positive_weights,
                    np.array([part.negative]), part.negative_weights,
                )
            assert (row.c_raw.hex(), row.c_pearson.hex()) == (raw.hex(), pearson.hex()), (u_c, row.mode_index)
    assert (0.15, True) in routes
    assert (0.0, True) not in routes and (0.0, False) in routes


@pytest.mark.parametrize("include", [False, True])
@pytest.mark.parametrize("market_strength", [1.0, 0.0])
def test_scan_and_sector_table_share_the_market_mode_rule(market_strength, include):
    # with no market factor mode 0 is the planted two-signed block mode, and
    # both stages keep it; with one it is single-signed, and both drop it
    nr = generate(dataclasses.replace(ONE_BLOCK, market_strength=market_strength), seed=0)[0]
    c, spec = matrix_and_spectrum(nr)
    kept = include or not is_single_signed(spec, 0)
    assert kept == (include or market_strength == 0.0)
    table = sector_table(spec, significant_eigenvalues(spec), [0.15], None, include_market_mode=include)
    report = mode_scan(c, spec, 0.15, trials=100, seed=0, include_market_mode=include)
    scanned = [r.mode_index for r in report.rows] + [s.mode_index for s in report.skipped]
    assert (0 in {r.mode_index for r in table}) == (0 in scanned) == kept
    assert sorted(scanned) == list(range(0 if kept else 1, c.n_assets))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_baseline_mean_is_exact_at_paper_scale():
    # a uniform draw makes every off-diagonal ordered pair equally likely, so
    # E[raw] = (sum |w+|)(sum |w-|) * mean_offdiagonal(C) for any such draw;
    # this checks the draw at paper scale, which the 5-asset chi-square tests do not reach
    c, spec = matrix_and_spectrum(generate(PAPER_SCAN, seed=1)[0])
    report = mode_scan(c, spec, 0.10, trials=1000, seed=1)
    assert len(report.rows) > 200
    level = mean_offdiagonal(c)
    for row in report.rows:
        part, bl = row.partition, row.baseline
        exact = np.abs(part.positive_weights).sum() * np.abs(part.negative_weights).sum() * level
        assert abs(bl.raw_mean - exact) <= 5.0 * bl.raw_std / np.sqrt(bl.n_trials)


# ---------------------------------------------------------- cross product


def test_cross_corr_against_own_negation():
    # asset 1 is asset 0 negated: every trial's two combinations are
    # exact opposites up to their weights
    a = default_rng(7).standard_normal(1000)
    nr = normalize_returns(returns(np.vstack([a, -a])))
    c = correlation_matrix(nr)
    bl = random_baseline(c, ([0.7], [0.4]), trials=20, seed=0)
    assert np.allclose(bl.pearson_samples, -1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(bl.raw_samples, -0.28, rtol=0.0, atol=1e-12)


def test_cross_corr_independent_series():
    for seed in range(10):
        c = correlation_matrix(noise_returns(6, 10_000, seed))
        bl = random_baseline(c, ([0.5], [0.5]), trials=30, seed=seed)
        assert np.abs(bl.pearson_samples).max() < 0.05


def test_cross_corr_zero_variance_gives_nan_pearson():
    # assets 0 and 1 are perfectly anti-correlated, so equal positive
    # weights on both give a combination of zero variance
    c = CorrelationMatrix(
        assets=("X", "Y", "Z"),
        values=np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        n_observations=100,
    )
    bl = random_baseline(c, ([0.5, 0.5], [0.4]), trials=40, seed=3)
    degenerate = bl.raw_samples == 0.0  # the plus side drew {X, Y}
    assert degenerate.any() and not degenerate.all()
    assert np.array_equal(np.isnan(bl.pearson_samples), degenerate)
    assert np.allclose(bl.raw_samples[~degenerate], -0.2, rtol=0.0, atol=1e-15)


def test_cross_corr_negation_invariant():
    # flipping every eigenvector's sign swaps the two sides of each split;
    # both weight vectors change sign, so the correlations stay put
    nr, _ = generate(ONE_BLOCK, seed=1)
    c, spec = matrix_and_spectrum(nr)
    flipped = EigenSpectrum(
        assets=spec.assets,
        eigenvalues=spec.eigenvalues,
        eigenvectors=-spec.eigenvectors,
        n_observations=spec.n_observations,
    )
    a = mode_scan(c, spec, 0.15, trials=100, seed=0)
    b = mode_scan(c, flipped, 0.15, trials=100, seed=0)
    assert [r.mode_index for r in a.rows] == [r.mode_index for r in b.rows]
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.n_positive, ra.n_negative) == (rb.n_negative, rb.n_positive)
        assert ra.c_raw == pytest.approx(rb.c_raw, rel=0.0, abs=ORACLE_TOL)
        assert ra.c_pearson == pytest.approx(rb.c_pearson, rel=0.0, abs=ORACLE_TOL)


def test_two_block_market_separates_from_baseline():
    # planted two-sided structure sits far below the random-combination level
    for seed in range(3):
        nr, _ = generate(TWO_BLOCK, seed=seed)
        row = mode_scan(*matrix_and_spectrum(nr), 0.15, trials=300, seed=seed).rows[0]
        assert row.mode_index == 1
        z = (row.c_pearson - row.baseline.pearson_mean) / row.baseline.pearson_std
        # random combinations co-move through the market factor, so the
        # baseline sits high; the planted split falls far below it
        assert row.baseline.pearson_mean > 0.5
        assert z < -3.0


# ----------------------------------------------------------------- baseline


def test_baseline_pair_panel_exhausts_to_direct_value():
    rng = default_rng(0)
    base = rng.standard_normal(500)
    noise = rng.standard_normal(500)
    nr = normalize_returns(returns(np.vstack([base, -base + 0.3 * noise])))
    c = correlation_matrix(nr)
    bl = random_baseline(c, (np.array([0.7]), np.array([0.4])), trials=50, seed=0)
    raw, pearson = series_cross_correlation(0.7 * nr.values[0], 0.4 * nr.values[1])
    # on two assets every draw is the same pair, up to 1 ulp from the two
    # weight orderings
    assert np.allclose(bl.pearson_samples, pearson, rtol=0.0, atol=1e-12)
    assert np.allclose(bl.raw_samples, raw, rtol=0.0, atol=1e-12)
    assert pearson < -0.9
    assert bl.n_trials == 50


def test_baseline_rectifies_weight_signs():
    c = correlation_matrix(noise_returns(6, 300, 4))
    flip = random_baseline(c, ([-0.7], [0.4]), trials=20, seed=1)
    kept = random_baseline(c, ([0.7], [0.4]), trials=20, seed=1)
    assert np.array_equal(flip.pearson_samples, kept.pearson_samples)
    assert np.array_equal(flip.raw_samples, kept.raw_samples)


def test_baseline_determinism_and_seed_record():
    c = correlation_matrix(noise_returns(8, 200, 5))
    weights = ([0.5, 0.3], [0.4])
    a = random_baseline(c, weights, trials=30, seed=11)
    b = random_baseline(c, weights, trials=30, seed=11)
    d = random_baseline(c, weights, trials=30, seed=12)
    assert np.array_equal(a.pearson_samples, b.pearson_samples)
    assert not np.array_equal(a.pearson_samples, d.pearson_samples)
    spawned = random_baseline(c, weights, trials=1, seed=SeedSequence(11))
    assert spawned.n_trials == 1


def test_baseline_centered_on_zero_for_noise():
    # single-asset sides on a long noise panel: the Monte Carlo error bar
    # dominates any panel-conditional offset
    for k in range(3):
        c = correlation_matrix(noise_returns(20, 8000, 50 + k))
        bl = random_baseline(c, (np.full(1, 0.4), np.full(1, 0.4)), trials=200, seed=k)
        assert abs(bl.pearson_mean) < 3.0 * bl.pearson_std / np.sqrt(bl.n_trials)
        assert abs(bl.raw_mean) < 3.0 * bl.raw_std / np.sqrt(bl.n_trials)


def drawn_placements(c, weights, samples):
    """Index of each raw sample in the list of ordered asset placements.

    A placement lists the assets under each plus weight, then under each
    minus weight. On a small C with distinct off-diagonal entries every
    placement has its own raw value (checked), so the sample names it.
    """
    w_plus, w_minus = (np.asarray(w, dtype=float) for w in weights)
    n_plus = w_plus.size
    placements = list(itertools.permutations(range(c.n_assets), n_plus + w_minus.size))
    expected = np.array(
        [w_plus @ c.values[np.ix_(p[:n_plus], p[n_plus:])] @ w_minus for p in placements]
    )
    assert np.diff(np.sort(expected)).min() > 1e-9
    index = np.abs(samples[:, None] - expected).argmin(axis=1)
    assert np.abs(expected[index] - samples).max() <= ORACLE_TOL
    return placements, index


# _GATHER_RATIO values that force each route of the evaluator whatever k and N are
ROUTES = {"dense": 0.0, "gather": np.inf}


def each_route(monkeypatch):
    """Yield each route's name with the evaluator forced onto that route."""
    for name, ratio in ROUTES.items():
        monkeypatch.setattr(anticorr, "_GATHER_RATIO", ratio)
        yield name


def test_baseline_draws_every_ordered_pair_alike(monkeypatch):
    c = correlation_matrix(noise_returns(5, 50, 8))
    weights = ([0.6], [0.5, 0.2])
    for route in each_route(monkeypatch):
        bl = random_baseline(c, weights, trials=6000, seed=SeedSequence([0, 2]))
        placements, index = drawn_placements(c, weights, bl.raw_samples)
        # each ordered (plus asset, first minus asset) pair, and each full placement
        pair_ids = {pair: k for k, pair in enumerate(itertools.permutations(range(c.n_assets), 2))}
        pairs = np.array([pair_ids[p[:2]] for p in placements])[index]
        assert stats.chisquare(np.bincount(pairs, minlength=len(pair_ids))).pvalue > 1e-3, route
        assert stats.chisquare(np.bincount(index, minlength=len(placements))).pvalue > 1e-3, route


def test_baseline_weight_assignments_alike(monkeypatch):
    # two distinct plus weights: either one lands on the lower-index asset of
    # the drawn pair equally often, as a shuffle of the weights would give
    c = correlation_matrix(noise_returns(5, 50, 8))
    weights = ([0.7, 0.3], [0.5])
    for route in each_route(monkeypatch):
        bl = random_baseline(c, weights, trials=6000, seed=SeedSequence([0, 3]))
        placements, index = drawn_placements(c, weights, bl.raw_samples)
        heavy_first = np.array([p[0] < p[1] for p in placements])[index]
        assert stats.chisquare([heavy_first.sum(), (~heavy_first).sum()]).pvalue > 1e-3, route
        assert stats.chisquare(np.bincount(index, minlength=len(placements))).pvalue > 1e-3, route


def test_baseline_stream_is_pinned(monkeypatch):
    # any change to the baseline draws changes these; log it when it does
    pins = {
        "dense": (0.050982448534628896, 0.013816242765899753),
        "gather": (0.03794501706528317, 0.010145003692681969),
    }
    c = correlation_matrix(noise_returns(8, 200, 5))
    for route in each_route(monkeypatch):
        bl = random_baseline(c, ([0.5, 0.3], [0.4, 0.2]), trials=50, seed=SeedSequence([0, 1]))
        assert bl.pearson_mean == pytest.approx(pins[route][0], rel=0.0, abs=1e-12)
        assert bl.raw_mean == pytest.approx(pins[route][1], rel=0.0, abs=1e-12)


def test_baseline_generator_calls_do_not_grow_with_trials(monkeypatch):
    calls = []
    make_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self._rng = make_rng(seed)

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return counted

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    c = correlation_matrix(noise_returns(8, 200, 5))
    counts = []
    for trials in (100, 1000):
        calls.clear()
        random_baseline(c, ([0.5, 0.3], [0.4]), trials=trials, seed=0)
        counts.append(len(calls))
    assert counts[0] >= 1
    assert counts[0] == counts[1]


def test_baseline_samples_do_not_depend_on_the_chunk_size(monkeypatch):
    # the swap targets are drawn once up front and each placement has its own
    # dot product, so chunks of 1, 4 or all 53 trials give the same bits
    c = correlation_matrix(noise_returns(40, 200, 5))
    weights = ([0.5, 0.3, 0.1], [0.4, 0.2])
    assert anticorr._gathers(5, 40)  # the gather route
    samples = []
    for cells in (7, 100, 1 << 17):
        monkeypatch.setattr(anticorr, "_CHUNK_CELLS", cells)
        bl = random_baseline(c, weights, trials=53, seed=SeedSequence([0, 4]))
        samples.append((bl.raw_samples, bl.pearson_samples))
    for raw, pearson in samples[1:]:
        assert np.array_equal(raw, samples[0][0])
        assert np.array_equal(pearson, samples[0][1])


@pytest.mark.parametrize("trials", [100, 4000], ids=["below_chunk", "above_chunk"])
def test_dense_baseline_samples_are_one_evaluation_of_the_permuted_draw(trials):
    # the dense route's bits: one _cross_correlation over every trial's placement
    c = correlation_matrix(noise_returns(40, 200, 5))
    n = c.n_assets
    w_plus, w_minus = default_rng(3).normal(size=14), default_rng(4).normal(size=16)
    k = w_plus.size + w_minus.size
    assert not anticorr._gathers(k, n)  # the dense route
    assert (trials > anticorr._CHUNK_CELLS // n) == (trials == 4000)
    seed = SeedSequence([0, 7])
    bl = random_baseline(c, (w_plus, w_minus), trials=trials, seed=seed)
    order = np.random.default_rng(seed).permuted(np.broadcast_to(np.arange(n), (trials, n)), axis=1)
    raw, pearson = anticorr._cross_correlation(
        c.values, order[:, :14], np.abs(w_plus), order[:, 14:k], np.abs(w_minus)
    )
    assert bl.raw_samples.tobytes() == raw.tobytes()
    assert bl.pearson_samples.tobytes() == pearson.tobytes()


@pytest.fixture
def generator_calls(monkeypatch):
    """Names of the Generator methods random_baseline calls, in order."""
    calls = []
    make_rng = np.random.default_rng

    class RecordingGenerator:
        def __init__(self, seed):
            self._rng = make_rng(seed)

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
    return calls


def test_baseline_route_follows_the_cost_rule(generator_calls):
    c = correlation_matrix(noise_returns(66, 200, 5))
    # 66 assets: k = 13 is the largest k with k^2 <= 0.35 * 66^1.5
    for k, draw in ((2, "integers"), (13, "integers"), (14, "permuted"), (66, "permuted")):
        generator_calls.clear()
        random_baseline(c, (np.full(k // 2, 0.1), np.full(k - k // 2, 0.2)), trials=10, seed=0)
        assert generator_calls == [draw], k


def _moment_case(n, n_plus, n_minus, seed):
    """A C with a market and a two-signed block factor, and signed weights of mixed size."""
    rng = default_rng(seed)
    t = max(2 * n, 100)
    block = np.where(np.arange(n) % 2, 0.8, -0.8) * (np.arange(n) < n // 3)
    x = rng.standard_normal((n, t)) + 0.5 * rng.standard_normal(t) + block[:, None] * rng.standard_normal(t)
    c = correlation_matrix(normalize_returns(returns(x)))
    return c, (rng.uniform(0.01, 0.3, n_plus), -rng.uniform(0.01, 0.3, n_minus))


@pytest.mark.parametrize("n, n_plus, n_minus", [(6, 2, 1), (7, 2, 2), (7, 3, 2)])
def test_exact_baseline_moments_match_every_ordered_draw(n, n_plus, n_minus):
    c, (w_plus, w_minus) = _moment_case(n, n_plus, n_minus, seed=n + n_plus)
    draws = np.array(list(itertools.permutations(range(n), n_plus + n_minus)))
    raw, _ = anticorr._cross_correlation(
        c.values, draws[:, :n_plus], np.abs(w_plus), draws[:, n_plus:], np.abs(w_minus)
    )
    mean, second = baseline_raw_moments(c, (w_plus, w_minus))
    assert raw.mean() == pytest.approx(mean, rel=1e-12)
    assert (raw**2).mean() == pytest.approx(second, rel=1e-12)


@pytest.mark.parametrize(
    "n, n_plus, n_minus, draw",
    [
        (40, 3, 2, "integers"),
        (66, 8, 5, "integers"),
        (259, 12, 9, "integers"),
        (259, 20, 18, "integers"),  # k = 38, the largest gathered k at N = 259
        (259, 20, 19, "permuted"),  # k = 39, the smallest dense one
        (259, 150, 109, "permuted"),
    ],
)
def test_baseline_raw_moments_match_the_exact_ones(generator_calls, n, n_plus, n_minus, draw):
    # the sampled mean within 5 standard errors of the exact one, the sampled std within 10%
    c, weights = _moment_case(n, n_plus, n_minus, seed=n + n_plus)
    generator_calls.clear()
    bl = random_baseline(c, weights, trials=3000, seed=n_minus)
    assert generator_calls == [draw]
    mean, second = baseline_raw_moments(c, weights)
    std = np.sqrt(second - mean**2)
    assert abs(bl.raw_mean - mean) <= 5.0 * std / np.sqrt(bl.n_trials)
    assert abs(bl.raw_std / std - 1.0) <= 0.10


def test_baseline_too_many_trials_fails_before_drawing(generator_calls):
    c = correlation_matrix(noise_returns(8, 200, 5))
    generator_calls.clear()
    for weights in (([0.5], [0.4]), ([0.5] * 4, [0.4] * 4)):  # the gather and the dense route
        with pytest.raises(MemoryError, match="100000000000000000000 baseline trials"):
            random_baseline(c, weights, trials=10**20, seed=0)
    assert generator_calls == []


def test_baseline_validation():
    c = correlation_matrix(noise_returns(5, 100, 6))
    with pytest.raises(ConfigurationError):
        random_baseline(c, ([], [0.4]), trials=10)
    with pytest.raises(ConfigurationError):
        random_baseline(c, ([0.1] * 3, [0.1] * 3), trials=10)
    for bad in (0, 1.5, float("nan"), float("inf"), None):
        with pytest.raises(ConfigurationError, match="trials must be a positive integer"):
            random_baseline(c, ([0.1], [0.4]), trials=bad)
    assert random_baseline(c, ([0.1], [0.4]), trials=3.0, seed=0).n_trials == 3


# ---------------------------------------------------------------- mode scan


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_scan_two_asset_panel():
    nr = two_asset_panel()
    c, spec = matrix_and_spectrum(nr)
    report = mode_scan(c, spec, 0.15, trials=150, seed=0)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.mode_index == 1
    assert row.n_positive == row.n_negative == 1
    assert row.eigenvalue == pytest.approx(0.2522, abs=1e-3)
    assert row.c_pearson == pytest.approx(-0.748, abs=1e-3)
    assert report.skipped == []
    # the per-mode baseline stream is (seed, mode), reproducible externally
    part = select_components(spec, 1, 0.15)
    assert row.partition.positive == part.positive
    assert row.partition.negative == part.negative
    manual = random_baseline(
        c,
        weights=(np.abs(part.positive_weights), np.abs(part.negative_weights)),
        trials=150,
        seed=SeedSequence([0, 1]),
    )
    assert np.array_equal(row.baseline.pearson_samples, manual.pearson_samples)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_scan_market_mode_opt_in_lists_skip():
    report = mode_scan(
        *matrix_and_spectrum(two_asset_panel()), 0.15, trials=150, seed=0,
        include_market_mode=True,
    )
    assert [r.mode_index for r in report.rows] == [1]
    assert [s.mode_index for s in report.skipped] == [0]
    assert "negative" in report.skipped[0].reason


def test_scan_skips_a_mode_with_undefined_pearson():
    # C[1, 2] = -1, so the sum of assets 1 and 2 has variance 0: a placement of both on
    # one side, the observed one of mode 1 too, has an undefined Pearson value
    c = CorrelationMatrix(("A", "B", "C"), np.array([[1.0, 0, 0], [0, 1, -1], [0, -1, 1]]), n_observations=10)
    vectors = np.column_stack([np.ones(3) / np.sqrt(3), [2 / np.sqrt(6), -1 / np.sqrt(6), -1 / np.sqrt(6)],
                               [0.0, 1 / np.sqrt(2), -1 / np.sqrt(2)]])
    spec = EigenSpectrum(c.assets, np.array([1.5, 1.0, 0.5]), vectors, n_observations=10)
    report = mode_scan(c, spec, 0.0, trials=300, seed=4)
    assert [r.mode_index for r in report.rows] == [2]
    assert not np.isnan(report.rows[0].baseline.pearson_samples).any()
    part = select_components(spec, 1, 0.0)
    samples = random_baseline(
        c, (part.positive_weights, part.negative_weights), trials=300, seed=SeedSequence([4, 1])
    ).pearson_samples
    undefined = int(np.isnan(samples).sum())
    assert 0 < undefined < 300
    assert [(s.mode_index, s.reason) for s in report.skipped] == [
        (1, f"undefined Pearson correlation (observed and {undefined} of 300 baseline trials) at u_c=0")
    ]
    assert "nan" not in str(report_to_dict(report)).lower()


def test_scan_flags_planted_mode_and_decay():
    nr, _ = generate(ONE_BLOCK, seed=0)
    report = mode_scan(*matrix_and_spectrum(nr), 0.15, trials=300, seed=0)
    assert [r.mode_index for r in report.rows] == list(range(1, 50))
    assert report.skipped == []
    planted = report.rows[0]
    assert planted.n_positive == planted.n_negative == 10
    z_pearson = (planted.c_pearson - planted.baseline.pearson_mean) / planted.baseline.pearson_std
    z_raw = (planted.c_raw - planted.baseline.raw_mean) / planted.baseline.raw_std
    assert z_pearson < -10.0
    assert z_raw < -10.0
    # the eigenvalue-ordered tail shows much less structure than the planted mode
    final = report.rows[-1]
    planted_gap = abs(planted.c_raw - planted.baseline.raw_mean)
    final_gap = abs(final.c_raw - final.baseline.raw_mean)
    assert final_gap < 0.6 * planted_gap


def test_scan_noise_panel_shows_no_strong_signal():
    # band-edge modes are picked by their in-sample eigenvalue, which tilts
    # them a few baseline sigmas from zero even on pure noise; the medians
    # stay small and the correlations themselves stay tiny
    for panel_seed in range(3):
        c, spec = matrix_and_spectrum(noise_returns(10, 10_000, panel_seed))
        report = mode_scan(c, spec, 0.0, trials=300, seed=0)
        # mode 0 of pure noise has both signs, so every mode is scanned
        assert not is_single_signed(spec, 0)
        assert len(report.rows) == 10
        z = np.array(
            [
                (r.c_pearson - r.baseline.pearson_mean) / r.baseline.pearson_std
                for r in report.rows
            ]
        )
        assert max(abs(r.c_pearson) for r in report.rows) < 0.08
        assert np.median(np.abs(z)) <= 2.5
        assert np.mean(np.abs(z) < 3.0) >= 0.5


def test_scan_seed_validation():
    c, spec = matrix_and_spectrum(noise_returns(4, 100, 7))
    with pytest.raises(ConfigurationError):
        mode_scan(c, spec, 0.0, trials=150, seed=-1)
    with pytest.raises(ConfigurationError):
        mode_scan(c, spec, 0.0, trials=150, seed=0.5)
    for bad in (float("nan"), float("inf"), None):
        with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
            mode_scan(c, spec, 0.0, trials=150, seed=bad)
    for bad in (100.5, float("nan"), float("inf"), None):
        with pytest.raises(ConfigurationError, match="trials must be an integer"):
            mode_scan(c, spec, 0.0, trials=bad, seed=0)
    a = mode_scan(c, spec, 0.0, trials=np.int64(150), seed=np.int64(1))
    b = mode_scan(c, spec, 0.0, trials=150.0, seed=1.0)
    assert (a.trials, a.seed) == (b.trials, b.seed) == (150, 1)
    assert [r.baseline.raw_samples.tobytes() for r in a.rows] == [r.baseline.raw_samples.tobytes() for r in b.rows]


def test_scan_requires_report_grade_trials(monkeypatch):
    calls = []
    monkeypatch.setattr(anticorr, "random_baseline", lambda *a, **k: calls.append(a))
    with pytest.raises(ConfigurationError, match="reports need >= 100 baseline trials, got 99"):
        mode_scan(*matrix_and_spectrum(noise_returns(4, 100, 7)), 0.0, trials=99, seed=0)
    assert calls == []


def test_scan_asset_mismatch():
    c = correlation_matrix(noise_returns(4, 100, 7))
    other = spectrum_of(noise_returns(5, 100, 7))
    with pytest.raises(ConfigurationError):
        mode_scan(c, other, 0.0, trials=150, seed=0)


# ------------------------------------------------------------ block averages


def fixture_partition(c, positive, negative):
    u = np.zeros(c.n_assets)
    return SubsectorPartition(
        assets=c.assets,
        positive=tuple(positive),
        negative=tuple(negative),
        positive_weights=u[: len(positive)],
        negative_weights=u[: len(negative)],
        anchor_index=0,
    )


def test_block_averages_fixture_values():
    c = CorrelationMatrix(
        assets=("a", "b", "c", "d"), values=FIXTURE_4X4.copy(), n_observations=100
    )
    out = block_averages(c, fixture_partition(c, (0, 1), (2, 3)))
    assert out.within_positive == 0.55
    assert out.within_negative == 0.95
    assert out.between == 0.2475
    assert out.n_positive == out.n_negative == 2


def test_block_averages_identity():
    c = CorrelationMatrix(assets=("x", "y", "z", "w"), values=np.eye(4), n_observations=10)
    out = block_averages(c, fixture_partition(c, (0, 1), (2, 3)))
    assert out.within_positive == 0.0
    assert out.within_negative == 0.0
    assert out.between == 0.0


def test_block_averages_undefined_cells():
    c = CorrelationMatrix(
        assets=("a", "b", "c", "d"), values=FIXTURE_4X4.copy(), n_observations=100
    )
    out = block_averages(c, fixture_partition(c, (0,), ()))
    assert out.within_positive is None
    assert out.within_negative is None
    assert out.between is None
    assert out.n_positive == 1 and out.n_negative == 0


def test_block_averages_swap_symmetry():
    c = CorrelationMatrix(
        assets=("a", "b", "c", "d"), values=FIXTURE_4X4.copy(), n_observations=100
    )
    ab = block_averages(c, fixture_partition(c, (0, 1), (2, 3)))
    ba = block_averages(c, fixture_partition(c, (2, 3), (0, 1)))
    assert ab.within_positive == ba.within_negative
    assert ab.within_negative == ba.within_positive
    assert ab.between == ba.between


def test_block_averages_planted_market():
    nr, _ = generate(ONE_BLOCK, seed=0)
    spec = spectrum_of(nr)
    part = select_components(spec, 1, 0.15)
    out = block_averages(correlation_matrix(nr), part)
    assert out.within_positive > 0.5
    assert out.within_negative > 0.5
    assert abs(out.between) < 0.1


def test_block_averages_asset_mismatch():
    c = CorrelationMatrix(
        assets=("a", "b", "c", "d"), values=FIXTURE_4X4.copy(), n_observations=100
    )
    other = CorrelationMatrix(
        assets=("p", "q", "r", "s"), values=FIXTURE_4X4.copy(), n_observations=100
    )
    with pytest.raises(ConfigurationError):
        block_averages(c, fixture_partition(other, (0, 1), (2, 3)))


# -------------------------------------------------------------- serialization


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_report_dict_layout():
    report = mode_scan(*matrix_and_spectrum(two_asset_panel()), 0.15, trials=150, seed=0)
    d = report_to_dict(report)
    assert set(d) == {
        "u_c",
        "trials",
        "seed",
        "include_market_mode",
        "n_assets",
        "n_observations",
        "modes",
        "skipped",
    }
    assert d["u_c"] == 0.15 and d["trials"] == 150 and d["seed"] == 0
    assert d["n_assets"] == 2 and d["n_observations"] == 500
    assert d["skipped"] == []
    (mode,) = d["modes"]
    assert set(mode) == {
        "mode",
        "eigenvalue",
        "n_positive",
        "n_negative",
        "c_raw",
        "c_pearson",
        "baseline_pearson_mean",
        "baseline_pearson_std",
        "baseline_raw_mean",
        "baseline_raw_std",
    }
    row = report.rows[0]
    assert mode["mode"] == 1
    assert mode["c_pearson"] == row.c_pearson
    assert mode["baseline_raw_std"] == row.baseline.raw_std


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_scan_csv_round_trip(tmp_path):
    report = mode_scan(*matrix_and_spectrum(two_asset_panel()), 0.15, trials=150, seed=0)
    path = tmp_path / "scan.csv"
    write_scan_delimited(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mode,c_raw,c_pearson,baseline_mean,baseline_std"
    assert len(lines) == 2
    cells = lines[1].split(",")
    row = report.rows[0]
    assert int(cells[0]) == 1
    assert float(cells[1]) == row.c_raw
    assert float(cells[2]) == row.c_pearson
    assert float(cells[3]) == row.baseline.pearson_mean
    assert float(cells[4]) == row.baseline.pearson_std
