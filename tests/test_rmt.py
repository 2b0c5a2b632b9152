"""Noise eigenvalue band: edges, density, CDF, significant-mode selection."""

import numpy as np
import pytest
from scipy.integrate import quad

from eigensectors import (
    ConfigurationError,
    CorrelationMatrix,
    DomainError,
    EigenSpectrum,
    MarketSpec,
    eigendecompose,
    generate,
    mp_bounds,
    mp_cdf,
    mp_density,
    significant_eigenvalues,
)
from helpers import spectrum_of


# ---------------------------------------------------------------- band edges


def test_bounds_square_panel():
    law = mp_bounds(1.0)
    assert law.lambda_min == 0.0
    assert law.lambda_max == 4.0


def test_bounds_q_four_exact():
    law = mp_bounds(4.0)
    assert law.lambda_min == 0.25
    assert law.lambda_max == 2.25


def test_bounds_typical_panel_shape():
    # 259 series over 2632 observations
    law = mp_bounds(2632 / 259)
    assert law.lambda_min == pytest.approx(0.4710152, abs=1e-6)
    assert law.lambda_max == pytest.approx(1.7257933, abs=1e-6)
    assert round(law.lambda_min, 2) == 0.47
    assert round(law.lambda_max, 2) == 1.73


@pytest.mark.parametrize(
    "n, t, lo, hi",
    [(259, 4285, 0.5687386, 1.5521482), (66, 2668, 0.7101736, 1.3393017)],
)
def test_bounds_other_reference_shapes(n, t, lo, hi):
    law = mp_bounds(t / n)
    assert law.lambda_min == pytest.approx(lo, abs=1e-6)
    assert law.lambda_max == pytest.approx(hi, abs=1e-6)


def test_bounds_reject_q_below_one():
    with pytest.raises(DomainError):
        mp_bounds(0.99)
    with pytest.raises(DomainError):
        mp_bounds(-3.0)
    for q in ("4", True, None):  # the number rule, not float()
        with pytest.raises(ConfigurationError, match="^aspect ratio q must be a number"):
            mp_bounds(q)


def test_bounds_narrow_toward_unity():
    qs = [1.0, 2.0, 4.0, 16.0, 100.0, 10_000.0]
    laws = [mp_bounds(q) for q in qs]
    mins = [l.lambda_min for l in laws]
    maxs = [l.lambda_max for l in laws]
    assert all(a < b for a, b in zip(mins, mins[1:]))
    assert all(a > b for a, b in zip(maxs, maxs[1:]))
    assert mins[-1] == pytest.approx(1.0, abs=0.03)
    assert maxs[-1] == pytest.approx(1.0, abs=0.03)


# -------------------------------------------------------------------- density


def test_density_midpoint_square_panel():
    # at q = 1 and lam = 2 the density is exactly 1/(2 pi)
    assert mp_density(2.0, 1.0) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-12)


def test_density_zero_at_edges_and_outside():
    law = mp_bounds(4.0)
    assert mp_density(law.lambda_min, 4.0) == 0.0
    assert mp_density(law.lambda_max, 4.0) == 0.0
    assert mp_density(law.lambda_min - 0.01, 4.0) == 0.0
    assert mp_density(law.lambda_max + 0.01, 4.0) == 0.0
    assert mp_density(0.0, 1.0) == 0.0  # hard edge of the q = 1 support


def test_density_positive_inside_support():
    rng = np.random.default_rng(1)
    for q in (1.5, 4.0, 10.0):
        law = mp_bounds(q)
        lam = rng.uniform(law.lambda_min + 1e-6, law.lambda_max - 1e-6, size=50)
        assert np.all(mp_density(lam, q) > 0.0)


def test_density_array_shape_and_scalar_type():
    out = mp_density(np.linspace(0.0, 3.0, 7), 4.0)
    assert out.shape == (7,)
    assert isinstance(mp_density(1.0, 4.0), float)


def test_density_integrates_to_one():
    for q in (1.5, 4.0, 10.0):
        law = mp_bounds(q)
        total, err = quad(mp_density, law.lambda_min, law.lambda_max, args=(q,))
        assert total == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------------------ cdf


def test_cdf_limits_and_monotonicity():
    for q in (1.5, 4.0, 10.0):
        law = mp_bounds(q)
        assert mp_cdf(law.lambda_min, q) == 0.0
        assert mp_cdf(law.lambda_max, q) == 1.0
        assert mp_cdf(law.lambda_min - 1.0, q) == 0.0
        assert mp_cdf(law.lambda_max + 1.0, q) == 1.0
        grid = np.linspace(law.lambda_min, law.lambda_max, 200)
        vals = mp_cdf(grid, q)
        assert np.all(np.diff(vals) >= 0.0)


def test_cdf_matches_quadrature():
    for q in (1.5, 4.0):
        law = mp_bounds(q)
        for frac in (0.2, 0.5, 0.8):
            x = law.lambda_min + frac * (law.lambda_max - law.lambda_min)
            direct, _ = quad(mp_density, law.lambda_min, x, args=(q,))
            assert mp_cdf(x, q) == pytest.approx(direct, abs=1e-4)


# ------------------------------------------------------------ mode selection


def test_no_modes_above_band_for_identity():
    c = CorrelationMatrix(assets=("X", "Y", "Z"), values=np.eye(3), n_observations=100)
    sig = significant_eigenvalues(eigendecompose(c))
    assert sig.indices == ()
    assert sig.eigenvalues.size == 0


def test_dominant_mode_ratio():
    # 259 series, 2632 observations, one giant eigenvalue at 97.3:
    # 56x the noise band's upper edge
    n = 259
    eigenvalues = np.array([97.3] + [0.5] * (n - 1))
    spec = EigenSpectrum(
        assets=tuple(f"S{i}" for i in range(n)),
        eigenvalues=eigenvalues,
        eigenvectors=np.eye(n),
        n_observations=2632,
    )
    sig = significant_eigenvalues(spec)
    assert sig.indices == (0,)
    assert round(float(sig.ratios[0])) == 56


def test_single_factor_market_gives_single_mode():
    spec_cfg = MarketSpec(n_assets=50, n_observations=2000, market_strength=1.0)
    for seed in range(5):
        nr, _ = generate(spec_cfg, seed=seed)
        sig = significant_eigenvalues(spectrum_of(nr))
        assert sig.indices == (0,)


def test_threshold_is_strict():
    # q = 4 puts the band edge at exactly 2.25
    spec = EigenSpectrum(
        assets=("X", "Y"),
        eigenvalues=np.array([2.25, 0.5]),
        eigenvectors=np.eye(2),
        n_observations=8,
    )
    assert significant_eigenvalues(spec, margin=1.0).indices == ()
    assert significant_eigenvalues(spec, margin=0.99).indices == (0,)


def test_margin_scales_threshold():
    spec = EigenSpectrum(
        assets=("X", "Y"),
        eigenvalues=np.array([3.0, 0.5]),
        eigenvectors=np.eye(2),
        n_observations=8,
    )
    assert significant_eigenvalues(spec, margin=1.0).indices == (0,)
    assert significant_eigenvalues(spec, margin=1.4).indices == ()
    with pytest.raises(ConfigurationError):
        significant_eigenvalues(spec, margin=0.0)
    with pytest.raises(ConfigurationError):
        significant_eigenvalues(spec, margin=-1.0)
    for margin in (float("inf"), float("nan")):
        with pytest.raises(ConfigurationError):
            significant_eigenvalues(spec, margin=margin)


@pytest.mark.parametrize(
    "margin, rule",
    [(0.0, "positive"), (-1.0, "positive"), (-np.inf, "positive"), (np.nan, "positive"), (np.inf, "finite"),
     ("1", "a number"), (True, "a number"), (None, "a number")],
)
def test_margin_messages(margin, rule):
    spec = EigenSpectrum(assets=("X", "Y"), eigenvalues=np.array([3.0, 0.5]), eigenvectors=np.eye(2), n_observations=8)
    with pytest.raises(ConfigurationError, match=f"^margin must be {rule}, got {margin!r}$"):
        significant_eigenvalues(spec, margin=margin)
