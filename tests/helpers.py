"""Shared builders for the test modules. Pure numpy, no pytest machinery."""

import datetime as dt

import numpy as np

from eigensectors import (
    EigenSpectrum,
    NormalizedReturns,
    PricePanel,
    ReturnMatrix,
    correlation_matrix,
    eigendecompose,
    normalize_returns,
)

# 4-asset correlation fixture: one tightly coupled pair (assets 2, 3 at 0.95),
# one moderate pair (assets 0, 1 at 0.55), weak cross links.
FIXTURE_4X4 = np.array(
    [
        [1.00, 0.55, 0.15, 0.11],
        [0.55, 1.00, 0.39, 0.34],
        [0.15, 0.39, 1.00, 0.95],
        [0.11, 0.34, 0.95, 1.00],
    ]
)


def days(count, start=dt.date(2015, 1, 5)):
    return tuple(start + dt.timedelta(days=i) for i in range(count))


def weekdays(count, start=dt.date(2015, 1, 5)):
    out, d = [], start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return tuple(out)


def panel(prices, assets=None, dates=None, metadata=None):
    """PricePanel from a nested list; None marks a missing cell."""
    grid = np.array(
        [[np.nan if p is None else float(p) for p in row] for row in prices]
    )
    if assets is None:
        assets = tuple(f"A{i}" for i in range(grid.shape[0]))
    if dates is None:
        dates = days(grid.shape[1])
    return PricePanel(assets=tuple(assets), dates=tuple(dates), prices=grid, metadata=metadata)


def returns(values, assets=None, delta_t=1):
    vals = np.asarray(values, dtype=float)
    if assets is None:
        assets = tuple(f"A{i}" for i in range(vals.shape[0]))
    return ReturnMatrix(
        assets=tuple(assets), dates=days(vals.shape[1]), values=vals, delta_t=delta_t
    )


def noise_returns(n, t, seed):
    """Normalized panel of iid standard-normal returns.

    Draws t+1 columns and discards the first so the stream position
    matches fixtures generated the same way.
    """
    raw = np.random.default_rng(seed).standard_normal((n, t + 1))
    return normalize_returns(returns(raw[:, 1:]))


def spectrum_of(nr: NormalizedReturns) -> EigenSpectrum:
    return eigendecompose(correlation_matrix(nr))


def combination_series(nr: NormalizedReturns, weights, indices) -> np.ndarray:
    """Series oracle: the weighted sum of the indexed normalized return rows."""
    return np.asarray(weights, dtype=float) @ nr.values[list(indices)]


def series_cross_correlation(a, b) -> tuple[float, float]:
    """Series oracle: raw time average <a b> and population Pearson of a and b.

    The Pearson value is NaN when either series has zero variance.
    """
    raw = float(np.mean(a * b))
    ac, bc = a - a.mean(), b - b.mean()
    denom = np.sqrt(np.mean(ac * ac) * np.mean(bc * bc))
    return raw, float(np.mean(ac * bc) / denom) if denom > 0.0 else float("nan")


def baseline_oracle(nr: NormalizedReturns, weights, trials, seed):
    """Series oracle for random_baseline: the same draws, evaluated on the series.

    Returns (raw_samples, pearson_samples).
    """
    w_plus, w_minus = (np.abs(np.asarray(w, dtype=float)) for w in weights)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        picked = rng.choice(nr.n_assets, size=w_plus.size + w_minus.size, replace=False)
        a = combination_series(nr, rng.permutation(w_plus), picked[: w_plus.size])
        b = combination_series(nr, rng.permutation(w_minus), picked[w_plus.size :])
        out.append(series_cross_correlation(a, b))
    raw, pearson = np.array(out).T
    return raw, pearson


def spectrum_with_mode(u, n_observations=1000):
    """Spectrum whose mode 0 is the given vector; other columns are basis fill.

    Only good for APIs that read a single column (component selection); the
    column set is not orthonormal.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    vectors = np.eye(n)
    vectors[:, 0] = u
    return EigenSpectrum(
        assets=tuple(f"A{i}" for i in range(n)),
        eigenvalues=np.linspace(2.0, 0.5, n),
        eigenvectors=vectors,
        n_observations=n_observations,
    )
