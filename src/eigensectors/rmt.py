"""Wishart / Marchenko-Pastur reference law and significant-mode selection.

For T observations of N uncorrelated unit-variance series, the eigenvalue
density of the sample correlation matrix converges (N, T -> inf at fixed
Q = T/N >= 1) to

    rho(lam) = (Q / 2 pi) * sqrt((lam_max - lam)(lam - lam_min)) / lam

supported on lam_minmax = (1 -+ 1/sqrt(Q))^2. Eigenvalues above lam_max
carry genuine correlation structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corrmatrix import EigenSpectrum
from .exceptions import ConfigurationError, DomainError


@dataclass(frozen=True)
class WishartLaw:
    """Support of the noise eigenvalue density at aspect ratio q = T/N."""

    q: float
    lambda_min: float
    lambda_max: float


def mp_bounds(q: float) -> WishartLaw:
    """Noise band edges (1 -+ 1/sqrt(q))^2. Requires q >= 1."""
    q = float(q)
    if not q >= 1.0:
        raise DomainError(f"aspect ratio q must be >= 1, got {q!r}")
    root = 1.0 / np.sqrt(q)
    return WishartLaw(q=q, lambda_min=(1.0 - root) ** 2, lambda_max=(1.0 + root) ** 2)


def mp_density(lam, q: float):
    """Noise eigenvalue density, 0 outside the support (and at lam = 0).

    Accepts a scalar or array; returns the same shape.
    """
    law = mp_bounds(q)
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    out = np.zeros_like(lam_arr)
    inside = (lam_arr > 0.0) & (lam_arr >= law.lambda_min) & (lam_arr <= law.lambda_max)
    x = lam_arr[inside]
    prod = (law.lambda_max - x) * (x - law.lambda_min)
    out[inside] = (law.q / (2.0 * np.pi)) * np.sqrt(np.clip(prod, 0.0, None)) / x
    return float(out[0]) if scalar else out


def mp_cdf(lam, q: float, grid_points: int = 20001):
    """Cumulative form of mp_density by dense trapezoid integration.

    Normalized so the CDF reaches exactly 1 at the upper edge; adequate for
    distribution comparisons (KS-style) away from the q = 1 hard edge.
    """
    law = mp_bounds(q)
    grid = np.linspace(law.lambda_min, law.lambda_max, grid_points)
    dens = mp_density(grid, q)
    cume = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))))
    cume /= cume[-1]
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    out = np.interp(np.atleast_1d(lam_arr), grid, cume, left=0.0, right=1.0)
    return float(out[0]) if scalar else out


@dataclass
class SignificantSet:
    """Modes whose eigenvalue strictly exceeds margin * lambda_max of the noise band.

    ``indices`` ascend (so eigenvalues descend); ``ratios`` are each
    eigenvalue over the noise band's upper edge.
    """

    indices: tuple[int, ...]
    eigenvalues: np.ndarray
    ratios: np.ndarray
    law: WishartLaw


def significant_eigenvalues(spec: EigenSpectrum, margin: float = 1.0) -> SignificantSet:
    """Select modes above the noise band, with Q = T/N from the spectrum's own T."""
    if not margin > 0.0:
        raise ConfigurationError(f"margin must be positive, got {margin!r}")
    q = spec.n_observations / spec.n_assets
    law = mp_bounds(q)
    threshold = margin * law.lambda_max
    idx = tuple(int(i) for i in np.flatnonzero(spec.eigenvalues > threshold))
    vals = spec.eigenvalues[list(idx)]
    return SignificantSet(indices=idx, eigenvalues=vals, ratios=vals / law.lambda_max, law=law)
