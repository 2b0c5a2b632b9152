"""Wishart / Marchenko-Pastur reference law and significant-mode selection.

For T observations of N uncorrelated unit-variance series, the eigenvalue
density of the sample correlation matrix converges (N, T -> inf at fixed
Q = T/N >= 1) to

    rho(lam) = (Q / 2 pi) * sqrt((lam_max - lam)(lam - lam_min)) / lam

supported on lam_minmax = (1 -+ 1/sqrt(Q))^2. Eigenvalues above lam_max
carry genuine correlation structure.
"""

__all__ = [
    "SignificantSet",
    "WishartLaw",
    "mp_bounds",
    "mp_cdf",
    "mp_density",
    "significant_eigenvalues",
]

from dataclasses import dataclass

import numpy as np

from .corrmatrix import EigenSpectrum
from .exceptions import ConfigurationError, DomainError
from .timeseries import _real


@dataclass(frozen=True)
class WishartLaw:
    """Support of the noise eigenvalue density at aspect ratio q = T/N."""

    q: float
    lambda_min: float
    lambda_max: float


def mp_bounds(q: float) -> WishartLaw:
    """Noise band edges (1 -+ 1/sqrt(q))^2. Requires q >= 1."""
    q = _real(q, "aspect ratio q")
    if not q >= 1.0:
        raise DomainError(f"aspect ratio q must be >= 1, got {q!r}")
    root = 1.0 / np.sqrt(q)
    return WishartLaw(q=q, lambda_min=(1.0 - root) ** 2, lambda_max=(1.0 + root) ** 2)


def mp_density(lam, q: float):
    """Noise eigenvalue density, 0 outside the support (and at lam = 0).

    Accepts a scalar or array; returns the same shape.
    """
    law = mp_bounds(q)
    lam = np.asarray(lam, dtype=float)
    inside = (lam > 0.0) & (lam >= law.lambda_min) & (lam <= law.lambda_max)
    x = np.where(inside, lam, law.lambda_max)  # outside, a point of the support stands in
    prod = (law.lambda_max - x) * (x - law.lambda_min)
    return np.where(inside, (law.q / (2.0 * np.pi)) * np.sqrt(np.clip(prod, 0.0, None)) / x, 0.0)[()]


def mp_cdf(lam, q: float):
    """Cumulative form of mp_density by trapezoid integration on 20001 points.

    Normalized so the CDF reaches exactly 1 at the upper edge; adequate for
    distribution comparisons (KS-style) away from the q = 1 hard edge.
    """
    law = mp_bounds(q)
    grid = np.linspace(law.lambda_min, law.lambda_max, 20001)
    dens = mp_density(grid, q)
    cume = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))))
    cume /= cume[-1]
    return np.interp(np.asarray(lam, dtype=float), grid, cume, left=0.0, right=1.0)


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


def _margin(margin: float) -> float:
    """margin as a float; ConfigurationError unless it is a number with 0 < margin < inf."""
    if not 0.0 < (margin := _real(margin, "margin")) < np.inf:
        raise ConfigurationError(f"margin must be {'finite' if margin > 0.0 else 'positive'}, got {margin!r}")
    return margin


def significant_eigenvalues(spec: EigenSpectrum, margin: float = 1.0) -> SignificantSet:
    """Select modes above the noise band, with Q = T/N from the spectrum's own T."""
    margin = _margin(margin)
    q = spec.n_observations / spec.n_assets
    law = mp_bounds(q)
    threshold = margin * law.lambda_max
    idx = tuple(int(i) for i in np.flatnonzero(spec.eigenvalues > threshold))
    vals = spec.eigenvalues[list(idx)]
    return SignificantSet(indices=idx, eigenvalues=vals, ratios=vals / law.lambda_max, law=law)
