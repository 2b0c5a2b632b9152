"""Sign-split subsectors of eigenmodes and their category labeling.

A significant eigenmode beyond the market mode typically carries one group
of assets with large positive components and another with large negative
components; thresholding |u_i| at u_c yields the two subsectors. Labels
come from an asset -> category mapping and a majority rule.
"""

__all__ = [
    "DEFAULT_STOCK_THRESHOLDS",
    "LabelReport",
    "SectorRow",
    "SubsectorPartition",
    "is_single_signed",
    "label_subsector",
    "sector_table",
    "select_components",
]

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corrmatrix import EigenSpectrum
from .exceptions import ConfigurationError
from .rmt import SignificantSet
from .timeseries import _real

DEFAULT_STOCK_THRESHOLDS = (0.08, 0.10)

NULL_LABEL = "Null"
UNLABELED = "Unlabeled"


@dataclass
class SubsectorPartition:
    """Index sets with eigenvector components >= +u_c and <= -u_c for one mode.

    Indices are ascending asset positions; weights are the signed components
    in the same order. At u_c = 0 the split is by strict sign, so the sides
    stay disjoint.
    """

    assets: tuple[str, ...]
    positive: tuple[int, ...]
    negative: tuple[int, ...]
    positive_weights: np.ndarray
    negative_weights: np.ndarray
    anchor_index: int


@dataclass
class LabelReport:
    """Majority-rule label for one subsector side.

    ``matched`` counts members in the modal category even when the modal
    share falls under 50% and the dominant label degrades to "Null".
    Members absent from the metadata count toward ``total`` only.
    """

    dominant_category: str
    matched: int
    total: int
    members: tuple[str, ...]
    member_categories: tuple[str | None, ...]


@dataclass
class SectorRow:
    """One line of the sector table: a (mode, threshold, sign) cell."""

    mode_index: int
    eigenvalue: float
    threshold: float
    sign: str
    anchor_asset: str
    report: LabelReport


def _threshold(u_c: float) -> float:
    """u_c as a float, negative zero as 0; ConfigurationError unless 0 <= u_c < inf."""
    u_c = _real(u_c, "threshold u_c")
    if u_c < 0.0:
        raise ConfigurationError(f"threshold u_c must be >= 0, got {u_c!r}")
    if not np.isfinite(u_c):
        raise ConfigurationError(f"threshold u_c must be finite, got {u_c!r}")
    return u_c + 0.0


def _threshold_ladder(thresholds: Sequence[float]) -> list[float]:
    """The thresholds as checked floats; ConfigurationError unless non-empty and strictly ascending."""
    thresholds = [_real(t, "threshold u_c") for t in thresholds]
    if not thresholds:
        raise ConfigurationError("need at least one threshold")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ConfigurationError(f"thresholds must be strictly ascending: {thresholds}")
    return [_threshold(u_c) for u_c in thresholds]


def select_components(spec: EigenSpectrum, alpha: int, u_c: float) -> SubsectorPartition:
    """Split mode alpha's components at +-u_c (non-strict at the threshold).

    u_c should exceed the delocalized component scale 1/sqrt(N); smaller
    positive values trigger a warning. u_c = 0 is the sanctioned sign-split
    scan mode (strict inequalities). Negative or non-finite u_c is rejected.
    """
    u = spec.vector(alpha)
    u_c = _threshold(u_c)
    scale = 1.0 / np.sqrt(spec.n_assets)
    if 0.0 < u_c <= scale:
        warnings.warn(
            f"u_c={u_c:g} does not exceed the delocalized component scale "
            f"1/sqrt(N)={scale:.4f}; subsectors will pick up noise components",
            stacklevel=2,
        )
    pos = np.flatnonzero((u >= u_c) & (u > 0.0))  # at u_c = 0 a zero component joins neither side
    neg = np.flatnonzero((u <= -u_c) & (u < 0.0))
    return SubsectorPartition(
        assets=spec.assets,
        positive=tuple(int(i) for i in pos),
        negative=tuple(int(i) for i in neg),
        positive_weights=u[pos].copy(),
        negative_weights=u[neg].copy(),
        anchor_index=spec.anchor_index(alpha),
    )


def label_subsector(members: Sequence[str], metadata: Mapping[str, str] | None) -> LabelReport:
    """Label a subsector side's members by modal category; "Null" under 50% modal share.

    metadata=None labels every member "Unlabeled" (the no-metadata pipeline
    case); a mapping that merely lacks some assets leaves those members
    uncovered, counting toward the total but never toward the match.
    """
    members = tuple(members)
    if metadata is None:
        cats: tuple[str | None, ...] = tuple(UNLABELED for _ in members)
    else:
        cats = tuple(metadata.get(m) for m in members)
    total = len(members)
    counts = Counter(c for c in cats if c is not None)
    if not counts:
        return LabelReport(NULL_LABEL, 0, total, members, cats)
    # modal category; ties resolved toward the lexicographically smallest name
    best = max(counts.values())
    modal = min(c for c, n in counts.items() if n == best)
    matched = counts[modal]
    dominant = modal if matched / total >= 0.5 else NULL_LABEL
    return LabelReport(dominant, matched, total, members, cats)


def is_single_signed(spec: EigenSpectrum, alpha: int) -> bool:
    """True when every component of the mode shares one sign (market-mode shape)."""
    u = spec.vector(alpha)
    return bool(np.all(u >= 0.0) or np.all(u <= 0.0))


def _without_market_mode(spec: EigenSpectrum, modes, include_market_mode: bool) -> list[int]:
    """modes less mode 0 when all its components share one sign (the market mode), unless include_market_mode."""
    return [alpha for alpha in modes if alpha or include_market_mode or not is_single_signed(spec, 0)]


def sector_table(
    spec: EigenSpectrum,
    significant: SignificantSet,
    thresholds: Sequence[float],
    metadata: Mapping[str, str] | None,
    include_market_mode: bool = False,
) -> list[SectorRow]:
    """Label reports for every (threshold, significant mode, sign) combination.

    Thresholds must be given ascending, each finite and >= 0, even when no
    mode is significant. Mode 0 is dropped when all its components share
    one sign (the market mode carries no sign split), unless
    include_market_mode is set.
    """
    thresholds = _threshold_ladder(thresholds)
    modes = _without_market_mode(spec, significant.indices, include_market_mode)
    rows: list[SectorRow] = []
    for u_c in thresholds:
        for alpha in modes:
            part = select_components(spec, alpha, u_c)
            anchor = spec.assets[part.anchor_index]
            lam = float(spec.eigenvalues[alpha])
            for sign, side in (("+", part.positive), ("-", part.negative)):
                members = tuple(spec.assets[i] for i in side)
                rows.append(
                    SectorRow(
                        mode_index=alpha,
                        eigenvalue=lam,
                        threshold=u_c,
                        sign=sign,
                        anchor_asset=anchor,
                        report=label_subsector(members, metadata),
                    )
                )
    return rows
