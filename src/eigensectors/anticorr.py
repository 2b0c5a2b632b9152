"""Cross-correlation between a mode's positive and negative subsectors.

For a mode's sign-split partition the two combination series are

    I_plus(t)  = sum_{i in P} w_i r_i(t)
    I_minus(t) = sum_{j in M} w_j r_j(t)

over the disjoint sets P and M with the signed components as weights. Their
co-movement is summarized as the raw time average <I_plus I_minus> and its
Pearson-normalized variant. Normalized rows have mean 0 and population
variance 1, so every one of these numbers is a function of C alone:

    <I_plus I_minus> = w_P^T C[P, M] w_M
    var I_plus       = w_P^T C[P, P] w_P
    var I_minus      = w_M^T C[M, M] w_M
    pearson          = <I_plus I_minus> / sqrt(var I_plus * var I_minus)

and they are computed from C, never from the return series. The reference
level is a random-combination baseline: the same weight magnitudes, all
positive, assigned to random disjoint asset subsets of the same sizes. Each
baseline trial is one uniform ordering of the assets; its first n+ assets
take the plus weights and the next n- the minus weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corrmatrix import CorrelationMatrix, EigenSpectrum
from .exceptions import ConfigurationError
from .sectors import SubsectorPartition, select_components

MIN_REPORT_TRIALS = 100


def _cross_correlation(
    c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Raw and Pearson co-movement for each row pair of weight arrays a, b.

    Row k of ``a`` and ``b`` holds the full-length (N) weights of the two
    combinations; their supports must be disjoint. The Pearson value is NaN
    where var_plus * var_minus <= 0; the raw value is always defined.
    """
    ac = a @ c
    bc = b @ c
    raw = np.einsum("ij,ij->i", ac, b)
    denom = np.einsum("ij,ij->i", ac, a) * np.einsum("ij,ij->i", bc, b)
    pearson = np.full(raw.shape, np.nan)
    ok = denom > 0.0
    pearson[ok] = raw[ok] / np.sqrt(denom[ok])
    return raw, pearson


@dataclass
class BaselineStats:
    """Random-combination reference distribution for one partition's shape.

    ``pearson_*`` are the headline statistics (population std over trials);
    the raw-product summaries ride along for like-for-like comparison with
    the raw cross-correlation.
    """

    pearson_mean: float
    pearson_std: float
    raw_mean: float
    raw_std: float
    n_trials: int
    pearson_samples: np.ndarray = field(repr=False)
    raw_samples: np.ndarray = field(repr=False)


def random_baseline(
    c: CorrelationMatrix,
    weights: tuple[Sequence[float], Sequence[float]],
    trials: int = 1000,
    seed=None,
) -> BaselineStats:
    """Correlation of two randomly drawn, disjoint, positively weighted combinations.

    Each trial is one uniform random ordering of the N assets: the first n+
    assets take the plus weight magnitudes and the next n- take the minus
    ones, both in their given order and made positive. A uniform ordering
    makes the assets that meet each weight a uniform random ordered draw, so
    no further shuffle of the weights is needed. The trial records the raw
    and Pearson correlation of the two combinations. All trials come from
    one ``Generator.permuted`` call. ``seed`` may be an int or a numpy
    SeedSequence.
    """
    w_plus = np.abs(np.asarray(weights[0], dtype=float))
    w_minus = np.abs(np.asarray(weights[1], dtype=float))
    n_plus, n_minus = w_plus.size, w_minus.size
    n = c.n_assets
    if n_plus < 1 or n_minus < 1:
        raise ConfigurationError(f"subset sizes must be >= 1, got ({n_plus}, {n_minus})")
    if n_plus + n_minus > n:
        raise ConfigurationError(
            f"subset sizes {n_plus}+{n_minus} exceed the {n} available assets"
        )
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.default_rng(seed)
    a = np.zeros((trials, n))
    b = np.zeros((trials, n))
    rows = np.arange(trials)[:, None]
    order = rng.permuted(np.broadcast_to(np.arange(n), (trials, n)), axis=1)
    a[rows, order[:, :n_plus]] = w_plus
    b[rows, order[:, n_plus:n_plus + n_minus]] = w_minus
    raw_samples, pearson_samples = _cross_correlation(c.values, a, b)
    return BaselineStats(
        pearson_mean=float(pearson_samples.mean()),
        pearson_std=float(pearson_samples.std()),
        raw_mean=float(raw_samples.mean()),
        raw_std=float(raw_samples.std()),
        n_trials=int(trials),
        pearson_samples=pearson_samples,
        raw_samples=raw_samples,
    )


@dataclass
class ModeScanRow:
    """Cross-correlation and baseline for one scanned mode."""

    mode_index: int
    eigenvalue: float
    n_positive: int
    n_negative: int
    c_raw: float
    c_pearson: float
    baseline: BaselineStats
    partition: SubsectorPartition = field(repr=False)


@dataclass
class SkippedMode:
    mode_index: int
    reason: str


@dataclass
class AnticorrReport:
    """Scan of C_plus_minus across modes, with per-mode random baselines."""

    u_c: float
    trials: int
    seed: int
    include_market_mode: bool
    n_assets: int
    n_observations: int
    rows: list[ModeScanRow]
    skipped: list[SkippedMode]


def mode_scan(
    c: CorrelationMatrix,
    spec: EigenSpectrum,
    u_c: float,
    trials: int = 1000,
    seed: int = 0,
    include_market_mode: bool = False,
) -> AnticorrReport:
    """Scan every mode with both subsectors populated at the given u_c.

    Rows come back ordered by mode index ascending; modes with an empty side
    are listed under ``skipped``. The market mode (0) is excluded by default.
    Per-mode baseline streams derive deterministically from (seed, mode).
    """
    if spec.assets != c.assets:
        raise ConfigurationError("spectrum and correlation matrix refer to different assets")
    if int(seed) != seed or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    if trials < MIN_REPORT_TRIALS:
        raise ConfigurationError(
            f"reports need >= {MIN_REPORT_TRIALS} baseline trials, got {trials}"
        )
    seed = int(seed)
    n = spec.n_assets
    rows: list[ModeScanRow] = []
    skipped: list[SkippedMode] = []
    first = 0 if include_market_mode else 1
    for alpha in range(first, n):
        part = select_components(spec, alpha, u_c)
        n_pos, n_neg = len(part.positive), len(part.negative)
        if n_pos == 0 or n_neg == 0:
            empty = []
            if n_pos == 0:
                empty.append("positive")
            if n_neg == 0:
                empty.append("negative")
            skipped.append(
                SkippedMode(alpha, f"empty {' and '.join(empty)} side at u_c={u_c:g}")
            )
            continue
        w_plus = np.zeros((1, n))
        w_minus = np.zeros((1, n))
        w_plus[0, list(part.positive)] = part.positive_weights
        w_minus[0, list(part.negative)] = part.negative_weights
        (c_raw,), (c_pearson,) = _cross_correlation(c.values, w_plus, w_minus)
        baseline = random_baseline(
            c,
            weights=(np.abs(part.positive_weights), np.abs(part.negative_weights)),
            trials=trials,
            seed=np.random.SeedSequence([seed, alpha]),
        )
        rows.append(
            ModeScanRow(
                mode_index=alpha,
                eigenvalue=float(spec.eigenvalues[alpha]),
                n_positive=n_pos,
                n_negative=n_neg,
                c_raw=float(c_raw),
                c_pearson=float(c_pearson),
                baseline=baseline,
                partition=part,
            )
        )
    return AnticorrReport(
        u_c=float(u_c),
        trials=int(trials),
        seed=seed,
        include_market_mode=include_market_mode,
        n_assets=n,
        n_observations=c.n_observations,
        rows=rows,
        skipped=skipped,
    )


@dataclass
class BlockAverages:
    """Mean correlations inside and across the two subsectors.

    ``None`` marks an undefined average (a side with fewer than 2 members
    for the within averages, an empty side for the between average).
    """

    within_positive: float | None
    within_negative: float | None
    between: float | None
    n_positive: int
    n_negative: int


def block_averages(c: CorrelationMatrix, partition: SubsectorPartition) -> BlockAverages:
    """Average C_ij over within-positive, within-negative, and cross pairs."""
    if partition.assets != c.assets:
        raise ConfigurationError(
            "partition and correlation matrix refer to different asset sets"
        )
    pos = list(partition.positive)
    neg = list(partition.negative)

    def within(idx: list[int]) -> float | None:
        if len(idx) < 2:
            return None
        sub = c.values[np.ix_(idx, idx)]
        m = len(idx)
        return float((sub.sum() - np.trace(sub)) / (m * (m - 1)))

    between = None
    if pos and neg:
        between = float(c.values[np.ix_(pos, neg)].mean())
    return BlockAverages(
        within_positive=within(pos),
        within_negative=within(neg),
        between=between,
        n_positive=len(pos),
        n_negative=len(neg),
    )


def report_to_dict(report: AnticorrReport) -> dict:
    """JSON-ready dict for an AnticorrReport (deterministic layout)."""
    return {
        "u_c": report.u_c,
        "trials": report.trials,
        "seed": report.seed,
        "include_market_mode": report.include_market_mode,
        "n_assets": report.n_assets,
        "n_observations": report.n_observations,
        "modes": [
            {
                "mode": row.mode_index,
                "eigenvalue": row.eigenvalue,
                "n_positive": row.n_positive,
                "n_negative": row.n_negative,
                "c_raw": row.c_raw,
                "c_pearson": row.c_pearson,
                "baseline_pearson_mean": row.baseline.pearson_mean,
                "baseline_pearson_std": row.baseline.pearson_std,
                "baseline_raw_mean": row.baseline.raw_mean,
                "baseline_raw_std": row.baseline.raw_std,
            }
            for row in report.rows
        ],
        "skipped": [
            {"mode": s.mode_index, "reason": s.reason} for s in report.skipped
        ],
    }


def write_scan_delimited(report: AnticorrReport, path) -> None:
    """Plot-ready file: mode, C raw, C pearson, baseline mean, baseline std."""
    path = Path(path)
    lines = ["mode,c_raw,c_pearson,baseline_mean,baseline_std"]
    for row in report.rows:
        lines.append(
            f"{row.mode_index},{row.c_raw:.17g},{row.c_pearson:.17g},"
            f"{row.baseline.pearson_mean:.17g},{row.baseline.pearson_std:.17g}"
        )
    path.write_text("\n".join(lines) + "\n")
