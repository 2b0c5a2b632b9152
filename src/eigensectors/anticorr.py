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
baseline trial is a uniform ordered draw of k = n+ + n- distinct assets; the
first n+ take the plus weights and the next n- the minus weights.

A trial needs only the k x k block of C on its assets. While k is small
(k^2 <= _GATHER_RATIO * N^1.5) each trial's assets come from a partial
Fisher-Yates shuffle over the first k positions, and the three quadratic
forms from the blocks C[P, P], C[M, M] and C[P, M] gathered for chunks of
trials of bounded size: O(k^2) work per trial. Nearer k = N (u_c = 0 gives
k = N) a full shuffle per trial and two dense products with C cost less.
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
# Route rule of the baseline. A gathered trial costs ~k^2 and a dense one
# ~N^1.5 (the BLAS runs faster as N grows); the gather is used while
# k^2 <= _GATHER_RATIO * N^1.5. At 100 trials on one CPU the two routes broke
# even at k^2 / N^1.5 of 0.34-0.60 for N from 66 to 1000 (see CHANGES.md);
# the low end is taken, so the gather is not the slower route at those N.
_GATHER_RATIO = 0.35
# Cells (8 bytes each) in one chunk of gathered trials: of the (chunk, N)
# index array while they are drawn, of their gathered blocks while they are
# evaluated.
_CHUNK_CELLS = 1 << 17


def _pearson(raw: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """raw / sqrt(denom), NaN where denom <= 0."""
    pearson = np.full(raw.shape, np.nan)
    ok = denom > 0.0
    pearson[ok] = raw[ok] / np.sqrt(denom[ok])
    return pearson


def _cross_correlation(
    c: np.ndarray, plus, w_plus, minus, w_minus
) -> tuple[np.ndarray, np.ndarray]:
    """Raw and Pearson co-movement of the two weighted combinations at each placement.

    Row k of ``plus`` and of ``minus`` lists the disjoint assets that take
    ``w_plus`` and ``w_minus``, in order. The Pearson value is NaN where
    var_plus * var_minus <= 0; the raw value is always defined. Dense: each
    placement costs two N x N matrix-vector products.
    """
    a = np.zeros((len(plus), len(c)))
    b = np.zeros_like(a)
    np.put_along_axis(a, np.asarray(plus), w_plus, axis=1)
    np.put_along_axis(b, np.asarray(minus), w_minus, axis=1)
    ac = a @ c
    bc = b @ c
    raw = np.einsum("ij,ij->i", ac, b)
    denom = np.einsum("ij,ij->i", ac, a) * np.einsum("ij,ij->i", bc, b)
    return raw, _pearson(raw, denom)


def _gathered_cross_correlation(
    c: np.ndarray, plus: np.ndarray, w_plus, minus: np.ndarray, w_minus
) -> tuple[np.ndarray, np.ndarray]:
    """``_cross_correlation`` from the blocks of C on each placement's own assets.

    Each quadratic form w_R^T C[R, S] w_S is one gather of every placement's
    |R| x |S| block and one dot product per placement with the flattened
    outer product of the weights: O(k^2) per placement. The dot products are
    one stacked ``matmul``, not a matrix-vector product over all placements,
    whose bits can depend on how many placements it is given; this way a
    placement's values do not. A ``c`` that is not C-contiguous is copied on
    each call.
    """
    n = len(c)
    cells = c.ravel()

    def form(rows, cols, w_rows, w_cols):
        block = cells.take((rows * n)[:, :, None] + cols[:, None, :])
        return (block.reshape(len(rows), 1, -1) @ np.outer(w_rows, w_cols).ravel())[:, 0]

    raw = form(plus, minus, w_plus, w_minus)
    denom = form(plus, plus, w_plus, w_plus) * form(minus, minus, w_minus, w_minus)
    return raw, _pearson(raw, denom)


def _first_positions(targets: np.ndarray, n: int) -> np.ndarray:
    """The first k positions of a partial Fisher-Yates shuffle of range(n), per trial.

    Row t of ``targets`` holds trial t's swap targets, with targets[t, j] in
    [j, n). Step j swaps positions j and targets[:, j] of every trial at once,
    so the loop runs over the k positions, never over trials. Position j is
    final after step j and never read again, so only its partner is written.
    """
    m, k = targets.shape
    order = np.repeat(np.arange(n), m)  # position p of trial t at p * m + t
    swap = targets.T * m + np.arange(m)
    drawn = np.empty((k, m), dtype=order.dtype)
    for j in range(k):
        drawn[j] = order.take(swap[j])
        order.put(swap[j], order[j * m:(j + 1) * m].copy())  # a view would copy all of order
    return drawn.T


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

    Each trial draws k = n+ + n- distinct assets as a uniform ordered draw:
    the first n+ take the plus weight magnitudes and the next n- the minus
    ones, both in their given order and made positive. A uniform ordered draw
    makes the assets that meet each weight uniform, so no shuffle of the
    weights is needed. The trial records the raw and Pearson correlation of
    the two combinations. ``seed`` may be an int or a numpy SeedSequence.

    The route depends on (k, N) alone. While k^2 <= _GATHER_RATIO * N^1.5,
    one ``Generator.integers`` call draws every trial's swap targets, k per
    trial with target j in [j, N), for a partial Fisher-Yates shuffle over the
    first k positions. Trials are then drawn, and evaluated on their gathered
    blocks of C, in chunks of about _CHUNK_CELLS cells; as the targets are
    drawn up front and each trial is evaluated on its own, the samples do not
    depend on the chunk size. Above that k, one ``Generator.permuted`` call
    orders all N assets of every trial and the dense evaluator runs.
    """
    w_plus = np.abs(np.asarray(weights[0], dtype=float))
    w_minus = np.abs(np.asarray(weights[1], dtype=float))
    n_plus, n_minus = w_plus.size, w_minus.size
    n = c.n_assets
    k = n_plus + n_minus
    if n_plus < 1 or n_minus < 1:
        raise ConfigurationError(f"subset sizes must be >= 1, got ({n_plus}, {n_minus})")
    if k > n:
        raise ConfigurationError(
            f"subset sizes {n_plus}+{n_minus} exceed the {n} available assets"
        )
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials!r}")
    try:  # before any draw: a count no array can hold fails at once
        raw_samples, pearson_samples = np.empty(trials), np.empty(trials)
    except ValueError:
        raise MemoryError(f"{trials} baseline trials do not fit in memory") from None
    rng = np.random.default_rng(seed)
    if k * k > _GATHER_RATIO * n**1.5:
        order = rng.permuted(np.broadcast_to(np.arange(n), (trials, n)), axis=1)
        raw_samples[:], pearson_samples[:] = _cross_correlation(
            c.values, order[:, :n_plus], w_plus, order[:, n_plus:k], w_minus
        )
    else:
        targets = rng.integers(np.arange(k), n, size=(trials, k))
        step = max(1, _CHUNK_CELLS // n)
        drawn = np.concatenate(
            [_first_positions(targets[lo:lo + step], n) for lo in range(0, trials, step)]
        )
        values = np.ascontiguousarray(c.values)
        step = max(1, _CHUNK_CELLS // (k * k))
        for lo in range(0, trials, step):
            chunk = drawn[lo:lo + step]
            raw_samples[lo:lo + step], pearson_samples[lo:lo + step] = (
                _gathered_cross_correlation(
                    values, chunk[:, :n_plus], w_plus, chunk[:, n_plus:], w_minus
                )
            )
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
        (c_raw,), (c_pearson,) = _cross_correlation(
            c.values, [part.positive], part.positive_weights, [part.negative], part.negative_weights
        )
        baseline = random_baseline(
            c,
            weights=(part.positive_weights, part.negative_weights),
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
