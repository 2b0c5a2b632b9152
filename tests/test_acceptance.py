"""Release gate: one check per shipped guarantee, one verdict line each.

Run ``pytest -v -s tests/test_acceptance.py`` to read the gate as a
checklist; every criterion prints PASS. Criterion 1 holds the computed
noise-band edges to two-decimal targets at three reference panel shapes by
exact equality of the rounded values. Rows 2 and 3 of its table once held
(0.54, 1.55) and (0.72, 1.33), which (1 -+ 1/sqrt(Q))^2 cannot produce at
their shapes; they now hold the closed-form values (see REFERENCE_PANELS).
"""

import datetime as dt
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import spearmanr

from eigensectors import (
    BlockSpec,
    CorrelationMatrix,
    MarketSpec,
    ShiftRule,
    SubsectorPartition,
    ZeroVarianceError,
    align_calendar,
    block_averages,
    correlation_matrix,
    eigendecompose,
    forward_fill,
    generate,
    log_returns,
    mode_scan,
    mp_bounds,
    mp_cdf,
    mp_density,
    normalize_returns,
    select_components,
    significant_eigenvalues,
)
from eigensectors.cli import main
from helpers import FIXTURE_4X4, noise_returns, panel, returns, spectrum_of


def _verdict(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")


# Panel shapes with the two-decimal band edges they are supposed to hit.
# Edges (1 -+ 1/sqrt(Q))^2 at Q = T/N, by exact decimal arithmetic:
#   N=259 T=2632  Q=10.1622  lambda_min 0.4710152  lambda_max 1.7257933
#   N=259 T=4285  Q=16.5444  lambda_min 0.5687386  lambda_max 1.5521482
#   N=66  T=2668  Q=40.4242  lambda_min 0.7101736  lambda_max 1.3393017
# Rows 2 and 3 first stated (0.54, 1.55) and (0.72, 1.33), of unrecorded
# origin. Row 2 fits no Q: a rounded lambda_min of 0.54 needs Q in
# [13.86, 14.59], a rounded lambda_max of 1.55 needs Q in [16.39, 16.94].
# Row 3 fits only Q in [41.9, 43.8], not 2668/66 = 40.42. A variance-
# rescaled band s^2 (1 -+ 1/sqrt(Q))^2 fits neither, since it keeps
# lambda_min/lambda_max fixed at each Q. Both were replaced by the rounded
# closed-form edges above.
REFERENCE_PANELS = [
    (259, 2632, 0.47, 1.73),
    (259, 4285, 0.57, 1.55),
    (66, 2668, 0.71, 1.34),
]

PLANTED = MarketSpec(
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

PIPELINE_CONFIG = {
    "n_assets": 12,
    "n_observations": 400,
    "market_strength": 0.0,
    "noise_std": 1.0,
    "blocks": [
        {
            "assets": [0, 1, 2, 3, 4, 5],
            "loading": 2.0,
            "sign_pattern": [1, 1, 1, -1, -1, -1],
            "name": "Split",
        }
    ],
    "seed": 7,
}


def test_criterion_1_reference_band_edges():
    # A target that the formula cannot produce at its own row's Q is a table
    # error; report it as such before holding mp_bounds to the table.
    bad_rows = []
    for row, (n, t, lo, hi) in enumerate(REFERENCE_PANELS, start=1):
        root = 1.0 / math.sqrt(t / n)
        if abs((1.0 - root) ** 2 - lo) > 0.005 or abs((1.0 + root) ** 2 - hi) > 0.005:
            bad_rows.append(
                f"  REFERENCE_PANELS row {row} (N={n}, T={t}): target ({lo:.2f}, {hi:.2f})"
                f" is not (1 -+ 1/sqrt(Q))^2 at Q = {t / n:.4f}"
            )
    if bad_rows:
        _verdict(1, "reference band edges", False)
    assert not bad_rows, "reference table is inconsistent with the formula:\n" + "\n".join(bad_rows)

    rows = []
    ok = True
    for n, t, lo, hi in REFERENCE_PANELS:
        law = mp_bounds(t / n)
        got = (round(law.lambda_min, 2), round(law.lambda_max, 2))
        match = got == (lo, hi)
        ok = ok and match
        rows.append(
            f"  N={n:<4d} T={t:<5d} computed ({got[0]:.2f}, {got[1]:.2f})"
            f"  target ({lo:.2f}, {hi:.2f})  {'ok' if match else 'MISMATCH'}"
        )
    _verdict(1, "reference band edges", ok)
    assert ok, "computed band edges vs stated targets:\n" + "\n".join(rows)


def test_criterion_2_density_normalization():
    for q in (1.5, 4.0, 10.0):
        law = mp_bounds(q)
        total, _ = quad(mp_density, law.lambda_min, law.lambda_max, args=(q,))
        assert abs(total - 1.0) < 1e-6, f"q={q}: integral {total!r}"
    _verdict(2, "density normalization", True)


def test_criterion_3_spectral_reconstruction():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 101))
        t = int(rng.integers(n + 2, 3 * n + 200))
        nr = normalize_returns(returns(rng.standard_normal((n, t))))
        cm = correlation_matrix(nr)
        spec = eigendecompose(cm)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        worst = max(worst, float(np.abs(recon - cm.values).max()))
    assert worst < 1e-9, f"worst reconstruction error {worst!r}"
    _verdict(3, "spectral reconstruction", True)


def test_criterion_4_noise_bulk_agreement():
    law = mp_bounds(10.0)
    outside = 0
    total = 0
    for seed in range(10):
        spec = spectrum_of(noise_returns(100, 1000, seed))
        w = np.sort(spec.eigenvalues)
        outside += int(((w < law.lambda_min) | (w > law.lambda_max)).sum())
        total += w.size
        steps = np.arange(1, w.size + 1) / w.size
        cdf = mp_cdf(w, 10.0)
        ks = max(np.abs(steps - cdf).max(), np.abs(steps - 1.0 / w.size - cdf).max())
        assert ks < 0.05, f"seed {seed}: KS distance {ks:.4f}"
    frac = outside / total
    assert frac <= 0.02, f"fraction of eigenvalues outside the band: {frac!r}"
    _verdict(4, "noise bulk agreement", True)


def test_criterion_5_planted_partition_recovery():
    for seed in range(10):
        nr, truth = generate(PLANTED, seed=seed)
        spec = spectrum_of(nr)
        assert 1 in significant_eigenvalues(spec).indices, f"seed {seed}"
        part = select_components(spec, 1, 0.15)
        pos_true = set(truth.blocks[0].positive)
        neg_true = set(truth.blocks[0].negative)
        a, b = set(part.positive), set(part.negative)
        # The mode's overall sign is arbitrary, so score the better orientation.
        direct = len(a & pos_true) + len(b & neg_true)
        flipped = len(a & neg_true) + len(b & pos_true)
        denom = max(len(pos_true) + len(neg_true), len(a) + len(b))
        accuracy = max(direct, flipped) / denom
        assert accuracy >= 0.95, f"seed {seed}: membership accuracy {accuracy!r}"
    _verdict(5, "planted partition recovery", True)


def _tapered_market():
    # Four sign-split blocks with loadings tuned so the block eigenvalues
    # descend with block size and all clear the noise band.
    sizes = (20, 12, 8, 4)
    loadings = (1.110, 1.396, 1.590, 2.327)
    blocks = []
    start = 0
    for k, (m, g) in enumerate(zip(sizes, loadings)):
        blocks.append(
            BlockSpec(
                assets=tuple(range(start, start + m)),
                loading=g,
                sign_pattern=(1,) * (m // 2) + (-1,) * (m - m // 2),
                name=f"B{k}",
            )
        )
        start += m
    return MarketSpec(
        n_assets=400, n_observations=2000, market_strength=1.5, blocks=tuple(blocks)
    )


def test_criterion_6_anticorrelation_vs_baseline():
    nr, _ = generate(_tapered_market(), seed=0)
    c = correlation_matrix(nr)
    spec = eigendecompose(c)
    sig = significant_eigenvalues(spec)
    assert sig.indices == (0, 1, 2, 3, 4)
    report = mode_scan(c, spec, u_c=0.20, trials=1000, seed=0)
    rows = {row.mode_index: row for row in report.rows}
    assert {1, 2, 3, 4} <= rows.keys()
    strongest = rows[1]
    z = (
        strongest.c_pearson - strongest.baseline.pearson_mean
    ) / strongest.baseline.pearson_std
    assert z <= -3.0, f"strongest split mode is only {z:.1f} baseline sigmas out"
    idx = list(sig.indices[1:])
    trend_p, _ = spearmanr(idx, [rows[k].c_pearson for k in idx])
    trend_r, _ = spearmanr(idx, [rows[k].c_raw for k in idx])
    assert trend_p > 0.7, f"rank correlation (pearson) {trend_p!r}"
    assert trend_r > 0.7, f"rank correlation (raw) {trend_r!r}"
    _verdict(6, "anticorrelation vs baseline", True)


def test_criterion_7_block_averages():
    cm = CorrelationMatrix(
        assets=("AAA", "BBB", "CCC", "DDD"),
        values=FIXTURE_4X4.copy(),
        n_observations=1000,
    )
    part = SubsectorPartition(
        assets=cm.assets,
        positive=(0, 1),
        negative=(2, 3),
        positive_weights=np.array([0.5, 0.5]),
        negative_weights=np.array([-0.5, -0.5]),
        anchor_index=0,
    )
    avg = block_averages(cm, part)
    assert avg.within_positive == 0.55
    assert avg.within_negative == 0.95
    assert avg.between == 0.2475

    nr, _ = generate(PLANTED, seed=0)
    spec = spectrum_of(nr)
    planted = block_averages(correlation_matrix(nr), select_components(spec, 1, 0.15))
    assert min(planted.within_positive, planted.within_negative) > planted.between
    _verdict(7, "block averages", True)


def test_criterion_8_pipeline_determinism(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(PIPELINE_CONFIG))
    panel_csv = str(out / "panel.csv")

    def run_chain():
        wide = ["--format", "wide", "--out-dir", str(out)]
        steps = [
            ["synth", "--config", str(cfg), "--out-dir", str(out)],
            ["analyze", "--input", panel_csv, *wide],
            [
                "sectors",
                "--input",
                panel_csv,
                "--metadata",
                str(out / "metadata.csv"),
                "--u-c",
                "0.3",
                *wide,
            ],
            ["anticorr", "--input", panel_csv, "--u-c", "0.3", "--trials", "150", *wide],
        ]
        for argv in steps:
            assert main(argv) == 0, f"{argv[0]} failed"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_chain()
    second = run_chain()
    assert set(first) == set(second)
    assert any(name.endswith(".json") for name in first)
    for name, blob in first.items():
        assert blob == second[name], f"{name} differs between identical runs"
    _verdict(8, "pipeline determinism", True)


def test_criterion_9_data_repair_examples():
    # Gap fill carries the last observed price forward.
    p = panel([[10, None, None, 11], [1, 1, 1, 1]])
    assert list(forward_fill(p).prices[0]) == [10, 10, 10, 11]

    # Weekend sessions fold onto the prior business day; on a collision the
    # business-day value is retained.
    fri, sun, mon, tue = (dt.date(2015, 1, d) for d in (9, 11, 12, 13))
    rule = ShiftRule(assets=("WKD",), source="sunday", target="friday")
    moved = align_calendar(
        panel(
            [[None, 5.0, 6.0, 6.1], [3.0, None, 3.5, 3.6]],
            assets=("WKD", "OTH"),
            dates=(fri, sun, mon, tue),
        ),
        [rule],
    )
    assert moved.dates == (fri, mon, tue)
    assert moved.prices[0, 0] == 5.0
    collided = align_calendar(
        panel(
            [[4.0, 5.0, 6.0, 6.1], [3.0, None, 3.5, 3.6]],
            assets=("WKD", "OTH"),
            dates=(fri, sun, mon, tue),
        ),
        [rule],
    )
    assert collided.prices[0, 0] == 4.0

    # Log-returns: exponential growth gives constant returns, flat prices zero.
    e = math.e
    rm = log_returns(panel([[1.0, e, e * e], [2.0, 2.0, 2.0]]))
    assert np.abs(rm.values[0] - 1.0).max() < 1e-12
    assert np.abs(rm.values[1]).max() == 0.0
    flat = log_returns(panel([[7.0, 7.0, 7.0, 7.0], [1.0, 2.0, 4.0, 8.0]]))
    assert np.abs(flat.values[0]).max() == 0.0
    wide = log_returns(panel([[1.0, e, e * e], [5.0, 4.0, 3.0]]), delta_t=2)
    assert wide.values.shape[1] == 1
    assert abs(wide.values[0, 0] - 2.0) < 1e-12

    # Normalization: two-point row, fixed point, zero-variance rejection.
    nr = normalize_returns(returns([[1.0, 3.0], [0.0, 2.0]]))
    assert list(nr.values[0]) == [-1.0, 1.0]
    row = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2 / 3)
    again = normalize_returns(returns([row.tolist(), [1.0, 2.0, 0.0]]))
    assert np.abs(again.values[0] - row).max() < 1e-12
    with pytest.raises(ZeroVarianceError) as err:
        normalize_returns(
            returns([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]], assets=("FLAT", "OK"))
        )
    assert "FLAT" in str(err.value)
    _verdict(9, "data repair examples", True)
