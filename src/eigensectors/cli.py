"""Command-line pipeline: analyze / sectors / anticorr / synth.

Each stage writes deterministic JSON and delimited artifacts into --out-dir
(byte-identical for identical configuration and seed at a fixed BLAS thread
count and OpenBLAS kernel: under OPENBLAS_CORETYPE=Haswell, 46 842 of
paper_scan's 67 081 C cells differ from the SkylakeX kernel's; the benchmark
pins OPENBLAS_NUM_THREADS=1) and embeds the exact configuration it ran
with. Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numerical error or out of memory.
"""

import argparse
import sys
import warnings
from pathlib import Path

from . import anticorr as ac
from . import corrmatrix as cm
from . import rmt
from . import sectors as sec
from . import synth
from . import timeseries as ts
from .exceptions import (
    ConfigurationError,
    DataError,
    EigensectorsError,
    InsufficientDataError,
    NumericalError,
    ZeroVarianceError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1 for usage
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_report(args, name: str, report: dict) -> None:
    """Write a stage report with every parsed option echoed under "config"."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    ts._write_json(Path(args.out_dir) / name, {**report, "config": config})


def _existing(path: str, what: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} not found: {path}")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _analysis_input(args) -> tuple[cm.CorrelationMatrix, cm.EigenSpectrum, list[str]]:
    """C, its spectrum and the dropped zero-variance assets, from --matrix or from prices."""
    matrix = getattr(args, "matrix", None)  # analyze has no --matrix
    if matrix and args.input:
        raise ConfigurationError(f"{args.command} takes --input or --matrix, not both")
    dropped: list[str] = []
    if matrix:
        c = cm.load_matrix(_existing(matrix, "matrix artifact"))
    elif not args.input:
        raise ConfigurationError(f"{args.command} needs --input or --matrix")
    else:
        delta_t = ts._whole(args.delta_t, "delta_t", 1)  # before the file is read
        panel = ts.load_prices(_existing(args.input, "input file"), fmt=args.format)
        rm = ts.log_returns(ts.trim_to_common_range(ts.forward_fill(panel)), delta_t=delta_t)
        try:
            nr = ts.normalize_returns(rm)
        except ZeroVarianceError as exc:
            if not args.drop_zero_variance:
                raise
            dropped = exc.assets
            print(f"warning: dropping zero-variance assets: {', '.join(dropped)}", file=sys.stderr)
            nr = ts.normalize_returns(ts.drop_assets(rm, dropped))
        c = cm.correlation_matrix(nr)
    if c.n_observations < c.n_assets:  # the noise band and a full-rank C need T >= N
        raise InsufficientDataError(
            f"N={c.n_assets} assets need at least as many return observations, "
            f"got T={c.n_observations}"
        )
    return c, cm.eigendecompose(c), dropped


def cmd_analyze(args) -> int:
    rmt._margin(args.margin)  # each option before the input is read, by the rule the library applies
    c, spec, dropped = _analysis_input(args)
    sig = rmt.significant_eigenvalues(spec, margin=args.margin)
    out = _out_dir(args)
    sidecar = cm.save_matrix(c, out / "corr_matrix.csv")
    _write_report(args, "analysis_report.json", {
        "n_assets": c.n_assets,
        "n_observations": c.n_observations,
        "q": sig.law.q,
        "lambda_min_noise": sig.law.lambda_min,
        "lambda_max_noise": sig.law.lambda_max,
        "mean_offdiagonal": cm.mean_offdiagonal(c),
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "significant_modes": [
            {"mode": i, "eigenvalue": float(v), "ratio_to_noise_edge": float(r)}
            for i, v, r in zip(sig.indices, sig.eigenvalues, sig.ratios)
        ],
        "dropped_assets": dropped,
        "artifacts": {"matrix": "corr_matrix.csv", "sidecar": sidecar.name},
    })
    print(
        f"analyze: N={c.n_assets} T={c.n_observations} "
        f"Q={sig.law.q:.3f} "
        f"noise band=[{sig.law.lambda_min:.4f}, {sig.law.lambda_max:.4f}] "
        f"significant={list(sig.indices)}"
    )
    print(f"wrote {out / 'analysis_report.json'}")
    return 0


def _thresholds(values) -> list[float]:
    """Each threshold checked, -0 read as 0 and repeats merged; two that %g prints alike would share artifacts."""
    thresholds = list(dict.fromkeys(map(sec._threshold, values)))
    named = {}
    for u_c in thresholds:
        if (other := named.setdefault(f"{u_c:g}", u_c)) != u_c:
            raise ConfigurationError(f"thresholds {other!r} and {u_c!r} both print as {u_c:g} in the artifacts")
    return thresholds


def cmd_sectors(args) -> int:
    thresholds = args.u_c or list(sec.DEFAULT_STOCK_THRESHOLDS)
    checked = _thresholds(thresholds)  # before the input is read, with the order sector_table requires
    sec._threshold_ladder(thresholds)
    rmt._margin(args.margin)
    _, spec, _ = _analysis_input(args)
    sig = rmt.significant_eigenvalues(spec, margin=args.margin)
    metadata = None
    if args.metadata and Path(args.metadata).exists():
        metadata = ts.load_metadata(Path(args.metadata))
    elif args.metadata:
        print(
            f"warning: metadata file {Path(args.metadata)} not found; labels default to "
            f"{sec.UNLABELED!r}",
            file=sys.stderr,
        )
    rows = sec.sector_table(
        spec,
        sig,
        thresholds,
        metadata,
        include_market_mode=args.include_market_mode,
    )
    out = _out_dir(args)
    ts._write_table(out / "sectors.csv", [
        ("u_c", "mode", "eigenvalue", "sign", "anchor_asset", "dominant", "matched", "total", "members"),
        *((f"{r.threshold:g}", r.mode_index, r.eigenvalue, r.sign, r.anchor_asset, r.report.dominant_category,
           r.report.matched, r.report.total, ts._csv_line(r.report.members, ";")) for r in rows),
    ])
    _write_report(args, "sectors.json", {
        "thresholds": checked,
        "rows": [
            {
                "u_c": r.threshold,
                "mode": r.mode_index,
                "eigenvalue": r.eigenvalue,
                "sign": r.sign,
                "anchor_asset": r.anchor_asset,
                "dominant": r.report.dominant_category,
                "matched": r.report.matched,
                "total": r.report.total,
                "members": list(r.report.members),
                "member_categories": list(r.report.member_categories),
            }
            for r in rows
        ],
    })
    print(f"sectors: {len(rows)} table rows over thresholds {checked}")
    print(f"wrote {out / 'sectors.json'}")
    return 0


def _run_scan(args, c, spec, u_c: float, out: Path) -> None:
    report = ac.mode_scan(
        c,
        spec,
        u_c,
        trials=args.trials,
        seed=args.seed,
        include_market_mode=args.include_market_mode,
    )
    tag = f"uc{u_c:g}".replace(".", "p")
    _write_report(args, f"anticorr_{tag}.json", ac.report_to_dict(report))
    ac.write_scan_delimited(report, out / f"anticorr_scan_{tag}.csv")

    blocks = [(row.mode_index, ac.block_averages(c, row.partition)) for row in report.rows]
    ts._write_table(out / f"block_averages_{tag}.csv", [
        ("u_c", "mode", "n_positive", "n_negative", "within_positive", "within_negative", "between"),
        *((f"{u_c:g}", mode, b.n_positive, b.n_negative, b.within_positive, b.within_negative, b.between)
          for mode, b in blocks),
    ])
    print(
        f"anticorr u_c={u_c:g}: {len(report.rows)} modes scanned, "
        f"{len(report.skipped)} skipped, trials={report.trials}"
    )


def cmd_anticorr(args) -> int:
    thresholds = args.u_c or [sec.DEFAULT_STOCK_THRESHOLDS[-1]]
    if args.u_c_zero_scan:
        thresholds = thresholds + [0.0]
    thresholds = _thresholds(thresholds)  # before the input is read; each distinct one is scanned once
    ac._scan_seed(args.trials, args.seed)
    c, spec, _ = _analysis_input(args)
    out = _out_dir(args)
    for u_c in thresholds:
        _run_scan(args, c, spec, u_c, out)
    print(f"wrote scan artifacts under {out}")
    return 0


def cmd_synth(args) -> int:
    ts._whole(args.seed or 0, "seed", 0)  # --seed before the config is read, by generate's rule
    market, config_seed = synth.load_market_spec(_existing(args.config, "market config"))
    seed = args.seed if args.seed is not None else config_seed
    nr, truth = synth.generate(market, seed=seed)
    panel = synth.prices_from_returns(nr)
    out = _out_dir(args)
    synth.write_panel_wide(panel, out / "panel.csv")
    ts._write_json(out / "ground_truth.json", synth.truth_to_dict(truth, nr.assets))
    metadata = synth.metadata_from_truth(truth, nr.assets)
    ts._write_table(out / "metadata.csv", [("asset", "category"), *sorted(metadata.items())])
    _write_report(args, "synth_report.json", {
        "seed": seed,
        "n_assets": market.n_assets,
        "n_observations": market.n_observations,
        "n_blocks": len(market.blocks),
        "artifacts": {
            "panel": "panel.csv",
            "ground_truth": "ground_truth.json",
            "metadata": "metadata.csv",
        },
    })
    print(
        f"synth: N={market.n_assets} T={market.n_observations} "
        f"blocks={len(market.blocks)} seed={seed}"
    )
    print(f"wrote {out / 'panel.csv'}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="eigensectors", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="correlation spectrum vs the noise band")
    sectors = sub.add_parser("sectors", help="sign-split subsector tables")
    anticorr = sub.add_parser("anticorr", help="subsector cross-correlation scan")
    synth_ = sub.add_parser("synth", help="generate a planted synthetic market")

    # options are added in the order each stage's --help lists them
    for p in (analyze, sectors, anticorr):
        p.add_argument("--input", required=p is analyze, help="delimited price file")
        p.add_argument(
            "--format",
            choices=("long", "wide"),
            default="long",
            help="input layout (default: long)",
        )
        p.add_argument(
            "--delta-t", type=int, default=1, help="return horizon in steps (default: 1)"
        )
        p.add_argument(
            "--drop-zero-variance",
            action="store_true",
            help="drop constant-return assets with a warning instead of failing",
        )
    for p, what, default in ((sectors, "component", "0.08 0.10"), (anticorr, "scan", "0.10")):
        p.add_argument("--matrix", help="reuse a saved corr_matrix.csv artifact")
        p.add_argument(
            "--u-c", type=float, action="append", help=f"{what} threshold; repeat for several (default: {default})"
        )
    anticorr.add_argument(
        "--u-c-zero-scan", action="store_true", help="also scan with u_c = 0 (pure sign split)"
    )
    anticorr.add_argument("--trials", type=int, default=1000, help="baseline trials per mode")
    anticorr.add_argument("--seed", type=int, default=0, help="baseline RNG seed")
    for p in (analyze, sectors):
        p.add_argument(
            "--margin", type=float, default=1.0, help="significance margin on the noise edge"
        )
    sectors.add_argument("--metadata", help="asset,category delimited file")
    for p, verb in ((sectors, "label"), (anticorr, "scan")):
        p.add_argument(
            "--include-market-mode", action="store_true", help=f"{verb} mode 0 even when single-signed"
        )
    synth_.add_argument("--config", required=True, help="JSON market description")
    synth_.add_argument("--seed", type=int, default=None, help="overrides the config's seed")

    for p, func in (
        (analyze, cmd_analyze),
        (sectors, cmd_sectors),
        (anticorr, cmd_anticorr),
        (synth_, cmd_synth),
    ):
        p.add_argument("--out-dir", default="out", help="artifact directory")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # library notices print as one line, like the CLI's own warnings, whatever the caller's filters
        warnings.simplefilter("default", UserWarning)
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (EigensectorsError, OSError, MemoryError) as exc:
            # a MemoryError raised by the interpreter itself carries no message
            print(f"error: {exc or 'out of memory'}", file=sys.stderr)
            if isinstance(exc, ConfigurationError):
                return 1
            return 3 if isinstance(exc, (NumericalError, MemoryError)) else 2


if __name__ == "__main__":
    sys.exit(main())
