"""Command-line pipeline: analyze / sectors / anticorr / synth.

Each stage writes deterministic JSON and delimited artifacts into --out-dir
(byte-identical for identical configuration and seed) and embeds the exact
configuration it ran with. Exit codes: 0 success, 1 usage or configuration
error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
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
    DomainError,
    EigensectorsError,
    NumericalError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1 for usage
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _config_echo(args) -> dict:
    """Every parsed option of the stage, with the stage name under "command"."""
    return {k: v for k, v in vars(args).items() if k != "func"}


def _load_panel(args) -> ts.PricePanel:
    path = Path(args.input)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    return ts.load_prices(path, fmt=args.format)


def _normalized_returns(args) -> tuple[ts.NormalizedReturns, list[str]]:
    panel = _load_panel(args)
    panel = ts.forward_fill(panel)
    panel = ts.trim_to_common_range(panel)
    rm = ts.log_returns(panel, delta_t=args.delta_t)
    dropped: list[str] = []
    if args.drop_zero_variance:
        dropped = ts.zero_variance_assets(rm)
        if dropped:
            print(
                f"warning: dropping zero-variance assets: {', '.join(dropped)}",
                file=sys.stderr,
            )
            rm = ts.drop_assets(rm, dropped)
    return ts.normalize_returns(rm), dropped


def _spectrum_from_returns(nr: ts.NormalizedReturns) -> tuple[cm.CorrelationMatrix, cm.EigenSpectrum]:
    c = cm.correlation_matrix(nr)
    return c, cm.eigendecompose(c)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_metadata_or_none(args) -> dict[str, str] | None:
    meta_arg = getattr(args, "metadata", None)
    if not meta_arg:
        return None
    path = Path(meta_arg)
    if not path.exists():
        print(
            f"warning: metadata file {path} not found; labels default to "
            f"{sec.UNLABELED!r}",
            file=sys.stderr,
        )
        return None
    return ts.load_metadata(path)


def cmd_analyze(args) -> int:
    nr, dropped = _normalized_returns(args)
    c, spec = _spectrum_from_returns(nr)
    sig = rmt.significant_eigenvalues(spec, margin=args.margin)
    out = _out_dir(args)
    cm.save_matrix(c, out / "corr_matrix.csv")
    report = {
        "config": _config_echo(args),
        "n_assets": c.n_assets,
        "n_observations": c.n_observations,
        "q": c.n_observations / c.n_assets,
        "lambda_min_noise": sig.law.lambda_min,
        "lambda_max_noise": sig.law.lambda_max,
        "mean_offdiagonal": cm.mean_offdiagonal(c),
        "eigenvalues": [float(v) for v in spec.eigenvalues],
        "significant_modes": [
            {"mode": i, "eigenvalue": float(v), "ratio_to_noise_edge": float(r)}
            for i, v, r in zip(sig.indices, sig.eigenvalues, sig.ratios)
        ],
        "dropped_assets": dropped,
        "artifacts": {"matrix": "corr_matrix.csv", "sidecar": "corr_matrix.meta.json"},
    }
    _write_json(out / "analysis_report.json", report)
    print(
        f"analyze: N={c.n_assets} T={c.n_observations} "
        f"Q={c.n_observations / c.n_assets:.3f} "
        f"noise band=[{sig.law.lambda_min:.4f}, {sig.law.lambda_max:.4f}] "
        f"significant={list(sig.indices)}"
    )
    print(f"wrote {out / 'analysis_report.json'}")
    return 0


def _spectrum_for_sectors(args) -> cm.EigenSpectrum:
    if getattr(args, "matrix", None):
        path = Path(args.matrix)
        if not path.exists():
            raise DataError(f"matrix artifact not found: {path}")
        return cm.eigendecompose(cm.load_matrix(path))
    if not args.input:
        raise ConfigurationError("sectors needs --input or --matrix")
    nr, _ = _normalized_returns(args)
    _, spec = _spectrum_from_returns(nr)
    return spec


def cmd_sectors(args) -> int:
    spec = _spectrum_for_sectors(args)
    sig = rmt.significant_eigenvalues(spec, margin=args.margin)
    thresholds = args.u_c or list(sec.DEFAULT_STOCK_THRESHOLDS)
    metadata = _load_metadata_or_none(args)
    rows = sec.sector_table(
        spec,
        sig,
        thresholds,
        metadata,
        include_market_mode=args.include_market_mode,
    )
    out = _out_dir(args)
    lines = ["u_c,mode,eigenvalue,sign,anchor_asset,dominant,matched,total,members"]
    for r in rows:
        members = ";".join(r.report.members)
        lines.append(
            f"{r.threshold:g},{r.mode_index},{r.eigenvalue:.17g},{r.sign},"
            f"{r.anchor_asset},{r.report.dominant_category},"
            f"{r.report.matched},{r.report.total},{members}"
        )
    (out / "sectors.csv").write_text("\n".join(lines) + "\n")
    report = {
        "config": _config_echo(args),
        "thresholds": [float(t) for t in thresholds],
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
    }
    _write_json(out / "sectors.json", report)
    print(f"sectors: {len(rows)} table rows over thresholds {thresholds}")
    print(f"wrote {out / 'sectors.json'}")
    return 0


def _scan_suffix(u_c: float) -> str:
    return f"uc{u_c:g}".replace(".", "p")


def _run_scan(args, c, spec, u_c: float, out: Path) -> None:
    report = ac.mode_scan(
        c,
        spec,
        u_c,
        trials=args.trials,
        seed=args.seed,
        include_market_mode=args.include_market_mode,
    )
    tag = _scan_suffix(u_c)
    payload = ac.report_to_dict(report)
    payload["config"] = _config_echo(args)
    _write_json(out / f"anticorr_{tag}.json", payload)
    ac.write_scan_delimited(report, out / f"anticorr_scan_{tag}.csv")

    lines = ["u_c,mode,n_positive,n_negative,within_positive,within_negative,between"]
    for row in report.rows:
        blocks = ac.block_averages(c, row.partition)

        def fmt(x):
            return "" if x is None else f"{x:.17g}"

        lines.append(
            f"{u_c:g},{row.mode_index},{blocks.n_positive},{blocks.n_negative},"
            f"{fmt(blocks.within_positive)},{fmt(blocks.within_negative)},"
            f"{fmt(blocks.between)}"
        )
    (out / f"block_averages_{tag}.csv").write_text("\n".join(lines) + "\n")
    kept = len(report.rows)
    print(
        f"anticorr u_c={u_c:g}: {kept} modes scanned, "
        f"{len(report.skipped)} skipped, trials={report.trials}"
    )


def cmd_anticorr(args) -> int:
    nr, _ = _normalized_returns(args)
    c, spec = _spectrum_from_returns(nr)
    out = _out_dir(args)
    thresholds = args.u_c or [sec.DEFAULT_STOCK_THRESHOLDS[-1]]
    for u_c in thresholds:
        _run_scan(args, c, spec, u_c, out)
    if args.u_c_zero_scan:
        _run_scan(args, c, spec, 0.0, out)
    print(f"wrote scan artifacts under {out}")
    return 0


def cmd_synth(args) -> int:
    cfg_path = Path(args.config)
    if not cfg_path.exists():
        raise DataError(f"market config not found: {cfg_path}")
    market, config_seed = synth.load_market_spec(cfg_path)
    seed = args.seed if args.seed is not None else config_seed
    nr, truth = synth.generate(market, seed=seed)
    panel = synth.prices_from_returns(nr)
    out = _out_dir(args)
    synth.write_panel_wide(panel, out / "panel.csv")
    _write_json(out / "ground_truth.json", synth.truth_to_dict(truth, nr.assets))
    metadata = synth.metadata_from_truth(truth, nr.assets)
    meta_lines = ["asset,category"] + [f"{a},{c}" for a, c in sorted(metadata.items())]
    (out / "metadata.csv").write_text("\n".join(meta_lines) + "\n")
    _write_json(
        out / "synth_report.json",
        {
            "config": _config_echo(args),
            "seed": seed,
            "n_assets": market.n_assets,
            "n_observations": market.n_observations,
            "n_blocks": len(market.blocks),
            "artifacts": {
                "panel": "panel.csv",
                "ground_truth": "ground_truth.json",
                "metadata": "metadata.csv",
            },
        },
    )
    print(
        f"synth: N={market.n_assets} T={market.n_observations} "
        f"blocks={len(market.blocks)} seed={seed}"
    )
    print(f"wrote {out / 'panel.csv'}")
    return 0


def _add_panel_options(p: _Parser, input_required: bool = True) -> None:
    p.add_argument("--input", required=input_required, help="delimited price file")
    p.add_argument(
        "--format",
        choices=("long", "wide"),
        default="long",
        help="input layout (default: long)",
    )
    p.add_argument(
        "--delta-t",
        dest="delta_t",
        type=int,
        default=1,
        help="return horizon in steps (default: 1)",
    )
    p.add_argument(
        "--drop-zero-variance",
        dest="drop_zero_variance",
        action="store_true",
        help="drop constant-return assets with a warning instead of failing",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="eigensectors", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="correlation spectrum vs the noise band")
    _add_panel_options(p)
    p.add_argument("--margin", type=float, default=1.0, help="significance margin on the noise edge")
    p.add_argument("--out-dir", dest="out_dir", default="out", help="artifact directory")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sectors", help="sign-split subsector tables")
    _add_panel_options(p, input_required=False)
    p.add_argument("--matrix", help="reuse a saved corr_matrix.csv artifact")
    p.add_argument(
        "--u-c",
        dest="u_c",
        type=float,
        action="append",
        help="component threshold; repeat for several (default: 0.08 0.10)",
    )
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--metadata", help="asset,category delimited file")
    p.add_argument(
        "--include-market-mode",
        dest="include_market_mode",
        action="store_true",
        help="keep mode 0 even when single-signed",
    )
    p.add_argument("--out-dir", dest="out_dir", default="out")
    p.set_defaults(func=cmd_sectors)

    p = sub.add_parser("anticorr", help="subsector cross-correlation scan")
    _add_panel_options(p)
    p.add_argument(
        "--u-c",
        dest="u_c",
        type=float,
        action="append",
        help="scan threshold; repeat for several (default: 0.10)",
    )
    p.add_argument(
        "--u-c-zero-scan",
        dest="u_c_zero_scan",
        action="store_true",
        help="also scan with u_c = 0 (pure sign split)",
    )
    p.add_argument("--trials", type=int, default=1000, help="baseline trials per mode")
    p.add_argument("--seed", type=int, default=0, help="baseline RNG seed")
    p.add_argument(
        "--include-market-mode",
        dest="include_market_mode",
        action="store_true",
    )
    p.add_argument("--out-dir", dest="out_dir", default="out")
    p.set_defaults(func=cmd_anticorr)

    p = sub.add_parser("synth", help="generate a planted synthetic market")
    p.add_argument("--config", required=True, help="JSON market description")
    p.add_argument("--seed", type=int, default=None, help="overrides the config's seed")
    p.add_argument("--out-dir", dest="out_dir", default="out")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EigensectorsError as exc:  # any stragglers: treat as data problems
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
