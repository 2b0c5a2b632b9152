"""The whole pipeline as four shell commands, run in process.

Generates a market, analyzes its spectrum, extracts sectors, and scans
for anti-correlated flows, all through the command-line entry point, then
shows what each stage left on disk, in a temporary directory that is
removed at the end. The price panel is parsed once: `analyze` saves the
correlation matrix, and `sectors` and `anticorr` read it back with
`--matrix` (its 17-digit numbers round-trip exactly, so their artifacts
match an `--input` run byte for byte). The same commands work verbatim in
a shell once the package is installed (`eigensectors <subcommand> ...`).

Run: python3 demos/04_cli_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from eigensectors.cli import main as cli

CONFIG = {
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


def run(argv):
    print("$ eigensectors " + " ".join(argv))
    rc = cli(argv)
    if rc != 0:
        raise SystemExit(f"stage {argv[0]} exited {rc}")
    print()


def main():
    with tempfile.TemporaryDirectory(prefix="eigensectors_demo_") as tmp:
        out = Path(tmp)
        cfg = out / "config.json"
        cfg.write_text(json.dumps(CONFIG, indent=2))
        here = ["--out-dir", str(out)]
        matrix = ["--matrix", str(out / "corr_matrix.csv")]  # written by analyze

        run(["synth", "--config", str(cfg), *here])
        run(["analyze", "--input", str(out / "panel.csv"), "--format", "wide", *here])
        run(["sectors", *matrix, "--metadata", str(out / "metadata.csv"), "--u-c", "0.3", *here])
        run(["anticorr", *matrix, "--u-c", "0.3", "--trials", "200", *here])

        print(f"artifacts in {out}:")
        for p in sorted(out.iterdir()):
            print(f"  {p.name:28s} {p.stat().st_size:7d} bytes")
        print()

        analysis = json.loads((out / "analysis_report.json").read_text())
        print("from analysis_report.json:")
        print(f"  N={analysis['n_assets']} T={analysis['n_observations']} "
              f"Q={analysis['q']:.1f}")
        print(f"  noise band: [{analysis['lambda_min_noise']:.3f}, "
              f"{analysis['lambda_max_noise']:.3f}]")
        for m in analysis["significant_modes"]:
            print(f"  significant mode {m['mode']}: eigenvalue {m['eigenvalue']:.2f} "
                  f"({m['ratio_to_noise_edge']:.1f}x the edge)")
        print()

        sectors = json.loads((out / "sectors.json").read_text())
        print("from sectors.json:")
        for row in sectors["rows"]:
            print(f"  u_c={row['u_c']} mode {row['mode']} side {row['sign']}: "
                  f"{row['dominant']} ({row['matched']}/{row['total']})")


if __name__ == "__main__":
    main()
