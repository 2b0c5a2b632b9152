"""Output checks for the benchmark's stage runs.

Each check returns a list of problems; an empty list means the stage's
artifacts passed. Every check is cheap next to the stage it checks. The
anti-correlation oracle recomputes each scanned mode's Pearson value from
the saved correlation matrix and this module's own ``eigh`` of it, via

    c = w+' C[P,M] w- / sqrt(w+' C[P,P] w+ * w-' C[M,M] w-),

which holds because normalized rows have mean 0 and population variance 1.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

ORACLE_TOL = 1e-9


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def artifact_digests(directory: Path, root: Path) -> dict[str, str]:
    """SHA-256 of every file in ``directory``, keyed by path relative to ``root``."""
    return {
        str(p.relative_to(root)): sha256_file(p)
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def check_synth(out: Path, n_blocks: int) -> list[str]:
    problems = []
    for name in ("panel.csv", "metadata.csv", "ground_truth.json", "synth_report.json"):
        if not (out / name).is_file():
            problems.append(f"synth: missing {name}")
    if not problems:
        truth = json.loads((out / "ground_truth.json").read_text())
        if len(truth["blocks"]) != n_blocks:
            problems.append(f"synth: {len(truth['blocks'])} planted blocks, expected {n_blocks}")
    return problems


def check_analyze(out: Path, n_assets: int, n_obs: int, load_matrix):
    """Spectrum sanity plus a reload of the saved matrix; returns (problems, C)."""
    problems: list[str] = []
    report = json.loads((out / "analysis_report.json").read_text())
    if (report["n_assets"], report["n_observations"]) != (n_assets, n_obs):
        problems.append(
            f"analyze: shape ({report['n_assets']}, {report['n_observations']}) "
            f"!= expected ({n_assets}, {n_obs})"
        )
    eig = np.asarray(report["eigenvalues"], dtype=float)
    if eig.size != n_assets:
        problems.append(f"analyze: {eig.size} eigenvalues for N={n_assets}")
    if np.any(np.diff(eig) > 0.0):
        problems.append("analyze: eigenvalues are not descending")
    if abs(eig.sum() - n_assets) > 1e-9 * n_assets:
        problems.append(f"analyze: eigenvalues sum to {eig.sum()!r}, not N={n_assets}")
    try:
        c = load_matrix(out / "corr_matrix.csv")
    except Exception as exc:  # any failure to reload is a failed check
        problems.append(f"analyze: corr_matrix.csv does not reload: {exc!r}")
        return problems, None
    if c.n_assets != n_assets or c.n_observations != n_obs:
        problems.append("analyze: reloaded matrix has the wrong shape")
    return problems, c.values


def planted_blocks(synth_out: Path) -> list[tuple[frozenset, frozenset]]:
    truth = json.loads((synth_out / "ground_truth.json").read_text())
    return [(frozenset(b["positive"]), frozenset(b["negative"])) for b in truth["blocks"]]


def check_sectors(out: Path, planted) -> list[str]:
    """Every planted +/- split appears as one significant mode's partition.

    ``planted`` is None on workloads whose gaps blur the planted structure;
    then only the artifacts' presence is checked.
    """
    if not (out / "sectors.csv").is_file():
        return ["sectors: missing sectors.csv"]
    report = json.loads((out / "sectors.json").read_text())
    if not report["rows"]:
        return ["sectors: empty sector table"]
    if planted is None:
        return []
    sides: dict[tuple[float, int], dict[str, frozenset]] = {}
    for row in report["rows"]:
        sides.setdefault((row["u_c"], row["mode"]), {})[row["sign"]] = frozenset(row["members"])
    found = {
        frozenset((s.get("+", frozenset()), s.get("-", frozenset()))) for s in sides.values()
    }
    problems = []
    for k, (pos, neg) in enumerate(planted):
        if frozenset((pos, neg)) not in found:
            problems.append(f"sectors: planted block {k} split not among significant modes")
    return problems


def _scan_oracle(c: np.ndarray, vectors: np.ndarray, mode: int, u_c: float):
    u = vectors[:, mode]
    if u_c == 0.0:
        pos, neg = np.flatnonzero(u > 0.0), np.flatnonzero(u < 0.0)
    else:
        pos, neg = np.flatnonzero(u >= u_c), np.flatnonzero(u <= -u_c)
    if pos.size == 0 or neg.size == 0:
        return None
    wp, wm = u[pos], u[neg]
    cross = wp @ c[np.ix_(pos, neg)] @ wm
    var_p = wp @ c[np.ix_(pos, pos)] @ wp
    var_m = wm @ c[np.ix_(neg, neg)] @ wm
    return cross / math.sqrt(var_p * var_m)


def _finite_rows(path: Path, label: str) -> tuple[list[dict], list[str]]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        for key, cell in row.items():
            if cell != "" and not math.isfinite(float(cell)):
                return rows, [f"anticorr: non-finite {key} in {label}"]
    return rows, []


def check_anticorr(out: Path, c: np.ndarray | None, thresholds, trials: int) -> list[str]:
    """Scan rows finite, requested trials run, and c_pearson matches the C oracle."""
    problems: list[str] = []
    reports = {}
    for path in sorted(out.glob("anticorr_uc*.json")):
        report = json.loads(path.read_text())
        reports[float(report["u_c"])] = (path, report)
    if sorted(reports) != sorted(float(t) for t in thresholds):
        return [f"anticorr: scanned thresholds {sorted(reports)} != {sorted(thresholds)}"]
    vectors = None
    if c is not None:
        w, v = np.linalg.eigh(c)
        vectors = v[:, np.argsort(-w, kind="stable")]
    for u_c, (path, report) in sorted(reports.items()):
        tag = path.stem[len("anticorr_"):]
        if report["trials"] != trials:
            problems.append(f"anticorr: {tag} ran {report['trials']} trials, expected {trials}")
        modes = [m["mode"] for m in report["modes"]]
        for m in report["modes"]:
            values = [v for k, v in m.items() if k != "mode"]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
                problems.append(f"anticorr: {tag} mode {m['mode']} has a non-finite value")
        scan_rows, bad = _finite_rows(out / f"anticorr_scan_{tag}.csv", f"scan {tag}")
        problems += bad
        block_rows, bad = _finite_rows(out / f"block_averages_{tag}.csv", f"blocks {tag}")
        problems += bad
        if [int(r["mode"]) for r in scan_rows] != modes or [
            int(r["mode"]) for r in block_rows
        ] != modes:
            problems.append(f"anticorr: {tag} scan and block rows disagree with the report")
        if vectors is None:
            continue
        n = c.shape[0]
        expected = [a for a in range(1, n) if _scan_oracle(c, vectors, a, u_c) is not None]
        if modes != expected:
            problems.append(f"anticorr: {tag} scanned modes differ from the matrix oracle")
            continue
        for m in report["modes"]:
            want = _scan_oracle(c, vectors, m["mode"], u_c)
            if abs(m["c_pearson"] - want) > ORACLE_TOL:
                problems.append(
                    f"anticorr: {tag} mode {m['mode']} c_pearson {m['c_pearson']!r} "
                    f"!= matrix oracle {want!r}"
                )
    return problems
