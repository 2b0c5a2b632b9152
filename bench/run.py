#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the eigensectors CLI pipeline.

Run from the repository root:

    python3 bench/run.py --workload paper_scan --seed 1 --seconds 50 --trace 0

One closed loop with a single client: the workload's stages run as child
processes of this script, each starting after the previous one exits:

    synth (set-up) -> analyze -> sectors (prices) -> sectors --matrix -> anticorr

``--trace 0`` times the stages with tracing off and reports the end-to-end
metrics, each stage time scaled to the speed the CPU ran at during that
stage (see ``SpeedProbe``). ``--trace 1`` runs the same stages in this
process, once plain and once with every public layer function wrapped by
``spans.Tracer``, and reports the per-layer metrics. Every stage run is checked (``checks.py``)
and its artifacts' SHA-256 digests must repeat within the run and across
runs of the same code and seed. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. Full
results, with the machine facts, go to ``.bench_runs/results/``.

See bench/README.md for the metrics, the workloads and why each exists.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime as dt
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Pin BLAS threads before numpy loads, here and in every child: inheriting
# the caller's setting would make timings depend on the shell.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

PROBE_PERIOD_S = 0.04
# The probe's two parts' times on an Intel Xeon vCPU of a quiet shared host
# while a stage runs; stage times are reported at the speed that gives them.
PARSE_NOMINAL_S = 0.0005
READS_NOMINAL_S = 0.001
# The stages' times move with the parsing speed to the power 2/3 times the
# reading speed to the power 1/3 (see SpeedProbe).
PARSE_WEIGHT = 2 / 3
DEADLINE_S = 170.0  # children still running then are killed
LAST_STAGE_START_S = 150.0  # no new stage is started after this
SETUP_REPS = 3
IMPORT_REPS = 5
STAGES = ("analyze", "sectors", "sectors_matrix", "anticorr")
# The reuse route takes ~0.25 s, mostly interpreter start-up, so a round runs
# it after each price stage: its samples then spread over the round.
ROUND = ("analyze", "sectors_matrix", "sectors", "sectors_matrix", "anticorr", "sectors_matrix")
CLI_MAIN = "import sys; from eigensectors.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    name: str
    n_assets: int
    n_observations: int  # returns the analysis stages see, after any trimming
    block_sizes: tuple[int, ...]
    layout: str  # "wide" or "long"
    u_c: tuple[float, ...]
    zero_scan: bool
    trials: int
    # sectors thresholds; empty keeps the CLI default (0.08, 0.10), which
    # suits N=259 but lies below the 1/sqrt(N) noise scale at N=66
    sectors_u_c: tuple[float, ...] = ()
    gap_frac: float = 0.0
    max_stagger: int = 0

    @property
    def planted_check(self) -> bool:
        return self.gap_frac == 0.0 and self.max_stagger == 0


# Why each workload exists: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_scan",
            n_assets=259,
            n_observations=2632,
            block_sizes=(30, 24, 18, 12),
            layout="wide",
            u_c=(0.10,),
            zero_scan=False,
            trials=100,
        ),
        Workload(
            name="gappy_long",
            n_assets=259,
            n_observations=4285,
            block_sizes=(30, 24, 18, 12),
            layout="long",
            u_c=(0.25,),
            zero_scan=False,
            trials=100,
            gap_frac=0.03,
            max_stagger=200,
        ),
        Workload(
            name="narrow_zero_scan",
            n_assets=66,
            n_observations=2668,
            block_sizes=(12, 10, 8),
            layout="wide",
            u_c=(0.15,),
            zero_scan=True,
            trials=100,
            sectors_u_c=(0.15,),  # the CLI's default for index panels
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a smoke-test shape."""
    return dataclasses.replace(
        w,
        n_assets=40,
        n_observations=800,
        block_sizes=(10, 8),
        trials=100,
        sectors_u_c=(0.2,),
        max_stagger=min(w.max_stagger, 20),
    )


# -- inputs ---------------------------------------------------------------------


def market_config(w: Workload, seed: int) -> dict:
    """Synth config: a market factor plus planted sign-split blocks placed by seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    order = rng.permutation(w.n_assets)
    blocks, at = [], 0
    for k, size in enumerate(w.block_sizes):
        members = sorted(int(i) for i in order[at : at + size])
        at += size
        signs = rng.permutation([1] * (size // 2) + [-1] * (size - size // 2))
        blocks.append(
            {
                "name": f"SEC{k}",
                "assets": members,
                "loading": 1.0,
                "sign_pattern": [int(s) for s in signs],
            }
        )
    return {
        "seed": seed,
        "n_assets": w.n_assets,
        # staggered listings cost max_stagger leading dates in the trim
        "n_observations": w.n_observations + w.max_stagger,
        "market_strength": 0.5,
        "noise_std": 1.0,
        "blocks": blocks,
    }


def write_long_with_gaps(wide: Path, out: Path, w: Workload, seed: int) -> None:
    """Reshape synth's wide panel to date,asset,price rows with gaps.

    Each asset lists from a start drawn in 0..max_stagger (one asset starts
    at max_stagger exactly, so the trim always removes that many dates), and
    gap_frac of the later cells are blanked, never an asset's first listed
    date. Price strings are copied unchanged.
    """
    lines = wide.read_text().splitlines()
    assets = lines[0].split(",")[1:]
    rows = [line.split(",") for line in lines[1:]]
    n, d = len(assets), len(rows)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    start = rng.integers(0, w.max_stagger + 1, size=n)
    start[rng.integers(n)] = w.max_stagger
    missing = rng.random((n, d)) < w.gap_frac
    missing |= np.arange(d)[None, :] < start[:, None]
    missing[np.arange(n), start] = False
    present = ~missing
    text = ["date,asset,price"]
    for j, row in enumerate(rows):
        date = row[0]
        text.extend(f"{date},{assets[i]},{row[i + 1]}" for i in np.flatnonzero(present[:, j]))
    out.write_text("\n".join(text) + "\n")


def stage_args(w: Workload, stage: str) -> list[str]:
    panel = ["--input", "prices_long.csv" if w.layout == "long" else "synth/panel.csv"]
    panel += ["--format", w.layout]
    sector_opts = ["--metadata", "synth/metadata.csv"]
    sector_opts += [arg for u in w.sectors_u_c for arg in ("--u-c", f"{u:g}")]
    if stage == "synth":
        return ["synth", "--config", "market.json", "--out-dir", "synth"]
    if stage == "analyze":
        return ["analyze", *panel, "--out-dir", "out_analyze"]
    if stage == "sectors":
        return ["sectors", *panel, *sector_opts, "--out-dir", "out_sectors"]
    if stage == "sectors_matrix":
        matrix = ["--matrix", "out_analyze/corr_matrix.csv"]
        return ["sectors", *matrix, *sector_opts, "--out-dir", "out_sectors_matrix"]
    scan = [arg for u in w.u_c for arg in ("--u-c", f"{u:g}")]
    if w.zero_scan:
        scan.append("--u-c-zero-scan")
    return ["anticorr", *panel, *scan, "--trials", str(w.trials), "--out-dir", "out_anticorr"]


# -- machine facts --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_info() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        return {}
    return {
        lib: {"name": deps[lib].get("name"), "version": deps[lib].get("version")}
        for lib in ("blas", "lapack")
        if lib in deps
    }


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_sha256() -> str:
    """Digest of the program and benchmark sources: the 'same code' key."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": _blas_info(),
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "source_sha256": source_sha256(),
    }


# -- one run ------------------------------------------------------------------------


# Fixed inputs of the probe kernel: CSV-like lines to parse, and random
# reads from a list of ~40 MB, more than any cache holds.
_probe_rng = np.random.default_rng(20020101)
PROBE_LINE = ",".join(f"{x:.6f}" for x in _probe_rng.lognormal(3.0, 1.0, size=259))
PROBE_LIST = _probe_rng.permutation(1_000_000).tolist()
PROBE_READS = _probe_rng.integers(0, len(PROBE_LIST), size=3000).tolist()
del _probe_rng


def probe_parse() -> None:
    """About half a millisecond of string-to-float parsing."""
    for _ in range(14):
        [float(x) for x in PROBE_LINE.split(",")]


def probe_reads() -> int:
    """About a millisecond of cache-missing reads."""
    acc = 0
    for i in PROBE_READS:
        acc += PROBE_LIST[i]
    return acc


class SpeedProbe:
    """Samples the speed of the CPU a child stage runs on, while it runs.

    On a shared host each vCPU's speed moves by up to ~1.5x, in phases of
    about a second that are not shared between the vCPUs, and in shifts
    lasting minutes. A run's median cannot remove a shift longer than the
    run. So this process and its children are pinned to one CPU
    (``pin_to_one_cpu``), and while a child runs, a thread here wakes every
    PROBE_PERIOD_S and times ``probe_parse`` and ``probe_reads`` on that CPU
    by its own thread CPU time, which leaves out any wait for the child.
    Each part's speed is its nominal time over the time-mean of its
    duration's inverse, and ``factor`` is parse speed ** PARSE_WEIGHT *
    read speed ** (1 - PARSE_WEIGHT). wall * factor is then the stage's time
    at the nominal speed: the probe's own share of the CPU (~4%) and any
    change in the program show in it in full. The stages slow down more
    than a pure-Python loop does; this weighting of the two parts tracked
    them best (bench/README.md).
    """

    def __init__(self):
        self.parse_s: list[float] = []
        self.reads_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        # The first sample waits one period: until then this process is
        # spawning the child, which competes with the kernel.
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.thread_time()
            probe_parse()
            mid = time.thread_time()
            probe_reads()
            self.parse_s.append(mid - start)
            self.reads_s.append(time.thread_time() - mid)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def factor(self) -> float:
        if not self.parse_s:  # the child exited within one period: it failed
            return 1.0
        parse = PARSE_NOMINAL_S * statistics.fmean(1.0 / d for d in self.parse_s)
        reads = READS_NOMINAL_S * statistics.fmean(1.0 / d for d in self.reads_s)
        return parse**PARSE_WEIGHT * reads ** (1 - PARSE_WEIGHT)


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child, to one CPU; None where unsupported."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same set and dict layouts in every child
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


class BenchRun:
    """Runs, times and checks the stages of one workload in one work directory."""

    def __init__(self, w: Workload, seed: int, store_key: str, code: str, deadline: float):
        from eigensectors.corrmatrix import load_matrix

        self.w = w
        self.seed = seed
        self.deadline = deadline
        self.load_matrix = load_matrix
        self.work = RUNS_DIR / "work" / f"{store_key}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.samples: dict[str, list[float]] = {s: [] for s in ("synth", *STAGES)}
        self.cpu_s: dict[str, list[float]] = {s: [] for s in ("synth", *STAGES)}
        self.rss_mb: dict[str, list[float]] = {s: [] for s in ("synth", *STAGES)}
        self.speed: dict[str, list[float]] = {s: [] for s in ("synth", *STAGES)}
        self.c = None
        self.planted = None
        self.code = code
        self.store_path = RUNS_DIR / "digests" / f"{store_key}.json"
        stored = {}
        if self.store_path.is_file():
            try:
                stored = json.loads(self.store_path.read_text())
            except ValueError:  # a run cut short mid-write; start afresh
                stored = {}
        self.reference = stored.get("artifacts", {}) if stored.get("code") == self.code else {}
        self.digests: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def save_digests(self) -> None:
        self.store_path.parent.mkdir(parents=True, exist_ok=True)
        merged = {**self.reference, **self.digests}
        self.store_path.write_text(
            json.dumps({"code": self.code, "artifacts": merged}, indent=1, sort_keys=True)
        )

    # stage execution

    def run_child(self, stage: str, args: list[str]) -> tuple[int, float, float, float, float]:
        """Run one CLI stage as a child.

        Returns (exit code, wall s, CPU s, peak RSS MB, SpeedProbe factor).

        The peak RSS comes from this child's own rusage (wait4), not from
        RUSAGE_CHILDREN, which keeps the maximum over every child so far.
        """
        log = self.work / "logs" / stage
        argv = [sys.executable, "-c", CLI_MAIN, *args]
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err, \
                SpeedProbe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0, probe.factor

    def run_inprocess(self, stage: str, args: list[str], tracer: Tracer | None) -> tuple[int, float]:
        """Run one CLI stage through cli.main in this process; returns (exit code, wall s)."""
        from eigensectors import cli

        log = self.work / "logs" / stage
        here = os.getcwd()
        os.chdir(self.work)
        scope = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
        try:
            with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    with scope:
                        code = cli.main(args)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:
                    traceback.print_exc()
                    code = 70
                wall = time.perf_counter() - start
        finally:
            os.chdir(here)
        return code, wall

    def stage(self, stage: str, tracer: Tracer | None = None, inprocess: bool = False) -> float:
        """Run, time and check one stage; returns its wall time."""
        args = stage_args(self.w, stage)
        if inprocess:
            code, wall = self.run_inprocess(stage, args, tracer)
            cpu = rss = speed = None
        else:
            code, wall, cpu, rss, speed = self.run_child(stage, args)
        self.attempted += 1
        if code != 0:
            err = (self.work / "logs" / f"{stage}.err").read_text(errors="replace")
            problems = [f"{stage}: exit code {code}: {err.strip()[-500:]}"]
        else:
            try:
                problems = self.check(stage)
            except Exception as exc:  # a check that cannot read the output fails it
                problems = [f"{stage}: check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.failures.append({"stage": stage, "problems": problems})
            for p in problems:
                print(f"FAILED {p}", file=sys.stderr)
        self.samples[stage].append(wall)
        if rss is not None:
            self.cpu_s[stage].append(cpu)
            self.rss_mb[stage].append(rss)
            self.speed[stage].append(speed)
        return wall

    def check(self, stage: str) -> list[str]:
        w = self.w
        if stage == "synth":
            out = self.work / "synth"
            problems = checks.check_synth(out, len(w.block_sizes))
            self.planted = checks.planted_blocks(out) if w.planted_check else None
        elif stage == "analyze":
            out = self.work / "out_analyze"
            problems, self.c = checks.check_analyze(
                out, w.n_assets, w.n_observations, self.load_matrix
            )
        elif stage in ("sectors", "sectors_matrix"):
            out = self.work / f"out_{stage}"
            problems = checks.check_sectors(out, self.planted)
        else:
            out = self.work / "out_anticorr"
            thresholds = [*w.u_c, *([0.0] if w.zero_scan else [])]
            problems = checks.check_anticorr(out, self.c, thresholds, w.trials)
        return problems + self.compare_digests(checks.artifact_digests(out, self.work))

    def compare_digests(self, found: dict[str, str]) -> list[str]:
        """Deterministic artifacts must repeat byte for byte, in and across runs."""
        problems = []
        for name, digest in found.items():
            want = self.digests.get(name) or self.reference.get(name)
            if want is not None and want != digest:
                problems.append(f"digest of {name} changed between runs of the same code and seed")
            self.digests.setdefault(name, digest)
        return problems

    def prepare_inputs(self) -> None:
        """The benchmark's own reshaping after synth; not timed."""
        if self.w.layout == "long":
            long_path = self.work / "prices_long.csv"
            try:
                write_long_with_gaps(self.work / "synth" / "panel.csv", long_path, self.w, self.seed)
            except OSError as exc:  # synth failed; the stages that follow fail too
                self.failures.append({"stage": "reshape", "problems": [repr(exc)]})
                return
            problems = self.compare_digests({"prices_long.csv": checks.sha256_file(long_path)})
            if problems:
                self.failures.append({"stage": "reshape", "problems": problems})

    def write_config(self) -> None:
        config = market_config(self.w, self.seed)
        (self.work / "market.json").write_text(json.dumps(config, indent=1) + "\n")


def run_untraced(run: BenchRun, seconds: float, started: float) -> dict:
    run.write_config()
    for _ in range(SETUP_REPS):
        run.stage("synth")
    run.prepare_inputs()
    # One whole round, then the round's stages in order for as long as the
    # next one, as long as its last sample, still fits the window: a run
    # never overruns it by more than its first round, and a stage as long
    # as a third of the window still gets a second sample.
    window = time.monotonic()
    last: dict[str, float] = {}
    for i in itertools.count():
        stage = ROUND[i % len(ROUND)]
        if i >= len(ROUND):
            now = time.monotonic()
            if now - window + last[stage] > seconds or now - started + last[stage] > LAST_STAGE_START_S:
                break
        last[stage] = run.stage(stage)
    med = {
        s: statistics.median(w * f for w, f in zip(run.samples[s], run.speed[s]))
        for s in ("synth", *STAGES)
    }
    value = {
        "setup_s": med["synth"],
        **{f"{s}_s": med[s] for s in STAGES},
        "pipeline_s": sum(med[s] for s in STAGES),
        "peak_rss_mb": max(max(run.rss_mb[s]) for s in STAGES),
    }
    units = {"peak_rss_mb": "MB"}
    return {
        "metrics": {k: {"value": v, "unit": units.get(k, "s")} for k, v in value.items()},
        "stage_runs": i,
    }


# -- traced run ---------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_load(counts, args, kwargs, panel):
    source = _arg(args, kwargs, 0, "source")
    if isinstance(source, (str, os.PathLike)):
        counts["timeseries.input_bytes"] += os.path.getsize(source)
    counts["timeseries.cells_read"] += int(np.count_nonzero(~np.isnan(panel.prices)))


def _count_fill(counts, args, kwargs, panel):
    before = _arg(args, kwargs, 0, "panel")
    counts["timeseries.cells_filled"] += int(
        np.count_nonzero(np.isnan(before.prices)) - np.count_nonzero(np.isnan(panel.prices))
    )


def _count_trim(counts, args, kwargs, panel):
    counts["timeseries.dates_trimmed"] += _arg(args, kwargs, 0, "panel").n_dates - panel.n_dates


def _count_corr(counts, args, kwargs, c):
    counts["corrmatrix.flops_computed"] += c.n_assets**2 * c.n_observations


def _count_eig(counts, args, kwargs, spec):
    counts["corrmatrix.flops_computed"] += 2 * spec.n_assets**3


def _count_save(counts, args, kwargs, sidecar):
    counts["corrmatrix.matrix_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_significant(counts, args, kwargs, sig):
    counts["rmt.significant_modes"] = len(sig.indices)


def _count_partition(counts, args, kwargs, part):
    counts["sectors.partitions"] += 1


def _count_scan(counts, args, kwargs, report):
    counts["anticorr.modes_scanned"] += len(report.rows)
    counts["anticorr.modes_skipped"] += len(report.skipped)


def _count_baseline(counts, args, kwargs, stats):
    counts["anticorr.trials"] += stats.n_trials


def _count_panel(counts, args, kwargs, result):
    counts["synth.panel_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


# Layer functions without a metric of their own (load_metadata,
# mean_offdiagonal, spec_from_dict) are traced too, so that a stage's
# cli.<stage>.self_s leaves out all layer work.
TRACE_TARGETS = (
    ("timeseries", "load_prices", "span", _count_load),
    ("timeseries", "load_metadata", "span", None),
    ("timeseries", "forward_fill", "span", _count_fill),
    ("timeseries", "trim_to_common_range", "span", _count_trim),
    ("timeseries", "log_returns", "span", None),
    ("timeseries", "normalize_returns", "span", None),
    ("corrmatrix", "correlation_matrix", "span", _count_corr),
    ("corrmatrix", "eigendecompose", "span", _count_eig),
    ("corrmatrix", "mean_offdiagonal", "span", None),
    ("corrmatrix", "save_matrix", "span", _count_save),
    ("corrmatrix", "load_matrix", "span", None),
    ("rmt", "significant_eigenvalues", "span", _count_significant),
    ("sectors", "select_components", "busy", _count_partition),
    ("sectors", "sector_table", "span", None),
    ("anticorr", "mode_scan", "span", _count_scan),
    ("anticorr", "random_baseline", "span", _count_baseline),
    ("anticorr", "block_averages", "busy", None),
    ("anticorr", "report_to_dict", "span", None),
    ("anticorr", "write_scan_delimited", "span", None),
    ("synth", "spec_from_dict", "span", None),
    ("synth", "generate", "span", None),
    ("synth", "prices_from_returns", "span", None),
    ("synth", "write_panel_wide", "span", _count_panel),
)

TRACED_STAGES = ("synth", *STAGES)


def layer_metrics(tracer: Tracer, plain: dict, traced: dict, import_s: float) -> dict:
    busy, counts = tracer.busy_s, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for fn in ("load_prices", "forward_fill", "trim_to_common_range", "log_returns",
               "normalize_returns"):
        out[f"timeseries.{fn}_s"] = (busy[f"timeseries.{fn}"], "s")
    for name in ("input_bytes", "cells_read", "cells_filled", "dates_trimmed"):
        out[f"timeseries.{name}"] = (counts[f"timeseries.{name}"], "B" if name == "input_bytes" else "count")
    out["timeseries.parse_mb_per_s"] = (
        counts["timeseries.input_bytes"] / 1e6 / busy["timeseries.load_prices"], "MB/s"
    )
    for fn in ("mode_scan", "random_baseline", "block_averages"):
        out[f"anticorr.{fn}_s"] = (busy[f"anticorr.{fn}"], "s")
    out["anticorr.report_write_s"] = (
        busy["anticorr.report_to_dict"] + busy["anticorr.write_scan_delimited"], "s"
    )
    for name in ("modes_scanned", "modes_skipped", "trials"):
        out[f"anticorr.{name}"] = (counts[f"anticorr.{name}"], "count")
    out["anticorr.trials_per_s"] = (
        counts["anticorr.trials"] / busy["anticorr.random_baseline"], "1/s"
    )
    for fn in ("correlation_matrix", "eigendecompose", "save_matrix", "load_matrix"):
        out[f"corrmatrix.{fn}_s"] = (busy[f"corrmatrix.{fn}"], "s")
    out["corrmatrix.matrix_bytes"] = (counts["corrmatrix.matrix_bytes"], "B")
    out["corrmatrix.flops_computed"] = (counts["corrmatrix.flops_computed"], "flop")
    out["rmt.significant_eigenvalues_s"] = (busy["rmt.significant_eigenvalues"], "s")
    out["rmt.significant_modes"] = (counts["rmt.significant_modes"], "count")
    out["sectors.select_components_s"] = (busy["sectors.select_components"], "s")
    out["sectors.sector_table_s"] = (busy["sectors.sector_table"], "s")
    out["sectors.partitions"] = (counts["sectors.partitions"], "count")
    for fn in ("generate", "prices_from_returns", "write_panel_wide"):
        out[f"synth.{fn}_s"] = (busy[f"synth.{fn}"], "s")
    out["synth.panel_bytes"] = (counts["synth.panel_bytes"], "B")
    out["cli.import_s"] = (import_s, "s")
    for stage in TRACED_STAGES:
        self_s = sum(s["self_s"] for s in tracer.spans if s["name"] == f"cli.{stage}")
        out[f"cli.{stage}.self_s"] = (self_s, "s")
    plain_total, traced_total = sum(plain.values()), sum(traced.values())
    out["trace.overhead_frac"] = ((traced_total - plain_total) / plain_total, "1")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


def run_traced(run: BenchRun) -> dict:
    """Each stage in process, plain then traced, then the import-only children.

    The plain and traced runs of a stage are back to back, so that drift in
    the machine's speed stays out of trace.overhead_frac as far as it can.
    """
    run.write_config()
    tracer = Tracer()
    plain, traced = {}, {}
    for stage in TRACED_STAGES:
        plain[stage] = run.stage(stage, inprocess=True)
        if stage == "synth":
            run.prepare_inputs()
        tracer.install("eigensectors", TRACE_TARGETS)
        try:
            traced[stage] = run.stage(stage, tracer=tracer, inprocess=True)
        finally:
            tracer.uninstall()
    import_s = []
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", "import eigensectors.cli"],
            env=run.env, cwd=run.work, timeout=max(run.deadline - time.monotonic(), 1.0),
        )
        import_s.append(time.perf_counter() - start)
        if done.returncode != 0:
            run.failures.append({"stage": "import", "problems": ["import child failed"]})
    stage_breakdown = {
        stage: dict(sorted(fns.items())) for stage, fns in tracer.stage_busy_s.items()
    }
    return {
        "metrics": layer_metrics(tracer, plain, traced, statistics.median(import_s)),
        "plain_stage_s": plain,
        "traced_stage_s": traced,
        "stage_breakdown_s": stage_breakdown,
        "spans": tracer.spans,
        "calls": dict(tracer.calls),
    }


# -- entry point --------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test shape (N=40, T=800)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not (SRC / "eigensectors" / "cli.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    store_key = f"{w.name}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    facts = machine_facts()
    facts["pinned_cpu"] = pin_to_one_cpu()
    load_start = os.getloadavg()
    run = BenchRun(w, args.seed, store_key, facts["source_sha256"], deadline=started + DEADLINE_S)
    try:
        result = run_traced(run) if args.trace else run_untraced(run, args.seconds, started)
    finally:
        run.close()
    run.save_digests()
    facts["loadavg_start"] = load_start
    facts["loadavg_end"] = os.getloadavg()

    metrics = result.pop("metrics")
    correct = run.failed == 0 and not run.failures
    record = {
        "workload": dataclasses.asdict(w),
        "args": vars(args),
        "machine": facts,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
        "metrics": metrics,
        "stage_samples_s": run.samples,
        "stage_cpu_s": run.cpu_s,
        "stage_peak_rss_mb": run.rss_mb,
        "stage_speed_factor": run.speed,
        "artifact_sha256": run.digests,
        **result,
    }
    results_dir = RUNS_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = dt.datetime.now(dt.timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    results_path = results_dir / f"{store_key}-trace{args.trace}-{stamp}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {w.name} seed={args.seed} trace={args.trace} N={w.n_assets} "
          f"T={w.n_observations} layout={w.layout}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac {run.failed}/{run.attempted} = {run.failed / run.attempted:.4g}")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
