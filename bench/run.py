"""readmitlab benchmark: three cross-validation studies on a UCI-shaped cohort.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from `src/`.
The seed fixes the generated cohort (bench/cohort.py) and the CLI `--seed`.

--trace 0 times the program from outside, one CLI process at a time (closed
loop, one client): `readmitlab ingest` three times for `setup_s`, then the
workload's study, repeated until S seconds have passed (at least once). It prints the end-to-end metrics as medians.

--trace 1 runs the study once untraced and once in-process through
`readmitlab.cli.main` with every layer wrapped (bench/spans.py), checks that
both write the same report.tsv, and prints the per-module metrics.

Every CLI run's outputs are checked; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 only
when every check passed. Inputs, run directories and results go under
bench/.work/; bench/README.md defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import cohort
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
PACKAGE = ROOT / "src" / "readmitlab"

FRACTION = 0.05
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0     # a run, cohort generation included, ends within this
NPROC = os.cpu_count() or 1


@dataclass(frozen=True)
class Workload:
    command: str
    flags: tuple[str, ...]
    workers: int
    headline: str          # report.tsv section holding the headline row
    grid: dict | None = None


WORKLOADS = {
    "train-cnn-adasyn": Workload(
        "train",
        ("--model", "network", "--arch", "cnn2", "--epochs", "1", "--learning-rate", "0.01",
         "--resample-method", "adasyn", "--select-method", "chi2", "--select-k", "30",
         "--folds", "3"),
        workers=1, headline="network cross-validation: mean over folds"),
    "cascade-cnn-gbm": Workload(
        "cascade",
        ("--arch", "cnn2", "--epochs", "1", "--learning-rate", "0.01", "--n-rounds", "20",
         "--folds", "3"),
        workers=1, headline="cascade: mean over folds"),
    "sweep-smote": Workload(
        "sweep",
        ("--arch", "vanilla", "--resample-method", "smote", "--folds", "3"),
        workers=min(2, NPROC), headline="grid results, best first",
        grid={"epochs": [1], "learning_rate": [0.01], "batch_size": [16, 64]}),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "cv_accuracy": "%", "cv_macro_f": "%"}


# ---------------------------------------------------------------------------
# environment


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or 'unknown'."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k, "unset") for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# running one CLI process


@dataclass
class Sample:
    """One CLI process: its cost and the problems its outputs showed."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(argv: list[str], log: Path, timeout: float) -> Sample:
    """Run argv to completion from the checkout root; time it and read its
    rusage. A process still running after `timeout` seconds is killed and
    counts as failed."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        sample.problems.append(f"exit code {proc.returncode}: " + " | ".join(tail))
    return sample


# ---------------------------------------------------------------------------
# output checks


@dataclass(frozen=True)
class Expected:
    seed: int
    sha256: str
    rows: int
    class_rows: tuple[int, ...]     # per class, after the stratified subsample

    @property
    def subsample(self) -> int:
        return sum(self.class_rows)

    @property
    def outer(self) -> int:
        return self.class_rows[0] + self.class_rows[2]


def parse_tsv(text: str) -> tuple[dict[str, list[list[str]]], list[str]]:
    """report.tsv as {section title: rows (header first)} and the note lines."""
    sections: dict[str, list[list[str]]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# "):
            current = line[2:]
            sections[current] = []
        elif current is not None:
            sections[current].append(line.split("\t"))
    notes = ["\t".join(row) for row in sections.pop("notes", [])]
    return sections, notes


def check_outputs(out: Path, command: str, expected: Expected) -> list[str]:
    """Problems with one run directory; empty when every check passes."""
    files = {name: out / name for name in ("config.json", "report.tsv", "report.txt")}
    missing = [name for name, path in files.items() if not path.is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    problems = []
    config = json.loads(files["config.json"].read_text())
    if config.get("command") != command or config.get("seed") != expected.seed:
        problems.append(f"config.json echoes command {config.get('command')!r} "
                        f"seed {config.get('seed')!r}")
    sections, notes = parse_tsv(files["report.tsv"].read_text())
    for line in (f"dataset sha256: {expected.sha256}",
                 f"dataset rows: {expected.rows}, features: 45",
                 f"stratified subsample: fraction {FRACTION} -> {expected.subsample} rows"):
        if line not in notes:
            problems.append(f"report.tsv lacks the line {line!r}")
    for title, rows in sections.items():
        if not title.endswith("pooled confusion"):
            continue
        total = sum(int(cell) for row in rows[1:] for cell in row[1:])
        want = expected.outer if "outer classes" in title else expected.subsample
        if total != want:
            problems.append(f"{title!r} sums to {total}, expected {want}")
    return problems


def headline(report_tsv: Path, workload: Workload) -> tuple[float, float]:
    """(mean accuracy %, mean macro F %) of the workload's headline row."""
    sections, _ = parse_tsv(report_tsv.read_text())
    rows = sections[workload.headline]
    if workload.grid is not None:
        best = dict(zip(rows[0], rows[1]))
        return float(best["mean_accuracy"]), float(best["mean_macro_f"])
    values = {row[0]: row[1] for row in rows[1:]}
    return float(values["accuracy"]), float(values["macro_f"])


# ---------------------------------------------------------------------------
# one benchmark run


class Run:
    def __init__(self, name: str, seed: int, work: Path, rows: int):
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.dir = work / "runs" / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        started = perf_counter()
        self.csv, counts = cohort.cohort_csv(work / "cohorts", seed, rows)
        self.expected = Expected(
            seed, cohort.sha256(self.csv), rows,
            tuple(max(1, int(round(FRACTION * n))) for n in counts))
        self.cohort_s = perf_counter() - started
        self.samples: list[Sample] = []
        self.report_bytes: bytes | None = None
        self.grid_json = self.dir / "grid.json"
        if self.workload.grid is not None:
            self.grid_json.write_text(json.dumps({"grid": self.workload.grid}))

    def cli_args(self, command: str, out: Path) -> list[str]:
        args = [command, "--data", os.path.relpath(self.csv, ROOT), "--fraction", str(FRACTION),
                "--seed", str(self.seed), "--out", os.path.relpath(out, ROOT)]
        if command == "ingest":
            return args
        args += ["--workers", str(self.workload.workers), *self.workload.flags]
        if self.workload.grid is not None:
            args += ["--config", os.path.relpath(self.grid_json, ROOT)]
        return args

    def _record(self, sample: Sample, out: Path, command: str, compare: bool) -> Sample:
        if sample.exit_code == 0:
            sample.problems += check_outputs(out, command, self.expected)
        tsv = out / "report.tsv"
        if compare and not sample.problems:
            data = tsv.read_bytes()
            if self.report_bytes is None:
                self.report_bytes = data
            elif data != self.report_bytes:
                sample.problems.append("report.tsv differs from this set's first run")
        self.samples.append(sample)
        return sample

    def _run(self, argv: list[str], out: Path) -> Sample:
        return run_process(argv, out / "stdout.log", self.deadline - perf_counter())

    def ingest(self, i: int) -> Sample:
        out = self.dir / f"ingest-{i}"
        sample = self._run([sys.executable, "-m", "readmitlab",
                            *self.cli_args("ingest", out)], out)
        return self._record(sample, out, "ingest", compare=False)

    def study(self, i: int) -> Sample:
        out = self.dir / f"study-{i}"
        sample = self._run([sys.executable, "-m", "readmitlab",
                            *self.cli_args(self.workload.command, out)], out)
        return self._record(sample, out, self.workload.command, compare=True)

    def traced_study(self, spans_json: Path) -> Sample:
        out = self.dir / "traced"
        sample = self._run([sys.executable, str(BENCH / "traced.py"), str(spans_json), "--",
                            *self.cli_args(self.workload.command, out)], out)
        return self._record(sample, out, self.workload.command, compare=True)

    def check_against_earlier_runs(self) -> None:
        """report.tsv must not change between runs of the same code, command and seed."""
        if self.report_bytes is None:
            return
        digest = hashlib.sha256(self.report_bytes).hexdigest()
        same = json.dumps([source_digest(), self.cli_args(self.workload.command, self.dir)])
        same_id = hashlib.sha256(same.encode()).hexdigest()[:16]
        key = self.work / "digests" / f"{self.name}-seed{self.seed}-{same_id}.txt"
        key.parent.mkdir(parents=True, exist_ok=True)
        if key.exists() and key.read_text().strip() != digest:
            self.samples[-1].problems.append(
                f"report.tsv differs from an earlier run of this code and seed ({key.name})")
        elif not key.exists():
            key.write_text(digest + "\n")

    @property
    def problems(self) -> list[str]:
        return [p for s in self.samples for p in s.problems]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.problems)


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    setup = [run.ingest(i) for i in range(SETUP_REPEATS)]
    studies = []
    started = perf_counter()
    while True:
        studies.append(run.study(len(studies)))
        if studies[-1].problems or perf_counter() - started >= seconds:
            break
    ok = [s for s in studies if not s.problems]
    metrics = {
        "setup_s": statistics.median(s.wall_s for s in setup),
        "wall_s": statistics.median(s.wall_s for s in ok or studies),
        "cpu_s": statistics.median(s.cpu_s for s in ok or studies),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok or studies),
        "cv_accuracy": 0.0,
        "cv_macro_f": 0.0,
    }
    if ok:
        last = run.dir / f"study-{len(studies) - 1}" / "report.tsv"
        metrics["cv_accuracy"], metrics["cv_macro_f"] = headline(last, run.workload)
    counts = {"setup_s": len(setup), "wall_s": len(studies), "cpu_s": len(studies),
              "peak_rss_mb": len(studies), "cv_accuracy": len(ok), "cv_macro_f": len(ok)}
    lines = [f"{name:<12} {metrics[name]:>12.4f} {END_TO_END_UNITS[name]:<3} "
             f"(median of {counts[name]})" for name in END_TO_END_UNITS]
    return {"metrics": metrics, "lines": lines,
            "samples": {"setup": [vars(s) for s in setup], "study": [vars(s) for s in studies]}}


def trace(run: Run, per_layer_units: dict[str, str]) -> dict:
    """Per-module metrics from one traced in-process run of the study."""
    plain = run.study(0)
    spans_json = run.work / "traces" / f"{run.name}-seed{run.seed}.spans.json"
    spans_json.parent.mkdir(parents=True, exist_ok=True)
    traced = run.traced_study(spans_json)
    if plain.problems or traced.problems:
        return {"metrics": {}, "lines": [], "modules": {}}
    payload = json.loads(spans_json.read_text())
    recorded = [tuple(s) for s in payload["spans"]]
    metrics = spans.summarize(recorded, workers=run.workload.workers,
                              import_s=payload["import_s"])
    metrics["trace.overhead_pct"] = 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s
    modules = {m: {"busy_s": metrics[f"{m}.busy_s"], "self_s": metrics[f"{m}.self_s"],
                   "spans": sum(1 for s in recorded if s[1].split(".")[0] == m)}
               for m in spans.MODULES}
    lines = [f"{'module':<10} {'busy_s':>10} {'self_s':>10} {'spans':>8}"]
    lines += [f"{m:<10} {row['busy_s']:>10.4f} {row['self_s']:>10.4f} {row['spans']:>8}"
              for m, row in modules.items()]
    lines += [f"{name:<34} {metrics[name]:>16.6g} {unit}"
              for name, unit in per_layer_units.items()]
    return {"metrics": metrics, "lines": lines, "modules": modules,
            "spans_file": os.path.relpath(spans_json, ROOT)}


def load_units(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, default=100_000,
                        help="cohort size; smaller values are for smoke tests only")
    parser.add_argument("--work", type=Path, default=BENCH / ".work",
                        help="directory for cohorts, run outputs and results")
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no readmitlab package under {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    units = load_units("per_layer" if args.trace else "end_to_end")

    env = environment()
    run = Run(args.workload, args.seed, args.work.resolve(), args.rows)
    result = trace(run, units) if args.trace else measure(run, args.seconds)
    run.check_against_earlier_runs()

    attempted, failed = len(run.samples), run.failed
    metrics = {name: {"value": result["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "command": run.cli_args(run.workload.command, run.dir / "study-N"),
              "cohort_sha256": run.expected.sha256, "cohort_s": run.cohort_s,
              "environment": env, "source_sha256": source_digest(),
              "problems": run.problems, **summary,
              **{k: v for k, v in result.items() if k not in ("metrics", "lines")}}
    results = args.work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cohort sha256 {run.expected.sha256}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in result["lines"]:
        print(line)
    print(f"error_share  {failed / attempted:.4f} ratio ({failed} of {attempted} CLI runs)")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"results in {os.path.relpath(results, ROOT)}")
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
