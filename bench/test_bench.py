"""The benchmark's own checks, run on a small cohort so they fit in the test
suite: a smoke run of every workload, tracing that leaves report bytes
unchanged, and identical sweep reports at one and two fold workers."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import cohort  # noqa: E402
import run  # noqa: E402

ROWS = 4000
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(work: Path, workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--rows", str(ROWS), "--work", str(work)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cohort_follows_the_package_recipe_and_round_trips(tmp_path):
    from readmitlab.data import load_dataset
    from readmitlab.synth import synthetic_cohort

    features, labels = cohort.make_cohort(7, n_rows=500)
    reference = synthetic_cohort(500, cohort.FEATURES, seed=7, weights=cohort.WEIGHTS,
                                 separation=cohort.SEPARATION)
    assert np.array_equal(features, reference.features)
    assert np.array_equal(labels, reference.labels)

    path, counts = cohort.cohort_csv(tmp_path, 7, n_rows=500)
    assert counts == [270, 55, 175]
    loaded = load_dataset(path)
    assert np.array_equal(loaded.features, features)
    assert np.array_equal(loaded.labels, labels)
    stamp = path.stat().st_mtime_ns
    assert cohort.cohort_csv(tmp_path, 7, n_rows=500)[0].stat().st_mtime_ns == stamp


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(tmp_path, workload):
    result = bench(tmp_path, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tracing_leaves_report_bytes_unchanged(tmp_path, workload):
    result = bench(tmp_path, workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    run_dir = tmp_path / "runs" / f"{workload}-seed3"
    plain = (run_dir / "study-0" / "report.tsv").read_bytes()
    assert (run_dir / "traced" / "report.tsv").read_bytes() == plain

    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["data.rows_loaded"] == ROWS and metrics["models.network_fits"] > 0
    if workload == "cascade-cnn-gbm":
        assert metrics["resample.oversample_calls"] == 0 and metrics["resample.oversample_s"] == 0
        assert metrics["trees.tree_fits"] > 0 and metrics["ensemble.network_fits_per_fold"] >= 1
    else:
        assert metrics["trees.tree_fits"] == 0 and metrics["trees.tree_fit_s"] == 0
        assert metrics["resample.rows_synthesized"] > 0
    if workload == "sweep-smote":
        assert metrics["evaluate.sweep_cells"] == 2 and metrics["evaluate.parallel_eff"] > 0


def test_sweep_report_is_identical_at_one_and_two_workers(tmp_path):
    study = run.Run("sweep-smote", 5, tmp_path, ROWS)
    for workers in (1, 2):
        study.workload = dataclasses.replace(run.WORKLOADS["sweep-smote"], workers=workers)
        study.study(workers)
    assert study.problems == []
    assert ((study.dir / "study-1" / "report.tsv").read_bytes()
            == (study.dir / "study-2" / "report.tsv").read_bytes())
