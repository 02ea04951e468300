"""Every command but report on small degenerate CSVs: ties, duplicate rows,
constant columns, a class of one or two rows and finite values near 1e300.

Each run either succeeds, writing the same report.tsv and report.txt at one
worker and at two, or exits 1 or 2 with one config error or data error line,
no traceback and no warning.

Every resampler on degenerate rows (ties, duplicate rows, a constant column)
reruns bitwise and reaches its targets: an oversampler keeps the original
rows and an interpolating one stays inside each class's box, and an
undersampler keeps only original rows.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from readmitlab.cli import main
from readmitlab.data import save_dataset_csv
from readmitlab.errors import DataError
from readmitlab.resample import METHODS, OVERSAMPLERS, ResamplePlan, apply_plan

from helpers import make_dataset

GBM = {"kind": "gbm", "n_rounds": 2}


def command_runs(arch: str, method: str) -> list[tuple[str, dict, tuple[str, ...]]]:
    """(command, config, worker counts) of every command but report, with 1
    epoch, 2 rounds, 2 trees and 2 folds. A run with worker counts runs at
    each of them; one without runs once, and has no folds. Paper mode's
    train selects and resamples the whole table before it splits it."""
    network = {"arch": arch, "epochs": 1}
    both = ("1", "2")
    return [
        ("ingest", {}, ()),
        ("stats", {}, ()),
        ("select", {}, ()),
        ("resample", {"resample": {"method": method}}, ()),
        ("train", {"model": {"kind": "network", **network}}, ("1",)),
        ("train", {"model": {"kind": "forest", "n_trees": 2}}, ("1",)),
        ("train", {"model": GBM}, both),
        ("train", {"model": GBM, "paper_mode": True, "resample": {"method": method},
                   "select": {"method": "chi2", "k": 1}}, ("1",)),
        ("sweep", {"model": {"arch": arch},
                   "grid": {"epochs": [1], "learning_rate": [1e-3], "batch_size": [16]}}, both),
        ("cascade", {"network": network, "booster": {"n_rounds": 2}}, both),
        ("binary-study", {"booster": {"n_rounds": 2}}, both),
        ("select", {"compare_ks": [1, 2], "model": GBM}, both),
    ]


ERRORS = {1: "config error: ", 2: "data error: "}


@st.composite
def degenerate_csvs(draw) -> tuple[list[list[float]], list[int]]:
    """(rows, labels): 1 to 6 rows per class and 1 to 5 columns, each drawn
    from one to three values (one is a constant column), scaled by 1 or
    1e300."""
    labels = [c for c in range(3) for _ in range(draw(st.integers(1, 6)))]
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        scale = draw(st.sampled_from([1.0, 1e300]))
        pool = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, -1.0, 3.0]), min_size=1,
                             max_size=3, unique=True))
        columns.append([scale * draw(st.sampled_from(pool)) for _ in labels])
    return [list(row) for row in zip(*columns)], labels


def run(argv: list[str]) -> int:
    """main(argv)'s exit code, once its stderr and warnings are checked: no
    warning, and nothing on stderr but one error line on failure."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == [], argv
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert code in ERRORS, (argv, err.getvalue())
        assert err.getvalue().startswith(ERRORS[code]), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
    return code


def reports(out: Path) -> tuple[bytes, bytes] | None:
    if not out.exists():
        return None
    return (out / "report.tsv").read_bytes(), (out / "report.txt").read_bytes()


# each example writes its files in a directory of its own; vanilla reads 4
# columns or more, rnn_simple any number. The explicit example's squared
# distances overflow, without --normalize, in resample's and binary-study's
# nearmiss.
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=degenerate_csvs(), arch=st.sampled_from(["vanilla", "rnn_simple"]),
       method=st.sampled_from(METHODS))
@example(table=([[5e299, 1.0]] * 6, [0, 0, 1, 1, 2, 2]), arch="rnn_simple", method="nearmiss")
def test_every_command_succeeds_alike_at_any_worker_count_or_fails_with_one_line(
        table, arch, method):
    rows, labels = table
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv = tmp / "data.csv"
        save_dataset_csv(make_dataset(rows, labels), csv)
        for normalize in ("--normalize", "--no-normalize"):
            for i, (command, config, worker_counts) in enumerate(command_runs(arch, method)):
                (tmp / "cfg.json").write_text(json.dumps(config))
                argv = [command, "--data", str(csv), "--seed", "1", normalize,
                        "--config", str(tmp / "cfg.json")]
                outcomes = []
                for workers in worker_counts or (None,):
                    folds = [] if workers is None else ["--folds", "2", "--workers", workers]
                    out = tmp / f"{normalize}{i}-{workers}"
                    outcomes.append((run([*argv, *folds, "--out", str(out)]), reports(out)))
                assert outcomes[1:] in ([], outcomes[:1]), argv


# values whose differences are exact, so an interpolated value between two of
# them cannot round past either
LEVELS = [-2.0, -0.5, 0.0, 0.25, 1.0, 3.0, 7.5]


@st.composite
def degenerate_classes(draw) -> tuple[np.ndarray, np.ndarray, int]:
    """(rows, labels, k): each of the three classes has k + 1 to 9 rows, every
    column draws from one to three levels (ties and duplicate rows), and an
    optional column is constant."""
    k = draw(st.integers(1, 4))
    labels = np.array([c for c in range(3) for _ in range(draw(st.integers(k + 1, 9)))])
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        pool = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3, unique=True))
        columns.append([draw(st.sampled_from(pool)) for _ in labels])
    if draw(st.booleans()):
        columns.append([draw(st.sampled_from(LEVELS))] * len(labels))
    return np.array(columns).T, labels, k


@settings(max_examples=300, deadline=None)
@given(table=degenerate_classes(), method=st.sampled_from(METHODS), seed=st.integers(0, 3))
def test_every_resampler_on_degenerate_rows_reruns_bitwise_and_reaches_its_targets(
        table, method, seed):
    rows, labels, k = table
    data = make_dataset(rows, labels)
    plan = ResamplePlan(method, k_neighbors=k)
    try:
        out = apply_plan(data, plan, seed)
    except DataError as exc:
        assert method == "borderline_smote" and "has no danger points" in str(exc), exc
        return
    again = apply_plan(data, plan, seed)
    assert out.features.tobytes() == again.features.tobytes()
    assert np.array_equal(out.labels, again.labels)
    assert out.class_counts() == plan.resolved_targets(data.class_counts())

    if method in OVERSAMPLERS:
        n = data.n_instances
        assert out.features[:n].tobytes() == data.features.tobytes()
        assert np.array_equal(out.labels[:n], data.labels)
        if method != "svm_smote":  # which may extrapolate away from a neighbour
            for c in range(3):
                own, made = data.features[data.labels == c], out.features[out.labels == c]
                assert (made >= own.min(axis=0)).all() and (made <= own.max(axis=0)).all()
    else:
        original = {(*row, label) for row, label in zip(rows.tolist(), labels.tolist())}
        assert {(*row, label) for row, label in
                zip(out.features.tolist(), out.labels.tolist())} <= original
