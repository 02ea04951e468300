"""Confusion matrices, macro metrics, and stratified cross-validation.

Confusion matrix layout: rows are PREDICTED classes, columns are ACTUAL
classes. Per-class recall therefore divides the diagonal by its column sum
and precision by its row sum. The macro F score is the harmonic mean of the
macro precision and macro recall (not the mean of per-class F scores). Any
0/0 ratio is defined as 0.0.

cross_validate is the one fold loop: it prepares each fold's training split
once and scores every output its caller's jobs fit on it. A single model per
fold (one_model), the grid sweep's cells (grid_sweep, one job per cell) and
the cascade's stage-1 network, its own stage-2 booster and the cascade itself
(ensemble.cross_validate_cascade, one job with three outputs) all run through
it, so the cascade's stages are scored on the cascade's folds.

Its parallel work runs in forked worker processes, not threads: a network
step is a string of microsecond NumPy calls, so fold threads would mostly
wait on the GIL. The calling process is one of the workers, and at one
worker, or where the platform cannot fork, everything runs inline.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import itertools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Protocol, TypeVar

import numpy as np

from .data import Dataset, FoldPlan
from .errors import DataError
from .resample import ResamplePlan, apply_plan


def _ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def harmonic_mean(a: float, b: float) -> float:
    return _ratio(2.0 * a * b, a + b)


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i, j] = instances predicted as class_ids[i] that are actually
    class_ids[j]."""

    counts: np.ndarray
    class_ids: tuple[int, ...]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if counts.shape[0] != len(self.class_ids):
            raise ValueError("class_ids length must match matrix size")
        if (counts < 0).any():
            raise ValueError("confusion matrix counts must be nonnegative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "class_ids", tuple(int(c) for c in self.class_ids))

    @classmethod
    def from_labels(cls, actual: np.ndarray, predicted: np.ndarray,
                    class_ids: tuple[int, ...] | None = None) -> "ConfusionMatrix":
        actual = np.asarray(actual)
        predicted = np.asarray(predicted)
        if actual.shape != predicted.shape:
            raise ValueError("actual and predicted must have the same length")
        if class_ids is None:
            class_ids = tuple(int(c) for c in np.unique(np.concatenate([actual, predicted])))
        ids = np.asarray(class_ids)
        order = np.argsort(ids)

        def positions(labels: np.ndarray) -> np.ndarray:
            slot = np.searchsorted(ids[order], labels)
            bad = (slot >= len(ids)) | (ids[order][np.minimum(slot, len(ids) - 1)] != labels)
            if bad.any():
                raise DataError(
                    f"label {labels[bad][0]} outside class_ids {class_ids}"
                )
            return order[slot]

        k = len(class_ids)
        counts = np.zeros((k, k), dtype=np.int64)
        np.add.at(counts, (positions(predicted), positions(actual)), 1)
        return cls(counts, class_ids)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def correct(self) -> int:
        return int(np.trace(self.counts))

    @property
    def accuracy(self) -> float:
        return _ratio(self.correct, self.total)

    def recall(self, class_id: int) -> float:
        i = self.class_ids.index(class_id)
        return _ratio(self.counts[i, i], self.counts[:, i].sum())

    def precision(self, class_id: int) -> float:
        i = self.class_ids.index(class_id)
        return _ratio(self.counts[i, i], self.counts[i, :].sum())

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if self.class_ids != other.class_ids:
            raise ValueError("cannot add confusion matrices over different classes")
        return ConfusionMatrix(self.counts + other.counts, self.class_ids)


@dataclass(frozen=True)
class MetricsReport:
    """All values are fractions in [0, 1]; notes record degenerate ratios."""

    class_ids: tuple[int, ...]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f: float
    per_class_recall: dict[int, float]
    per_class_precision: dict[int, float]
    source: ConfusionMatrix | None = None
    notes: tuple[str, ...] = ()


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    if cm.total == 0:
        raise DataError("cannot compute metrics of an empty confusion matrix")
    notes = []
    for i, c in enumerate(cm.class_ids):
        if cm.counts[:, i].sum() == 0:
            notes.append(f"class {c}: no actual instances; recall 0 by convention")
        if cm.counts[i, :].sum() == 0:
            notes.append(f"class {c}: never predicted; precision 0 by convention")
    recalls = {c: cm.recall(c) for c in cm.class_ids}
    precisions = {c: cm.precision(c) for c in cm.class_ids}
    macro_r = float(np.mean(list(recalls.values())))
    macro_p = float(np.mean(list(precisions.values())))
    return MetricsReport(
        class_ids=cm.class_ids,
        accuracy=cm.accuracy,
        macro_precision=macro_p,
        macro_recall=macro_r,
        macro_f=harmonic_mean(macro_p, macro_r),
        per_class_recall=recalls,
        per_class_precision=precisions,
        source=cm,
        notes=tuple(notes),
    )


class Model(Protocol):
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Model": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class CvResult:
    fold_matrices: tuple[ConfusionMatrix, ...]
    fold_metrics: tuple[MetricsReport, ...]
    mean_metrics: MetricsReport
    pooled_matrix: ConfusionMatrix


# fit_predict(fold, train, test) -> one predicted-label array per output
FitPredict = Callable[[int, Dataset, Dataset], tuple[np.ndarray, ...]]


def _mean_metrics(reports: tuple[MetricsReport, ...],
                  pooled: ConfusionMatrix) -> MetricsReport:
    classes = reports[0].class_ids
    notes = tuple(dict.fromkeys(n for r in reports for n in r.notes))
    return MetricsReport(
        class_ids=classes,
        accuracy=float(np.mean([r.accuracy for r in reports])),
        macro_precision=float(np.mean([r.macro_precision for r in reports])),
        macro_recall=float(np.mean([r.macro_recall for r in reports])),
        macro_f=float(np.mean([r.macro_f for r in reports])),
        per_class_recall={c: float(np.mean([r.per_class_recall[c] for r in reports]))
                          for c in classes},
        per_class_precision={c: float(np.mean([r.per_class_precision[c] for r in reports]))
                             for c in classes},
        source=pooled,
        notes=notes,
    )


@functools.lru_cache(maxsize=1)
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the thread count of the OpenBLAS numpy has loaded, or
    None when it cannot be found (another BLAS, or no /proc/self/maps)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, then restore its count.

    Concurrent fold workers would otherwise each hand their matrix products
    to BLAS's own threads, which spin-wait for one another on CPUs the
    workers already fill: on two CPUs, two concurrent vanilla-network
    trainings at batch 64 took 24.7 s of CPU against 9.2 s on one BLAS
    thread, and how much of that spinning a run does varies with what else
    the machine runs. A single worker gains no wall time from BLAS threads
    on the small products of these models either, only CPU time. Forked
    workers inherit the setting, so no child needs to look BLAS up again.
    Thread count does not change BLAS results.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def one_model(build_model: Callable[[int], Model]) -> FitPredict:
    """The fit_predict of one model per fold: build_model(fold), fitted on the
    training split, predicts the held-out rows."""
    def fit_predict(fold: int, train: Dataset, test: Dataset) -> tuple[np.ndarray]:
        return (build_model(fold).fit(train.features, train.labels).predict(test.features),)

    return fit_predict


T = TypeVar("T")

# (task, task count, next unclaimed index): set just before a fork, so forked
# workers inherit the task, closures included, and receive nothing pickled
_POOL_TASKS: tuple[Callable[[int], Any], int, Any] | None = None


def _claim_tasks() -> tuple[dict[int, Any], tuple[int, Exception] | None]:
    """Run _POOL_TASKS' task on the next unclaimed index until none is left
    or one fails; a failure stops every worker from claiming more. Returns
    the results by index and the failure (index, exception), if any."""
    task, n, claimed = _POOL_TASKS
    done = {}
    while True:
        with claimed.get_lock():
            i = claimed.value
            claimed.value = i + 1
        if i >= n:
            return done, None
        try:
            done[i] = task(i)
        except Exception as exc:
            with claimed.get_lock():
                claimed.value = n
            return done, (i, exc)


def _fork_context():
    """multiprocessing's fork context, or None where the platform has no fork.

    Imported only here: multiprocessing and the process pool bring about
    1.5 MB of modules, which a run that never forks need not hold.
    """
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _run_tasks(task: Callable[[int], T], n: int, workers: int) -> list[T]:
    """[task(i) for i in range(n)], run by the calling process and up to
    workers - 1 forked ones.

    Each process claims the next unclaimed index in turn, so a slow task
    holds up no queue. Indices are claimed in order, so every task before a
    failing one has run: the failure raised is the lowest-index one, the
    same as a serial run raises. One worker, one task or a platform without
    the fork start method runs inline, with no pool.

    Fork rather than spawn: on a 2-vCPU Linux host a forked 2-worker pool
    started in about 0.02 s against 0.35 s spawned, and forked workers
    inherit the task's closures. A fork is safe only while the forking
    process runs no other thread; the pool's own threads are joined when it
    shuts down, before any next fork.
    """
    workers = min(workers, n)
    context = _fork_context() if workers > 1 else None
    if context is None:
        return [task(i) for i in range(n)]
    global _POOL_TASKS
    _POOL_TASKS = (task, n, context.Value("q", 0))
    try:
        with concurrent.futures.ProcessPoolExecutor(workers - 1, mp_context=context) as pool:
            theirs = [pool.submit(_claim_tasks) for _ in range(workers - 1)]
            parts = [_claim_tasks()] + [future.result() for future in theirs]
    finally:
        _POOL_TASKS = None
    done = {}
    failures = []
    for results, failure in parts:
        done.update(results)
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [done[i] for i in range(n)]


def cross_validate(data: Dataset, folds: FoldPlan, *jobs: FitPredict,
                   resample_plan: ResamplePlan | None = None,
                   workers: int = 1) -> tuple[CvResult, ...]:
    """Prepare each fold once and score every output fitted on it.

    A fold takes its training split and, when a plan is given, resamples it
    with the plan seed plus the fold index, so folds stay independent but
    reproducible; the held-out fold is never resampled. Each job is a
    fit_predict(fold, train, test) returning one predicted-label array per
    output for the held-out rows; the result is one CvResult per output, the
    jobs' outputs in job order.

    Every fold is prepared first, then every (fold, job) pair is one task.
    Both stages run on `workers` processes (see _run_tasks), with BLAS on one
    thread: the calling process and forked workers, which inherit the
    prepared splits and the caller's np.errstate. Without a plan a split is
    only two row gathers, so folds are then prepared inline. Results are put
    back in (fold, job) order, so the worker count never changes the outcome.
    """
    if not jobs:
        raise ValueError("cross_validate needs at least one job")
    class_ids = tuple(int(c) for c in data.classes())

    def prepare(fold: int) -> tuple[Dataset, Dataset]:
        train = data.take(folds.train_indices(fold))
        if resample_plan is not None:
            train = apply_plan(train, replace(resample_plan, seed=resample_plan.seed + fold))
        return train, data.take(folds.test_indices(fold))

    def fit(task: int) -> tuple[np.ndarray, ...]:
        fold, job = divmod(task, len(jobs))
        return jobs[job](fold, *splits[fold])

    with _one_blas_thread():
        splits = _run_tasks(prepare, folds.k, workers if resample_plan is not None else 1)
        outputs = _run_tasks(fit, folds.k * len(jobs), workers)
    per_fold = [[ConfusionMatrix.from_labels(test.labels, predicted, class_ids)
                 for task in range(fold * len(jobs), (fold + 1) * len(jobs))
                 for predicted in outputs[task]]
                for fold, (_, test) in enumerate(splits)]
    return tuple(_cv_result(matrices) for matrices in zip(*per_fold))


def _cv_result(matrices: tuple[ConfusionMatrix, ...]) -> CvResult:
    """Per-fold metrics, their mean, and the pooled matrix of per-fold
    confusion matrices given in fold order."""
    fold_metrics = tuple(metrics(m) for m in matrices)
    pooled = matrices[0]
    for m in matrices[1:]:
        pooled = pooled + m
    return CvResult(matrices, fold_metrics, _mean_metrics(fold_metrics, pooled), pooled)


@dataclass(frozen=True)
class SweepRow:
    """One grid combination with its cross-validated mean metrics."""

    epochs: int
    learning_rate: float
    batch_size: int
    result: CvResult
    note: str = ""

    @property
    def accuracy(self) -> float:
        return self.result.mean_metrics.accuracy

    @property
    def macro_f(self) -> float:
        return self.result.mean_metrics.macro_f


def grid_sweep(data: Dataset, folds: FoldPlan,
               build_model: Callable[[int, int, float, int], Model],
               epochs_grid: tuple[int, ...], lr_grid: tuple[float, ...],
               batch_grid: tuple[int, ...],
               resample_plan: ResamplePlan | None = None,
               workers: int = 1,
               annotate: dict[tuple[int, float, int], str] | None = None) -> list[SweepRow]:
    """Cross-validate every (epochs, lr, batch) combination and rank the rows.

    Each fold is prepared once, and every cell is one cross_validate job, so
    each (fold, cell) pair is a task of its own for the workers.
    build_model(fold, epochs, lr, batch) must return a fresh model, which is
    dropped once it has predicted. The returned rows are sorted by mean
    accuracy descending (stable, so grid order breaks ties); the first row is
    the winner. `annotate` attaches a note string to specific combinations.
    """
    if not (epochs_grid and lr_grid and batch_grid):
        raise ValueError("grid axes must be nonempty")
    annotate = annotate or {}
    cells = list(itertools.product(epochs_grid, lr_grid, batch_grid))

    jobs = [one_model(lambda fold, cell=cell: build_model(fold, *cell)) for cell in cells]
    results = cross_validate(data, folds, *jobs, resample_plan=resample_plan, workers=workers)
    rows = [SweepRow(*cell, result, annotate.get(cell, ""))
            for cell, result in zip(cells, results)]
    rows.sort(key=lambda row: -row.accuracy)
    return rows
