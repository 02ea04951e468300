"""Confusion matrices, macro metrics, and stratified cross-validation.

Confusion matrix layout: rows are PREDICTED classes, columns are ACTUAL
classes. Per-class recall therefore divides the diagonal by its column sum
and precision by its row sum. The macro F score is the harmonic mean of the
macro precision and macro recall (not the mean of per-class F scores). Any
0/0 ratio is defined as 0.0.

cross_validate is the one fold loop: each (fold, job) task prepares its
fold, which its process keeps until it moves on to another fold, and scores
every output the job fits on it. A fold is prepared by one FoldPipeline
(scale, select, resample) fitted on its training split alone, so no
held-out row reaches the scaling, the feature scores or the resampler; the
held-out split gets the fitted scaling and columns and is never resampled.
Fold f of folds drawn with seed s resamples, and seeds its models, with
s + f: the one seed rule, applied there alone. A single model per fold
(one_model), the grid sweep's cells (grid_sweep, one job per cell), the
cascade's stage-1 network, its own stage-2 booster and the cascade itself
(ensemble.cross_validate_cascade, one job with three outputs) and the binary
study's regimes all run through it, so the cascade's stages are scored on
the cascade's folds. The whole-dataset protocol is the same pipeline fitted
once on all rows, then cross-validated with the empty pipeline.

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
import inspect
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Protocol, TypeVar

import numpy as np

from .data import Dataset, FoldPlan, min_max_normalize
from .errors import DataError
from .features import Selection, select_k_best
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
                    class_ids: tuple[int, ...]) -> "ConfusionMatrix":
        """The matrix of these labels, rows and columns in class_ids' given
        order; a label outside class_ids is a DataError."""
        actual = np.asarray(actual)
        predicted = np.asarray(predicted)
        if actual.shape != predicted.shape:
            raise ValueError("actual and predicted must have the same length")

        def positions(labels: np.ndarray) -> np.ndarray:
            """Each label's first index in class_ids."""
            match = labels[:, None] == np.asarray(class_ids)
            known = match.any(axis=1)
            if not known.all():
                raise DataError(f"label {labels[~known][0]} outside class_ids {class_ids}")
            # argmax fails on no class ids, which leaves no label to place
            return match.argmax(axis=1) if match.size else np.zeros(0, dtype=np.intp)

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

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ConfusionMatrix) and self.class_ids == other.class_ids
                and np.array_equal(self.counts, other.counts))

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
        notes=tuple(notes),
    )


class Model(Protocol):
    def fit(self, X: np.ndarray, y: np.ndarray) -> "Model": ...

    def predict(self, X: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class CvResult:
    """What a cross-validation's folds produced: fold f's confusion matrix
    and the notes of its FoldPipeline fit, in fold order. Every summary is
    derived from them on first read."""

    fold_matrices: tuple[ConfusionMatrix, ...]
    fold_notes: tuple[tuple[str, ...], ...]

    @functools.cached_property
    def fold_metrics(self) -> tuple[MetricsReport, ...]:
        return tuple(metrics(m) for m in self.fold_matrices)

    @functools.cached_property
    def mean_metrics(self) -> MetricsReport:
        """The field-by-field mean of fold_metrics; the folds' notes once
        each, in order of first appearance."""
        reports = self.fold_metrics
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
            notes=notes,
        )

    @functools.cached_property
    def pooled_matrix(self) -> ConfusionMatrix:
        """The sum of the fold matrices."""
        return sum(self.fold_matrices[1:], self.fold_matrices[0])


@dataclass(frozen=True)
class FoldPipeline:
    """What a training split is fitted with before any model sees it, in
    this order: min-max scaling (scale), the k best features by a scorer
    (select) and a resampling plan (resample). The empty pipeline changes
    nothing."""

    scale: bool = False
    select: Selection | None = None
    resample: ResamplePlan | None = None

    def fit(self, train: Dataset, seed: int, test: Dataset | None = None
            ) -> tuple[Dataset, Dataset | None, tuple[str, ...]]:
        """(train through every step, resampled with `seed`; test, if given,
        through the scaling and the columns fitted on train, never
        resampled; the fit's report notes, the resampled class counts
        among them). A training split with fewer columns its scorer can
        score than k raises select_k_best's DataError."""
        notes = []  # test is None in a whole-dataset fit, so `test and` skips it
        if self.scale:
            train, spec = min_max_normalize(train)
            test = test and min_max_normalize(test, spec)[0]
            if spec.degenerate_columns:
                notes.append("constant features scaled to zero: " + ", ".join(
                    train.feature_names[i] for i in spec.degenerate_columns))
        if self.select is not None:
            columns = select_k_best(self.select.scores(train), self.select.k)
            train, test = train.select_features(columns), test and test.select_features(columns)
            notes.append(f"selected {len(columns)} features by {self.select.method}: "
                         + ", ".join(train.feature_names))
        if self.resample is not None:
            train = apply_plan(train, self.resample, seed)
            notes.append(f"resampled by {self.resample.method}: " + ", ".join(
                f"class {c}: {n}" for c, n in sorted(train.class_counts().items())))
        return train, test, tuple(notes)


# fit_predict(seed, train, test) -> one predicted-label array per output
FitPredict = Callable[[int, Dataset, Dataset], tuple[np.ndarray, ...]]


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


def one_model(build_model: Callable[..., Model], **settings) -> FitPredict:
    """The fit_predict of one model per fold: a fresh
    build_model(**settings, seed=<the fold's seed>), or build_model(**settings)
    when build_model takes no seed, fitted on the training split, predicts
    the held-out rows. A class, a functools.partial and a function are
    seeded alike."""
    seeded = "seed" in inspect.signature(build_model).parameters

    def fit_predict(seed: int, train: Dataset, test: Dataset) -> tuple[np.ndarray]:
        model = build_model(**settings, seed=seed) if seeded else build_model(**settings)
        return (model.fit(train.features, train.labels).predict(test.features),)

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
                   pipeline: FoldPipeline = FoldPipeline(),
                   workers: int = 1) -> tuple[CvResult, ...]:
    """Score every output the jobs fit on each fold's training split.

    Each fold is prepared by `pipeline` fitted on its training split alone,
    which maps its held-out split too; a DataError of that fit, a fault of
    the fold's rows, is raised again naming the fold.
    Fold f's seed is folds.seed + f, derived here and nowhere else: the pipeline
    resamples with it and every job fits with it, so folds stay independent
    but reproducible. Each job is a fit_predict(seed, train, test) returning
    one predicted-label array per output for the held-out rows; the result
    is one CvResult per output, the jobs' outputs in job order, each with
    every fold's pipeline notes.

    Every (fold, job) pair is one task, run on `workers` processes (see
    _run_tasks) with BLAS on one thread: the calling process and forked
    workers, which inherit the caller's np.errstate. A task prepares its
    fold's split itself, and a process keeps only the split it prepared last,
    dropping it before it prepares another, so it holds at most one split at
    any time besides the one being built. A process claims tasks in
    increasing order, so it prepares a fold at most once: with one job each
    fold is prepared exactly once, and a fold whose jobs run in different
    processes is prepared once in each, to the same bytes. A failure raised
    is the lowest-index task's, whether preparing or fitting failed. Results
    are put back in (fold, job) order, so the worker count never changes the
    outcome.
    """
    if not jobs:
        raise ValueError("cross_validate needs at least one job")
    class_ids = tuple(int(c) for c in data.classes())

    held: dict[int, tuple[Dataset, Dataset, tuple[str, ...]]] = {}  # the latest fold

    def prepare(fold: int, seed: int) -> tuple[Dataset, Dataset, tuple[str, ...]]:
        if fold not in held:
            held.clear()  # free the old split before building the next
            try:
                held[fold] = pipeline.fit(data.take(folds.train_indices(fold)), seed,
                                          data.take(folds.test_indices(fold)))
            except DataError as exc:  # such as a k beyond the fold's columns
                raise DataError(f"training fold {fold}: {exc}") from None
        return held[fold]

    def fit(task: int) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
        fold, job = divmod(task, len(jobs))
        seed = folds.seed + fold
        train, test, notes = prepare(fold, seed)
        return notes, jobs[job](seed, train, test)

    with _one_blas_thread():
        outputs = _run_tasks(fit, folds.k * len(jobs), workers)
    per_fold = [[ConfusionMatrix.from_labels(data.labels[test], predicted, class_ids)
                 for task in range(fold * len(jobs), (fold + 1) * len(jobs))
                 for predicted in outputs[task][1]]
                for fold, test in enumerate(folds.folds)]
    notes = tuple(outputs[fold * len(jobs)][0] for fold in range(folds.k))
    return tuple(CvResult(matrices, notes) for matrices in zip(*per_fold))


def grid_sweep(data: Dataset, folds: FoldPlan, build_model: Callable[..., Model],
               grid: dict[str, Any], pipeline: FoldPipeline = FoldPipeline(),
               workers: int = 1) -> list[tuple[dict[str, Any], CvResult]]:
    """Cross-validate every cell of grid, a mapping from setting name to the
    values it takes, and rank the (cell, result) pairs.

    The cells are the product of the values in grid order, the last name
    varying fastest, each a mapping from name to value. Every cell is one
    cross_validate job, one_model(build_model, **cell), so each (fold, cell)
    pair is a task of its own for the workers, and a process prepares each
    fold at most once for all the cells it runs. The pairs are sorted by mean
    accuracy descending (stable, so grid order breaks ties); the first is the
    winner. An empty grid or axis is a ValueError.
    """
    if not grid or not all(grid.values()):
        raise ValueError("a grid needs at least one axis, and every axis a value")
    cells = [dict(zip(grid, values)) for values in itertools.product(*grid.values())]
    results = cross_validate(data, folds, *(one_model(build_model, **cell) for cell in cells),
                             pipeline=pipeline, workers=workers)
    return sorted(zip(cells, results), key=lambda pair: -pair[1].mean_metrics.accuracy)
