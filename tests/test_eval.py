"""Confusion-matrix layout, macro metrics, and cross-validation plumbing."""

import concurrent.futures
import dataclasses
import functools
import inspect
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab.data import stratified_kfold
from readmitlab.errors import DataError
from readmitlab.models import NetworkClassifier
from readmitlab.trees import GradientBoostedClassifier, RandomForest
from readmitlab.resample import apply_plan
from readmitlab.evaluate import (
    ConfusionMatrix,
    CvResult,
    FoldPipeline,
    grid_sweep,
    harmonic_mean,
    metrics,
    cross_validate,
    one_model,
)

from helpers import ProcessLog, blob_dataset, make_dataset


def assert_each_process_prepared_each_fold_once(prepared, seeds):
    """prepared holds an apply_plan spy's [pid, fold seed] records."""
    assert sorted({seed for _, seed in prepared}) == seeds  # every fold is prepared
    assert len({tuple(record) for record in prepared}) == len(prepared)  # once per process


class ConstantModel:
    """Always predicts one class; the canonical collapsed classifier."""

    def __init__(self, label=0):
        self.label = label

    def fit(self, X, y):
        return self

    def predict(self, X):
        return np.full(len(X), self.label, dtype=np.int64)


class NearestCentroid:
    def fit(self, X, y):
        self.classes_ = np.unique(y)
        self.centers_ = np.vstack([X[y == c].mean(axis=0) for c in self.classes_])
        return self

    def predict(self, X):
        d = ((X[:, None, :] - self.centers_[None]) ** 2).sum(axis=2)
        return self.classes_[d.argmin(axis=1)]


class TestHarmonicMean:
    def test_hand_values(self):
        assert harmonic_mean(1.0, 1.0) == 1.0
        assert abs(harmonic_mean(0.5, 1.0) - 2 / 3) < 1e-15
        assert harmonic_mean(0.0, 0.7) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0

    def test_symmetric(self):
        assert harmonic_mean(0.3, 0.8) == harmonic_mean(0.8, 0.3)


class TestConfusionMatrix:
    def test_rows_are_predictions_columns_are_actuals(self):
        actual = np.array([0, 0, 1, 2, 2, 2])
        predicted = np.array([0, 1, 1, 0, 2, 2])
        cm = ConfusionMatrix.from_labels(actual, predicted, (0, 1, 2))
        expected = np.array([
            [1, 0, 1],   # predicted 0: one actual 0, one actual 2
            [1, 1, 0],   # predicted 1: one actual 0, one actual 1
            [0, 0, 2],   # predicted 2: two actual 2
        ])
        assert np.array_equal(cm.counts, expected)
        assert cm.class_ids == (0, 1, 2)
        assert cm.total == 6 and cm.correct == 4
        # recall divides by the column (actual) sum
        assert cm.recall(0) == 0.5 and cm.recall(2) == pytest.approx(2 / 3)
        # precision divides by the row (predicted) sum
        assert cm.precision(0) == 0.5 and cm.precision(2) == 1.0

    def test_swapping_arguments_transposes_counts(self):
        rng = np.random.default_rng(0)
        actual = rng.integers(0, 3, size=50)
        predicted = rng.integers(0, 3, size=50)
        a = ConfusionMatrix.from_labels(actual, predicted, (0, 1, 2))
        b = ConfusionMatrix.from_labels(predicted, actual, (0, 1, 2))
        assert np.array_equal(a.counts, b.counts.T)

    def test_explicit_class_ids_keep_given_order(self):
        # cascades report classes in a non-sorted order; rows must follow it
        cm = ConfusionMatrix.from_labels(
            np.array([2, 0, 2]), np.array([2, 0, 0]), class_ids=(2, 0))
        assert cm.class_ids == (2, 0)
        assert np.array_equal(cm.counts, [[1, 0], [1, 1]])

    def test_missing_class_gets_zero_row_and_column(self):
        cm = ConfusionMatrix.from_labels(
            np.array([0, 2]), np.array([0, 2]), class_ids=(0, 1, 2))
        assert cm.counts[1].sum() == 0 and cm.counts[:, 1].sum() == 0

    def test_label_outside_class_ids_rejected(self):
        with pytest.raises(DataError, match="label 3 outside"):
            ConfusionMatrix.from_labels(
                np.array([0, 3]), np.array([0, 0]), class_ids=(0, 1, 2))

    @pytest.mark.parametrize("ids", [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)])
    def test_every_order_of_class_ids_gives_the_same_counts(self, ids):
        rng = np.random.default_rng(3)
        actual, predicted = rng.integers(0, 3, size=40), rng.integers(0, 3, size=40)
        cm = ConfusionMatrix.from_labels(actual, predicted, ids)
        sorted_cm = ConfusionMatrix.from_labels(actual, predicted, (0, 1, 2))
        assert np.array_equal(cm.counts, sorted_cm.counts[np.ix_(ids, ids)])

    def test_the_first_unknown_predicted_label_is_named_before_any_actual_one(self):
        with pytest.raises(DataError, match=r"^label 7 outside class_ids \(2, 0\)$"):
            ConfusionMatrix.from_labels(np.array([5, 0, 2]), np.array([2, 7, 9]), (2, 0))
        with pytest.raises(DataError, match="^label 5 outside"):
            ConfusionMatrix.from_labels(np.array([0, 5, 6]), np.array([2, 0, 2]), (2, 0))

    def test_no_labels_over_no_classes_is_an_empty_matrix(self):
        cm = ConfusionMatrix.from_labels(np.array([], int), np.array([], int), ())
        assert cm.counts.shape == (0, 0) and cm.class_ids == ()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_labels(np.array([0, 1]), np.array([0]), (0, 1))

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((2, 3), dtype=int), (0, 1))
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, 0], [0, -1]]), (0, 1))
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((2, 2), dtype=int), (0, 1, 2))

    def test_counts_are_read_only(self):
        cm = ConfusionMatrix.from_labels(np.array([0, 1]), np.array([0, 1]), (0, 1))
        with pytest.raises(ValueError):
            cm.counts[0, 0] = 99

    def test_addition_accumulates_counts(self):
        a = ConfusionMatrix(np.array([[1, 0], [2, 3]]), (0, 1))
        b = ConfusionMatrix(np.array([[4, 1], [0, 1]]), (0, 1))
        merged = a + b
        assert np.array_equal(merged.counts, [[5, 1], [2, 4]])
        with pytest.raises(ValueError):
            a + ConfusionMatrix(np.zeros((2, 2), dtype=int), (0, 2))

    def test_matrices_with_equal_counts_and_classes_are_equal(self):
        a = ConfusionMatrix(np.eye(3, dtype=int), (0, 1, 2))
        b = ConfusionMatrix(np.eye(3, dtype=int), (0, 1, 2))
        assert a == b and a is not b
        assert CvResult((a,), ((),)) == CvResult((b,), ((),))
        assert a != ConfusionMatrix(np.eye(3, dtype=int), (0, 2, 1))
        assert a != ConfusionMatrix(2 * np.eye(3, dtype=int), (0, 1, 2))
        assert a != ConfusionMatrix(np.eye(2, dtype=int), (0, 1))


class TestMetrics:
    def hand_matrix(self):
        return ConfusionMatrix(np.array([
            [5, 2, 0],
            [1, 3, 1],
            [0, 1, 4],
        ]), (0, 1, 2))

    def test_macro_values_match_plain_loops(self):
        cm = self.hand_matrix()
        report = metrics(cm)
        recalls = [5 / 6, 3 / 6, 4 / 5]
        precisions = [5 / 7, 3 / 5, 4 / 5]
        assert report.macro_recall == pytest.approx(np.mean(recalls), abs=1e-15)
        assert report.macro_precision == pytest.approx(np.mean(precisions), abs=1e-15)
        assert report.accuracy == pytest.approx(12 / 17, abs=1e-15)
        assert report.per_class_recall[2] == pytest.approx(0.8, abs=1e-15)

    def test_macro_f_is_harmonic_of_macro_averages(self):
        report = metrics(self.hand_matrix())
        expected = harmonic_mean(report.macro_precision, report.macro_recall)
        assert report.macro_f == pytest.approx(expected, abs=1e-15)
        # ... and is NOT the mean of per-class F scores
        per_class_f = np.mean([
            harmonic_mean(report.per_class_precision[c], report.per_class_recall[c])
            for c in report.class_ids
        ])
        assert abs(report.macro_f - per_class_f) > 1e-4

    def test_never_predicted_class_noted(self):
        cm = ConfusionMatrix(np.array([
            [4, 1, 2],
            [0, 0, 0],
            [1, 2, 3],
        ]), (0, 1, 2))
        report = metrics(cm)
        assert report.per_class_precision[1] == 0.0
        assert "class 1: never predicted; precision 0 by convention" in report.notes

    def test_absent_actual_class_noted(self):
        cm = ConfusionMatrix(np.array([
            [4, 0, 2],
            [1, 0, 0],
            [1, 0, 3],
        ]), (0, 1, 2))
        report = metrics(cm)
        assert report.per_class_recall[1] == 0.0
        assert "class 1: no actual instances; recall 0 by convention" in report.notes

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(np.zeros((3, 3), dtype=int), (0, 1, 2))
        with pytest.raises(DataError):
            metrics(cm)


class TestCrossValidate:
    def make_data(self, seed=0, counts=(30, 30, 30)):
        rng = np.random.default_rng(seed)
        return blob_dataset(rng, dict(enumerate(counts)),
                            {0: [0, 0], 1: [4, 0], 2: [0, 4]}, spread=0.5)

    def test_fold_matrices_partition_the_dataset(self):
        data = self.make_data()
        folds = stratified_kfold(data.labels, 5, seed=1)
        (result,) = cross_validate(data, folds, one_model(NearestCentroid))
        assert isinstance(result, CvResult)
        assert len(result.fold_matrices) == 5
        assert sum(m.total for m in result.fold_matrices) == data.n_instances
        assert result.pooled_matrix.total == data.n_instances

    def test_pooled_matrix_is_sum_of_folds(self):
        data = self.make_data(seed=2)
        folds = stratified_kfold(data.labels, 3, seed=3)
        (result,) = cross_validate(data, folds, one_model(NearestCentroid))
        acc = np.zeros_like(result.pooled_matrix.counts)
        for m in result.fold_matrices:
            acc = acc + m.counts
        assert np.array_equal(result.pooled_matrix.counts, acc)

    def test_mean_metrics_average_fold_metrics(self):
        data = self.make_data(seed=4)
        folds = stratified_kfold(data.labels, 4, seed=5)
        (result,) = cross_validate(data, folds, one_model(NearestCentroid))
        mean_acc = np.mean([r.accuracy for r in result.fold_metrics])
        assert result.mean_metrics.accuracy == pytest.approx(mean_acc, abs=1e-15)
        mean_f = np.mean([r.macro_f for r in result.fold_metrics])
        assert result.mean_metrics.macro_f == pytest.approx(mean_f, abs=1e-15)

    def test_equal_fold_sizes_make_pooled_equal_mean_accuracy(self):
        # 90 instances over 5 folds -> 18 each, so the weighted (pooled)
        # accuracy and the unweighted mean coincide
        data = self.make_data(seed=6)
        folds = stratified_kfold(data.labels, 5, seed=7)
        (result,) = cross_validate(data, folds, one_model(NearestCentroid))
        assert result.mean_metrics.accuracy == pytest.approx(
            result.pooled_matrix.accuracy, abs=1e-12)

    def test_constant_predictor_scores_a_third_on_balanced_data(self):
        data = self.make_data(seed=8)
        folds = stratified_kfold(data.labels, 5, seed=9)
        (result,) = cross_validate(data, folds, one_model(ConstantModel))
        assert result.mean_metrics.accuracy == pytest.approx(1 / 3, abs=1e-12)
        assert result.mean_metrics.per_class_recall[0] == pytest.approx(1.0)
        assert result.mean_metrics.per_class_recall[1] == 0.0

    def test_worker_count_never_changes_the_outcome(self):
        data = self.make_data(seed=10, counts=(25, 20, 15))
        folds = stratified_kfold(data.labels, 5, seed=11)
        build = one_model(NearestCentroid)
        (serial,) = cross_validate(data, folds, build, workers=1)
        (threaded,) = cross_validate(data, folds, build, workers=4)
        assert np.array_equal(serial.pooled_matrix.counts,
                              threaded.pooled_matrix.counts)
        assert serial.mean_metrics.accuracy == threaded.mean_metrics.accuracy
        assert serial.mean_metrics.macro_f == threaded.mean_metrics.macro_f
        assert serial.mean_metrics.per_class_recall == threaded.mean_metrics.per_class_recall

    @pytest.mark.parametrize("workers", [1, 2])
    def test_folds_run_under_the_callers_errstate(self, workers):
        data = self.make_data(seed=12)
        folds = stratified_kfold(data.labels, 3, seed=13)

        def dividing(fold, train, test):
            np.ones(1) / np.zeros(1)
            return (np.zeros(test.n_instances, dtype=np.int64),)

        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            cross_validate(data, folds, dividing, workers=workers)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            cross_validate(data, folds, dividing, workers=workers)

    def test_parallel_folds_run_with_one_blas_thread(self, tmp_path):
        from readmitlab.evaluate import _openblas_threads

        threads = _openblas_threads()
        if threads is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with a readable thread count")
        get_threads, _ = threads
        before = get_threads()
        data = self.make_data(seed=10, counts=(25, 20, 15))
        folds = stratified_kfold(data.labels, 4, seed=11)
        seen = ProcessLog(tmp_path / "seen")  # fits run in forked workers too

        class RecordingModel(NearestCentroid):
            def fit(self, X, y):
                seen.append(get_threads())
                return super().fit(X, y)

        cross_validate(data, folds, one_model(RecordingModel), workers=1)
        cross_validate(data, folds, one_model(RecordingModel), workers=2)
        # folds run on one BLAS thread at every worker count, one worker included
        assert seen.read() == [1] * 8
        assert get_threads() == before

    def test_resampling_touches_training_split_only(self):
        from readmitlab.resample import ResamplePlan

        data = self.make_data(seed=12, counts=(40, 25, 15))
        folds = stratified_kfold(data.labels, 5, seed=13)
        seen_sizes = []

        class RecordingModel(NearestCentroid):
            def fit(self, X, y):
                seen_sizes.append(len(y))
                return super().fit(X, y)

        plan = ResamplePlan("random_over")
        (result,) = cross_validate(data, folds, one_model(RecordingModel),
                                   pipeline=FoldPipeline(resample=plan))
        # training splits were inflated to 3 x majority count
        assert all(size > 64 for size in seen_sizes)
        # but the scored folds still partition the original 80 rows
        assert result.pooled_matrix.total == data.n_instances
        col_totals = result.pooled_matrix.counts.sum(axis=0)
        assert list(col_totals) == [40, 25, 15]


def with_row_ids(data):
    """data with a last column holding each row's index."""
    return make_dataset(np.column_stack([data.features, np.arange(data.n_instances)]),
                        data.labels)


class TestFoldPipeline:
    def setup_data(self):
        data = TestCrossValidate().make_data(seed=16, counts=(24, 18, 12))
        return data, stratified_kfold(data.labels, 3, seed=17)

    def test_held_out_rows_map_through_the_training_folds_scaling(self):
        train = make_dataset([[0.0, 5.0], [2.0, 5.0], [4.0, 5.0]], [0, 1, 2])
        test = make_dataset([[-2.0, 5.0], [6.0, 4.0], [3.0, 5.0]], [0, 1, 2])
        fitted, held_out, notes = FoldPipeline(scale=True).fit(train, 0, test)
        assert np.array_equal(fitted.features, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        # rows outside the training range land outside [0, 1]; a column
        # constant on the training rows maps to zero everywhere
        assert np.array_equal(held_out.features, [[-0.5, 0.0], [1.5, 0.0], [0.75, 0.0]])
        assert notes == ("constant features scaled to zero: f01",)

    def test_the_scorer_sees_the_training_rows_only(self, monkeypatch):
        from readmitlab import features
        from readmitlab.features import Selection

        data, folds = self.setup_data()
        data = with_row_ids(data)
        scored = []
        anova_f = features.SCORERS["anova_f"]

        def spying_anova_f(table):
            scored.append(sorted(table.features[:, -1].astype(int)))
            return anova_f(table)

        monkeypatch.setitem(features.SCORERS, "anova_f", spying_anova_f)
        cross_validate(data, folds, one_model(NearestCentroid),
                       pipeline=FoldPipeline(select=Selection("anova_f", 2)))
        assert scored == [sorted(folds.train_indices(f)) for f in range(folds.k)]

    def test_held_out_rows_are_never_resampled(self):
        from readmitlab.features import Selection
        from readmitlab.resample import ResamplePlan

        data, folds = self.setup_data()
        data = with_row_ids(data)
        seen = []

        def fit_predict(seed, train, test):
            seen.append((train.n_instances, test.labels.tolist(), test.n_instances))
            return (np.zeros(test.n_instances, dtype=np.int64),)

        pipeline = FoldPipeline(True, Selection("anova_f", 2), ResamplePlan("random_over"))
        cross_validate(data, folds, fit_predict, pipeline=pipeline)
        for fold, (n_train, labels, n_test) in enumerate(seen):
            test = folds.test_indices(fold)
            assert n_train == 3 * (24 - np.count_nonzero(data.labels[test] == 0))
            assert (labels, n_test) == (data.labels[test].tolist(), len(test))

    def test_each_fold_reports_its_own_fit(self):
        from readmitlab.features import Selection

        data, folds = self.setup_data()
        # a last column that varies only on fold 0's held-out rows, so that it
        # is constant on training fold 0 alone
        column = np.zeros(data.n_instances)
        column[folds.test_indices(0)] = np.arange(1, len(folds.test_indices(0)) + 1)
        data = make_dataset(np.column_stack([data.features, column]), data.labels)
        (result,) = cross_validate(data, folds, one_model(NearestCentroid),
                                   pipeline=FoldPipeline(scale=True), workers=2)
        assert result.fold_notes == (("constant features scaled to zero: f02",), (), ())
        with pytest.raises(DataError, match="^training fold 0: k=3 exceeds the 2 "):
            cross_validate(data, folds, one_model(NearestCentroid),
                           pipeline=FoldPipeline(True, Selection("chi2", 3)))


class TestWorkerProcesses:
    def setup_data(self):
        data = TestCrossValidate().make_data(seed=14, counts=(25, 20, 15))
        return data, stratified_kfold(data.labels, 3, seed=15)

    def test_fold_work_runs_in_another_process(self, tmp_path):
        data, folds = self.setup_data()
        pids = ProcessLog(tmp_path / "pids")
        caller = os.getpid()

        class RecordingModel(NearestCentroid):
            def fit(self, X, y):
                pids.append({"pid": os.getpid()})
                if os.getpid() == caller:
                    pids.wait_for_other_process()  # leave a fold for a worker
                return super().fit(X, y)

        (result,) = cross_validate(data, folds, one_model(RecordingModel),
                                   workers=2)
        assert len(pids.read()) == folds.k
        assert {v["pid"] for v in pids.read()} - {caller}
        assert result.pooled_matrix.total == data.n_instances

    def test_a_sweep_runs_one_task_per_fold_and_cell(self, tmp_path, monkeypatch):
        from readmitlab import evaluate
        from readmitlab.resample import ResamplePlan

        data, folds = self.setup_data()
        dispatched = []
        run_tasks = evaluate._run_tasks

        def counting_run_tasks(task, n, workers):
            dispatched.append(n)
            return run_tasks(task, n, workers)

        prepared = ProcessLog(tmp_path / "prepared")

        def counting_apply_plan(train, plan, seed):
            prepared.append([os.getpid(), seed])
            return apply_plan(train, plan, seed)

        fitted = ProcessLog(tmp_path / "fitted")

        def build(seed, batch_size):
            fitted.append([seed, batch_size])
            return NearestCentroid()

        monkeypatch.setattr(evaluate, "_run_tasks", counting_run_tasks)
        monkeypatch.setattr(evaluate, "apply_plan", counting_apply_plan)
        rows = grid_sweep(data, folds, build, {"batch_size": (8, 16)},
                          pipeline=FoldPipeline(resample=ResamplePlan("random_over")), workers=2)
        assert dispatched == [6]  # one task per (fold, cell), which prepares its fold
        assert_each_process_prepared_each_fold_once(prepared.read(), [15, 16, 17])
        assert sorted(fitted.read()) == [[15 + f, b] for f in range(3) for b in (8, 16)]
        assert len(rows) == 2

    @pytest.mark.parametrize("workers, pools", [(1, 0), (2, 1)])
    def test_a_pool_is_forked_only_for_more_than_one_worker(self, monkeypatch, workers,
                                                            pools):
        from readmitlab.resample import ResamplePlan

        data, folds = self.setup_data()
        contexts = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, mp_context=None, **kwargs):
                contexts.append(mp_context.get_start_method())
                super().__init__(*args, mp_context=mp_context, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        (result,) = cross_validate(data, folds, one_model(NearestCentroid),
                                   pipeline=FoldPipeline(resample=ResamplePlan("random_over")),
                                   workers=workers)
        # the tasks prepare their folds and fit them in one pool
        assert contexts == ["fork"] * pools
        assert result.pooled_matrix.total == data.n_instances

    def test_one_job_prepares_each_fold_exactly_once(self, tmp_path, monkeypatch):
        from readmitlab import evaluate
        from readmitlab.resample import ResamplePlan

        data, folds = self.setup_data()
        prepared = ProcessLog(tmp_path / "prepared")
        caller = os.getpid()

        def counting_apply_plan(train, plan, seed):
            prepared.append({"pid": os.getpid(), "seed": seed})
            if os.getpid() == caller:
                prepared.wait_for_other_process()  # leave a fold for a worker
            return apply_plan(train, plan, seed)

        monkeypatch.setattr(evaluate, "apply_plan", counting_apply_plan)
        cross_validate(data, folds, one_model(NearestCentroid),
                       pipeline=FoldPipeline(resample=ResamplePlan("random_over")), workers=2)
        assert sorted(v["seed"] for v in prepared.read()) == [15, 16, 17]
        assert {v["pid"] for v in prepared.read()} - {caller}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_task_of_fold_f_sees_the_folds_seed_plus_f(self, tmp_path, monkeypatch,
                                                             workers):
        from readmitlab import evaluate
        from readmitlab.resample import ResamplePlan

        data, folds = self.setup_data()
        # a last column of row numbers tells which fold a split belongs to
        data = make_dataset(np.hstack([data.features, np.arange(data.n_instances)[:, None]]),
                            data.labels)
        fold_of_row = np.empty(data.n_instances, dtype=np.int64)
        for fold in range(folds.k):
            fold_of_row[folds.test_indices(fold)] = fold
        seen = ProcessLog(tmp_path / "seen")  # tasks run in forked workers too

        def spying_apply_plan(train, plan, seed):
            (fold,) = set(range(folds.k)) - set(fold_of_row[train.features[:, -1].astype(int)])
            seen.append(["resample", int(fold), seed])
            return apply_plan(train, plan, seed)

        def job(name):
            def fit_predict(seed, train, test):
                seen.append([name, int(fold_of_row[int(test.features[0, -1])]), seed])
                return (np.zeros(test.n_instances, dtype=np.int64),)
            return fit_predict

        monkeypatch.setattr(evaluate, "apply_plan", spying_apply_plan)
        cross_validate(data, folds, job("a"), job("b"),
                       pipeline=FoldPipeline(resample=ResamplePlan("random_over")), workers=workers)
        records = seen.read()
        assert {(name, fold) for name, fold, _ in records} == {
            (name, fold) for name in ("resample", "a", "b") for fold in range(folds.k)}
        assert [seed for _, fold, seed in records] == [folds.seed + fold
                                                       for _, fold, _ in records]

    def test_a_process_holds_one_prepared_split_at_a_time(self):
        from readmitlab.resample import ResamplePlan
        from readmitlab.synth import synthetic_cohort

        data = synthetic_cohort(20000, 20, seed=3)
        folds = stratified_kfold(data.labels, 10, seed=3)
        plan = ResamplePlan("random_over")
        split = (apply_plan(data.take(folds.train_indices(0)), plan, 3),
                 data.take(folds.test_indices(0)))
        split_bytes = sum(part.features.nbytes + part.labels.nbytes for part in split)
        del split
        tracemalloc.start()
        try:
            cross_validate(data, folds, one_model(ConstantModel),
                           pipeline=FoldPipeline(resample=plan), workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the split being resampled and its temporaries: the old split is
        # dropped first (keeping it measured 3.0 splits); holding all ten
        # folds' splits at once would take ten
        assert peak < 2.5 * split_bytes

    def test_more_workers_than_cores_run_every_task_exactly_once(self, tmp_path):
        from readmitlab.evaluate import _run_tasks

        ran = ProcessLog(tmp_path / "ran")

        def task(i):
            ran.append(i)
            return i * i

        # a lost update of the shared next-index counter would run an index twice;
        # six workers oversubscribe a small host's cores
        assert _run_tasks(task, 300, workers=6) == [i * i for i in range(300)]
        assert sorted(ran.read()) == list(range(300))


class TestOneModel:
    @staticmethod
    def built_models(monkeypatch, cls, build_model, **params):
        """The cls models that one_model(build_model, **params) fits on folds
        seeded 7, 8 and 9, in that order."""
        data = make_dataset(np.arange(12.0).reshape(6, 2), [0, 1, 2, 0, 1, 2])
        built = []
        monkeypatch.setattr(cls, "fit", lambda model, X, y: built.append(model) or model)
        monkeypatch.setattr(cls, "predict", lambda model, X: np.zeros(len(X), dtype=np.int64))
        fit_predict = one_model(build_model, **params)
        for seed in (7, 8, 9):
            fit_predict(seed, data, data)
        return built

    @pytest.mark.parametrize("cls, params, seeds", [
        (NetworkClassifier, {"arch": "vanilla", "epochs": 1}, [7, 8, 9]),
        (RandomForest, {"n_trees": 2}, [7, 8, 9]),
        (GradientBoostedClassifier, {"n_rounds": 1}, [None, None, None]),
    ])
    def test_a_model_is_given_the_fold_seed_when_its_constructor_takes_one(
            self, monkeypatch, cls, params, seeds):
        built = self.built_models(monkeypatch, cls, cls, **params)
        assert len(built) == 3 and len(set(map(id, built))) == 3  # a fresh model per fold
        assert [getattr(model, "seed", None) for model in built] == seeds
        for name, value in params.items():
            assert all(getattr(model, name) == value for model in built)

    def test_a_partial_is_seeded_like_its_class(self, monkeypatch):
        built = self.built_models(monkeypatch, NetworkClassifier,
                                  functools.partial(NetworkClassifier, "vanilla"), epochs=2)
        assert [(model.arch, model.epochs, model.seed) for model in built] == [
            ("vanilla", 2, 7), ("vanilla", 2, 8), ("vanilla", 2, 9)]

    def test_a_function_without_a_seed_gets_only_its_settings(self):
        data, folds = TestGridSweep().setup_data()
        calls = []

        def build(label):
            calls.append(label)
            return ConstantModel(label)

        (result,) = cross_validate(data, folds, one_model(build, label=2))
        assert calls == [2, 2, 2]
        assert result.mean_metrics.per_class_recall[2] == 1.0


@st.composite
def fold_matrices(draw) -> tuple[ConfusionMatrix, ...]:
    """One to five 3 x 3 count matrices over classes (0, 1, 2), each with a
    count somewhere; some have an empty row (a class never predicted) or an
    empty column (a class with no actual rows)."""
    matrices = []
    for _ in range(draw(st.integers(1, 5))):
        counts = np.array(draw(st.lists(st.integers(0, 6), min_size=9, max_size=9))).reshape(3, 3)
        row, column = draw(st.sampled_from([None, 0, 1, 2])), draw(st.sampled_from([None, 0, 1, 2]))
        if row is not None:
            counts[row] = 0
        if column is not None:
            counts[:, column] = 0
        if not counts.any():
            counts[draw(st.integers(0, 2)), draw(st.integers(0, 2))] = 1
        matrices.append(ConfusionMatrix(counts, (0, 1, 2)))
    return tuple(matrices)


class TestCvResult:
    def test_its_fields_are_what_the_folds_produced(self):
        assert [f.name for f in dataclasses.fields(CvResult)] == ["fold_matrices", "fold_notes"]

    @given(fold_matrices())
    @settings(max_examples=80, deadline=None)
    def test_its_summaries_are_derived_from_the_fold_matrices(self, matrices):
        notes = tuple((f"fold {f}",) for f in range(len(matrices)))
        result = CvResult(matrices, notes)

        assert result.pooled_matrix.class_ids == (0, 1, 2)
        assert np.array_equal(result.pooled_matrix.counts, sum(m.counts for m in matrices))

        reports = [metrics(m) for m in matrices]
        assert result.fold_metrics == tuple(reports)
        mean = result.mean_metrics
        assert mean.class_ids == (0, 1, 2)
        for field in ("accuracy", "macro_precision", "macro_recall", "macro_f"):
            assert getattr(mean, field) == float(np.mean([getattr(r, field) for r in reports]))
        for field in ("per_class_recall", "per_class_precision"):
            assert getattr(mean, field) == {
                c: float(np.mean([getattr(r, field)[c] for r in reports])) for c in (0, 1, 2)}
        assert mean.notes == tuple(dict.fromkeys(n for r in reports for n in r.notes))

        # one whose summaries were read equals one built afresh from copies of
        # its matrices: its two fields' values alone are its value
        copies = tuple(ConfusionMatrix(m.counts.copy(), m.class_ids) for m in matrices)
        assert CvResult(copies, notes) == result

    def test_the_mean_gives_each_fold_note_once_in_order(self):
        counts = np.array([[3, 0, 1], [0, 0, 0], [2, 0, 4]])  # class 1: no row, no column
        result = CvResult((ConfusionMatrix(counts, (0, 1, 2)),) * 2, ((), ()))
        assert result.mean_metrics.notes == (
            "class 1: no actual instances; recall 0 by convention",
            "class 1: never predicted; precision 0 by convention")


class TestGridSweep:
    def setup_data(self):
        data = TestCrossValidate().make_data(seed=20)
        folds = stratified_kfold(data.labels, 3, seed=21)
        return data, folds

    def test_rows_sorted_by_accuracy_with_stable_ties(self):
        data, folds = self.setup_data()
        winner = {"epochs": 2, "learning_rate": 1e-3, "batch_size": 32}

        def build(seed, **cell):
            return NearestCentroid() if cell == winner else ConstantModel(0)

        ranked = grid_sweep(data, folds, build, {"epochs": (1, 2), "learning_rate": (1e-3, 1e-2),
                                                 "batch_size": (32,)})
        (best, best_result), (_, second) = ranked[:2]
        assert best == winner
        assert best_result.mean_metrics.accuracy > second.mean_metrics.accuracy
        # the three constant rows tie; stable sort keeps grid order
        losers = [tuple(cell.values()) for cell, _ in ranked[1:]]
        assert losers == [(1, 1e-3, 32), (1, 1e-2, 32), (2, 1e-2, 32)]

    def test_build_model_receives_grid_coordinates(self):
        data, folds = self.setup_data()
        calls = []

        def build(seed, epochs, learning_rate, batch_size):
            calls.append((seed, epochs, learning_rate, batch_size))
            return ConstantModel(0)

        grid_sweep(data, folds, build, {"epochs": (1,), "learning_rate": (0.5,),
                                        "batch_size": (8,)})
        assert calls == [(21, 1, 0.5, 8), (22, 1, 0.5, 8), (23, 1, 0.5, 8)]

    def test_the_grid_names_the_settings_of_any_model(self):
        data, folds = self.setup_data()
        calls = []

        def build(*, seed, k, w):
            calls.append((seed, k, w))
            return NearestCentroid() if k == 3 else ConstantModel(0)

        ranked = grid_sweep(data, folds, build, {"k": (1, 3, 5), "w": (0.5, 2.0)})
        # every cell in product order, each built once per fold with the fold's seed
        cells = [(k, w) for k in (1, 3, 5) for w in (0.5, 2.0)]
        assert sorted(calls) == sorted((21 + f, *cell) for f in range(3) for cell in cells)
        # the k=3 cells win; ties keep grid order
        assert [cell for cell, _ in ranked] == [
            {"k": 3, "w": 0.5}, {"k": 3, "w": 2.0}, {"k": 1, "w": 0.5}, {"k": 1, "w": 2.0},
            {"k": 5, "w": 0.5}, {"k": 5, "w": 2.0}]
        accuracy = [result.mean_metrics.accuracy for _, result in ranked]
        assert accuracy[0] > accuracy[2] == accuracy[5]

    def test_each_fold_is_prepared_once_for_every_cell(self, monkeypatch, tmp_path):
        from readmitlab import evaluate
        from readmitlab.models import NetworkClassifier
        from readmitlab.resample import ResamplePlan

        rng = np.random.default_rng(22)
        data = blob_dataset(rng, {0: 24, 1: 12, 2: 18},
                            {0: [0, 0], 1: [2, 0], 2: [0, 2]}, spread=0.9)
        data = make_dataset(np.hstack([data.features, rng.random((data.n_instances, 6))]),
                            data.labels)
        folds = stratified_kfold(data.labels, 3, seed=23)
        plan = ResamplePlan("smote")

        build = functools.partial(NetworkClassifier, "vanilla")
        grid = {"epochs": (1,), "learning_rate": (1e-2,), "batch_size": (16, 64)}
        per_cell = {batch: cross_validate(data, folds,
                                          one_model(build, epochs=1, learning_rate=1e-2,
                                                    batch_size=batch),
                                          pipeline=FoldPipeline(resample=plan))[0]
                    for batch in grid["batch_size"]}
        plans = ProcessLog(tmp_path / "plans")  # folds are prepared in forked workers too

        def counting_apply_plan(train, plan, seed):
            plans.append([os.getpid(), seed])
            return apply_plan(train, plan, seed)

        monkeypatch.setattr(evaluate, "apply_plan", counting_apply_plan)
        serial = grid_sweep(data, folds, build, grid, pipeline=FoldPipeline(resample=plan),
                            workers=1)
        assert [seed for _, seed in plans.read()] == [23, 24, 25]
        ranked = grid_sweep(data, folds, build, grid, pipeline=FoldPipeline(resample=plan),
                            workers=2)
        assert_each_process_prepared_each_fold_once(plans.read()[3:], [23, 24, 25])
        assert len(ranked) == 2
        for cell, result in serial + ranked:
            want = per_cell[cell["batch_size"]]
            for got_m, want_m in zip(result.fold_matrices, want.fold_matrices):
                assert np.array_equal(got_m.counts, want_m.counts)
            for got, want_r in zip(result.fold_metrics + (result.mean_metrics,),
                                   want.fold_metrics + (want.mean_metrics,)):
                assert got == want_r

    @pytest.mark.parametrize("grid", [{}, {"epochs": (), "learning_rate": (1e-3,)}])
    def test_an_empty_grid_or_axis_is_rejected(self, grid):
        data, folds = self.setup_data()
        with pytest.raises(ValueError, match="a grid needs at least one axis"):
            grid_sweep(data, folds, lambda seed, **cell: ConstantModel(0), grid)
