"""Confusion-matrix layout, macro metrics, and cross-validation plumbing."""

import concurrent.futures
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from readmitlab.data import stratified_kfold
from readmitlab.errors import DataError
from readmitlab.resample import apply_plan
from readmitlab.evaluate import (
    ConfusionMatrix,
    CvResult,
    grid_sweep,
    harmonic_mean,
    metrics,
    cross_validate,
    one_model,
)

from helpers import ProcessLog, blob_dataset, make_dataset


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
        cm = ConfusionMatrix.from_labels(actual, predicted)
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
        a = ConfusionMatrix.from_labels(actual, predicted)
        b = ConfusionMatrix.from_labels(predicted, actual)
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

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_labels(np.array([0, 1]), np.array([0]))

    def test_invalid_matrices_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((2, 3), dtype=int), (0, 1))
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1, 0], [0, -1]]), (0, 1))
        with pytest.raises(ValueError):
            ConfusionMatrix(np.zeros((2, 2), dtype=int), (0, 1, 2))

    def test_counts_are_read_only(self):
        cm = ConfusionMatrix.from_labels(np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ValueError):
            cm.counts[0, 0] = 99

    def test_addition_accumulates_counts(self):
        a = ConfusionMatrix(np.array([[1, 0], [2, 3]]), (0, 1))
        b = ConfusionMatrix(np.array([[4, 1], [0, 1]]), (0, 1))
        merged = a + b
        assert np.array_equal(merged.counts, [[5, 1], [2, 4]])
        with pytest.raises(ValueError):
            a + ConfusionMatrix(np.zeros((2, 2), dtype=int), (0, 2))


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
        (result,) = cross_validate(data, folds, one_model(lambda i: NearestCentroid()))
        assert isinstance(result, CvResult)
        assert len(result.fold_matrices) == 5
        assert sum(m.total for m in result.fold_matrices) == data.n_instances
        assert result.pooled_matrix.total == data.n_instances

    def test_pooled_matrix_is_sum_of_folds(self):
        data = self.make_data(seed=2)
        folds = stratified_kfold(data.labels, 3, seed=3)
        (result,) = cross_validate(data, folds, one_model(lambda i: NearestCentroid()))
        acc = np.zeros_like(result.pooled_matrix.counts)
        for m in result.fold_matrices:
            acc = acc + m.counts
        assert np.array_equal(result.pooled_matrix.counts, acc)

    def test_mean_metrics_average_fold_metrics(self):
        data = self.make_data(seed=4)
        folds = stratified_kfold(data.labels, 4, seed=5)
        (result,) = cross_validate(data, folds, one_model(lambda i: NearestCentroid()))
        mean_acc = np.mean([r.accuracy for r in result.fold_metrics])
        assert result.mean_metrics.accuracy == pytest.approx(mean_acc, abs=1e-15)
        mean_f = np.mean([r.macro_f for r in result.fold_metrics])
        assert result.mean_metrics.macro_f == pytest.approx(mean_f, abs=1e-15)

    def test_equal_fold_sizes_make_pooled_equal_mean_accuracy(self):
        # 90 instances over 5 folds -> 18 each, so the weighted (pooled)
        # accuracy and the unweighted mean coincide
        data = self.make_data(seed=6)
        folds = stratified_kfold(data.labels, 5, seed=7)
        (result,) = cross_validate(data, folds, one_model(lambda i: NearestCentroid()))
        assert result.mean_metrics.accuracy == pytest.approx(
            result.pooled_matrix.accuracy, abs=1e-12)

    def test_constant_predictor_scores_a_third_on_balanced_data(self):
        data = self.make_data(seed=8)
        folds = stratified_kfold(data.labels, 5, seed=9)
        (result,) = cross_validate(data, folds, one_model(lambda i: ConstantModel(0)))
        assert result.mean_metrics.accuracy == pytest.approx(1 / 3, abs=1e-12)
        assert result.mean_metrics.per_class_recall[0] == pytest.approx(1.0)
        assert result.mean_metrics.per_class_recall[1] == 0.0

    def test_worker_count_never_changes_the_outcome(self):
        data = self.make_data(seed=10, counts=(25, 20, 15))
        folds = stratified_kfold(data.labels, 5, seed=11)
        build = one_model(lambda i: NearestCentroid())
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

        cross_validate(data, folds, one_model(lambda i: RecordingModel()), workers=1)
        cross_validate(data, folds, one_model(lambda i: RecordingModel()), workers=2)
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

        plan = ResamplePlan("random_over", seed=0)
        (result,) = cross_validate(data, folds, one_model(lambda i: RecordingModel()),
                                resample_plan=plan)
        # training splits were inflated to 3 x majority count
        assert all(size > 64 for size in seen_sizes)
        # but the scored folds still partition the original 80 rows
        assert result.pooled_matrix.total == data.n_instances
        col_totals = result.pooled_matrix.counts.sum(axis=0)
        assert list(col_totals) == [40, 25, 15]


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

        (result,) = cross_validate(data, folds, one_model(lambda i: RecordingModel()),
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

        def counting_apply_plan(train, fold_plan):
            prepared.append(fold_plan.seed)
            return apply_plan(train, fold_plan)

        fitted = ProcessLog(tmp_path / "fitted")

        def build(fold, epochs, lr, batch):
            fitted.append([fold, batch])
            return NearestCentroid()

        monkeypatch.setattr(evaluate, "_run_tasks", counting_run_tasks)
        monkeypatch.setattr(evaluate, "apply_plan", counting_apply_plan)
        rows = grid_sweep(data, folds, build, epochs_grid=(1,), lr_grid=(0.5,),
                          batch_grid=(8, 16), resample_plan=ResamplePlan("random_over", seed=30),
                          workers=2)
        assert dispatched == [3, 6]  # the folds' preparations, then (fold, cell) tasks
        assert sorted(prepared.read()) == [30, 31, 32]
        assert sorted(fitted.read()) == [[f, b] for f in range(3) for b in (8, 16)]
        assert len(rows) == 2

    @pytest.mark.parametrize("workers, pools", [(1, 0), (2, 2)])
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
        (result,) = cross_validate(data, folds, one_model(lambda i: NearestCentroid()),
                                   resample_plan=ResamplePlan("random_over", seed=0),
                                   workers=workers)
        # preparing the folds and fitting them fork one pool each
        assert contexts == ["fork"] * pools
        assert result.pooled_matrix.total == data.n_instances

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


class TestGridSweep:
    def setup_data(self):
        data = TestCrossValidate().make_data(seed=20)
        folds = stratified_kfold(data.labels, 3, seed=21)
        return data, folds

    def test_rows_sorted_by_accuracy_with_stable_ties(self):
        data, folds = self.setup_data()
        winner = (2, 1e-3, 32)

        def build(fold, epochs, lr, batch):
            if (epochs, lr, batch) == winner:
                return NearestCentroid()
            return ConstantModel(0)

        rows = grid_sweep(data, folds, build,
                          epochs_grid=(1, 2), lr_grid=(1e-3, 1e-2),
                          batch_grid=(32,))
        assert (rows[0].epochs, rows[0].learning_rate, rows[0].batch_size) == winner
        assert rows[0].accuracy > rows[1].accuracy
        # the three constant rows tie; stable sort keeps grid order
        losers = [(r.epochs, r.learning_rate, r.batch_size) for r in rows[1:]]
        assert losers == [(1, 1e-3, 32), (1, 1e-2, 32), (2, 1e-2, 32)]

    def test_annotation_attached_to_requested_combo(self):
        data, folds = self.setup_data()
        rows = grid_sweep(data, folds, lambda f, e, l, b: ConstantModel(0),
                          epochs_grid=(1,), lr_grid=(1e-2,), batch_grid=(16, 32),
                          annotate={(1, 1e-2, 16): "diverged in the source run"})
        noted = {(r.epochs, r.learning_rate, r.batch_size): r.note for r in rows}
        assert noted[(1, 1e-2, 16)] == "diverged in the source run"
        assert noted[(1, 1e-2, 32)] == ""

    def test_build_model_receives_grid_coordinates(self):
        data, folds = self.setup_data()
        calls = []

        def build(fold, epochs, lr, batch):
            calls.append((fold, epochs, lr, batch))
            return ConstantModel(0)

        grid_sweep(data, folds, build, epochs_grid=(1,), lr_grid=(0.5,),
                   batch_grid=(8,))
        assert calls == [(0, 1, 0.5, 8), (1, 1, 0.5, 8), (2, 1, 0.5, 8)]

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
        plan = ResamplePlan("smote", seed=24)

        def build(fold, epochs, lr, batch):
            return NetworkClassifier("vanilla", epochs=epochs, learning_rate=lr,
                                     batch_size=batch, seed=25 + fold)

        cells = [(1, 1e-2, 16), (1, 1e-2, 64)]
        per_cell = {cell: cross_validate(data, folds,
                                         one_model(lambda f, c=cell: build(f, *c)),
                                         resample_plan=plan)[0]
                    for cell in cells}
        plans = ProcessLog(tmp_path / "plans")  # folds are prepared in forked workers too

        def counting_apply_plan(train, fold_plan):
            plans.append(fold_plan.seed)
            return apply_plan(train, fold_plan)

        monkeypatch.setattr(evaluate, "apply_plan", counting_apply_plan)
        rows = grid_sweep(data, folds, build, epochs_grid=(1,), lr_grid=(1e-2,),
                          batch_grid=(16, 64), resample_plan=plan, workers=2)
        assert sorted(plans.read()) == [24, 25, 26]
        assert len(rows) == 2
        for row in rows:
            want = per_cell[(row.epochs, row.learning_rate, row.batch_size)]
            for got_m, want_m in zip(row.result.fold_matrices, want.fold_matrices):
                assert np.array_equal(got_m.counts, want_m.counts)
            for got, want_r in zip(row.result.fold_metrics + (row.result.mean_metrics,),
                                   want.fold_metrics + (want.mean_metrics,)):
                assert replace(got, source=None) == replace(want_r, source=None)

    def test_empty_grid_rejected(self):
        data, folds = self.setup_data()
        with pytest.raises(ValueError):
            grid_sweep(data, folds, lambda f, e, l, b: ConstantModel(0),
                       epochs_grid=(), lr_grid=(1e-3,), batch_grid=(8,))
