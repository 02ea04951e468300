"""Two-stage cascade: routing semantics, table merging, and the binary study."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab.data import stratified_kfold
from readmitlab.ensemble import (
    CascadeClassifier,
    binary_outer_study,
    cascade_evaluate,
    cascade_fit,
    cross_validate_cascade,
    load_cascade,
    save_cascade,
)
from readmitlab.errors import DataError
from readmitlab.evaluate import ConfusionMatrix, cross_validate
from readmitlab.models import NetworkClassifier, make_builder
from readmitlab.resample import ResamplePlan, apply_plan
from readmitlab.trees import GradientBoostedClassifier

from helpers import ProcessLog, blob_dataset, make_dataset

# Frozen reference tables from the companion holdout study. Layout: rows are
# predicted classes, columns are actual classes. The three-way table covers
# classes (0, 1, 2); the binary table re-decides the rows the first stage did
# not label as class 1, in class order (2, 0).
STAGE1_TABLE = np.array([
    [21112, 97, 13422],
    [4316, 25888, 7417],
    [12918, 263, 21447],
])
STAGE2_TABLE = np.array([
    [21235, 13130],
    [12255, 22279],
])


def reference_matrices():
    stage1 = ConfusionMatrix(STAGE1_TABLE, (0, 1, 2))
    stage2 = ConfusionMatrix(STAGE2_TABLE, (2, 0))
    return stage1, stage2


class StubNetwork:
    """Predicts 1 when the first feature is positive, else 0."""

    def __init__(self):
        self.fit_labels = None

    def fit(self, X, y):
        self.fit_labels = np.asarray(y).copy()
        return self

    def predict(self, X):
        return np.where(np.asarray(X)[:, 0] > 0, 1, 0).astype(np.int64)


class StubBooster:
    """Always predicts the high outer class; records what it was fit on."""

    def __init__(self):
        self.fit_X = None
        self.fit_y = None

    def fit(self, X, y):
        self.fit_X = np.asarray(X).copy()
        self.fit_y = np.asarray(y).copy()
        return self

    def predict(self, X):
        return np.full(len(X), 2, dtype=np.int64)


class TestCascadeEvaluate:
    def test_reference_tables_combine_to_the_frozen_accuracy(self):
        stage1, stage2 = reference_matrices()
        report = cascade_evaluate(stage1, stage2, claimed_accuracy_pct=64.94)
        assert report.correct == 25888 + 21235 + 22279 == 69402
        assert report.total == 106880
        assert report.accuracy == pytest.approx(69402 / 106880, abs=1e-12)

    def test_combined_matrix_embeds_both_stages(self):
        stage1, stage2 = reference_matrices()
        report = cascade_evaluate(stage1, stage2)
        combined = report.combined
        assert combined.class_ids == (0, 1, 2)
        # stage-1 accepted row survives untouched
        assert list(combined.counts[1]) == [4316, 25888, 7417]
        # stage-2 cells land in the outer rows: class order there is (2, 0)
        assert combined.counts[2, 2] == 21235
        assert combined.counts[2, 0] == 13130
        assert combined.counts[0, 2] == 12255
        assert combined.counts[0, 0] == 22279
        # the two stages cannot account for outer-predicted/actual-1 cells
        assert combined.counts[0, 1] == 0 and combined.counts[2, 1] == 0

    def test_count_mismatch_is_reported_not_reconciled(self):
        stage1, stage2 = reference_matrices()
        report = cascade_evaluate(stage1, stage2, claimed_accuracy_pct=64.94)
        routed = 106880 - (4316 + 25888 + 7417)
        assert any(f"stage-2 total {stage2.total} differs from the {routed} rows"
                   in w for w in report.warnings)

    def test_claimed_accuracy_annotated_when_off_by_more_than_half_a_unit(self):
        stage1, stage2 = reference_matrices()
        report = cascade_evaluate(stage1, stage2, claimed_accuracy_pct=64.94)
        assert any("computed accuracy 64.93% differs from the claimed 64.94%"
                   in w for w in report.warnings)
        # a claim matching the computed value to two decimals passes silently
        quiet = cascade_evaluate(stage1, stage2, claimed_accuracy_pct=64.93)
        assert not any("claimed" in w for w in quiet.warnings)

    def test_metrics_report_carries_the_cascade_accuracy(self):
        stage1, stage2 = reference_matrices()
        report = cascade_evaluate(stage1, stage2)
        assert report.report.accuracy == report.accuracy
        for w in report.warnings:
            assert w in report.report.notes

    def test_consistent_tables_produce_no_warnings(self):
        stage1 = ConfusionMatrix(np.array([
            [10, 0, 5],
            [2, 20, 3],
            [8, 0, 12],
        ]), (0, 1, 2))
        # 60 rows total, 25 accepted -> 35 routed; stage 2 covers exactly 35
        stage2 = ConfusionMatrix(np.array([
            [15, 3],
            [2, 15],
        ]), (2, 0))
        report = cascade_evaluate(stage1, stage2, claimed_accuracy_pct=None)
        assert report.warnings == ()
        assert report.correct == 20 + 15 + 15
        assert report.accuracy == pytest.approx(50 / 60, abs=1e-12)

    def test_accept_class_must_be_in_stage1(self):
        stage1, stage2 = reference_matrices()
        with pytest.raises(ValueError):
            cascade_evaluate(stage1, stage2, accept_class=7)

    def test_stage2_classes_must_be_the_outer_pair(self):
        stage1, _ = reference_matrices()
        bad = ConfusionMatrix(np.array([[1, 0], [0, 1]]), (1, 2))
        with pytest.raises(ValueError):
            cascade_evaluate(stage1, bad)


class TestCascadeClassifier:
    def toy(self):
        rng = np.random.default_rng(0)
        data = blob_dataset(rng, {0: 20, 1: 20, 2: 20},
                            {0: [-6, 0], 1: [6, 0], 2: [-6, 9]}, spread=0.5)
        return data

    def test_accepted_predictions_stand_and_the_rest_are_redecided(self):
        X = np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [-3.0, 2.0]])
        y = np.array([1, 1, 0, 2])
        model = CascadeClassifier(StubNetwork(), StubBooster())
        model.fit(X, y)
        out = model.predict(X)
        # first two rows: stage 1 says 1, accepted; last two: booster says 2
        assert list(out) == [1, 1, 2, 2]
        stage1, stage2, final = model.predict_stages(X)
        assert list(stage1) == [1, 1, 0, 0]
        assert list(stage2) == [2, 2, 2, 2]
        assert np.array_equal(final, out)

    def test_booster_fit_sees_only_outer_class_rows(self):
        X = np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [-3.0, 2.0], [5.0, 5.0]])
        y = np.array([1, 0, 0, 2, 1])
        booster = StubBooster()
        CascadeClassifier(StubNetwork(), booster).fit(X, y)
        assert sorted(booster.fit_y.tolist()) == [0, 0, 2]
        assert booster.fit_X.shape == (3, 2)
        rows = {tuple(r) for r in booster.fit_X}
        assert rows == {(2.0, 1.0), (-1.0, 0.0), (-3.0, 2.0)}

    def test_training_labels_must_cover_all_three_roles(self):
        X = np.zeros((4, 2))
        with pytest.raises(DataError):
            CascadeClassifier(StubNetwork(), StubBooster()).fit(
                X, np.array([0, 0, 1, 1]))

    def test_end_to_end_on_separable_blobs(self):
        data = self.toy()
        padded = np.hstack([data.features, np.zeros((data.n_instances, 6))])
        model = cascade_fit(
            make_dataset(padded, data.labels),
            network_config=dict(arch="vanilla", epochs=150,
                                learning_rate=1e-3, batch_size=16),
            booster_config=dict(n_rounds=20, max_depth=2),
            seed=5,
        )
        predictions = model.predict(padded)
        assert (predictions == data.labels).mean() >= 0.9

    def test_save_load_round_trip(self, tmp_path):
        data = self.toy()
        padded = np.hstack([data.features, np.zeros((data.n_instances, 6))])
        model = cascade_fit(
            make_dataset(padded, data.labels),
            network_config=dict(arch="vanilla", epochs=2,
                                learning_rate=1e-3, batch_size=16),
            booster_config=dict(n_rounds=4, max_depth=2),
            seed=6,
        )
        save_cascade(model, tmp_path / "cascade")
        clone = load_cascade(tmp_path / "cascade")
        assert np.array_equal(model.predict(padded), clone.predict(padded))
        assert clone.accept_class == model.accept_class
        assert clone.outer_classes == model.outer_classes

    def test_load_from_non_cascade_directory_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_cascade(tmp_path)


class RowLabels:
    """Predicts labels[i] for a row whose first feature is i."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=np.int64)

    def fit(self, X, y):
        return self

    def predict(self, X):
        return self.labels[np.asarray(X)[:, 0].astype(np.int64)]


@settings(max_examples=200, deadline=None)
@given(draw=st.data())
def test_predict_equals_the_routed_rule(draw):
    n = draw.draw(st.integers(1, 30))
    stage1 = draw.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=n, max_size=n))
    stage2 = draw.draw(st.lists(st.sampled_from([0, 2]), min_size=n, max_size=n))
    X = np.arange(n, dtype=np.float64)[:, None]
    model = CascadeClassifier(RowLabels(stage1), RowLabels(stage2))
    # the rule predict_stages replaced: keep the accepted class, send only the
    # other rows through the booster
    routed = np.array(stage1)
    rerun = routed != model.accept_class
    if rerun.any():
        routed[rerun] = model.booster.predict(X[rerun])
    got1, got2, final = model.predict_stages(X)
    assert np.array_equal(model.predict(X), routed)
    assert np.array_equal(final, routed)
    assert list(got1) == stage1 and list(got2) == stage2


class TestCrossValidateCascade:
    def test_three_result_sets_on_identical_folds(self):
        rng = np.random.default_rng(30)
        data = blob_dataset(rng, {0: 18, 1: 15, 2: 12},
                            {0: [-4, 0], 1: [4, 0], 2: [0, 6]}, spread=0.7)
        padded = np.hstack([data.features, np.zeros((data.n_instances, 6))])
        ds = make_dataset(padded, data.labels)
        folds = stratified_kfold(ds.labels, 3, seed=31)
        net_res, cas_res, boost_res = cross_validate_cascade(
            ds, folds,
            network_config=dict(arch="vanilla", epochs=2,
                                learning_rate=1e-3, batch_size=16),
            booster_config=dict(n_rounds=4, max_depth=2),
            seed=32,
        )
        assert net_res.pooled_matrix.total == 45
        assert cas_res.pooled_matrix.total == 45
        # the booster is scored on the outer-class subset only
        assert boost_res.pooled_matrix.total == 30
        assert boost_res.pooled_matrix.class_ids == (0, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_network_result_equals_a_standalone_network_cv(self, workers, monkeypatch,
                                                           tmp_path):
        rng = np.random.default_rng(33)
        data = blob_dataset(rng, {0: 18, 1: 9, 2: 12},
                            {0: [-1, 0], 1: [1, 0], 2: [0, 1.5]}, spread=1.0)
        ds = make_dataset(np.hstack([data.features, rng.random((data.n_instances, 6))]),
                          data.labels)
        folds = stratified_kfold(ds.labels, 3, seed=34)
        network_config = dict(arch="vanilla", epochs=2, learning_rate=1e-3, batch_size=8)
        plan = ResamplePlan(method="random_over", seed=35)
        predicted = ProcessLog(tmp_path / "predicted")  # folds run in forked workers too
        predict = NetworkClassifier.predict

        def counting_predict(self, X):
            predicted.append(len(X))
            return predict(self, X)

        monkeypatch.setattr(NetworkClassifier, "predict", counting_predict)
        net_res, _, _ = cross_validate_cascade(
            ds, folds, network_config, dict(n_rounds=2, max_depth=2),
            resample_plan=plan, seed=36, workers=workers)
        # one network pass per held-out fold serves both stage 1 and the cascade
        assert sorted(predicted.read()) == sorted(len(folds.test_indices(i)) for i in range(3))
        (alone,) = cross_validate(ds, folds, make_builder("network", 36, **network_config),
                                  resample_plan=plan, workers=1)
        for got, want in zip(net_res.fold_matrices + (net_res.pooled_matrix,),
                             alone.fold_matrices + (alone.pooled_matrix,)):
            assert got.class_ids == want.class_ids
            assert np.array_equal(got.counts, want.counts)
        for got, want in zip(net_res.fold_metrics + (net_res.mean_metrics,),
                             alone.fold_metrics + (alone.mean_metrics,)):
            assert replace(got, source=None) == replace(want, source=None)

    def small_study(self):
        rng = np.random.default_rng(37)
        data = blob_dataset(rng, {0: 15, 1: 9, 2: 12},
                            {0: [-2, 0], 1: [2, 0], 2: [0, 2]}, spread=1.0)
        ds = make_dataset(np.hstack([data.features, rng.random((data.n_instances, 6))]),
                          data.labels)
        network_config = dict(arch="vanilla", epochs=1, learning_rate=1e-3, batch_size=8)
        return ds, stratified_kfold(ds.labels, 3, seed=38), network_config

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_booster_fit_per_fold(self, workers, monkeypatch, tmp_path):
        ds, folds, network_config = self.small_study()
        fits = ProcessLog(tmp_path / "fits")  # folds run in forked workers too
        fit = GradientBoostedClassifier.fit

        def counting_fit(self, X, y):
            fits.append(len(y))
            return fit(self, X, y)

        monkeypatch.setattr(GradientBoostedClassifier, "fit", counting_fit)
        cross_validate_cascade(ds, folds, network_config, dict(n_rounds=2, max_depth=2),
                               seed=39, workers=workers)
        assert len(fits.read()) == folds.k

    def test_stage2_is_the_cascade_booster_on_the_outer_test_rows(self):
        ds, folds, network_config = self.small_study()
        booster_config = dict(n_rounds=3, max_depth=2)
        plan = ResamplePlan(method="random_over", seed=40)
        _, _, boost_res = cross_validate_cascade(ds, folds, network_config, booster_config,
                                                 resample_plan=plan, seed=41)
        for fold in range(folds.k):
            train = apply_plan(ds.take(folds.train_indices(fold)),
                               replace(plan, seed=plan.seed + fold))
            booster = cascade_fit(train, network_config, booster_config,
                                  seed=41 + fold).booster
            test = ds.take(folds.test_indices(fold))
            outer = np.isin(test.labels, (0, 2))
            want = ConfusionMatrix.from_labels(test.labels[outer],
                                               booster.predict(test.features[outer]), (0, 2))
            got = boost_res.fold_matrices[fold]
            assert got.class_ids == want.class_ids
            assert np.array_equal(got.counts, want.counts)
        assert boost_res.pooled_matrix.total == int(np.isin(ds.labels, (0, 2)).sum())


class TestBinaryOuterStudy:
    def make_data(self):
        rng = np.random.default_rng(40)
        return blob_dataset(rng, {0: 30, 1: 10, 2: 18},
                            {0: [0, 0], 1: [3, 3], 2: [1.5, 0]}, spread=0.8)

    def test_all_three_regimes_score_the_outer_subset(self):
        results = binary_outer_study(self.make_data(), seed=41, k_folds=4)
        assert set(results) == {"nearmiss", "random_under", "full"}
        for res in results.values():
            assert res.pooled_matrix.total == 48
            assert res.pooled_matrix.class_ids == (0, 2)

    def test_regime_subset_can_be_requested(self):
        results = binary_outer_study(self.make_data(), seed=42, k_folds=4,
                                     regimes=("full",))
        assert set(results) == {"full"}

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            binary_outer_study(self.make_data(), seed=43, k_folds=4,
                               regimes=("bootstrap",))

    def test_regimes_are_checked_before_any_booster_is_fitted(self, monkeypatch):
        fits = []
        fit = GradientBoostedClassifier.fit

        def counting_fit(self, X, y):
            fits.append(len(y))
            return fit(self, X, y)

        monkeypatch.setattr(GradientBoostedClassifier, "fit", counting_fit)
        with pytest.raises(ValueError, match="bootstrap"):
            binary_outer_study(self.make_data(), seed=43, k_folds=4,
                               regimes=("full", "bootstrap"))
        assert fits == []

    def test_missing_outer_class_rejected(self):
        rng = np.random.default_rng(44)
        data = blob_dataset(rng, {0: 20, 1: 10}, {0: [0, 0], 1: [3, 3]})
        with pytest.raises(DataError):
            binary_outer_study(data, seed=45, k_folds=4)
