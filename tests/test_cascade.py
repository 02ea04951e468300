"""Two-stage cascade: routing semantics, table merging, and the binary study."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab.data import ScalingSpec, stratified_kfold
from readmitlab.ensemble import (
    ACCEPT_CLASS,
    CascadeClassifier,
    binary_outer_study,
    cascade_evaluate,
    cascade_fit,
    cross_validate_cascade,
    load_cascade,
    save_cascade,
)
from readmitlab.errors import DataError
from readmitlab.evaluate import ConfusionMatrix, FoldPipeline, cross_validate, one_model
from readmitlab.models import NetworkClassifier
from readmitlab.nn import ARCHITECTURES
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

    def test_the_claim_is_keyword_only_and_the_total_is_stage_1s(self):
        stage1, stage2 = reference_matrices()
        with pytest.raises(TypeError):
            cascade_evaluate(stage1, stage2, 64.94)
        with pytest.raises(TypeError):
            cascade_evaluate(stage1, stage2, total=106880)
        assert cascade_evaluate(stage1, stage2).total == stage1.total

    def test_accept_class_must_be_in_stage1(self):
        _, stage2 = reference_matrices()
        stage1 = ConfusionMatrix(np.array([[5, 1], [2, 6]]), (0, 2))
        with pytest.raises(ValueError, match="accept class 1 missing"):
            cascade_evaluate(stage1, stage2)

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
        scaling = ScalingSpec.fit(make_dataset(padded, data.labels))
        save_cascade(model, tmp_path / "cascade", scaling)
        clone, clone_scaling = load_cascade(tmp_path / "cascade")
        # the float32 network widens to the file's float64 and back exactly
        assert model.network.net.theta.dtype == clone.network.net.theta.dtype == np.float32
        assert clone.network.net.theta.tobytes() == model.network.net.theta.tobytes()
        assert (clone.network.predict_proba(padded).tobytes()
                == model.network.predict_proba(padded).tobytes())
        for got, want in zip(clone.predict_stages(padded), model.predict_stages(padded)):
            assert got.tobytes() == want.tobytes()
        assert clone.network.settings() == model.network.settings()
        assert clone_scaling.feature_names == scaling.feature_names
        assert clone_scaling.minima.tobytes() == scaling.minima.tobytes()
        assert clone_scaling.maxima.tobytes() == scaling.maxima.tobytes()
        saved = json.loads((tmp_path / "cascade" / "cascade.json").read_text())
        assert sorted(saved) == ["n_features", "network", "scaling"]

    def test_zero_rows_give_zero_labels_and_probabilities(self):
        for arch in ARCHITECTURES:  # 16 columns: wide enough for every stem
            network = NetworkClassifier(arch, seed=1).build(16)
            assert network.predict(np.zeros((0, 16))).shape == (0,), arch
            probs = network.predict_proba(np.zeros((0, 16)))
            assert (probs.shape, probs.dtype) == ((0, 3), network.net.theta.dtype), arch
        none = np.zeros((0, 8))
        data = self.toy()
        padded = np.hstack([data.features, np.zeros((data.n_instances, 6))])
        model = cascade_fit(make_dataset(padded, data.labels), {"arch": "vanilla", "epochs": 1},
                            {"n_rounds": 1}, seed=7)
        assert [labels.shape for labels in model.predict_stages(none)] == [(0,)] * 3
        assert model.predict(none).shape == (0,)

    def test_tied_logits_give_class_0(self):
        rows = np.random.default_rng(3).normal(size=(20, 16))
        for arch in ARCHITECTURES:
            network = NetworkClassifier(arch, seed=1).build(16)
            head = network.net.layers[-1]  # every architecture ends in its Dense head
            head.w[...] = 0
            head.b[...] = 0
            assert np.array_equal(network.predict(rows), np.zeros(20, dtype=np.int64)), arch

    def save_small(self, directory, **network):
        """Save a one-epoch, one-round cascade fitted on the toy rows (a
        vanilla network unless `network` says otherwise)."""
        data = self.toy()
        padded = np.hstack([data.features, np.zeros((data.n_instances, 6))])
        save_cascade(cascade_fit(make_dataset(padded, data.labels),
                                 network_config={"arch": "vanilla", "epochs": 1, **network},
                                 booster_config=dict(n_rounds=1), seed=7), directory)

    def test_load_from_non_cascade_directory_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_cascade(tmp_path)

    @pytest.mark.parametrize("name, make, message", [
        ("cascade.json", lambda path: path.unlink(), "file not found"),
        ("cascade.json", lambda path: path.unlink() or path.mkdir(),
         "cannot be read as UTF-8 text (IsADirectoryError)"),
        ("booster.json", lambda path: path.write_bytes(b"\xff{}"),
         "cannot be read as UTF-8 text (UnicodeDecodeError)"),
        ("booster.json", lambda path: path.write_text("[]"), "not a JSON object"),
    ], ids=["missing", "a-directory", "not-utf-8", "not-an-object"])
    def test_a_json_file_it_cannot_read_is_a_data_error_naming_it(self, tmp_path, name, make,
                                                                  message):
        self.save_small(tmp_path / "cascade")
        path = tmp_path / "cascade" / name
        make(path)
        with pytest.raises(DataError) as err:
            load_cascade(tmp_path / "cascade")
        assert str(err.value) == f"{path}: {message}"

    def test_a_missing_parameter_file_is_a_data_error_naming_it(self, tmp_path):
        self.save_small(tmp_path / "cascade")
        path = tmp_path / "cascade" / "network.params"
        path.unlink()
        with pytest.raises(DataError) as err:
            load_cascade(tmp_path / "cascade")
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("network, message", [
        ({"arch": "cnn2", "kernel_size": 2}, "parameter key mismatch"),
        ({"kernel_size": 3}, "stored shape"),
    ], ids=["another-architecture", "another-kernel-size"])
    def test_weights_of_another_network_are_a_data_error_naming_the_file(self, tmp_path,
                                                                        network, message):
        self.save_small(tmp_path / "vanilla")
        self.save_small(tmp_path / "other", **network)
        path = tmp_path / "vanilla" / "network.params"
        path.write_bytes((tmp_path / "other" / "network.params").read_bytes())
        with pytest.raises(DataError, match=message) as err:
            load_cascade(tmp_path / "vanilla")
        assert str(err.value).startswith(f"{path}: not the weights of a 'vanilla' network")

    @pytest.mark.parametrize("scaling", [
        {"feature_names": ["a"], "minima": [0.0], "maxima": [1.0]},
        {"feature_names": list("abcdefgh"), "minima": [0.0] * 8, "maxima": [1.0] * 7 + [-1.0]},
        {"feature_names": list("abcdefgh"), "minima": [0.0] * 8},
        {"minima": [0.0] * 8, "maxima": [1.0] * 8},
        {"feature_names": list("abcdefg"), "minima": [0.0] * 8, "maxima": [1.0] * 8},
        {"feature_names": list("abcdefgh"), "minima": [-1e308] * 8, "maxima": [1e308] * 8},
        {"feature_names": list("abcdefgh"), "minima": [float("nan")] + [0.0] * 7,
         "maxima": [1.0] * 8},
    ], ids=["one-column", "max-below-min", "no-maxima", "no-feature-names",
            "seven-feature-names", "range-overflows", "nan-minimum"])
    def test_a_scaling_that_does_not_fit_the_network_is_a_data_error(self, tmp_path, scaling):
        self.save_small(tmp_path / "cascade")
        path = tmp_path / "cascade" / "cascade.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "scaling": scaling}))
        with pytest.raises(DataError) as err:
            load_cascade(tmp_path / "cascade")
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("n_features", [10**12, 0, 8.0, "8"])
    def test_a_width_that_does_not_fit_the_scaling_fails_before_the_network_is_built(
            self, tmp_path, n_features):
        self.save_small(tmp_path / "cascade")
        path = tmp_path / "cascade" / "cascade.json"
        scaling = {"feature_names": list("abcdefgh"), "minima": [0.0] * 8, "maxima": [1.0] * 8}
        path.write_text(json.dumps({**json.loads(path.read_text()), "n_features": n_features,
                                    "scaling": scaling}))
        with pytest.raises(DataError, match="ValueError: ") as err:
            load_cascade(tmp_path / "cascade")
        assert str(err.value).startswith(f"{path}: not a cascade file")

    @pytest.mark.parametrize("name, text, message", [
        ("cascade.json", "{}", "KeyError: 'network'"),
        ("cascade.json", json.dumps({"network": {"arch": "vanilla", "layers": 3},
                                     "n_features": 8, "scaling": None}), "TypeError"),
        ("cascade.json", "this is not JSON", "not valid JSON"),
        ("booster.json", '{"trees": []}', "KeyError: 'learning_rate'"),
    ], ids=["empty-record", "unknown-network-field", "not-json", "booster-without-fields"])
    def test_a_bad_cascade_file_is_a_data_error_naming_it(self, tmp_path, name, text,
                                                          message):
        self.save_small(tmp_path / "cascade")
        path = tmp_path / "cascade" / name
        path.write_text(text)
        with pytest.raises(DataError, match=message) as err:
            load_cascade(tmp_path / "cascade")
        assert str(path) in str(err.value)


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
    rerun = routed != ACCEPT_CLASS
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
        plan = ResamplePlan(method="random_over")
        predicted = ProcessLog(tmp_path / "predicted")  # folds run in forked workers too
        predict = NetworkClassifier.predict

        def counting_predict(self, X):
            predicted.append(len(X))
            return predict(self, X)

        monkeypatch.setattr(NetworkClassifier, "predict", counting_predict)
        net_res, _, _ = cross_validate_cascade(
            ds, folds, network_config, dict(n_rounds=2, max_depth=2),
            pipeline=FoldPipeline(resample=plan), workers=workers)
        # one network pass per held-out fold serves both stage 1 and the cascade
        assert sorted(predicted.read()) == sorted(len(folds.test_indices(i)) for i in range(3))
        (alone,) = cross_validate(ds, folds, one_model(NetworkClassifier, **network_config),
                                  pipeline=FoldPipeline(resample=plan), workers=1)
        for got, want in zip(net_res.fold_matrices + (net_res.pooled_matrix,),
                             alone.fold_matrices + (alone.pooled_matrix,)):
            assert got.class_ids == want.class_ids
            assert np.array_equal(got.counts, want.counts)
        for got, want in zip(net_res.fold_metrics + (net_res.mean_metrics,),
                             alone.fold_metrics + (alone.mean_metrics,)):
            assert got == want

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
                               workers=workers)
        assert len(fits.read()) == folds.k

    def test_stage2_is_the_cascade_booster_on_the_outer_test_rows(self):
        ds, folds, network_config = self.small_study()
        booster_config = dict(n_rounds=3, max_depth=2)
        plan = ResamplePlan(method="random_over")
        _, _, boost_res = cross_validate_cascade(ds, folds, network_config, booster_config,
                                                 pipeline=FoldPipeline(resample=plan))
        for fold in range(folds.k):
            seed = folds.seed + fold
            train = apply_plan(ds.take(folds.train_indices(fold)), plan, seed)
            booster = cascade_fit(train, network_config, booster_config, seed=seed).booster
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
