"""Acceptance gate: ten numbered checks, one verdict line printed per check.

Every reference number here is a frozen constant from the companion holdout
study of three-class hospital readmission (0 = never, 1 = within 30 days,
2 = after 30 days), stated behaviorally next to its use. Each check prints a
single `criterion N` line with a pass/fail mark so the test log reads as a
checklist; the assertions underneath carry the tolerances.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from readmitlab.cli import main
from readmitlab.data import load_dataset, save_dataset_csv, stratified_kfold
from readmitlab.ensemble import cascade_evaluate, cross_validate_cascade
from readmitlab.evaluate import ConfusionMatrix, FoldPipeline, harmonic_mean, metrics
from readmitlab.optim import Adam, AdaBelief, Sgd
from readmitlab.resample import ResamplePlan, apply_plan, knn, oversample
from readmitlab.trees import (ClassificationTree, GradientBoostedClassifier,
                              RandomForest)

from helpers import (blob_dataset, brute_force_knn, gradient_check_suite,
                     make_dataset, min_segment_residual, minority_neighbor_sets,
                     nearmiss_oracle)


def _emit(capfd, text):
    # acceptance verdicts must be visible in the live test log, so bypass
    # pytest's capture for this one line
    with capfd.disabled():
        print("\n" + text, flush=True)


@contextmanager
def verdict(capfd, number, label):
    line = f"criterion {number:>2} — {label}: "
    try:
        yield
    except pytest.skip.Exception as exc:
        _emit(capfd, line + f"SKIP ({exc})")
        raise
    except BaseException:
        _emit(capfd, line + "FAIL ❌")
        raise
    _emit(capfd, line + "pass ✅")


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences


def test_criterion_01_gradient_correctness(capfd):
    # every layer kind plus all six named architectures, randomized small
    # shapes, double precision, h = 1e-5, the whole suite under a minute
    with verdict(capfd, 1, "analytic gradients match finite differences"):
        start = time.monotonic()
        suite = gradient_check_suite(h=1e-5)
        elapsed = time.monotonic() - start
        assert len(suite) >= 20, f"only {len(suite)} gradient configurations"
        worst_name, worst = max(suite, key=lambda pair: pair[1])
        assert worst <= 1e-5, f"worst config {worst_name!r}: rel err {worst:.3e}"
        assert elapsed <= 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: macro metric arithmetic against frozen study rows

# Per-class holdout percentages of the study's network+ADASYN run, and the
# macro summary row they must reproduce to the printed precision.
PER_CLASS_RECALL_PCT = (55.01, 98.46, 51.38)
PER_CLASS_PRECISION_PCT = (62.98, 69.40, 60.40)
MACRO_RECALL_PCT = 68.28
MACRO_PRECISION_PCT = 64.26
MACRO_F_PCT = 66.21

# Five (macro recall %, macro precision %, reported macro F %) rows from the
# study's hyperparameter search; the F column must be the harmonic mean of
# the other two.
HARMONIC_ROWS_PCT = (
    (67.50, 61.48, 64.35),
    (56.31, 53.75, 55.00),
    (33.33, 33.33, 33.33),
    (62.98, 60.57, 61.75),
    (67.69, 62.81, 65.16),
)


def test_criterion_02_macro_metric_arithmetic(capfd):
    with verdict(capfd, 2, "macro metrics reproduce the frozen summary rows"):
        macro_r = float(np.mean(PER_CLASS_RECALL_PCT))
        macro_p = float(np.mean(PER_CLASS_PRECISION_PCT))
        macro_f = harmonic_mean(macro_p, macro_r)
        assert abs(macro_r - MACRO_RECALL_PCT) <= 0.01
        assert abs(macro_p - MACRO_PRECISION_PCT) <= 0.01
        assert abs(macro_f - MACRO_F_PCT) <= 0.01
        for recall_pct, precision_pct, f_pct in HARMONIC_ROWS_PCT:
            computed = harmonic_mean(precision_pct, recall_pct)
            assert abs(computed - f_pct) <= 0.01, (recall_pct, precision_pct)
        # metrics() itself must implement the same identity: macro F is the
        # harmonic mean of the macro pair, not the mean of per-class F scores
        cm = ConfusionMatrix(np.array([[5, 2, 0], [1, 3, 1], [0, 1, 4]]), (0, 1, 2))
        rep = metrics(cm)
        assert rep.macro_f == pytest.approx(
            harmonic_mean(rep.macro_precision, rep.macro_recall), abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 3: cascade accuracy recomputed from the frozen count tables

# Stage 1 is the three-way network over classes (0, 1, 2); stage 2 is the
# binary booster re-deciding the rows stage 1 did not label class 1, in class
# order (2, 0). Rows are predicted classes, columns actual.
STAGE1_TABLE = np.array([
    [21112, 97, 13422],
    [4316, 25888, 7417],
    [12918, 263, 21447],
])
STAGE2_TABLE = np.array([
    [21235, 13130],
    [12255, 22279],
])
CASCADE_CORRECT = 25888 + 21235 + 22279  # accepted class-1 hits + stage-2 hits
CASCADE_TOTAL = 106880
CLAIMED_ACCURACY_PCT = 64.94  # the study's own rounding, 0.01 too high


def test_criterion_03_cascade_arithmetic(capfd):
    with verdict(capfd, 3, "cascade accuracy matches the frozen tables"):
        stage1 = ConfusionMatrix(STAGE1_TABLE, (0, 1, 2))
        stage2 = ConfusionMatrix(STAGE2_TABLE, (2, 0))
        report = cascade_evaluate(stage1, stage2,
                                  claimed_accuracy_pct=CLAIMED_ACCURACY_PCT)
        assert report.correct == CASCADE_CORRECT
        assert report.total == CASCADE_TOTAL
        assert abs(100.0 * report.accuracy - 64.93) <= 0.01
        # the claimed figure rounds the other way; the report must say so
        assert any("64.93" in w and "64.94" in w for w in report.warnings), \
            report.warnings


# ---------------------------------------------------------------------------
# criterion 4: collapse sentinel


def test_criterion_04_collapse_sentinel(capfd):
    # a constant predictor on class-balanced data scores exactly one third on
    # accuracy and macro recall — the signature of a collapsed training run
    with verdict(capfd, 4, "constant predictor scores one third when balanced"):
        rng = np.random.default_rng(4)
        actual = np.repeat([0, 1, 2], 40)
        rng.shuffle(actual)
        predicted = np.full_like(actual, 1)
        rep = metrics(ConfusionMatrix.from_labels(actual, predicted, (0, 1, 2)))
        assert abs(100.0 * rep.accuracy - 33.33) <= 0.01
        assert abs(100.0 * rep.macro_recall - 33.33) <= 0.01


# ---------------------------------------------------------------------------
# criterion 5: resampler properties on randomized toys


def test_criterion_05_resampler_properties(capfd):
    with verdict(capfd, 5, "resamplers hit targets and honor their geometry"):
        # (a) exact post-resample counts for every oversampler, on clusters
        # that overlap enough for the border-aware methods to find work
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            data = blob_dataset(rng, {0: 60, 1: 25, 2: 12},
                                {0: [0, 0], 1: [1.5, 0], 2: [-1.5, 0]},
                                spread=1.2)
            for method in ("smote", "borderline_smote", "svm_smote",
                           "adasyn", "random_over"):
                out = oversample(data, ResamplePlan(method), seed)
                assert out.class_counts() == {0: 60, 1: 60, 2: 60}, method

        # (b) every SMOTE-family synthetic lies on a segment between a
        # minority point and one of its k nearest minority neighbors
        # (the margin-seeded variant may extrapolate outward along the
        # same line, so its check mirrors each segment through its anchor)
        k = 4
        for seed in range(3):
            rng = np.random.default_rng(200 + seed)
            data = blob_dataset(rng, {0: 50, 1: 18}, {0: [0, 0], 1: [2.5, 2.5]},
                                spread=1.0)
            x_min = data.features[data.labels == 1]
            neighbor_sets = minority_neighbor_sets(x_min, k)
            for method in ("smote", "borderline_smote", "adasyn", "svm_smote"):
                out = oversample(data, ResamplePlan(method, k_neighbors=k), seed)
                synth = out.features[data.n_instances:]
                assert len(synth) == 50 - 18, method
                mirrored = method == "svm_smote"
                for row in synth:
                    residual = min_segment_residual(row, x_min, neighbor_sets,
                                                    mirrored=mirrored)
                    assert residual <= 1e-9, method

        # (c) adaptive allocation: minority island B has no other-class
        # neighbors, so every synthetic must be generated around cluster A
        rng = np.random.default_rng(6)
        a_minority = rng.normal(loc=[0.0, 0.0], scale=0.5, size=(8, 2))
        majority = rng.normal(loc=[0.0, 0.0], scale=0.5, size=(30, 2))
        b_minority = rng.normal(loc=[40.0, 40.0], scale=0.5, size=(8, 2))
        data = make_dataset(np.vstack([a_minority, majority, b_minority]),
                            [1] * 8 + [0] * 30 + [1] * 8)
        out = oversample(data, ResamplePlan("adasyn"), 9)
        synth = out.features[data.n_instances:]
        assert len(synth) == 30 - 16
        assert np.all(np.linalg.norm(synth, axis=1) < 20.0)
        assert np.all(np.linalg.norm(synth - [40.0, 40.0], axis=1) > 20.0)

        # (d) NearMiss selection equals the brute-force average-distance
        # oracle, for all three versions
        for version in (1, 2, 3):
            for trial in range(4):
                rng = np.random.default_rng(50 + 10 * version + trial)
                data = blob_dataset(rng, {0: 40, 1: 15},
                                    {0: [0, 0], 1: [2, 1]}, spread=1.5)
                plan = ResamplePlan("nearmiss", target_counts={0: 10},
                                    nearmiss_version=version)
                out = apply_plan(data, plan, 0)
                maj_rows = data.features[data.labels == 0]
                ref_rows = data.features[data.labels == 1]
                expected = nearmiss_oracle(maj_rows, ref_rows, 10, version, 3)
                kept = out.features[out.labels == 0]
                assert np.array_equal(kept, maj_rows[expected]), (version, trial)


# ---------------------------------------------------------------------------
# criterion 6: the shared k-NN backend vs an exhaustive scan


def test_criterion_06_knn_oracle_equivalence(capfd):
    with verdict(capfd, 6, "k-NN backend matches the exhaustive scan"):
        rng = np.random.default_rng(6)
        pool = rng.normal(size=(40, 3))
        queries = rng.normal(size=(100, 3))
        for q in queries:
            for k in range(1, 11):
                assert knn(q, pool, k) == brute_force_knn(q, pool, k)


# ---------------------------------------------------------------------------
# criterion 7: boosting behavior


def test_criterion_07_boosting_behavior(capfd):
    with verdict(capfd, 7, "boosting converges; a lone forest tree is a CART"):
        rng = np.random.default_rng(7)
        # (a) mean training deviance never increases round over round
        data = blob_dataset(rng, {0: 40, 1: 30, 2: 25},
                            {0: [0, 0], 1: [2, 0], 2: [0, 2]}, spread=1.0)
        gbm = GradientBoostedClassifier(n_rounds=40, learning_rate=0.1,
                                        max_depth=2)
        gbm.fit(data.features, data.labels)
        deviance = np.array(gbm.train_deviance_)
        assert len(deviance) == 40
        assert np.all(np.diff(deviance) <= 1e-12)

        # (b) the XOR cluster toy needs feature interactions: depth-2 trees,
        # 50 rounds, at least 95% training accuracy
        centers = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
        X = np.vstack([c + rng.normal(scale=0.25, size=(40, 2)) for c in centers])
        y = np.repeat([0, 0, 1, 1], 40)
        xor = GradientBoostedClassifier(n_rounds=50, learning_rate=0.1,
                                        max_depth=2)
        xor.fit(X, y)
        assert float(np.mean(xor.predict(X) == y)) >= 0.95

        # (c) one full-sample, all-features tree in a forest predicts exactly
        # like a standalone classification tree
        forest = RandomForest(n_trees=1, max_depth=4, features_per_split="all",
                              seed=0, bootstrap=False)
        forest.fit(data.features, data.labels)
        tree = ClassificationTree(max_depth=4).fit(data.features, data.labels)
        probe = rng.normal(scale=2.0, size=(200, 2))
        assert np.array_equal(forest.predict(data.features),
                              tree.predict(data.features))
        assert np.array_equal(forest.predict(probe), tree.predict(probe))


# ---------------------------------------------------------------------------
# criterion 8: end-to-end accuracy window on the public dataset

UCI_ENV = "READMIT_UCI_CSV"


def test_criterion_08_end_to_end_window(capfd):
    # The study's headline percentages depend on preprocessing choices that
    # were never published, so exact reproduction is out of reach by design.
    # The gate is a window: network + adaptive oversampling, stratified
    # 10-fold, pooled accuracy within ±3 points of the reported 64.4%, and
    # the cascade no worse than half a point below the network alone.
    with verdict(capfd, 8, "end-to-end accuracy window on the public data"):
        path = os.environ.get(UCI_ENV)
        if not path:
            pytest.skip(
                f"set {UCI_ENV} to the preprocessed readmission CSV "
                "(see the README recipe) to run the end-to-end study"
            )
        data = load_dataset(path)
        folds = stratified_kfold(data.labels, 10, seed=0)
        network_config = dict(arch="cnn2", epochs=50, learning_rate=1e-4,
                              batch_size=64, optimizer="adam")
        booster_config = dict(n_rounds=100, learning_rate=0.1, max_depth=3)
        network_result, cascade_result, _ = cross_validate_cascade(
            data, folds, network_config, booster_config,
            pipeline=FoldPipeline(scale=True, resample=ResamplePlan("adasyn")),
            workers=os.cpu_count() or 1,
        )
        network_pct = 100.0 * network_result.pooled_matrix.accuracy
        cascade_pct = 100.0 * cascade_result.pooled_matrix.accuracy
        assert 61.4 <= network_pct <= 67.4, f"network pooled {network_pct:.2f}%"
        assert cascade_pct >= network_pct - 0.5, (
            f"cascade {cascade_pct:.2f}% vs network {network_pct:.2f}%"
        )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reports on re-run


def test_criterion_09_byte_identical_reports(capfd, tmp_path, monkeypatch):
    with verdict(capfd, 9, "identical configs produce byte-identical reports"):
        monkeypatch.delenv("READMIT_SEED", raising=False)
        rng = np.random.default_rng(9)
        blobs = blob_dataset(rng, {0: 18, 1: 15, 2: 12},
                             {0: [0, 0], 1: [2.5, 0], 2: [0, 2.5]}, spread=0.8)
        padded = np.hstack([blobs.features,
                            rng.normal(scale=0.05, size=(blobs.n_instances, 6))])
        csv_path = tmp_path / "cohort.csv"
        save_dataset_csv(make_dataset(padded, blobs.labels), csv_path)

        def run(args, out_dir):
            assert main([*args, "--out", str(out_dir)]) == 0
            files = sorted(p for p in out_dir.iterdir() if p.is_file())
            assert len(files) >= 3
            return {p.name: p.read_bytes() for p in files}

        commands = {
            "ingest": ["ingest", "--data", str(csv_path), "--seed", "3"],
            "train": ["train", "--data", str(csv_path), "--seed", "3",
                      "--folds", "3", "--model", "gbm", "--n-rounds", "5",
                      "--max-depth", "2", "--resample-method", "smote"],
        }
        for name, args in commands.items():
            first = run(args, tmp_path / f"{name}_a")
            second = run(args, tmp_path / f"{name}_b")
            assert first == second, f"{name} reports differ between runs"


# ---------------------------------------------------------------------------
# criterion 10: optimizer unit checks


def test_criterion_10_optimizer_unit_checks(capfd):
    with verdict(capfd, 10, "optimizer update rules match their contracts"):
        # (a) plain SGD: 1.0 with gradient 0.5 at lr 0.1 lands exactly on 0.95
        params = {"w": np.array([1.0])}
        Sgd(0.1).step(params, {"w": np.array([0.5])})
        assert params["w"][0] == 0.95

        # (b) Adam's first bias-corrected step has magnitude equal to the
        # learning rate (up to epsilon)
        adam = Adam(learning_rate=1e-3, eps=1e-12)
        params = {"w": np.array([0.3])}
        adam.step(params, {"w": np.array([0.7])})
        assert abs(abs(0.3 - params["w"][0]) - 1e-3) <= 1e-6

        # (c) the two adaptive methods differ only in the second-moment term:
        # feeding the squared deviation from the running mean (plus the
        # documented floor) into the squared-gradient accumulator must
        # reproduce the deviation-tracking optimizer bit for bit
        class SwappedAdam(Adam):
            def second_moment_estimand(self, grad, mean, out):
                diff = grad - mean
                return diff * diff + self.eps / (1.0 - self.beta2)

        rng = np.random.default_rng(10)
        grads = [rng.normal(size=(3, 2)) for _ in range(60)]
        belief = AdaBelief(learning_rate=0.01)
        swapped = SwappedAdam(learning_rate=0.01)
        plain = Adam(learning_rate=0.01)
        p_belief = {"w": np.ones((3, 2))}
        p_swapped = {"w": np.ones((3, 2))}
        p_plain = {"w": np.ones((3, 2))}
        diverged_from_plain = False
        for g in grads:
            belief.step(p_belief, {"w": g.copy()})
            swapped.step(p_swapped, {"w": g.copy()})
            plain.step(p_plain, {"w": g.copy()})
            assert np.array_equal(p_belief["w"], p_swapped["w"])
            if not np.array_equal(p_belief["w"], p_plain["w"]):
                diverged_from_plain = True
        assert diverged_from_plain
