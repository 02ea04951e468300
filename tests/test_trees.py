"""CART trees, gradient boosting (multiclass and binary), random forest."""

import numpy as np
import pytest

from readmitlab.nn import softmax
from readmitlab.trees import (
    ClassificationTree,
    GradientBoostedClassifier,
    RandomForest,
    RegressionTree,
    _newton_leaf_factory,
)

from helpers import blob_dataset


def xor_clusters(rng, per_cluster=30, spread=0.35):
    """Four clusters in an XOR layout: diagonal pair class 1, off-diagonal 0."""
    centers = [((0.0, 0.0), 1), ((2.0, 2.0), 1), ((0.0, 2.0), 0), ((2.0, 0.0), 0)]
    rows, labels = [], []
    for center, cls in centers:
        rows.append(rng.normal(loc=center, scale=spread, size=(per_cluster, 2)))
        labels += [cls] * per_cluster
    return np.vstack(rows), np.array(labels)


class TestRegressionTree:
    def test_constant_target_is_a_single_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        tree = RegressionTree(max_depth=3).fit(X, np.full(8, 2.5))
        assert tree.root.is_leaf
        assert np.allclose(tree.predict(X), 2.5)

    def test_step_function_splits_at_the_midpoint(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = RegressionTree(max_depth=1).fit(X, y)
        assert not tree.root.is_leaf
        assert tree.root.feature == 0
        assert tree.root.threshold == 1.5
        assert np.allclose(tree.predict(X), y)

    def test_step_split_is_the_variance_reduction_maximum(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])

        def sse_after(threshold):
            left, right = y[X[:, 0] <= threshold], y[X[:, 0] > threshold]
            return sum(((part - part.mean()) ** 2).sum()
                       for part in (left, right) if part.size)

        candidates = [0.5, 1.5, 2.5]
        best = min(candidates, key=sse_after)
        assert best == 1.5

    def test_min_leaf_n_forces_single_leaf(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        tree = RegressionTree(max_depth=5, min_samples_leaf=12).fit(X, y)
        assert tree.root.is_leaf
        assert np.allclose(tree.predict(X), y.mean())

    def test_monotone_feature_transform_preserves_predictions(self):
        rng = np.random.default_rng(1)
        X = rng.random((40, 2)) + 0.5
        y = rng.normal(size=40)
        tree_raw = RegressionTree(max_depth=3).fit(X, y)
        tree_cubed = RegressionTree(max_depth=3).fit(X**3, y)
        assert np.allclose(tree_raw.predict(X), tree_cubed.predict(X**3), atol=1e-12)


class TestClassificationTree:
    def test_separable_toy_fits_exactly(self):
        rng = np.random.default_rng(2)
        data = blob_dataset(rng, {0: 20, 2: 20}, {0: [0, 0], 2: [6, 6]})
        tree = ClassificationTree(max_depth=4).fit(data.features, data.labels)
        assert np.array_equal(tree.predict(data.features), data.labels)

    def test_vote_tie_goes_to_lower_class_id(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([2, 0])
        tree = ClassificationTree(max_depth=0).fit(X, y)
        assert tree.predict(np.array([[0.0]])).tolist() == [0]

    def test_monotone_feature_transform_preserves_predictions(self):
        rng = np.random.default_rng(3)
        X = rng.random((60, 3)) + 0.2
        y = rng.integers(0, 3, size=60)
        raw = ClassificationTree(max_depth=4).fit(X, y)
        cubed = ClassificationTree(max_depth=4).fit(X**3, y)
        assert np.array_equal(raw.predict(X), cubed.predict(X**3))

    def test_feature_subsetting_needs_an_rng(self):
        X = np.zeros((4, 3))
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError):
            ClassificationTree(features_per_split="sqrt").fit(X, y)


class TestRandomForest:
    def test_single_tree_no_bootstrap_reduces_to_a_gini_tree(self):
        rng = np.random.default_rng(4)
        data = blob_dataset(rng, {0: 25, 1: 25, 2: 25},
                            {0: [0, 0], 1: [3, 3], 2: [-3, 3]}, spread=1.2)
        forest = RandomForest(n_trees=1, features_per_split="all",
                              bootstrap=False, seed=0)
        forest.fit(data.features, data.labels)
        single = ClassificationTree().fit(data.features, data.labels)
        assert np.array_equal(forest.predict(data.features),
                              single.predict(data.features))

    def test_separable_two_class_toy_is_exact(self):
        rng = np.random.default_rng(5)
        data = blob_dataset(rng, {0: 30, 2: 30}, {0: [0, 0], 2: [7, 7]})
        forest = RandomForest(n_trees=15, seed=1).fit(data.features, data.labels)
        assert np.array_equal(forest.predict(data.features), data.labels)

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(6)
        data = blob_dataset(rng, {0: 30, 1: 20, 2: 15},
                            {0: [0, 0], 1: [2, 2], 2: [-2, 2]}, spread=1.5)
        grid = np.random.default_rng(0).normal(loc=[0, 1], size=(25, 2))
        a = RandomForest(n_trees=9, seed=7).fit(data.features, data.labels)
        b = RandomForest(n_trees=9, seed=7).fit(data.features, data.labels)
        c = RandomForest(n_trees=9, seed=8).fit(data.features, data.labels)
        assert np.array_equal(a.predict(grid), b.predict(grid))
        assert np.array_equal(a.predict_proba(grid), b.predict_proba(grid))
        assert not np.array_equal(a.predict_proba(grid), c.predict_proba(grid))

    def test_vote_fractions_sum_to_one(self):
        rng = np.random.default_rng(7)
        data = blob_dataset(rng, {0: 20, 1: 20, 2: 20},
                            {0: [0, 0], 1: [3, 3], 2: [-3, 3]})
        forest = RandomForest(n_trees=10, seed=2).fit(data.features, data.labels)
        probs = forest.predict_proba(data.features)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestNewtonLeaves:
    def test_multiclass_leaf_value(self):
        leaf = _newton_leaf_factory(3)
        r = np.array([0.4, -0.3, 0.2])
        expected = (2.0 / 3.0) * r.sum() / (np.abs(r) * (1.0 - np.abs(r))).sum()
        assert leaf(r) == pytest.approx(expected, rel=1e-12)

    def test_binary_leaf_has_unit_scale(self):
        leaf = _newton_leaf_factory(2)
        r = np.array([0.4, -0.3])
        expected = r.sum() / (np.abs(r) * (1.0 - np.abs(r))).sum()
        assert leaf(r) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_denominator_returns_zero(self):
        leaf = _newton_leaf_factory(3)
        assert leaf(np.zeros(3)) == 0.0


class TestGradientBoosting:
    def test_single_class_training_data_predicts_that_class(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(15, 3))
        model = GradientBoostedClassifier(n_rounds=3).fit(X, np.full(15, 2))
        assert np.all(model.predict(X) == 2)

    def test_zero_rounds_predicts_class_priors(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 2))
        y = np.array([0] * 10 + [1] * 6 + [2] * 4)
        model = GradientBoostedClassifier(n_rounds=0).fit(X, y)
        probs = model.predict_proba(X)
        assert np.allclose(probs, [0.5, 0.3, 0.2], atol=1e-9)

    def test_training_deviance_never_increases(self):
        rng = np.random.default_rng(10)
        data = blob_dataset(rng, {0: 25, 1: 20, 2: 15},
                            {0: [0, 0], 1: [2, 2], 2: [-2, 2]}, spread=1.3)
        model = GradientBoostedClassifier(n_rounds=30).fit(data.features, data.labels)
        deviance = np.array(model.train_deviance_)
        assert len(deviance) == 30
        assert np.all(np.diff(deviance) <= 1e-12)

    def test_xor_clusters_solved_by_depth_two_trees(self):
        rng = np.random.default_rng(11)
        X, y = xor_clusters(rng)
        model = GradientBoostedClassifier(n_rounds=50, learning_rate=0.1,
                                          max_depth=2).fit(X, y)
        accuracy = (model.predict(X) == y).mean()
        assert accuracy >= 0.95

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        data = blob_dataset(rng, {0: 15, 1: 15, 2: 15},
                            {0: [0, 0], 1: [3, 3], 2: [-3, 3]})
        model = GradientBoostedClassifier(n_rounds=10).fit(data.features, data.labels)
        probs = model.predict_proba(data.features)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_k_class_probabilities_are_the_networks_softmax_of_the_scores(self):
        rng = np.random.default_rng(12)
        data = blob_dataset(rng, {0: 15, 1: 15, 2: 15},
                            {0: [0, 0], 1: [3, 3], 2: [-3, 3]})
        model = GradientBoostedClassifier(n_rounds=10).fit(data.features, data.labels)
        scores = model.decision_scores(data.features)
        probs = model.predict_proba(data.features)
        assert probs.tobytes() == softmax(scores).tobytes()
        # the shift by the row maximum, the exp and the row normalization, as written out
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        assert probs.tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

    def test_binary_labels_0_and_2_round_trip(self):
        rng = np.random.default_rng(13)
        data = blob_dataset(rng, {0: 25, 2: 25}, {0: [0, 0], 2: [5, 5]})
        model = GradientBoostedClassifier(n_rounds=20).fit(data.features, data.labels)
        preds = model.predict(data.features)
        assert set(np.unique(preds)) <= {0, 2}
        assert (preds == data.labels).mean() == 1.0

    def test_decision_scores_match_manual_tree_walk(self):
        rng = np.random.default_rng(14)
        data = blob_dataset(rng, {0: 20, 1: 15, 2: 10},
                            {0: [0, 0], 1: [2, 2], 2: [-2, 2]}, spread=1.2)
        model = GradientBoostedClassifier(n_rounds=2, max_depth=1)
        model.fit(data.features, data.labels)
        payload = model.to_dict()

        def walk(node, row):
            while "value" not in node:
                side = "left" if row[node["feature"]] <= node["threshold"] else "right"
                node = node[side]
            return node["value"]

        X = data.features
        manual = np.tile(np.asarray(payload["base_scores"]), (len(X), 1))
        for round_trees in payload["trees"]:
            for k, tree in enumerate(round_trees):
                for i in range(len(X)):
                    manual[i, k] += payload["learning_rate"] * walk(tree, X[i])
        assert np.allclose(model.decision_scores(X), manual, atol=1e-12)

    def test_monotone_feature_transform_preserves_predictions(self):
        rng = np.random.default_rng(15)
        X = rng.random((50, 2)) + 0.1
        y = rng.integers(0, 3, size=50)
        raw = GradientBoostedClassifier(n_rounds=8, max_depth=2).fit(X, y)
        cubed = GradientBoostedClassifier(n_rounds=8, max_depth=2).fit(X**3, y)
        assert np.array_equal(raw.predict(X), cubed.predict(X**3))

    def test_json_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(16)
        data = blob_dataset(rng, {0: 20, 1: 15, 2: 12},
                            {0: [0, 0], 1: [2, 2], 2: [-2, 2]}, spread=1.1)
        model = GradientBoostedClassifier(n_rounds=6, max_depth=2)
        model.fit(data.features, data.labels)
        clone = GradientBoostedClassifier.from_dict(model.to_dict())
        assert np.array_equal(model.predict(data.features),
                              clone.predict(data.features))
        assert np.allclose(model.predict_proba(data.features),
                           clone.predict_proba(data.features), atol=1e-15)


class TestParameterChecks:
    @pytest.mark.parametrize("build, field", [
        (lambda: RandomForest(n_trees=0), "n_trees"),
        (lambda: RandomForest(max_depth=-1), "max_depth"),
        (lambda: RandomForest(min_samples_leaf=0), "min_samples_leaf"),
        (lambda: GradientBoostedClassifier(n_rounds=-1), "n_rounds"),
        (lambda: GradientBoostedClassifier(learning_rate=0.0), "learning_rate"),
        (lambda: GradientBoostedClassifier(learning_rate=-1.0), "learning_rate"),
        (lambda: GradientBoostedClassifier(max_depth=-2), "max_depth"),
        (lambda: GradientBoostedClassifier(min_samples_leaf=0), "min_samples_leaf"),
        (lambda: RegressionTree(max_depth=-1), "max_depth"),
        (lambda: RegressionTree(min_samples_leaf=0), "min_samples_leaf"),
        (lambda: ClassificationTree(max_depth=-1), "max_depth"),
        (lambda: ClassificationTree(min_samples_leaf=-3), "min_samples_leaf"),
    ])
    def test_out_of_range_parameter_is_a_value_error(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: GradientBoostedClassifier(n_rounds=2.5),
         "n_rounds must be an integer >= 0, got 2.5"),
        (lambda: GradientBoostedClassifier(n_rounds=True),
         "n_rounds must be an integer >= 0, got True"),
        (lambda: GradientBoostedClassifier(max_depth=3.0),
         "max_depth must be an integer >= 0, got 3.0"),
        (lambda: RegressionTree(min_samples_leaf="2"),
         "min_samples_leaf must be an integer >= 1, got '2'"),
        (lambda: RandomForest(n_trees=2.0), "n_trees must be an integer >= 1, got 2.0"),
        (lambda: RandomForest(n_trees=False), "n_trees must be an integer >= 1, got False"),
        (lambda: RandomForest(max_depth=True), "max_depth must be an integer >= 0, got True"),
        (lambda: ClassificationTree(min_samples_leaf=1.5),
         "min_samples_leaf must be an integer >= 1, got 1.5"),
        *((lambda value=value: RandomForest(features_per_split=value),
           f'features_per_split must be "sqrt", "all" or an integer >= 1, got {value!r}')
          for value in ("bogus", "3", 0, 2.5, True, None)),
        (lambda: ClassificationTree(features_per_split="log2"),
         'features_per_split must be "sqrt", "all" or an integer >= 1, got \'log2\''),
    ])
    def test_a_count_of_the_wrong_type_fails_when_built(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_an_integer_features_per_split_is_checked_against_the_columns_at_fit(self):
        X, y = np.zeros((6, 3)), np.array([0, 1, 0, 1, 0, 1])
        RandomForest(n_trees=1, features_per_split=np.int64(3)).fit(X, y)
        with pytest.raises(ValueError, match=r"features_per_split 4 outside \[1, 3\]"):
            RandomForest(n_trees=1, features_per_split=4).fit(X, y)

    def test_zero_rounds_zero_depth_and_unlimited_depth_stay_legal(self):
        GradientBoostedClassifier(n_rounds=0, max_depth=0)
        RegressionTree(max_depth=0)
        ClassificationTree(max_depth=None)
        RandomForest(n_trees=1, max_depth=None)
        single = GradientBoostedClassifier(n_rounds=3).fit(np.zeros((4, 1)), np.ones(4))
        assert GradientBoostedClassifier.from_dict(single.to_dict()).n_rounds == 0

    @pytest.mark.parametrize("build", [
        lambda: GradientBoostedClassifier(learning_rate=True),
        lambda: GradientBoostedClassifier(learning_rate=False),
        lambda: GradientBoostedClassifier(learning_rate="0.1"),
    ])
    def test_a_learning_rate_that_is_not_a_real_number_fails_when_built(self, build):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            build()


class TestUnlimitedDepth:
    """max_depth=None grows every tree kind until no split is left."""

    def table(self):
        X = np.arange(64, dtype=np.float64)[:, None]
        return X, (np.arange(64) % 2).astype(np.int64)

    @staticmethod
    def depth(node):
        return 0 if node.is_leaf else 1 + max(TestUnlimitedDepth.depth(node.left),
                                              TestUnlimitedDepth.depth(node.right))

    def test_every_tree_kind_grows_without_a_limit(self):
        X, y = self.table()
        regression = RegressionTree(max_depth=None).fit(X, y.astype(np.float64))
        assert np.array_equal(regression.predict(X), y)
        assert self.depth(regression.root) > 6
        assert np.array_equal(ClassificationTree(max_depth=None).fit(X, y).predict(X), y)
        forest = RandomForest(n_trees=1, max_depth=None, bootstrap=False).fit(X, y)
        assert np.array_equal(forest.predict(X), y)
        booster = GradientBoostedClassifier(n_rounds=2, max_depth=None).fit(X, y)
        assert booster.max_depth is None
        assert self.depth(booster.trees_[0][0].root) > 6

    def test_an_unlimited_booster_round_trips_through_json(self):
        X, y = self.table()
        booster = GradientBoostedClassifier(n_rounds=2, max_depth=None).fit(X, y)
        payload = booster.to_dict()
        assert payload["max_depth"] is None
        clone = GradientBoostedClassifier.from_dict(payload)
        assert clone.max_depth is None
        assert clone.to_dict() == payload
        assert clone.predict_proba(X).tobytes() == booster.predict_proba(X).tobytes()
