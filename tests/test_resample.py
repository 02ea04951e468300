"""Oversamplers (SMOTE family, ADASYN, random), NearMiss undersampling, k-NN."""

import inspect
import re

import numpy as np
import pytest

from readmitlab.errors import DataError
from readmitlab.resample import (
    OVERSAMPLERS,
    UNDERSAMPLERS,
    ResamplePlan,
    _fit_linear_margin,
    apply_plan,
    knn,
    oversample,
)

from helpers import (blob_dataset, brute_force_knn, make_dataset,
                     min_segment_residual, minority_neighbor_sets,
                     nearmiss_oracle)


class TestKnn:
    def test_collinear_tie_prefers_lower_index(self):
        assert knn([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]], 2) == [0, 1]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(0)
        pool = rng.normal(size=(60, 4))
        for trial in range(100):
            query = rng.normal(size=4)
            k = int(rng.integers(1, 11))
            assert knn(query, pool, k) == brute_force_knn(query, pool, k)

    def test_k_beyond_pool_rejected(self):
        with pytest.raises(ValueError):
            knn([0.0], [[1.0], [2.0]], 3)


class TestResamplePlan:
    def test_equalize_targets(self):
        counts = {0: 50, 1: 30, 2: 10}
        up = ResamplePlan("smote").resolved_targets(counts)
        assert up == {0: 50, 1: 50, 2: 50}
        down = ResamplePlan("nearmiss").resolved_targets(counts)
        assert down == {0: 10, 1: 10, 2: 10}

    def test_explicit_targets_validated(self):
        with pytest.raises(DataError):
            ResamplePlan("smote",
                         target_counts={0: 5}).resolved_targets({0: 10, 1: 3})
        with pytest.raises(DataError):
            ResamplePlan("nearmiss",
                         target_counts={0: 20}).resolved_targets({0: 10, 1: 3})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ResamplePlan("mixup")

    @pytest.mark.parametrize("field, value, message", [
        ("k_neighbors", 2.5, "k_neighbors must be an integer >= 1, got 2.5"),
        ("k_neighbors", "5", "k_neighbors must be an integer >= 1, got '5'"),
        ("k_neighbors", None, "k_neighbors must be an integer >= 1, got None"),
        ("k_neighbors", 0, "k_neighbors must be an integer >= 1, got 0"),
        ("nearmiss_version", 1.0, "nearmiss_version must be 1, 2, or 3"),
        ("nearmiss_version", True, "nearmiss_version must be 1, 2, or 3"),
        ("n_ref", "3", "n_ref must be an integer >= 1, got '3'"),
        ("n_ref", 2.5, "n_ref must be an integer >= 1, got 2.5"),
        ("n_ref", False, "n_ref must be an integer >= 1, got False")])
    def test_a_count_that_is_not_a_valid_integer_is_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ResamplePlan("nearmiss", **{field: value})

    @pytest.mark.parametrize("targets", [
        [5], {"x": 5}, {"7": 50}, {3: 5}, {-1: 5}, {1.0: 5}, {"01": 5}, {0: -1}, {0: 2.5},
        {0: True}, {0: "5"}, {0: None}, "5", 5])
    def test_target_counts_that_are_not_class_counts_are_rejected(self, targets):
        with pytest.raises(ValueError, match="target_counts must map class ids"):
            ResamplePlan("smote", target_counts=targets)

    def test_target_counts_take_class_ids_as_integers_or_strings(self):
        counts = {0: 5, 1: 3, 2: 2}
        plan = ResamplePlan("smote", target_counts={0: 5, "1": 4, np.int64(2): 6})
        assert plan.resolved_targets(counts) == {0: 5, 1: 4, 2: 6}


class TestOversamplers:
    def test_two_point_minority_synthesizes_on_the_diagonal(self):
        # minority {(0,0), (1,1)} with k=1: every synthetic is (t, t), 0<=t<=1
        X = np.vstack([np.array([[0.0, 0.0], [1.0, 1.0]]),
                       np.array([[8.0, 9.0]]) + np.arange(6)[:, None]])
        y = np.array([1, 1, 0, 0, 0, 0, 0, 0])
        data = make_dataset(X, y)
        out = oversample(data, ResamplePlan("smote", k_neighbors=1), 5)
        synth = out.features[len(y):][out.labels[len(y):] == 1]
        assert len(synth) == 4
        assert np.allclose(synth[:, 0], synth[:, 1], atol=1e-12)
        assert np.all((synth[:, 0] >= -1e-12) & (synth[:, 0] <= 1 + 1e-12))

    def test_counts_exact_for_every_oversampler(self):
        rng = np.random.default_rng(1)
        for trial, method in enumerate(sorted(OVERSAMPLERS)):
            # clusters overlap so border-aware methods find danger points
            data = blob_dataset(rng, {0: 60, 1: 25, 2: 12},
                                {0: [0, 0], 1: [1.5, 0], 2: [-1.5, 0]}, spread=1.2)
            out = oversample(data, ResamplePlan(method, k_neighbors=5), trial)
            assert out.class_counts() == {0: 60, 1: 60, 2: 60}, method

    def test_original_rows_preserved_in_order(self):
        rng = np.random.default_rng(2)
        data = blob_dataset(rng, {0: 30, 1: 10}, {0: [0, 0], 1: [5, 5]})
        out = oversample(data, ResamplePlan("smote"), 0)
        n = data.n_instances
        assert np.array_equal(out.features[:n], data.features)
        assert np.array_equal(out.labels[:n], data.labels)
        assert np.all(out.labels[n:] == 1)

    def test_synthetics_lie_on_minority_neighbor_segments(self):
        rng = np.random.default_rng(3)
        k = 4
        for method in ("smote", "borderline_smote", "adasyn"):
            data = blob_dataset(rng, {0: 50, 1: 18}, {0: [0, 0], 1: [2.5, 2.5]},
                                spread=1.0)
            out = oversample(data, ResamplePlan(method, k_neighbors=k), 7)
            x_min = data.features[data.labels == 1]
            neighbor_sets = minority_neighbor_sets(x_min, k)
            synth = out.features[data.n_instances:]
            for row in synth:
                assert min_segment_residual(row, x_min, neighbor_sets) <= 1e-9, method

    def test_svm_smote_stays_on_anchor_neighbor_lines(self):
        rng = np.random.default_rng(4)
        k = 4
        data = blob_dataset(rng, {0: 50, 1: 18}, {0: [0, 0], 1: [2.5, 2.5]},
                            spread=1.0)
        out = oversample(data, ResamplePlan("svm_smote", k_neighbors=k), 11)
        x_min = data.features[data.labels == 1]
        neighbor_sets = minority_neighbor_sets(x_min, k)
        synth = out.features[data.n_instances:]
        for row in synth:
            assert min_segment_residual(row, x_min, neighbor_sets,
                                        mirrored=True) <= 1e-9

    def test_the_svm_margin_draws_nothing_and_repeats_bitwise(self):
        data = blob_dataset(np.random.default_rng(5), {0: 40, 1: 15},
                            {0: [0, 0, 0], 1: [1, 1, 1]}, spread=1.0)
        y_signed = np.where(data.labels == 1, 1.0, -1.0)
        assert "rng" not in inspect.signature(_fit_linear_margin).parameters
        (w1, b1), (w2, b2) = (_fit_linear_margin(data.features, y_signed) for _ in range(2))
        assert w1.tobytes() == w2.tobytes() and b1 == b2

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("minority_center", [[8, 8], [8, 0]])
    def test_the_svm_margin_separates_distant_blobs(self, seed, minority_center):
        data = blob_dataset(np.random.default_rng(seed), {0: 60, 1: 20},
                            {0: [0, 0], 1: minority_center}, spread=0.5)
        y_signed = np.where(data.labels == 1, 1.0, -1.0)
        w, b = _fit_linear_margin(data.features, y_signed)
        assert np.all(y_signed * (data.features @ w + b) > 0.0)

    def test_adasyn_allocates_only_to_boundary_points(self):
        # cluster A sits inside majority territory, cluster B is far away and
        # purely minority: every synthetic must be generated around A
        rng = np.random.default_rng(6)
        a_minority = rng.normal(loc=[0.0, 0.0], scale=0.5, size=(8, 2))
        majority = rng.normal(loc=[0.0, 0.0], scale=0.5, size=(30, 2))
        b_minority = rng.normal(loc=[40.0, 40.0], scale=0.5, size=(8, 2))
        X = np.vstack([a_minority, majority, b_minority])
        y = np.array([1] * 8 + [0] * 30 + [1] * 8)
        data = make_dataset(X, y)
        out = oversample(data, ResamplePlan("adasyn", k_neighbors=5), 9)
        synth = out.features[data.n_instances:]
        assert len(synth) == 30 - 16
        dist_to_a = np.linalg.norm(synth - np.array([0.0, 0.0]), axis=1)
        assert np.all(dist_to_a < 20.0)

    def test_adasyn_interior_minority_falls_back_to_uniform(self):
        # no minority point has an other-class neighbor; counts must still
        # land exactly on target via the uniform fallback
        rng = np.random.default_rng(7)
        data = blob_dataset(rng, {0: 40, 1: 15}, {0: [0, 0], 1: [50, 50]},
                            spread=0.5)
        out = oversample(data, ResamplePlan("adasyn", k_neighbors=5), 3)
        assert out.class_counts() == {0: 40, 1: 40}

    @pytest.mark.parametrize("seed", range(4))
    def test_adasyn_gives_each_row_its_budget_on_its_neighbor_segments(self, seed):
        """Each minority row gets its share of the class's synthetic rows in
        proportion to the other-class rows among its k nearest (uniform when
        there are none), rounded by largest remainder, and each of its
        synthetic rows steps from it a fraction in [0, 1) of the way to one
        of its k nearest minority neighbours."""
        rng = np.random.default_rng(100 + seed)
        spread = (0.4, 1.0, 1.5, 3.0)[seed]  # from interior classes to mixed ones
        data = blob_dataset(rng, {0: 70, 1: 23, 2: 11},
                            {0: [0, 0, 0], 1: [2, 0, 1], 2: [-2, 1, 0]}, spread=spread)
        k = 3 + seed
        out = oversample(data, ResamplePlan("adasyn", k_neighbors=k), seed)
        assert out.class_counts() == {0: 70, 1: 70, 2: 70}
        X, y = data.features, data.labels
        synthetic = out.features[data.n_instances:]
        for cls in (1, 2):
            members = np.flatnonzero(y == cls)
            need = 70 - members.size
            others = np.array([sum(y[j] != cls for j in brute_force_knn(X[i], X, k + 1)
                                   if j != i) for i in members], dtype=np.float64)
            if others.sum():
                quotas = others / others.sum() * need
            else:
                quotas = np.full(members.size, 1.0 / members.size) * need
            budget = np.floor(quotas).astype(int)
            for i in sorted(range(members.size),
                            key=lambda i: -(quotas[i] - budget[i]))[:need - budget.sum()]:
                budget[i] += 1
            rows, synthetic = synthetic[:need], synthetic[need:]
            x_min = X[members]
            neighbors = minority_neighbor_sets(x_min, k)
            for base, row in zip(np.repeat(np.arange(members.size), budget), rows,
                                 strict=True):
                steps = [((row - x_min[base]) @ (x_min[j] - x_min[base])
                          / np.sum((x_min[j] - x_min[base]) ** 2), j)
                         for j in neighbors[base]]
                assert any(-1e-12 <= u < 1.0 and np.allclose(
                    row, x_min[base] + u * (x_min[j] - x_min[base]), rtol=0, atol=1e-9)
                    for u, j in steps), (cls, base)

    def test_borderline_without_danger_points_is_an_error(self):
        rng = np.random.default_rng(8)
        data = blob_dataset(rng, {0: 40, 1: 15}, {0: [0, 0], 1: [50, 50]},
                            spread=0.5)
        with pytest.raises(DataError):
            oversample(data, ResamplePlan("borderline_smote", k_neighbors=5), 0)

    def test_minority_smaller_than_k_rejected(self):
        rng = np.random.default_rng(9)
        data = blob_dataset(rng, {0: 30, 1: 4}, {0: [0, 0], 1: [5, 5]})
        with pytest.raises(DataError):
            oversample(data, ResamplePlan("smote", k_neighbors=5), 0)

    def test_random_over_duplicates_existing_rows(self):
        rng = np.random.default_rng(10)
        data = blob_dataset(rng, {0: 25, 1: 10}, {0: [0, 0], 1: [5, 5]})
        out = oversample(data, ResamplePlan("random_over"), 1)
        originals = {tuple(row) for row in data.features[data.labels == 1]}
        for row in out.features[data.n_instances:]:
            assert tuple(row) in originals

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(11)
        data = blob_dataset(rng, {0: 30, 1: 12}, {0: [0, 0], 1: [3, 3]})
        a = oversample(data, ResamplePlan("smote"), 42)
        b = oversample(data, ResamplePlan("smote"), 42)
        c = oversample(data, ResamplePlan("smote"), 43)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)


class TestNearMiss:
    def test_one_dimensional_example(self):
        # majority {0, 1, 10} against reference {2}, keep 2 -> {0, 1}
        data = make_dataset([[0.0], [1.0], [10.0], [2.0]], [0, 0, 0, 1])
        out = apply_plan(data, ResamplePlan("nearmiss", target_counts={0: 2}), 0)
        kept = sorted(out.features[out.labels == 0][:, 0].tolist())
        assert kept == [0.0, 1.0]

    def test_matches_brute_force_oracle_every_version(self):
        rng = np.random.default_rng(12)
        for version in (1, 2, 3):
            for trial in range(8):
                data = blob_dataset(rng, {0: 40, 1: 12},
                                    {0: [0, 0], 1: [2, 2]}, spread=1.5)
                maj_rows = data.features[data.labels == 0]
                ref_rows = data.features[data.labels == 1]
                keep = int(rng.integers(4, 12))
                plan = ResamplePlan("nearmiss", target_counts={0: keep}, nearmiss_version=version)
                out = apply_plan(data, plan, 0)
                kept_rows = out.features[out.labels == 0]
                expected = nearmiss_oracle(maj_rows, ref_rows, keep, version, 3)
                assert np.array_equal(kept_rows, maj_rows[expected]), (version, trial)

    def test_version_3_matches_the_widening_oracle_on_short_candidate_sets(self):
        rng = np.random.default_rng(16)
        for trial in range(8):
            data = blob_dataset(rng, {0: 40, 1: 6}, {0: [0, 0], 1: [6, 6]}, spread=1.0)
            maj_rows = data.features[data.labels == 0]
            ref_rows = data.features[data.labels == 1]
            keep = int(rng.integers(19, 40))  # beyond the 6 * 3 rows n_ref nominates
            n_ref = int(rng.integers(1, 4))
            plan = ResamplePlan("nearmiss", target_counts={0: keep}, nearmiss_version=3,
                                n_ref=n_ref)
            out = apply_plan(data, plan, 0)
            expected = nearmiss_oracle(maj_rows, ref_rows, keep, 3, n_ref)
            assert np.array_equal(out.features[out.labels == 0], maj_rows[expected]), trial

    def test_version_3_widens_a_short_candidate_set_to_the_target(self):
        # one reference point with n_ref 1 nominates a single majority row; the
        # first stage widens to its 3 nearest, which leaves out the row at 10
        data = make_dataset([[0.0], [1.0], [2.0], [10.0], [0.4]], [0, 0, 0, 0, 1])
        plan = ResamplePlan("nearmiss", target_counts={0: 3}, nearmiss_version=3, n_ref=1)
        out = apply_plan(data, plan, 0)
        assert sorted(out.features[out.labels == 0][:, 0].tolist()) == [0.0, 1.0, 2.0]

    def test_non_majority_rows_untouched(self):
        rng = np.random.default_rng(13)
        data = blob_dataset(rng, {0: 30, 1: 10, 2: 8},
                            {0: [0, 0], 1: [3, 3], 2: [-3, 3]})
        # class 2 is the smallest, so it is class 0's reference
        out = apply_plan(data, ResamplePlan("nearmiss", target_counts={0: 5}), 0)
        assert np.array_equal(out.features[out.labels == 1],
                              data.features[data.labels == 1])
        assert np.array_equal(out.features[out.labels == 2],
                              data.features[data.labels == 2])

    def test_default_reference_is_smallest_other_class(self):
        data = make_dataset([[0.0], [1.0], [10.0], [2.0], [7.0], [8.0]],
                            [0, 0, 0, 1, 2, 2])
        # smallest other class is 1 (one member at 2.0): keep {0, 1}
        out = apply_plan(data, ResamplePlan("nearmiss", target_counts={0: 2}), 0)
        kept = sorted(out.features[out.labels == 0][:, 0].tolist())
        assert kept == [0.0, 1.0]

    def test_version_3_widens_to_the_least_width_that_holds_the_target(self):
        # a single reference point nominates one row (n_ref is capped at the
        # reference class's size); the search doubles to its 8 nearest, and
        # the first stage keeps the 7 nearest, so rows 7 to 9 are never
        # candidates and the farthest candidates are kept
        data = make_dataset([[float(i)] for i in range(10)] + [[0.5]],
                            [0] * 10 + [1])
        plan = ResamplePlan("nearmiss", target_counts={0: 7}, nearmiss_version=3, n_ref=3)
        out = apply_plan(data, plan, 0)
        assert out.features[out.labels == 0][:, 0].tolist() == [float(i) for i in range(7)]

    def test_target_above_class_size_rejected(self):
        data = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(DataError):
            apply_plan(data, ResamplePlan("nearmiss", target_counts={0: 5}), 0)


class TestRandomUnder:
    def test_kept_rows_are_a_subset_in_original_order(self):
        rng = np.random.default_rng(14)
        data = blob_dataset(rng, {0: 40, 1: 10}, {0: [0, 0], 1: [4, 4]})
        out = apply_plan(data, ResamplePlan("random_under", target_counts={0: 15}), 0)
        assert out.class_counts() == {0: 15, 1: 10}
        pool = {tuple(row) for row in data.features[data.labels == 0]}
        assert all(tuple(row) in pool for row in out.features[out.labels == 0])
        # original relative order preserved
        kept_all = [tuple(r) for r in out.features]
        positions = [[tuple(r) for r in data.features].index(row) for row in kept_all]
        assert positions == sorted(positions)


class TestNearMissReference:
    """Which class's rows NearMiss ranks a class against, in apply_plan.
    Each case lists (label, value) rows of one feature, in row order."""

    @staticmethod
    def run(rows, targets=None, n_ref=3):
        data = make_dataset([[v] for _, v in rows], [c for c, _ in rows])
        plan = ResamplePlan("nearmiss", target_counts=targets, n_ref=n_ref)
        out = apply_plan(data, plan, 0)
        return list(zip(out.labels.tolist(), out.features[:, 0].tolist()))

    def test_a_reduced_class_that_ties_the_smallest_does_not_replace_it(self):
        # class 0 is cut to 2 rows first, tying class 2; class 1's reference
        # is still class 2 ({10, 11}), not class 0's kept rows ({3, 4}),
        # against which it would keep {5, 6}
        rows = [(0, 0.0), (1, 5.0), (0, 1.0), (2, 10.0), (1, 6.0), (0, 2.0),
                (1, 7.0), (0, 3.0), (2, 11.0), (1, 8.0), (0, 4.0)]
        assert self.run(rows) == [(2, 10.0), (1, 7.0), (0, 3.0), (2, 11.0), (1, 8.0),
                                  (0, 4.0)]

    def test_targets_that_reduce_the_smallest_class(self):
        # class 0 (smallest) goes first, against the smaller other class, 2,
        # and keeps 30; classes 1 and 2 then rank against that one kept row,
        # so class 1 keeps {25, 26}, where all three rows of class 0 would
        # give {-3, 26}
        rows = [(0, 0.0), (1, -3.0), (2, 33.0), (0, 30.0), (1, 25.0), (2, 34.0),
                (1, 26.0), (0, 40.0), (1, 60.0), (2, 80.0), (1, 70.0), (2, 90.0)]
        got = self.run(rows, {0: 1, 1: 2, 2: 3}, n_ref=1)
        assert got == [(2, 33.0), (0, 30.0), (1, 25.0), (2, 34.0), (1, 26.0), (2, 80.0)]

    def test_a_class_cut_to_no_rows_is_no_reference(self):
        # class 0 is cut to nothing, so the smallest class, 2, ranks against
        # class 1's kept rows {20, 50, 51} and keeps 60
        rows = [(0, 0.0), (1, 20.0), (2, 10.0), (0, 1.0), (1, 21.0), (2, 40.0),
                (0, 2.0), (1, 22.0), (2, 60.0), (0, 3.0), (1, 50.0), (1, 51.0)]
        got = self.run(rows, {0: 0, 1: 3, 2: 1}, n_ref=1)
        assert got == [(1, 20.0), (2, 60.0), (1, 50.0), (1, 51.0)]

    def test_no_reference_left_is_a_data_error(self):
        rows = [(0, 0.0), (0, 1.0), (0, 2.0), (0, 3.0), (1, 20.0), (1, 21.0),
                (1, 22.0), (1, 50.0), (1, 51.0), (2, 10.0), (2, 40.0), (2, 60.0)]
        with pytest.raises(DataError, match="^nearmiss needs at least two classes$"):
            self.run(rows, {0: 0, 1: 0, 2: 1})
        # class 0 is now the smallest: cut to nothing, it leaves class 1 none
        with pytest.raises(DataError, match="^reference class 0 not present$"):
            self.run(rows[1:], {0: 0, 1: 2})


class TestApplyPlan:
    def test_oversampler_and_undersampler_targets(self):
        rng = np.random.default_rng(15)
        # overlap keeps borderline_smote viable for every minority class
        data = blob_dataset(rng, {0: 50, 1: 30, 2: 14},
                            {0: [0, 0], 1: [1.5, 0], 2: [-1.5, 0]}, spread=1.2)
        for method in sorted(OVERSAMPLERS):
            out = apply_plan(data, ResamplePlan(method), 1)
            assert out.class_counts() == {0: 50, 1: 50, 2: 50}, method
        for method in sorted(UNDERSAMPLERS):
            out = apply_plan(data, ResamplePlan(method), 1)
            assert out.class_counts() == {0: 14, 1: 14, 2: 14}, method

    def test_partial_targets_leave_other_classes_alone(self):
        rng = np.random.default_rng(16)
        data = blob_dataset(rng, {0: 50, 1: 30, 2: 14},
                            {0: [0, 0], 1: [4, 4], 2: [-4, 4]})
        out = apply_plan(data, ResamplePlan("smote", target_counts={2: 30}), 2)
        assert out.class_counts() == {0: 50, 1: 30, 2: 30}

    @pytest.mark.parametrize("method", ["smote", "random_over", "adasyn"])
    def test_an_oversampler_target_for_a_class_with_no_rows_is_a_data_error(self, method):
        rng = np.random.default_rng(17)
        data = blob_dataset(rng, {0: 12, 2: 6}, {0: [0, 0], 2: [1, 1]}, spread=1.5)
        plan = ResamplePlan(method, target_counts={1: 10, 2: 12})
        with pytest.raises(DataError, match="^oversampler target 10 for class 1, which has "
                                            "no rows$"):
            apply_plan(data, plan, 0)
        out = apply_plan(data, ResamplePlan(method, target_counts={1: 0, 2: 12}), 0)
        assert out.class_counts() == {0: 12, 2: 12}
