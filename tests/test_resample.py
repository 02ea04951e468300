"""Oversamplers (SMOTE family, ADASYN, random), NearMiss undersampling, k-NN."""

import numpy as np
import pytest

from readmitlab.errors import DataError
from readmitlab.resample import (
    OVERSAMPLERS,
    UNDERSAMPLERS,
    ResamplePlan,
    apply_plan,
    knn,
    nearmiss_undersample,
    oversample,
    random_undersample,
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
        up = ResamplePlan("smote", seed=0).resolved_targets(counts)
        assert up == {0: 50, 1: 50, 2: 50}
        down = ResamplePlan("nearmiss", seed=0).resolved_targets(counts)
        assert down == {0: 10, 1: 10, 2: 10}

    def test_explicit_targets_validated(self):
        with pytest.raises(ValueError):
            ResamplePlan("smote", seed=0,
                         target_counts={0: 5}).resolved_targets({0: 10, 1: 3})
        with pytest.raises(ValueError):
            ResamplePlan("nearmiss", seed=0,
                         target_counts={0: 20}).resolved_targets({0: 10, 1: 3})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ResamplePlan("mixup", seed=0)


class TestOversamplers:
    def test_two_point_minority_synthesizes_on_the_diagonal(self):
        # minority {(0,0), (1,1)} with k=1: every synthetic is (t, t), 0<=t<=1
        X = np.vstack([np.array([[0.0, 0.0], [1.0, 1.0]]),
                       np.array([[8.0, 9.0]]) + np.arange(6)[:, None]])
        y = np.array([1, 1, 0, 0, 0, 0, 0, 0])
        data = make_dataset(X, y)
        out = oversample(data, ResamplePlan("smote", seed=5, k_neighbors=1))
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
            plan = ResamplePlan(method, seed=trial, k_neighbors=5)
            out = oversample(data, plan)
            assert out.class_counts() == {0: 60, 1: 60, 2: 60}, method

    def test_original_rows_preserved_in_order(self):
        rng = np.random.default_rng(2)
        data = blob_dataset(rng, {0: 30, 1: 10}, {0: [0, 0], 1: [5, 5]})
        out = oversample(data, ResamplePlan("smote", seed=0))
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
            out = oversample(data, ResamplePlan(method, seed=7, k_neighbors=k))
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
        out = oversample(data, ResamplePlan("svm_smote", seed=11, k_neighbors=k))
        x_min = data.features[data.labels == 1]
        neighbor_sets = minority_neighbor_sets(x_min, k)
        synth = out.features[data.n_instances:]
        for row in synth:
            assert min_segment_residual(row, x_min, neighbor_sets,
                                        mirrored=True) <= 1e-9

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
        out = oversample(data, ResamplePlan("adasyn", seed=9, k_neighbors=5))
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
        out = oversample(data, ResamplePlan("adasyn", seed=3, k_neighbors=5))
        assert out.class_counts() == {0: 40, 1: 40}

    def test_borderline_without_danger_points_is_an_error(self):
        rng = np.random.default_rng(8)
        data = blob_dataset(rng, {0: 40, 1: 15}, {0: [0, 0], 1: [50, 50]},
                            spread=0.5)
        with pytest.raises(DataError):
            oversample(data, ResamplePlan("borderline_smote", seed=0, k_neighbors=5))

    def test_minority_smaller_than_k_rejected(self):
        rng = np.random.default_rng(9)
        data = blob_dataset(rng, {0: 30, 1: 4}, {0: [0, 0], 1: [5, 5]})
        with pytest.raises(DataError):
            oversample(data, ResamplePlan("smote", seed=0, k_neighbors=5))

    def test_random_over_duplicates_existing_rows(self):
        rng = np.random.default_rng(10)
        data = blob_dataset(rng, {0: 25, 1: 10}, {0: [0, 0], 1: [5, 5]})
        out = oversample(data, ResamplePlan("random_over", seed=1))
        originals = {tuple(row) for row in data.features[data.labels == 1]}
        for row in out.features[data.n_instances:]:
            assert tuple(row) in originals

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(11)
        data = blob_dataset(rng, {0: 30, 1: 12}, {0: [0, 0], 1: [3, 3]})
        a = oversample(data, ResamplePlan("smote", seed=42))
        b = oversample(data, ResamplePlan("smote", seed=42))
        c = oversample(data, ResamplePlan("smote", seed=43))
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)


class TestNearMiss:
    def test_one_dimensional_example(self):
        # majority {0, 1, 10} against reference {2}, keep 2 -> {0, 1}
        data = make_dataset([[0.0], [1.0], [10.0], [2.0]], [0, 0, 0, 1])
        out = nearmiss_undersample(data, majority_class=0, target_count=2)
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
                try:
                    out = nearmiss_undersample(data, 0, keep, version=version)
                except DataError:
                    # version 3's candidate pool can undershoot the target
                    expected = nearmiss_oracle(maj_rows, ref_rows, keep, 3, 3)
                    assert len(set(expected)) >= len(expected)
                    continue
                kept_rows = out.features[out.labels == 0]
                expected = nearmiss_oracle(maj_rows, ref_rows, keep, version, 3)
                assert np.array_equal(kept_rows, maj_rows[expected]), (version, trial)

    def test_version_3_short_candidate_set_names_the_fields_to_set(self):
        # one reference point with n_ref 1 nominates a single majority row
        data = make_dataset([[0.0], [1.0], [2.0], [10.0], [0.4]], [0, 0, 0, 0, 1])
        with pytest.raises(DataError) as err:
            nearmiss_undersample(data, 0, 3, version=3, n_ref=1)
        assert str(err.value) == (
            "nearmiss-3 candidate set of 1 is smaller than target 3; raise "
            "resample.n_ref (now 1) or set resample.target_counts")

    def test_non_majority_rows_untouched(self):
        rng = np.random.default_rng(13)
        data = blob_dataset(rng, {0: 30, 1: 10, 2: 8},
                            {0: [0, 0], 1: [3, 3], 2: [-3, 3]})
        out = nearmiss_undersample(data, 0, 5, reference_class=2)
        assert np.array_equal(out.features[out.labels == 1],
                              data.features[data.labels == 1])
        assert np.array_equal(out.features[out.labels == 2],
                              data.features[data.labels == 2])

    def test_default_reference_is_smallest_other_class(self):
        data = make_dataset([[0.0], [1.0], [10.0], [2.0], [7.0], [8.0]],
                            [0, 0, 0, 1, 2, 2])
        # smallest other class is 1 (one member at 2.0): keep {0, 1}
        out = nearmiss_undersample(data, 0, 2)
        kept = sorted(out.features[out.labels == 0][:, 0].tolist())
        assert kept == [0.0, 1.0]

    def test_version_3_candidate_shortage_is_an_error(self):
        # a single reference point yields at most n_ref candidates
        data = make_dataset([[float(i)] for i in range(10)] + [[0.5]],
                            [0] * 10 + [1])
        with pytest.raises(DataError):
            nearmiss_undersample(data, 0, target_count=8, version=3, n_ref=3)

    def test_target_above_class_size_rejected(self):
        data = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(DataError):
            nearmiss_undersample(data, 0, 5)


class TestRandomUnder:
    def test_kept_rows_are_a_subset_in_original_order(self):
        rng = np.random.default_rng(14)
        data = blob_dataset(rng, {0: 40, 1: 10}, {0: [0, 0], 1: [4, 4]})
        out = random_undersample(data, 0, 15, np.random.default_rng(0))
        assert out.class_counts() == {0: 15, 1: 10}
        pool = {tuple(row) for row in data.features[data.labels == 0]}
        assert all(tuple(row) in pool for row in out.features[out.labels == 0])
        # original relative order preserved
        kept_all = [tuple(r) for r in out.features]
        positions = [[tuple(r) for r in data.features].index(row) for row in kept_all]
        assert positions == sorted(positions)


class TestApplyPlan:
    def test_oversampler_and_undersampler_targets(self):
        rng = np.random.default_rng(15)
        # overlap keeps borderline_smote viable for every minority class
        data = blob_dataset(rng, {0: 50, 1: 30, 2: 14},
                            {0: [0, 0], 1: [1.5, 0], 2: [-1.5, 0]}, spread=1.2)
        for method in sorted(OVERSAMPLERS):
            out = apply_plan(data, ResamplePlan(method, seed=1))
            assert out.class_counts() == {0: 50, 1: 50, 2: 50}, method
        for method in sorted(UNDERSAMPLERS):
            out = apply_plan(data, ResamplePlan(method, seed=1))
            assert out.class_counts() == {0: 14, 1: 14, 2: 14}, method

    def test_partial_targets_leave_other_classes_alone(self):
        rng = np.random.default_rng(16)
        data = blob_dataset(rng, {0: 50, 1: 30, 2: 14},
                            {0: [0, 0], 1: [4, 4], 2: [-4, 4]})
        plan = ResamplePlan("smote", seed=2, target_counts={2: 30})
        out = apply_plan(data, plan)
        assert out.class_counts() == {0: 50, 1: 30, 2: 30}
