"""Univariate feature scoring (chi-square, Pearson, ANOVA F) and selection."""

import re

import numpy as np
import pytest

from readmitlab.errors import DataError
from readmitlab.features import (
    SCORERS,
    Selection,
    anova_f_scores,
    chi_square_scores,
    pearson_scores,
    per_class_stats,
    select_k_best,
)

from helpers import make_dataset


def balanced_nine_instance_toy():
    """Nine rows, three per class; feature 0 is a clean class-1 indicator."""
    labels = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
    indicator = (labels == 1).astype(float)
    rng = np.random.default_rng(4)
    noise = rng.random((9, 2))
    X = np.column_stack([indicator, noise])
    return make_dataset(X, labels, names=("indicator", "n1", "n2"))


class TestChiSquare:
    def test_class_indicator_scores_strictly_highest(self):
        table = chi_square_scores(balanced_nine_instance_toy())
        assert table.ranks[0] == 1
        assert table.scores[0] > max(table.scores[1], table.scores[2])

    def test_indicator_statistic_value(self):
        # observed per class (0, 3, 0) against a uniform expectation of 1
        # gives (0-1)^2/1 + (3-1)^2/1 + (0-1)^2/1 = 6
        table = chi_square_scores(balanced_nine_instance_toy())
        assert table.scores[0] == pytest.approx(6.0, abs=1e-12)

    def test_matches_plain_loop_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.random((40, 5))
        y = rng.integers(0, 3, size=40)
        table = chi_square_scores(make_dataset(X, y))
        for j in range(5):
            total = X[:, j].sum()
            expected_stat = 0.0
            for cls in (0, 1, 2):
                prior = (y == cls).mean()
                observed = X[y == cls, j].sum()
                expected = prior * total
                expected_stat += (observed - expected) ** 2 / expected
            assert table.scores[j] == pytest.approx(expected_stat, rel=1e-12)

    def test_negative_values_rejected_naming_feature(self):
        data = make_dataset([[0.5, -0.1], [0.2, 0.3]], [0, 1], names=("ok", "neg"))
        with pytest.raises(DataError) as err:
            chi_square_scores(data)
        assert "neg" in str(err.value)

    def test_zero_sum_column_excluded(self):
        data = make_dataset([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]], [0, 1, 2])
        table = chi_square_scores(data)
        assert 0 in table.excluded
        assert np.isnan(table.scores[0])
        assert table.ranks[0] == 0

    def test_rank_changes_under_feature_rescaling(self):
        # chi-square of a nonnegative feature scales with the feature itself,
        # so a x1000 rescale can overtake a formerly higher-ranked feature
        labels = np.repeat([0, 1, 2], 4)
        strong = np.where(labels == 1, 1.0, 0.1)
        weak = np.where(labels == 2, 0.012, 0.010)
        data = make_dataset(np.column_stack([strong, weak]), labels,
                            names=("strong", "weak"))
        before = chi_square_scores(data)
        assert before.ranks[0] == 1
        boosted = data.features.copy()
        boosted[:, 1] *= 1e5
        after = chi_square_scores(make_dataset(boosted, labels,
                                               names=("strong", "weak")))
        assert after.ranks[0] != 1


class TestPearson:
    def test_label_copy_feature_has_unit_correlation(self):
        labels = np.array([0, 1, 2, 0, 1, 2, 1, 0])
        X = np.column_stack([labels.astype(float), np.ones(8) * 2.0])
        table = pearson_scores(make_dataset(X, labels))
        assert table.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonalized_feature_scores_zero(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=50)
        yc = labels - labels.mean()
        v = rng.normal(size=50)
        v_orth = v - (v @ yc) / (yc @ yc) * yc
        X = np.column_stack([v_orth, rng.normal(size=50)])
        table = pearson_scores(make_dataset(X, labels))
        assert abs(table.scores[0]) <= 1e-12

    def test_zero_variance_excluded(self):
        data = make_dataset([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]], [0, 1, 2])
        table = pearson_scores(data)
        assert 0 in table.excluded

    def test_paper_exclusion_drops_zero_mean_columns(self):
        labels = np.array([0, 1, 2, 0])
        zero_mean = np.array([-1.0, 1.0, -2.0, 2.0])
        X = np.column_stack([zero_mean, labels.astype(float) + 1.0])
        data = make_dataset(X, labels, names=("centered", "shifted"))
        default = pearson_scores(data)
        assert 0 not in default.excluded
        compat = pearson_scores(data, paper_exclusion=True)
        assert 0 in compat.excluded

    def test_constant_labels_rejected(self):
        data = make_dataset([[1.0], [2.0]], [1, 1])
        with pytest.raises(DataError):
            pearson_scores(data)

    def test_rank_stable_under_positive_rescaling(self):
        rng = np.random.default_rng(6)
        X = rng.random((30, 4))
        y = rng.integers(0, 3, size=30)
        before = pearson_scores(make_dataset(X, y))
        scaled = X.copy()
        scaled[:, 2] *= 1000.0
        after = pearson_scores(make_dataset(scaled, y))
        assert np.array_equal(before.ranks, after.ranks)


class TestAnovaF:
    def test_zero_within_class_variance_ranks_first(self):
        labels = np.repeat([0, 1, 2], 4)
        pure = labels.astype(float) * 2.0   # constant inside each class
        rng = np.random.default_rng(7)
        X = np.column_stack([rng.random(12), pure, rng.random(12)])
        table = anova_f_scores(make_dataset(X, labels))
        assert np.isinf(table.scores[1])
        assert table.ranks[1] == 1

    def test_three_class_four_instance_oracle(self):
        labels = np.repeat([0, 1, 2], 4)
        rng = np.random.default_rng(10)
        X = rng.random((12, 3))
        table = anova_f_scores(make_dataset(X, labels))
        n, classes = 12, (0, 1, 2)
        for j in range(3):
            col = X[:, j]
            grand = col.mean()
            ss_between = sum((col[labels == c].mean() - grand) ** 2 * 4 for c in classes)
            ss_within = sum(((col[labels == c] - col[labels == c].mean()) ** 2).sum()
                            for c in classes)
            f_value = (ss_between / 2) / (ss_within / (n - 3))
            assert table.scores[j] == pytest.approx(f_value, rel=1e-12)

    def test_zero_total_variance_excluded(self):
        data = make_dataset([[4.0, 1.0], [4.0, 2.0], [4.0, 3.0]], [0, 1, 2])
        table = anova_f_scores(data)
        assert 0 in table.excluded

    def test_rank_stable_under_positive_rescaling(self):
        rng = np.random.default_rng(11)
        X = rng.random((36, 4))
        y = rng.integers(0, 3, size=36)
        before = anova_f_scores(make_dataset(X, y))
        scaled = X.copy()
        scaled[:, 0] *= 1000.0
        after = anova_f_scores(make_dataset(scaled, y))
        assert np.array_equal(before.ranks, after.ranks)


class TestSelectKBest:
    def test_returns_sorted_column_indices(self):
        table = chi_square_scores(balanced_nine_instance_toy())
        assert select_k_best(table, 1) == [0]
        picked = select_k_best(table, 2)
        assert picked == sorted(picked)

    def test_nested_selections(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            X = rng.random((40, 7))
            y = rng.integers(0, 3, size=40)
            data = make_dataset(X, y)
            for scorer in SCORERS.values():
                table = scorer(data)
                for k in range(1, 7):
                    assert set(select_k_best(table, k)) <= set(select_k_best(table, k + 1))

    def test_ties_go_to_the_lower_column_and_excluded_features_are_never_picked(self):
        # columns 1 and 3 copy column 0, and columns 2 and 5 are all zero
        rng = np.random.default_rng(13)
        y = np.repeat([0, 1, 2], 6)
        base, other = y + rng.random(18), rng.random(18)
        X = np.column_stack([base, base, np.zeros(18), base, other, np.zeros(18)])
        data = make_dataset(X, y)
        for scorer in SCORERS.values():
            table = scorer(data)
            available = [i for i in range(6) if i not in table.excluded]
            assert set(table.excluded) >= {2, 5}
            for k in range(1, len(available) + 1):
                # the (-score, column) order that _rank_table ranks by
                want = sorted(available, key=lambda i: (-table.scores[i], i))[:k]
                assert select_k_best(table, k) == sorted(want)
            assert select_k_best(table, 2) == [0, 1]

    def test_k_beyond_available_rejected(self):
        data = make_dataset([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]], [0, 1, 2])
        table = chi_square_scores(data)  # column 0 excluded (zero sum)
        with pytest.raises(DataError):
            select_k_best(table, 2)

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_k_below_one_rejected(self, k):
        table = chi_square_scores(balanced_nine_instance_toy())
        with pytest.raises(ValueError, match="at least 1"):
            select_k_best(table, k)


class TestSelection:
    def test_paper_exclusion_reaches_pearson_alone(self):
        # column 1 is zero-mean but varies; pearson drops it only with the flag
        y = np.repeat([0, 1, 2], 4)
        X = np.column_stack([y + 0.5, np.tile([-1.0, 1.0], 6)])
        data = make_dataset(X, y)
        table = Selection("pearson", 1, paper_exclusion=True).scores(data)
        assert table.excluded == {1: "zero-mean"}
        assert Selection("pearson", 1).scores(data).excluded == {}
        # anova_f takes no such keyword; SCORER_SETTINGS keeps it from anova_f
        table = Selection("anova_f", 1, paper_exclusion=True).scores(data)
        assert table.scores.tobytes() == anova_f_scores(data).scores.tobytes()

    @pytest.mark.parametrize("fields, message", [
        ({"method": "mutual_info", "k": 2}, "unknown feature scorer 'mutual_info'; "
                                             "expected one of ('chi2', 'pearson', 'anova_f')"),
        ({"method": None, "k": 2}, "unknown feature scorer None; "
                                   "expected one of ('chi2', 'pearson', 'anova_f')"),
        ({"method": "chi2", "k": None}, "k must be an integer, got None"),
        ({"method": "chi2", "k": 2.5}, "k must be an integer, got 2.5"),
        ({"method": "chi2", "k": "3"}, "k must be an integer, got '3'"),
        ({"method": "chi2", "k": True}, "k must be an integer, got True"),
        ({"method": "pearson", "k": 2, "paper_exclusion": "yes"},
         "paper_exclusion must be true or false, got 'yes'"),
        ({"method": "pearson", "k": 2, "paper_exclusion": 1},
         "paper_exclusion must be true or false, got 1"),
    ])
    def test_a_field_of_the_wrong_kind_is_rejected(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Selection(**fields)


class TestPerClassStats:
    def test_matches_numpy_mean_and_population_variance(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(45, 4))
        y = rng.integers(0, 3, size=45)
        stats = per_class_stats(make_dataset(X, y))
        assert stats.classes == (0, 1, 2)
        for i in range(4):
            for j, cls in enumerate(stats.classes):
                block = X[y == cls, i]
                assert stats.means[i, j] == pytest.approx(block.mean(), rel=1e-12)
                assert stats.variances[i, j] == pytest.approx(block.var(), rel=1e-12)

    def test_feature_subset(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 5))
        y = rng.integers(0, 3, size=30)
        data = make_dataset(X, y)
        stats = per_class_stats(data, features=[3, 1])
        assert stats.feature_names == (data.feature_names[3], data.feature_names[1])
        assert stats.means.shape == (2, 3)
