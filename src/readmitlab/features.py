"""Univariate feature scoring (chi-square, Pearson, ANOVA F) and per-class stats.

Scores are used only for ranking. Excluded features carry a reason marker
instead of a score; ranks cover the non-excluded features only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError, check_choice, is_integer

EXCLUDE_ZERO_VARIANCE = "zero-variance"
EXCLUDE_ZERO_MEAN = "zero-mean"


@dataclass(frozen=True)
class FeatureScoreTable:
    """Per-feature score and rank for one scoring method.

    `scores[i]` is NaN when feature i is excluded; `excluded[i]` then holds
    the reason. Ranks are 1..p over non-excluded features, 0 for excluded.
    """

    method: str
    feature_names: tuple[str, ...]
    scores: np.ndarray
    excluded: dict[int, str]
    ranks: np.ndarray


@dataclass(frozen=True)
class ClassStatsTable:
    """Mean and population variance per (feature, class)."""

    feature_names: tuple[str, ...]
    classes: tuple[int, ...]
    means: np.ndarray   # features x classes
    variances: np.ndarray


def _rank_table(method: str, data: Dataset, scores: np.ndarray, excluded: dict[int, str]) -> FeatureScoreTable:
    """Assign ranks 1..p to non-excluded features, ties broken by lower column index."""
    scores = np.asarray(scores, dtype=np.float64)
    keep = [i for i in range(len(scores)) if i not in excluded]
    order = sorted(keep, key=lambda i: (-scores[i], i))
    ranks = np.zeros(len(scores), dtype=np.int64)
    for r, i in enumerate(order, start=1):
        ranks[i] = r
    out_scores = scores.copy()
    for i in excluded:
        out_scores[i] = np.nan
    return FeatureScoreTable(method, data.feature_names, out_scores, dict(excluded), ranks)


def _check_sums(what: str, names: tuple[str, ...], *sums: np.ndarray) -> None:
    """Raise DataError naming the first feature for which a sum (each array
    has one entry per feature along its last axis) is not finite: finite
    values whose sums or squares overflow float64."""
    for values in sums:
        bad = ~np.isfinite(values).reshape(-1, len(names)).all(axis=0)
        if bad.any():
            raise DataError(f"{what}: a sum over feature {names[int(np.argmax(bad))]!r} "
                            "overflows float64; scale the features (drop --no-normalize)")


def chi_square_scores(data: Dataset) -> FeatureScoreTable:
    """Frequency-style chi-square of each nonnegative feature against the label.

    observed_c sums the feature over instances of class c, expected_c spreads
    the total feature sum by the class priors, and the statistic is
    sum_c (observed_c - expected_c)^2 / expected_c. Negative input is not
    permitted; normalize to [0, 1] first.
    """
    X, y = data.features, data.labels
    neg_cols = np.flatnonzero((X < 0).any(axis=0))
    if neg_cols.size:
        name = data.feature_names[int(neg_cols[0])]
        raise DataError(
            f"chi-square needs nonnegative values; feature {name!r} has negatives"
        )
    classes = data.classes()
    priors = np.array([(y == c).mean() for c in classes])
    with np.errstate(over="ignore", invalid="ignore"):
        observed = np.stack([X[y == c].sum(axis=0) for c in classes])  # classes x features
        totals = X.sum(axis=0)
        expected = priors[:, None] * totals[None, :]
        squares = (observed - expected) ** 2
    _check_sums("chi2", data.feature_names, observed, totals, squares)
    excluded = {int(i): EXCLUDE_ZERO_VARIANCE for i in np.flatnonzero(totals == 0.0)}
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0.0, squares / expected, 0.0)
    scores = terms.sum(axis=0)
    return _rank_table("chi2", data, scores, excluded)


def pearson_scores(data: Dataset, paper_exclusion: bool = False) -> FeatureScoreTable:
    """Absolute Pearson correlation of each feature against the numeric label.

    Zero-variance features are always excluded (r is undefined there). The
    `paper_exclusion` compatibility flag additionally drops zero-mean features.
    """
    X = data.features
    y = data.labels.astype(np.float64)
    yc = y - y.mean()
    y_ss = float(yc @ yc)
    if y_ss == 0.0:
        raise DataError("labels are constant; correlation is undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        col_means = X.mean(axis=0)
        Xc = X - col_means
        col_ss = (Xc**2).sum(axis=0)
        denominators = col_ss * y_ss
    _check_sums("pearson", data.feature_names, col_ss, denominators)
    excluded: dict[int, str] = {}
    for i in np.flatnonzero(col_ss == 0.0):
        excluded[int(i)] = EXCLUDE_ZERO_VARIANCE
    if paper_exclusion:
        for i in np.flatnonzero(col_means == 0.0):
            excluded.setdefault(int(i), EXCLUDE_ZERO_MEAN)
    scores = np.abs(Xc.T @ yc) / np.sqrt(np.where(col_ss == 0.0, y_ss, denominators))
    return _rank_table("pearson", data, scores, excluded)


def anova_f_scores(data: Dataset) -> FeatureScoreTable:
    """One-way F statistic with the class groups: between-class MS / within-class MS.

    Zero-variance features are excluded; zero within-class variance with
    distinct class means scores +inf and therefore ranks first.
    """
    X, y = data.features, data.labels
    classes = data.classes()
    n, _ = X.shape
    with np.errstate(over="ignore", invalid="ignore"):
        grand = X.mean(axis=0)
        ss_between = np.zeros(X.shape[1])
        ss_within = np.zeros(X.shape[1])
        for c in classes:
            block = X[y == c]
            mean_c = block.mean(axis=0)
            ss_between += block.shape[0] * (mean_c - grand) ** 2
            ss_within += ((block - mean_c) ** 2).sum(axis=0)
        total_var = ((X - grand) ** 2).sum(axis=0)
    _check_sums("anova_f", data.feature_names, ss_between, ss_within, total_var)
    excluded = {int(i): EXCLUDE_ZERO_VARIANCE for i in np.flatnonzero(total_var == 0.0)}
    df_between = max(len(classes) - 1, 1)
    df_within = max(n - len(classes), 1)
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(ms_within > 0.0, ms_between / ms_within, np.inf)
    return _rank_table("anova_f", data, scores, excluded)


SCORERS = {
    "chi2": chi_square_scores,
    "pearson": pearson_scores,
    "anova_f": anova_f_scores,
}


# the Selection fields that only some scorers read, by scorer; every other
# scorer reads none of them
SCORER_SETTINGS = {"pearson": ("paper_exclusion",)}


@dataclass(frozen=True)
class Selection:
    """Keep the k best features by one of SCORERS' methods; SCORER_SETTINGS
    names the fields only some scorers read."""

    method: str
    k: int
    paper_exclusion: bool = False

    def __post_init__(self):
        check_choice("feature scorer", self.method, SCORERS)
        if not is_integer(self.k):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if not isinstance(self.paper_exclusion, bool):
            raise ValueError("paper_exclusion must be true or false, "
                             f"got {self.paper_exclusion!r}")

    def scores(self, data: Dataset) -> FeatureScoreTable:
        return SCORERS[self.method](data, **{field: getattr(self, field)
                                             for field in SCORER_SETTINGS.get(self.method, ())})


def select_k_best(scores: FeatureScoreTable, k: int) -> list[int]:
    """Indices of the k highest-scoring features, in original column order:
    those ranked 1..k (an excluded feature's rank is 0). A k below 1 is a
    ValueError; a k beyond the ranked features is a DataError, as the rows
    decide which columns a scorer can rank."""
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    available = np.count_nonzero(scores.ranks)
    if k > available:
        raise DataError(f"k={k} exceeds the {available} non-excluded features")
    return np.flatnonzero((scores.ranks > 0) & (scores.ranks <= k)).tolist()


def per_class_stats(data: Dataset, features=None) -> ClassStatsTable:
    """Mean and population variance per (feature, class) for the given columns."""
    if data.n_instances == 0:
        raise DataError("cannot compute class stats on an empty dataset")
    if features is None:
        features = list(range(data.n_features))
    cols = list(features)
    classes = tuple(data.classes())
    means = np.zeros((len(cols), len(classes)))
    variances = np.zeros_like(means)
    for j, c in enumerate(classes):
        block = data.features[data.labels == c][:, cols]
        with np.errstate(over="ignore", invalid="ignore"):
            means[:, j] = block.mean(axis=0)
            variances[:, j] = block.var(axis=0)  # population denominator n
    names = tuple(data.feature_names[c] for c in cols)
    _check_sums("per-class stats", names, means.T, variances.T)
    return ClassStatsTable(names, classes, means, variances)
