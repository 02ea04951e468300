"""Trees grown by the histogram split search equal trees grown by a per-node
sort, node for node.

The reference grower below is an exact search: at every node it sorts each
candidate feature of the node's rows with a stable argsort and scans it. The
tables here have fewer than MAX_BINS distinct values a column, so each value
gets a bin of its own and the two searches see the same thresholds. Gini
trees and forests must match it bitwise, since their one-hot sums are exact
integers. So must regression trees on dyadic targets, whose
sums are exact too, and boosted trees on columns without tied values, where
each feature has only one sorted order. Elsewhere a regression node may sum
tied values in another order.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab import trees
from readmitlab.trees import (MIN_GAIN, ClassificationTree, GradientBoostedClassifier,
                              RandomForest, RegressionTree, _midpoint, _Node)


def reference_best_split(X, Y, rows, features, min_leaf):
    """(reduction, feature, threshold, left_rows, right_rows) or None, with a
    stable argsort of every candidate feature at the node, scored with the
    histogram search's gain from each feature's sorted cumulative sums."""
    n = rows.size
    y_node = Y[:, rows]
    k = np.arange(1, n)  # left sizes
    best, best_gain = None, MIN_GAIN
    for f in features:
        order = np.argsort(X[rows, f], kind="stable")
        xs = X[rows[order], f]
        valid = (xs[1:] > xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        csum = np.cumsum(y_node[:, order], axis=1)
        left, total = csum[:, :-1], csum[:, -1:]
        gain = ((left**2).sum(axis=0) / k + ((total - left) ** 2).sum(axis=0) / (n - k)
                - (total**2).sum(axis=0) / n)
        reduction = np.where(valid, gain, -np.inf)
        pos = int(np.argmax(reduction))
        if reduction[pos] > best_gain:
            best_gain = float(reduction[pos])
            thr = _midpoint(float(xs[pos]), float(xs[pos + 1]))
            best = (best_gain, int(f), thr, rows[order[: pos + 1]], rows[order[pos + 1 :]])
    return best


def reference_grow(X, presorted, Y, leaf_value, max_depth, min_leaf, pick_features):
    """trees._grow's contract, ignoring the bins."""

    def grow(rows, depth):
        y_node = Y[:, rows]
        if (depth >= max_depth or rows.size < 2 * min_leaf
                or np.all(y_node == y_node[:, :1])):
            return _Node(value=leaf_value(rows))
        split = reference_best_split(X, Y, rows, pick_features(), min_leaf)
        if split is None:
            return _Node(value=leaf_value(rows))
        _, f, thr, left_rows, right_rows = split
        return _Node(feature=f, threshold=thr,
                     left=grow(left_rows, depth + 1), right=grow(right_rows, depth + 1))

    return grow(np.arange(X.shape[0]), 0)


def bits(node):
    """A tree as nested tuples of its features and exact value bits."""
    if node.is_leaf:
        return (type(node.value).__name__, float(node.value).hex())
    return (node.feature, float(node.threshold).hex(), bits(node.left), bits(node.right))


def grown_both_ways(fit):
    """fit() run with the histogram search and again with the reference grower."""
    binned = fit()
    with mock.patch.object(trees, "_grow", reference_grow):
        reference = fit()
    return binned, reference


@st.composite
def tables(draw, max_rows=30, tie_free=False):
    """(X, n): columns of small codes (ties and duplicate rows), of floats, or
    copies of the column before; tie_free draws distinct floats only."""
    n = draw(st.integers(1, max_rows))
    p = draw(st.integers(1, 5))
    columns = []
    for j in range(p):
        kinds = ["floats"] if tie_free else ["codes", "floats"] + (["copy"] if j else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "codes":
            column = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        elif kind == "floats":
            # unique compares with ==, so 0.0 and -0.0 never both appear
            column = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n,
                                   unique=tie_free))
        else:
            column = columns[-1]
        columns.append(column)
    return np.array(columns, dtype=np.float64).T, n


DEPTHS = st.one_of(st.none(), st.integers(0, 5))


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_gini_trees_match_the_reference_bitwise(table, data):
    X, n = table
    y = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    max_depth = data.draw(DEPTHS)
    min_leaf = data.draw(st.integers(1, 3))
    features_per_split = data.draw(st.sampled_from(["all", "sqrt", 1, X.shape[1]]))
    seed = data.draw(st.integers(0, 2**16))

    def fit():
        return ClassificationTree(max_depth=max_depth, min_samples_leaf=min_leaf,
                                  features_per_split=features_per_split,
                                  rng=np.random.default_rng(seed)).fit(X, y)

    got, want = grown_both_ways(fit)
    assert bits(got.root) == bits(want.root)


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_forests_match_the_reference_bitwise(table, data):
    X, n = table
    y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    params = dict(
        n_trees=data.draw(st.integers(1, 4)), max_depth=data.draw(DEPTHS),
        min_samples_leaf=data.draw(st.integers(1, 3)),
        features_per_split=data.draw(st.sampled_from(["all", "sqrt", 1])),
        seed=data.draw(st.integers(0, 2**16)), bootstrap=data.draw(st.booleans()))

    got, want = grown_both_ways(lambda: RandomForest(**params).fit(X, y))
    assert [bits(t.root) for t in got.trees_] == [bits(t.root) for t in want.trees_]


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_regression_trees_on_dyadic_targets_match_the_reference_bitwise(table, data):
    X, n = table
    codes = data.draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
    y = np.array(codes, dtype=np.float64) * 2.0 ** -data.draw(st.integers(0, 40))
    max_depth = data.draw(st.integers(0, 5))
    min_leaf = data.draw(st.integers(1, 3))

    got, want = grown_both_ways(
        lambda: RegressionTree(max_depth=max_depth, min_samples_leaf=min_leaf).fit(X, y))
    assert bits(got.root) == bits(want.root)


@settings(max_examples=60, deadline=None)
@given(tables(max_rows=40, tie_free=True), st.data())
def test_boosting_on_tie_free_columns_matches_the_reference_bitwise(table, data):
    X, n = table
    y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    params = dict(n_rounds=data.draw(st.integers(1, 4)),
                  max_depth=data.draw(st.integers(1, 3)),
                  min_samples_leaf=data.draw(st.integers(1, 3)))

    got, want = grown_both_ways(lambda: GradientBoostedClassifier(**params).fit(X, y))
    assert got.to_dict() == want.to_dict()


@settings(max_examples=200, deadline=None)
@given(tables(), st.data())
def test_a_regression_fit_gives_each_training_row_the_leaf_predict_routes_it_to(table, data):
    X, n = table
    y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n)))
    tree = RegressionTree(max_depth=data.draw(DEPTHS.filter(lambda d: d is not None)),
                          min_samples_leaf=data.draw(st.integers(1, 3)))
    fitted = np.full(n, np.nan)
    tree.fit(X, y, _fitted=fitted)
    assert fitted.tobytes() == tree.predict(X).tobytes()


@settings(max_examples=100, deadline=None)
@given(tables(max_rows=40), st.data())
def test_boosting_on_the_fit_leaf_values_matches_routing_x_again(table, data):
    """Columns with tied values and duplicate rows: the booster that adds
    each round from the fit's own leaf values equals the one that routes the
    training rows through tree.predict, deviance and all."""
    X, n = table
    y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    params = dict(n_rounds=data.draw(st.integers(1, 4)),
                  max_depth=data.draw(st.integers(1, 3)),
                  min_samples_leaf=data.draw(st.integers(1, 3)))
    fit = RegressionTree.fit

    def routed_fit(self, X, y, _binned=None, _fitted=None):
        fit(self, X, y, _binned)
        _fitted[...] = self.predict(X)
        return self

    got = GradientBoostedClassifier(**params).fit(X, y).to_dict()
    with mock.patch.object(RegressionTree, "fit", routed_fit):
        want = GradientBoostedClassifier(**params).fit(X, y).to_dict()
    assert got == want


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("n_rounds", [1, 4, 9])
def test_a_booster_fit_bins_x_once(n_classes, n_rounds):
    rng = np.random.default_rng(n_rounds)
    X = rng.normal(size=(60, 4))
    y = np.arange(60) % n_classes
    calls = []

    def counting_bin(X):
        calls.append(X.shape)
        return bin_(X)

    bin_ = trees._bin
    with mock.patch.object(trees, "_bin", counting_bin):
        model = GradientBoostedClassifier(n_rounds=n_rounds, max_depth=2).fit(X, y)
    assert calls == [X.shape]
    assert sum(len(round_trees) for round_trees in model.trees_) == (
        n_rounds * (1 if n_classes == 2 else n_classes))


def traced_peak(fit):
    """fit()'s result and the peak bytes it allocated."""
    tracemalloc.start()
    try:
        result = fit()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_deep_tree_peaks_no_higher_than_a_stump():
    """A pending node keeps a histogram only when it holds at least a
    column's bins in rows, and pending nodes hold disjoint rows, so a tree
    tens of levels deep peaks near its root's counting: 1.4 times a stump's
    peak on this table. Keeping the histogram of every pending child would
    grow with the depth, to 3.4 times."""
    rng = np.random.default_rng(0)
    X = rng.random((4000, 20))
    y = rng.integers(0, 6, 4000)

    def stump():
        return ClassificationTree(max_depth=1).fit(X, y)

    stump()  # the first fit's one-off allocations are not the stump's
    _, stump_peak = traced_peak(stump)
    tree, peak = traced_peak(lambda: ClassificationTree().fit(X, y))

    def depth(node):
        return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

    assert depth(tree.root) > 30
    assert peak < 2 * stump_peak
    assert peak < 6 * 2 * X.nbytes  # the bound the presorted search met


def long_columns(seed: int, n: int) -> np.ndarray:
    """Columns with more than MAX_BINS distinct values: distinct floats,
    floats rounded to two places (ties all along), and floats with a value
    that holds a third of the rows."""
    rng = np.random.default_rng(seed)
    heavy = rng.normal(size=n)
    heavy[rng.random(n) < 1 / 3] = 0.25
    return np.column_stack([rng.normal(size=n), np.round(rng.normal(size=n), 2), heavy])


@pytest.mark.parametrize("seed", range(3))
def test_long_columns_bin_whole_values_in_order(seed):
    X = long_columns(seed, 600 + 300 * seed)
    codes, lo, hi = trees._bin(X)
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        assert values.size > trees.MAX_BINS
        column_codes = codes[:, j]
        # every value sits in one bin, and bins follow the values' order
        for value in values:
            assert np.unique(column_codes[X[:, j] == value]).size == 1
        order = np.argsort(X[:, j], kind="stable")
        assert np.all(np.diff(column_codes[order].astype(int)) >= 0)
        n_bins = int(column_codes.max()) + 1
        assert n_bins <= trees.MAX_BINS
        assert np.array_equal(np.unique(column_codes), np.arange(n_bins))
        for b in range(n_bins):
            in_bin = X[column_codes == b, j]
            assert (lo[j, b], hi[j, b]) == (in_bin.min(), in_bin.max())
        assert np.all(hi[j, : n_bins - 1] < lo[j, 1:n_bins])
    # without ties a bin holds about n / MAX_BINS rows
    sizes = np.bincount(codes[:, 0])
    assert sizes.max() <= -(-X.shape[0] // trees.MAX_BINS)


def reference_bin(X):
    """_bin's docstring, one value at a time: a column's sorted distinct
    values; bin r * MAX_BINS // n for a value with r rows below it when the
    column has more than MAX_BINS of them, else one bin each; the empty bins
    dropped; each bin's smallest and largest value, padded with inf."""
    n, p = X.shape
    codes = np.empty((n, p), dtype=np.uint8)
    edges = []
    for j in range(p):
        column = X[:, j].tolist()
        values = sorted(set(column))
        if len(values) > trees.MAX_BINS:
            groups = [sum(x < v for x in column) * trees.MAX_BINS // n for v in values]
        else:
            groups = list(range(len(values)))
        bin_of = {g: b for b, g in enumerate(sorted(set(groups)))}
        bins = {v: bin_of[g] for v, g in zip(values, groups)}
        codes[:, j] = [bins[x] for x in column]
        members = [[v for v in values if bins[v] == b] for b in range(len(bin_of))]
        edges.append([(m[0], m[-1]) for m in members])
    width = max((len(column_edges) for column_edges in edges), default=1)
    lo, hi = np.full((2, p, width), np.inf)
    for j, column_edges in enumerate(edges):
        lo[j, : len(column_edges)], hi[j, : len(column_edges)] = np.transpose(column_edges)
    return codes, lo, hi


@st.composite
def bin_tables(draw):
    """Tables that probe _bin's rules: one row, constant columns, exactly
    MAX_BINS and MAX_BINS + 1 distinct values, a tied value heavy enough to
    straddle a lossy bin edge, -0.0 beside 0.0, and no columns at all."""
    kind = draw(st.sampled_from(["one row", "constant", "distinct", "heavy ties",
                                 "signed zeros", "no columns"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "one row":
        return np.array([draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=4))])
    if kind == "no columns":
        return np.empty((draw(st.integers(1, 5)), 0))
    n = draw(st.integers(1, 700) if kind == "constant" else st.integers(400, 700))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if kind == "constant":
            column = np.full(n, draw(st.floats(-1e3, 1e3)))
        elif kind == "distinct":
            # every one of d distinct values appears, the rest are repeats
            values = rng.normal(size=draw(st.sampled_from([trees.MAX_BINS, trees.MAX_BINS + 1])))
            column = rng.permutation(np.concatenate(
                [values, rng.choice(values, n - values.size)]))
        elif kind == "heavy ties":
            # one value on 3 or more rows, about n / MAX_BINS or more, and
            # still more than MAX_BINS distinct values
            column = rng.normal(size=n)
            tied = rng.choice(n, draw(st.integers(3, n - trees.MAX_BINS - 1)), replace=False)
            column[tied] = draw(st.sampled_from([column.min(), 0.0, column.max()]))
        else:
            column = np.round(rng.normal(size=n), draw(st.integers(0, 3)))
            zero = rng.random(n) < draw(st.floats(0.05, 0.5))
            column[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
        columns.append(column)
    return np.column_stack(columns)


@settings(max_examples=120, deadline=None)
@given(bin_tables())
def test_bin_follows_its_docstring(X):
    codes, lo, hi = trees._bin(X)
    want_codes, want_lo, want_hi = reference_bin(X)
    assert codes.dtype == np.uint8
    assert codes.tobytes() == want_codes.tobytes()
    assert lo.shape == hi.shape == want_lo.shape
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)  # -0.0 == 0.0


@pytest.mark.parametrize("seed", range(3))
def test_on_long_columns_the_fit_leaf_values_are_what_predict_gives(seed):
    X = long_columns(seed, 600 + 300 * seed)
    y = np.random.default_rng(seed + 10).normal(size=X.shape[0]) + X[:, 2]
    for max_depth, min_leaf in ((3, 1), (8, 1), (12, 5)):
        tree = RegressionTree(max_depth=max_depth, min_samples_leaf=min_leaf)
        fitted = np.full(X.shape[0], np.nan)
        tree.fit(X, y, _fitted=fitted)
        assert fitted.tobytes() == tree.predict(X).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_on_long_columns_a_lone_all_features_forest_tree_is_a_classification_tree(seed):
    X = long_columns(seed, 600 + 300 * seed)
    y = (X[:, 0] + X[:, 1] > 0).astype(int) + (X[:, 2] == 0.25)
    params = dict(max_depth=seed + 4, min_samples_leaf=seed + 1)
    forest = RandomForest(n_trees=1, features_per_split="all", bootstrap=False,
                          **params).fit(X, y)
    tree = ClassificationTree(**params).fit(X, y)
    assert bits(forest.trees_[0].root) == bits(tree.root)
    assert np.array_equal(forest.predict(X), tree.predict(X))
