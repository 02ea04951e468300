"""Trees grown by the presorted split search equal trees grown by a per-node
sort, node for node.

The reference grower below is the search the presort replaced: at every node
it sorts each candidate feature of the node's rows with a stable argsort and
scans it. Gini trees and forests must match it bitwise, since their one-hot
sums are exact integers. So must regression trees on dyadic targets, whose
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
    stable argsort of every candidate feature at the node."""
    n = rows.size
    y_node = Y[:, rows]
    sse_node = float(((y_node - y_node.mean(axis=1, keepdims=True)) ** 2).sum())
    sq = (y_node**2).sum(axis=0)
    k = np.arange(1, n)  # left sizes
    best, best_gain = None, MIN_GAIN
    for f in features:
        order = np.argsort(X[rows, f], kind="stable")
        xs = X[rows[order], f]
        valid = (xs[1:] > xs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        csum = np.cumsum(y_node[:, order], axis=1)
        csq = np.cumsum(sq[order])
        sse_left = csq[:-1] - (csum[:, :-1] ** 2).sum(axis=0) / k
        sse_right = ((csq[-1] - csq[:-1])
                     - ((csum[:, -1:] - csum[:, :-1]) ** 2).sum(axis=0) / (n - k))
        reduction = np.where(valid, sse_node - (sse_left + sse_right), -np.inf)
        pos = int(np.argmax(reduction))
        if reduction[pos] > best_gain:
            best_gain = float(reduction[pos])
            thr = _midpoint(float(xs[pos]), float(xs[pos + 1]))
            best = (best_gain, int(f), thr, rows[order[: pos + 1]], rows[order[pos + 1 :]])
    return best


def reference_grow(X, presorted, Y, leaf_value, max_depth, min_leaf, pick_features):
    """trees._grow's contract, ignoring the presort."""

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


def grown_both_ways(fit, block):
    """fit() run with the presorted search (its scan blocks of `block` cells)
    and again with the reference grower."""
    with mock.patch.object(trees, "_BLOCK", block):
        presorted = fit()
    with mock.patch.object(trees, "_grow", reference_grow):
        reference = fit()
    return presorted, reference


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


BLOCKS = st.sampled_from([1, 16, trees._BLOCK])
DEPTHS = st.one_of(st.none(), st.integers(0, 5))


@settings(max_examples=200, deadline=None)
@given(tables(), st.data(), BLOCKS)
def test_gini_trees_match_the_reference_bitwise(table, data, block):
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

    got, want = grown_both_ways(fit, block)
    assert bits(got.root) == bits(want.root)


@settings(max_examples=100, deadline=None)
@given(tables(), st.data(), BLOCKS)
def test_forests_match_the_reference_bitwise(table, data, block):
    X, n = table
    y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    params = dict(
        n_trees=data.draw(st.integers(1, 4)), max_depth=data.draw(DEPTHS),
        min_samples_leaf=data.draw(st.integers(1, 3)),
        features_per_split=data.draw(st.sampled_from(["all", "sqrt", 1])),
        seed=data.draw(st.integers(0, 2**16)), bootstrap=data.draw(st.booleans()))

    got, want = grown_both_ways(lambda: RandomForest(**params).fit(X, y), block)
    assert [bits(t.root) for t in got.trees_] == [bits(t.root) for t in want.trees_]


@settings(max_examples=200, deadline=None)
@given(tables(), st.data(), BLOCKS)
def test_regression_trees_on_dyadic_targets_match_the_reference_bitwise(table, data, block):
    X, n = table
    codes = data.draw(st.lists(st.integers(-16, 16), min_size=n, max_size=n))
    y = np.array(codes, dtype=np.float64) * 2.0 ** -data.draw(st.integers(0, 40))
    max_depth = data.draw(st.integers(0, 5))
    min_leaf = data.draw(st.integers(1, 3))

    got, want = grown_both_ways(
        lambda: RegressionTree(max_depth=max_depth, min_samples_leaf=min_leaf).fit(X, y),
        block)
    assert bits(got.root) == bits(want.root)


@settings(max_examples=60, deadline=None)
@given(tables(max_rows=40, tie_free=True), st.data(), BLOCKS)
def test_boosting_on_tie_free_columns_matches_the_reference_bitwise(table, data, block):
    X, n = table
    y = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    params = dict(n_rounds=data.draw(st.integers(1, 4)),
                  max_depth=data.draw(st.integers(1, 3)),
                  min_samples_leaf=data.draw(st.integers(1, 3)))

    got, want = grown_both_ways(
        lambda: GradientBoostedClassifier(**params).fit(X, y), block)
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("n_classes", [2, 3])
@pytest.mark.parametrize("n_rounds", [1, 4, 9])
def test_a_booster_fit_presorts_x_once(n_classes, n_rounds):
    rng = np.random.default_rng(n_rounds)
    X = rng.normal(size=(60, 4))
    y = np.arange(60) % n_classes
    calls = []

    def counting_presort(X):
        calls.append(X.shape)
        return presort(X)

    presort = trees._presort
    with mock.patch.object(trees, "_presort", counting_presort):
        model = GradientBoostedClassifier(n_rounds=n_rounds, max_depth=2).fit(X, y)
    assert calls == [X.shape]
    assert sum(len(round_trees) for round_trees in model.trees_) == (
        n_rounds * (1 if n_classes == 2 else n_classes))


def test_a_deep_tree_keeps_no_ancestor_partitions():
    """Growing lets a node's sorted rows go once its children's are taken, so
    a tree tens of levels deep peaks at a few copies of the presort; keeping
    every ancestor's would hold each row once per level."""
    rng = np.random.default_rng(0)
    X = rng.random((4000, 20))
    y = rng.integers(0, 3, 4000)
    with mock.patch.object(trees, "_BLOCK", 1024):  # keeps the scan's temporaries small
        tracemalloc.start()
        try:
            tree = ClassificationTree().fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def depth(node):
        return 0 if node.is_leaf else 1 + max(depth(node.left), depth(node.right))

    assert depth(tree.root) > 30
    assert peak < 6 * 2 * X.nbytes  # S and V each take X's bytes
