"""Property tests for the one CART split search shared by both tree kinds.

The oracle scores every midpoint threshold directly, in exact arithmetic.
Most targets are integer multiples of 27720 = lcm(1..12), optionally scaled
by 2**-35, on at most 12 rows: every sum, square and division by a side size
in the search is then exact in float64, so the search must agree with the
oracle exactly, ties included. Targets that float64 does not hold exactly
must keep the rounding bound of _best_split's docstring instead. These
tables have at most 4 distinct values a column, so each value gets a bin of
its own.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab import trees
from readmitlab.trees import MIN_GAIN, ClassificationTree, _midpoint

UNIT = 27720  # divisible by every side size up to 12 rows


def best_split(X, Y, features, min_leaf):
    """The split search at a root node holding every row of X."""
    binned, rows = trees._bin(X), np.arange(X.shape[0])
    hist = trees._histogram(binned[0], Y, rows, features, binned[1].shape[1])
    return trees._best_split(binned, rows, hist, features, min_leaf)


def sse(block: np.ndarray) -> Fraction:
    """Summed squared error of each output row around its mean, exactly."""
    total = Fraction(0)
    for row in block:
        values = [Fraction(float(v)) for v in row]
        mean = sum(values, Fraction(0)) / len(values)
        total += sum(((v - mean) ** 2 for v in values), Fraction(0))
    return total


def oracle(X, Y, features, min_leaf):
    """Every admissible split in scan order: (reduction, feature, threshold, left)."""
    node = sse(Y)
    candidates = []
    for f in features:
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            thr = _midpoint(float(a), float(b))
            left = X[:, f] <= thr
            if min(left.sum(), (~left).sum()) < min_leaf:
                continue
            reduction = node - sse(Y[:, left]) - sse(Y[:, ~left])
            candidates.append((reduction, int(f), thr, left))
    return candidates


@st.composite
def split_problems(draw, exact=True):
    """(X, Y, features, min_leaf). exact draws the targets the module
    docstring describes; otherwise up to 30 rows of targets that float64
    does not hold exactly, often on a large offset, so the sums round and
    the gain cancels."""
    n = draw(st.integers(2, 12 if exact else 30))
    p = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    # few distinct values, so ties, duplicate rows and constant columns are common
    X = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=p, max_size=p),
                               min_size=n, max_size=n)), dtype=np.float64)
    for j in range(1, p):
        copy = draw(st.sampled_from(["own", "constant", "duplicate", "monotone"]))
        if copy == "constant":
            X[:, j] = 2.0
        elif copy == "duplicate":
            X[:, j] = X[:, j - 1]
        elif copy == "monotone":
            X[:, j] = X[:, j - 1] ** 3 + 0.5
    codes = draw(st.lists(st.integers(-2, 2), min_size=m * n, max_size=m * n))
    codes = np.array(codes, dtype=np.float64).reshape(m, n)
    if exact:
        # at 2**-35 the smallest nonzero gains straddle MIN_GAIN
        Y = codes * UNIT * draw(st.sampled_from([1.0, 2.0**-35]))
    elif draw(st.booleans()):
        Y = draw(st.sampled_from([0.0, 0.7, 1e3 / 3, -1e6 / 7])) + codes * draw(
            st.sampled_from([0.1, 1 / 3, 1e-5 / 3]))
    else:
        Y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=m * n,
                                   max_size=m * n))).reshape(m, n)
    features = np.array(sorted(draw(st.sets(st.integers(0, p - 1), min_size=1))))
    min_leaf = draw(st.integers(1, 4))
    return X, Y, features, min_leaf


@settings(max_examples=300, deadline=None)
@given(split_problems())
def test_split_search_matches_the_brute_force_oracle(problem):
    X, Y, features, min_leaf = problem
    rows = np.arange(X.shape[0])
    got = best_split(X, Y, features, min_leaf)
    candidates = oracle(X, Y, features, min_leaf)
    best = max((c[0] for c in candidates), default=None)
    if best is None or best <= Fraction(MIN_GAIN):
        # no admissible split, or none beats the minimum gain
        assert got is None
        return
    # the first candidate in (feature, threshold) order holding the maximum
    reduction, feature, threshold, left = next(c for c in candidates if c[0] == best)
    assert got is not None
    got_reduction, got_feature, got_threshold, got_left, got_right = got
    assert (got_feature, got_threshold) == (feature, threshold)
    assert Fraction(got_reduction) == reduction
    assert np.array_equal(np.sort(got_left), rows[left])
    assert np.array_equal(np.sort(got_right), rows[~left])
    assert min(got_left.size, got_right.size) >= min_leaf


@settings(max_examples=150, deadline=None)
@given(split_problems(exact=False))
def test_on_inexact_targets_the_search_keeps_its_stated_bound(problem):
    """_best_split's docstring bounds the rounding of a computed reduction
    by (6n + 2m + 12) * 2**-53 * sum(y**2): the chosen split's reduction is
    within it of its exact value, hence within twice it of the exact best,
    and an exact best above MIN_GAIN plus twice the bound is found."""
    X, Y, features, min_leaf = problem
    m, n = Y.shape
    got = best_split(X, Y, features, min_leaf)
    candidates = oracle(X, Y, features, min_leaf)
    squares = sum((Fraction(float(v)) ** 2 for v in Y.ravel()), Fraction(0))
    bound = (6 * n + 2 * m + 12) * squares / 2**53
    best = max((c[0] for c in candidates), default=None)
    if got is None:
        assert best is None or best <= Fraction(MIN_GAIN) + 2 * bound
        return
    exact = next(c[0] for c in candidates if (c[1], c[2]) == got[1:3])
    assert abs(Fraction(got[0]) - exact) <= bound
    assert exact >= best - 2 * bound


def test_a_gain_at_the_floor_is_not_split():
    X = np.array([[0.0], [1.0]])
    # a two-row split gains (a - b)**2 / 2 over targets a, b
    at_floor = np.array([[0.0, np.sqrt(2 * MIN_GAIN)]])
    assert best_split(X, at_floor * (1 - 1e-9), np.array([0]), 1) is None
    assert best_split(X, at_floor * 2, np.array([0]), 1) is not None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
def test_n_gini_equals_the_one_hot_sse(labels):
    labels = np.array(labels)
    n = len(labels)
    counts = [Fraction(int(c)) for c in np.unique(labels, return_counts=True)[1]]
    n_gini = n * (1 - sum((c / n) ** 2 for c in counts))
    onehot = (np.unique(labels)[:, None] == labels).astype(np.float64)
    assert sse(onehot) == n_gini


def weighted_gini(labels: np.ndarray) -> Fraction:
    n = len(labels)
    _, counts = np.unique(labels, return_counts=True)
    return n - sum(Fraction(int(c)) ** 2 for c in counts) / n


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 30).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=n, max_size=n),
    st.lists(st.integers(0, 3), min_size=n, max_size=n))))
def test_a_gini_stump_takes_the_largest_gini_reduction(problem):
    rows, labels = problem
    X = np.array(rows, dtype=np.float64)
    y = np.array(labels)
    stump = ClassificationTree(max_depth=1).fit(X, y)
    gains = []
    for f in range(X.shape[1]):
        values = np.unique(X[:, f])
        for a, b in zip(values[:-1], values[1:]):
            left = X[:, f] <= _midpoint(float(a), float(b))
            gains.append(weighted_gini(y) - weighted_gini(y[left]) - weighted_gini(y[~left]))
    best = max(gains, default=Fraction(0))
    if best == 0:
        assert stump.root.is_leaf
        return
    assert not stump.root.is_leaf
    left = X[:, stump.root.feature] <= stump.root.threshold
    taken = weighted_gini(y) - weighted_gini(y[left]) - weighted_gini(y[~left])
    # one-hot divisions round, so near-ties may resolve either way
    assert taken >= best - Fraction(1, 10**9)
