"""Property tests for `resample._nearest`, the one exact neighbour search,
and for `resample._class_tables`, which serves two of its tables from one
screen.

The oracle is a plain loop over every (query, pool row) pair: it sums the
squared differences of the pair with numpy, the same sum the search re-ranks
by, and sorts by (that sum, pool index), largest sum first for `farthest`.
Tables must equal the oracle's exactly, indices and distances alike.
"""

import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab import resample
from readmitlab.errors import DataError
from readmitlab.resample import ResamplePlan, _class_tables, _nearest, _screen, apply_plan
from readmitlab.synth import synthetic_cohort

DEFAULT_BUDGET = resample._BLOCK_BUDGET


@contextmanager
def block_budget(value):
    with mock.patch.object(resample, "_BLOCK_BUDGET", value):
        yield


def oracle(queries, pool, k, self_indices=None, farthest=False):
    index, dist = [], []
    for i, q in enumerate(queries):
        ranked = sorted(
            (-d if farthest else d, j)
            for j, d in ((j, float(((q - row) ** 2).sum())) for j, row in enumerate(pool))
            if self_indices is None or j != self_indices[i])
        index.append([j for _, j in ranked[:k]])
        dist.append([abs(d) for d, _ in ranked[:k]])
    return (np.array(index, dtype=np.int64).reshape(len(queries), k),
            np.array(dist, dtype=np.float64).reshape(len(queries), k))


def rows_of(draw, n, p, kind):
    codes = draw(st.lists(st.integers(0, 3), min_size=n * p, max_size=n * p))
    X = np.array(codes, dtype=np.float64).reshape(n, p)
    if kind == "offset":
        # gaps of 1e-3 at 1e6: the norm expansion's rounding error is far
        # larger than the gaps between distances
        return 1e6 + X * 1e-3
    if kind == "real":
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * p, max_size=n * p))
        return X + np.array(noise).reshape(n, p)
    return X


@st.composite
def searches(draw):
    n = draw(st.integers(2, 20))
    p = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["ties", "offset", "real"]))
    pool = rows_of(draw, n, p, kind)
    # few distinct values plant distance ties; also plant duplicate rows and
    # constant columns
    for i in draw(st.lists(st.integers(1, n - 1), max_size=n // 2)):
        pool[i] = pool[draw(st.integers(0, i - 1))]
    for j in draw(st.sets(st.integers(0, p - 1), max_size=p)):
        pool[:, j] = pool[0, j]
    farthest = draw(st.booleans())
    if draw(st.booleans()):
        # queries are pool rows and skip themselves, as in SMOTE's tables
        chosen = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        k = draw(st.integers(1, n - 1))
        return pool[chosen], pool, k, chosen, farthest
    queries = rows_of(draw, draw(st.integers(1, 6)), p, kind)
    k = draw(st.integers(1, n))
    return queries, pool, k, None, farthest


@settings(max_examples=400, deadline=None)
@given(searches())
def test_search_matches_the_plain_loop_oracle(search):
    queries, pool, k, self_indices, farthest = search
    index, dist = _nearest(queries, pool, k, self_indices=self_indices, farthest=farthest)
    want_index, want_dist = oracle(queries, pool, k, self_indices, farthest)
    assert np.array_equal(index, want_index)
    assert np.array_equal(dist, want_dist)


@settings(max_examples=150, deadline=None)
@given(searches(), st.sampled_from([1, 2, 7]))
def test_block_budget_never_changes_the_table(search, budget):
    queries, pool, k, self_indices, farthest = search
    with block_budget(budget):
        small = _nearest(queries, pool, k, self_indices=self_indices, farthest=farthest)
    with block_budget(DEFAULT_BUDGET):
        default = _nearest(queries, pool, k, self_indices=self_indices, farthest=farthest)
    assert np.array_equal(small[0], default[0])
    assert np.array_equal(small[1], default[1])


def test_one_huge_row_keeps_memory_within_the_block_budget():
    # the huge row widens the rounding bound past every other distance, so
    # every pool row is shortlisted for every query
    rng = np.random.default_rng(5)
    pool = rng.random((600, 8))
    pool[17] *= 1e8
    queries = rng.random((600, 8))
    budget = 1 << 12
    with block_budget(budget):
        tracemalloc.start()
        try:
            index, dist = _nearest(queries, pool, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the whole shortlist is 600 * 600 pairs: its exact re-rank alone would
    # take 23 MB at once
    block_bytes = 8 * budget
    assert peak < 16 * block_bytes + 2 * pool.nbytes + index.nbytes + dist.nbytes
    want_index, want_dist = oracle(queries[:40], pool, 5)
    assert np.array_equal(index[:40], want_index)
    assert np.array_equal(dist[:40], want_dist)


def test_k_beyond_the_usable_pool_is_rejected():
    pool = np.zeros((3, 2))
    with pytest.raises(ValueError, match="usable pool size 2"):
        _nearest(pool, pool, 3, self_indices=np.arange(3))


def test_squared_distances_that_overflow_are_rejected():
    pool = np.array([[1e200, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DataError, match="overflow"), np.errstate(over="ignore"):
        _nearest(pool, pool, 1, self_indices=np.arange(3))


def plant(rng, pool):
    """Duplicate some rows of `pool` and make some of its columns constant."""
    n, p = pool.shape
    for i in rng.choice(np.arange(1, n), size=rng.integers(0, n // 4), replace=False):
        pool[i] = pool[rng.integers(0, i)]
    for j in rng.choice(p, size=rng.integers(0, p), replace=False):
        pool[:, j] = pool[0, j]
    return pool


def rows_from(rng, n, p, kind):
    """rows_of's kinds, drawn from a numpy generator for pools too large to
    draw cell by cell, and "jitter": noise near float32's resolution, so that
    the float32 screen misorders distances that differ in float64."""
    X = rng.integers(0, 4, size=(n, p)).astype(np.float64)
    if kind == "offset":
        return 1e6 + X * 1e-3
    if kind == "real":
        return X + rng.uniform(-1.0, 1.0, size=(n, p))
    if kind == "jitter":
        return X + rng.uniform(-1e-6, 1e-6, size=(n, p))
    return X


@st.composite
def large_searches(draw):
    """Pools of 200-400 rows: with k <= 6 they have more columns than the
    shortlist has blocks, so some blocks hold two columns or more and the
    bound is a block minimum, not a row's own k-th value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(200, 400))
    p = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["ties", "offset", "real", "jitter"]))
    pool = plant(rng, rows_from(rng, n, p, kind))
    k = draw(st.integers(1, 6))
    farthest = draw(st.booleans())
    if draw(st.booleans()):
        chosen = np.sort(rng.choice(n, size=draw(st.integers(1, 6)), replace=False))
        return pool[chosen], pool, k, chosen, farthest
    queries = rows_from(rng, draw(st.integers(1, 4)), p, kind)
    if draw(st.booleans()):
        # a query that is also a pool row, but not skipped
        queries[0] = pool[draw(st.integers(0, n - 1))]
    return queries, pool, k, None, farthest


@settings(max_examples=60, deadline=None)
@given(large_searches())
def test_large_pools_match_the_plain_loop_oracle(search):
    queries, pool, k, self_indices, farthest = search
    assert len(pool) > resample._BLOCKS_PER_NEIGHBOUR * k
    index, dist = _nearest(queries, pool, k, self_indices=self_indices, farthest=farthest)
    want_index, want_dist = oracle(queries, pool, k, self_indices, farthest)
    assert np.array_equal(index, want_index)
    assert np.array_equal(dist, want_dist)


@pytest.mark.parametrize("magnitude", [1e18, 1e19, 1e20, 1e21, 1e22])
def test_rows_whose_squares_overflow_float32_match_the_oracle(magnitude):
    rng = np.random.default_rng(int(np.log10(magnitude)))
    pool = plant(rng, magnitude * rng.integers(0, 4, size=(40, 3)) * (1 + rng.random((40, 3))))
    queries = magnitude * rng.random((5, 3))
    for self_indices, q in ((None, queries), (np.arange(0, 40, 7), pool[::7])):
        for farthest in (False, True):
            got = _nearest(q, pool, 4, self_indices=self_indices, farthest=farthest)
            want = oracle(q, pool, 4, self_indices, farthest)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_the_screen_leaves_float32_only_when_the_data_do_not_fit_it():
    assert _screen(3, 3 * 1e36)[0] is np.float32
    assert _screen(3, 3 * 1e38)[0] is np.float64
    assert _screen(45, 90.0)[0] is np.float32
    assert _screen(2_000_000, 1.0)[0] is np.float64


def class_inputs():
    """(X, members) as ADASYN, Borderline-SMOTE and SVM-SMOTE search them:
    each minority class of small cohorts, one with planted ties."""
    for n, p, seed in ((90, 4, 0), (300, 6, 1), (700, 3, 2)):
        data = synthetic_cohort(n, p, seed=seed)
        X = data.features.copy()
        if seed == 1:
            X = plant(np.random.default_rng(seed), np.round(X))
        for cls in (1, 2):
            yield X, np.flatnonzero(data.labels == cls)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 97])
def test_one_screen_gives_the_two_separate_tables(budget):
    for X, members in class_inputs():
        with block_budget(budget):
            nn_min, nn_full = _class_tables(X, members, 5)
        x_min = X[members]
        want_min, _ = _nearest(x_min, x_min, 5, self_indices=np.arange(len(members)))
        want_full, _ = _nearest(x_min, X, 5, self_indices=members)
        assert np.array_equal(nn_min, want_min)
        assert np.array_equal(nn_full, want_full)


def oracle_class_tables(X, members, k):
    x_min = X[members]
    return (oracle(x_min, x_min, k, np.arange(len(members)))[0],
            oracle(x_min, X, k, members)[0])


@pytest.mark.parametrize("plan", [
    *(ResamplePlan(method) for method in resample.OVERSAMPLERS),
    ResamplePlan("nearmiss", nearmiss_version=1),
    ResamplePlan("nearmiss", nearmiss_version=2),
], ids=lambda plan: f"{plan.method}-{plan.nearmiss_version}")
def test_resampled_rows_equal_those_from_the_oracle(plan):
    for n, p, seed in ((60, 3, 3), (120, 5, 4)):
        data = synthetic_cohort(n, p, seed=seed)
        got = apply_plan(data, plan, seed)
        with mock.patch.object(resample, "_nearest", oracle), \
                mock.patch.object(resample, "_class_tables", oracle_class_tables):
            want = apply_plan(data, plan, seed)
        assert np.array_equal(got.features, want.features)
        assert np.array_equal(got.labels, want.labels)
