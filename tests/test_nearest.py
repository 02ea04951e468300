"""Property tests for `resample._nearest`, the one exact neighbour search.

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
from readmitlab.resample import _nearest

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
