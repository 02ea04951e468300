"""Class-balance correction over one shared exact nearest-neighbour search.

Oversamplers: smote, borderline_smote, svm_smote, adasyn, random_over;
their first n output rows are the input rows bitwise. Undersamplers:
nearmiss (versions 1-3) and random_under, which run only through apply_plan
and keep a subset of the input rows in their order. All methods are pure
given (data, plan, seed), the seed passed apart from the plan (a fold's,
from evaluate.cross_validate, or the run's): the same plan and seed always
reproduce the same rows.

Every neighbour table, NearMiss's included, comes from one exact search,
_nearest. One GEMM per block of query rows screens every pair on
|p|^2 - 2 q.p, in float32 when the data fit float32's range and in float64
otherwise. Every pool row within a derived rounding slack of the k-th
smallest of the query row's column-block minima is shortlisted, and the
shortlist is re-ranked on exact float64 sums of squared differences, ties
going to the lower pool index. ADASYN, Borderline-SMOTE and SVM-SMOTE take a
class's within-class and all-rows tables from one screen (_class_tables).
_BLOCK_BUDGET caps the cells of a block, so working memory does not grow
with the input size, and no table depends on that cap, on the input size,
on the screen's dtype or on BLAS threading.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .data import VALID_LABELS, Dataset
from .errors import DataError, check_choice, check_count, is_integer

OVERSAMPLERS = ("smote", "borderline_smote", "svm_smote", "adasyn", "random_over")
UNDERSAMPLERS = ("nearmiss", "random_under")
METHODS = OVERSAMPLERS + UNDERSAMPLERS

# most distances one block of _nearest holds at once (one query row's worth when
# the pool is larger), so its memory does not grow with the number of queries
_BLOCK_BUDGET = 1 << 20
# blocks per neighbour sought in _nearest's shortlist bound: more blocks give
# a bound nearer the k-th value, fewer a cheaper partition of the minima
_BLOCKS_PER_NEIGHBOUR = 32

# svm_smote's linear margin: full-batch descent steps, and the L2 weight
_MARGIN_STEPS = 200
_MARGIN_LAMBDA = 1e-2


# the plan fields that only some methods read, by method; every other method
# reads none of them
METHOD_SETTINGS = {**dict.fromkeys(("smote", "borderline_smote", "svm_smote", "adasyn"),
                                   ("k_neighbors",)),
                   "nearmiss": ("nearmiss_version", "n_ref")}


# the class ids a target_counts key may name, as its decimal string
_CLASS_IDS = tuple(str(c) for c in VALID_LABELS)


@dataclass(frozen=True)
class ResamplePlan:
    """Method, neighbor count, and target per-class counts.

    target_counts=None means: equalize every class up to the majority count
    (oversamplers) or down to the minority count (undersamplers). Otherwise it
    maps class ids (VALID_LABELS, as integers or their decimal strings) to
    nonnegative integer counts. The fields after the method are keyword-only;
    METHOD_SETTINGS names the ones only some methods read."""

    method: str
    _: KW_ONLY
    k_neighbors: int = 5
    target_counts: dict[int, int] | None = None
    nearmiss_version: int = 1
    n_ref: int = 3

    def __post_init__(self):
        check_choice("resample method", self.method, METHODS)
        check_count("k_neighbors", self.k_neighbors, 1)
        if not is_integer(self.nearmiss_version) or self.nearmiss_version not in (1, 2, 3):
            raise ValueError("nearmiss_version must be 1, 2, or 3")
        check_count("n_ref", self.n_ref, 1)
        targets = self.target_counts
        if targets is not None and not (isinstance(targets, dict) and all(
                str(c) in _CLASS_IDS and is_integer(n) and n >= 0 for c, n in targets.items())):
            raise ValueError(f"target_counts must map class ids {list(VALID_LABELS)} to "
                             f"nonnegative integers, got {targets!r}")

    def resolved_targets(self, counts: dict[int, int]) -> dict[int, int]:
        """The target count of each class, given its current count; an
        oversampler's target below the count or above 0 for a class with no
        rows, or an undersampler's above the count, is a DataError."""
        if self.target_counts is not None:
            targets = {int(c): int(self.target_counts[c]) for c in self.target_counts}
        elif self.method in OVERSAMPLERS:
            top = max(counts.values())
            targets = {c: top for c in counts}
        else:
            low = min(counts.values())
            targets = {c: low for c in counts}
        for c, t in targets.items():
            if self.method in OVERSAMPLERS and t < counts.get(c, 0):
                raise DataError(f"oversampler target {t} below current count for class {c}")
            if self.method in OVERSAMPLERS and t and c not in counts:
                raise DataError(f"oversampler target {t} for class {c}, which has no rows")
            if self.method in UNDERSAMPLERS and t > counts.get(c, 0):
                raise DataError(f"undersampler target {t} above current count for class {c}")
        return targets


def _nearest(queries: np.ndarray, pool: np.ndarray, k: int,
             self_indices: np.ndarray | None = None,
             farthest: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest pool rows of each query (the k farthest with `farthest`),
    as (indices, squared distances), both shaped (n_queries, k).

    Distances are exact sums of squared differences, and equal distances order
    by lower pool index. self_indices[i] is the pool row that IS query i; it is
    skipped. The search runs in two stages:

    - The screen. Query rows go in blocks of at most _BLOCK_BUDGET cells. One
      GEMM per block gives each (query, pool row) pair |p|^2 - 2 q.p (its
      negation with `farthest`), the squared distance less |q|^2, a constant
      per query row that cannot change its ranking. It runs in float32 when
      the data fit float32's range (see _screen), in float64 otherwise.
    - The shortlist. A row's pool columns fall into min(n_pool,
      _BLOCKS_PER_NEIGHBOUR * k) blocks; the k-th smallest of the blocks'
      minima is at least the row's k-th smallest screen value. Every pool row
      within _screen's slack of it is shortlisted, which provably holds the
      exact top k and every row tied with its last member, and only the
      shortlist is re-ranked on exact float64 sums.

    _class_tables runs the same search for two tables from one screen.
    """
    return _search(queries, pool, k, (len(pool),), self_indices, farthest)[0]


def _class_tables(X: np.ndarray, members: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each member row's k nearest other members (indices into `members`) and
    its k nearest other rows of X (indices into X), both exactly as from
    _nearest. One screen of the members against all rows, members ordered
    first, serves both: the first table reads its first len(members) columns."""
    n_min = len(members)
    order = np.concatenate([members, np.delete(np.arange(len(X)), members)])
    pool = X[order]
    (nn_min, _), (nn_full, _) = _search(pool[:n_min], pool, k, (n_min, len(X)),
                                        np.arange(n_min), ids=order)
    return nn_min, order[nn_full]


def _screen(width: int, norms: float) -> tuple[type, float]:
    """The screen's dtype and the slack of its shortlist, for rows of `width`
    columns and norms = max |q|^2 + max |p|^2 (M below).

    The dtype is float32 when 4 M fits its range and (w+1) u <= 1/16 for its
    unit roundoff u, float64 otherwise. With e the dtype's smallest
    subnormal, g = (w+1) u / (1 - (w+1) u), R = sqrt(M) and v64 the float64
    unit roundoff, a screen value s differs from its exact value
    T = |p|^2 - 2 q.p by at most

        E = (2 g + 4 u + (w+1) v64) M + 4 (w+2) (R+1) e,

    from three sources. (1) Inputs rounded to the dtype: q, -2p and the
    float64 |p|^2 each carry a relative u, so the products carry 2u of
    2 sum|q_j p_j| <= |q|^2 + |p|^2 <= M, and |p|^2 carries u plus its own
    float64 error (w+1) v64 of at most M; an input that underflows adds at
    most e/2, scaled by at most 2R + 1. (2) The GEMM sums the w products and
    |p|^2 in any order (BLAS threads, FMA): at most g times the sum of the
    terms' sizes, 2|q||p| + |p|^2 <= 2M, plus e/2 per underflowed product.
    (3) Dropping |q|^2 costs no error: s is compared only with values of its
    own query row, which all lack the same |q|^2. The constant 4u also
    covers the second-order terms and the float64 rounding of M itself, for
    any width below 10^7.

    Let v be the k-th smallest block minimum: k columns c have s_c <= v. A
    row r of the exact top k, or tied with its last member, has an exact sum
    D_r no larger than the largest D_c, and each exact float64 sum is within
    d = 2 (w+3) v64 M + w e of the real squared distance (at most 2M). So
    s_r <= v + 2E + 2d, and the same holds for `farthest` with signs
    swapped. Rounding S, then v + S, to the dtype lowers the bound by at
    most u (|v| + 3S), with |v| <= 2M + E, which

        S = (1 + 4u) (2E + 2d) + 3 u M

    covers. In float32 at 30 features and M = 60, S is about 5e-4.
    """
    f32 = np.finfo(np.float32)
    fits = 4.0 * norms <= float(f32.max) and (width + 1) * f32.eps / 2 <= 1 / 16
    dtype = np.float32 if fits else np.float64
    info, v64 = np.finfo(dtype), np.finfo(np.float64).eps / 2
    u, e = float(info.eps) / 2, float(info.smallest_subnormal)
    n_u = (width + 1) * u
    error = ((2 * n_u / (1 - n_u) + 4 * u + (width + 1) * v64) * norms
             + 4 * (width + 2) * (np.sqrt(norms) + 1) * e)
    rerank = 2 * (width + 3) * v64 * norms + width * e
    return dtype, float((1 + 4 * u) * (2 * error + 2 * rerank) + 3 * u * norms)


def _search(queries: np.ndarray, pool: np.ndarray, k: int, heads: tuple[int, ...],
            self_indices: np.ndarray | None = None, farthest: bool = False,
            ids: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """_nearest's tables, one per head h in `heads`: the search among the
    first h pool rows, every table from the same screen. Equal distances
    order by ids[column] (default: the column), and indices are pool
    columns."""
    n_pool, width = pool.shape
    usable = min(heads) - (self_indices is not None)
    if k > usable:
        raise ValueError(f"k={k} exceeds usable pool size {usable}")
    sign = -1.0 if farthest else 1.0
    with np.errstate(over="ignore"):  # an overflow is this DataError, with no warning
        pool_sq = (pool**2).sum(axis=1)
        norms = (queries**2).sum(axis=1).max(initial=0.0) + pool_sq.max(initial=0.0)
        if not np.isfinite(4.0 * norms):
            raise DataError("feature values too large: squared distances overflow float64")
    dtype, slack = _screen(width, norms)
    # a query row [q, 1] times a column [-2p, |p|^2] is the screen value
    screen_pool = np.empty((width + 1, n_pool), dtype=dtype)
    screen_pool[:width] = (-2.0 * sign) * pool.T
    screen_pool[width] = sign * pool_sq
    tables = [(np.empty((len(queries), k), dtype=np.int64), np.empty((len(queries), k)))
              for _ in heads]
    step = max(1, _BLOCK_BUDGET // max(1, n_pool))
    chunk = max(1, _BLOCK_BUDGET // max(1, width))
    for start in range(0, len(queries), step):
        q = queries[start:start + step]
        m = len(q)
        q_screen = np.ones((m, width + 1), dtype=dtype)
        q_screen[:, :width] = q
        screen = q_screen @ screen_pool
        own = None
        if self_indices is not None:
            own = np.arange(m), self_indices[start:start + m]
            screen[own] = np.inf
        for head, (index, dist) in zip(heads, tables):
            rows, cols = _shortlist(screen[:, :head], k, slack, own)
            exact = np.empty(len(rows))
            for lo in range(0, len(rows), chunk):
                diff = q[rows[lo:lo + chunk]] - pool[cols[lo:lo + chunk]]
                exact[lo:lo + chunk] = (diff**2).sum(axis=1)
            ties = cols if ids is None else ids[cols]
            order = np.lexsort((ties, sign * exact, rows))
            picked = order[np.searchsorted(rows, np.arange(m))[:, None] + np.arange(k)]
            index[start:start + m] = cols[picked]
            dist[start:start + m] = exact[picked]
    return tables


def _shortlist(screen: np.ndarray, k: int, slack: float,
               own: tuple[np.ndarray, np.ndarray] | None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns), in row-major order, of every screen value within
    `slack` of its row's k-th smallest block minimum; a row's own column
    (`own`) never, even when that bound is infinite."""
    m, n = screen.shape
    blocks = min(n, _BLOCKS_PER_NEIGHBOUR * k)
    width = n // blocks
    # block b holds columns b, b + blocks, ...; the last n % blocks columns
    # join the first blocks
    minima = screen[:, :blocks * width].reshape(m, width, blocks).min(axis=1)
    tail = n - blocks * width
    np.minimum(minima[:, :tail], screen[:, blocks * width:], out=minima[:, :tail])
    bound = np.partition(minima, k - 1, axis=1)[:, k - 1] + slack
    keep = screen <= bound[:, None]
    if own is not None:
        keep[own] = False
    return np.divmod(np.flatnonzero(keep), n)


def knn(query, pool, k: int) -> list[int]:
    """Indices of the k nearest pool rows to one query point, by Euclidean
    distance, distance ties broken by lower index."""
    pool = np.asarray(pool, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    return [int(i) for i in _nearest(query, pool, k)[0][0]]


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer apportionment of `total` proportional to weights, sums exactly."""
    if total == 0:
        return np.zeros(len(weights), dtype=np.int64)
    quotas = weights * total
    base = np.floor(quotas).astype(np.int64)
    deficit = total - int(base.sum())
    if deficit > 0:
        remainders = quotas - base
        top = np.argsort(-remainders, kind="stable")[:deficit]
        base[top] += 1
    return base


def _interpolate(x_min: np.ndarray, bases: np.ndarray, nn_min: np.ndarray,
                 rng: np.random.Generator, direction: np.ndarray | float = 1.0) -> np.ndarray:
    """SMOTE step: x + direction * u * (neighbor - x) for each base row x,
    with its neighbor drawn from its row of nn_min and u ~ U[0, 1); a row
    with direction -1 extrapolates away from its neighbor instead."""
    picks = rng.integers(0, nn_min.shape[1], size=len(bases))
    u = direction * rng.random(len(bases))
    anchors = x_min[bases]
    return anchors + u[:, None] * (x_min[nn_min[bases, picks]] - anchors)


def _fit_linear_margin(X: np.ndarray, y_signed: np.ndarray) -> tuple[np.ndarray, float]:
    """Full-batch primal subgradient descent (Pegasos: Shalev-Shwartz, Singer
    & Srebro, ICML 2007) for a linear soft-margin classifier: L2 weight
    _MARGIN_LAMBDA on (w, b), step size 1/(_MARGIN_LAMBDA * t) for
    _MARGIN_STEPS steps, each followed by Pegasos' projection of (w, b) onto
    the ball of radius 1/sqrt(_MARGIN_LAMBDA); returns (w, b). The bias is
    the weight of a constant column, so it shrinks and steps with w. Each
    step takes every row's margin at once and adds the mean of y * x over
    the rows whose margin is below 1. Only used by svm_smote to locate
    approximate minority support vectors; it draws no random numbers.
    """
    X = np.hstack([X, np.ones((len(X), 1))])
    w = np.zeros(X.shape[1])
    radius = 1.0 / np.sqrt(_MARGIN_LAMBDA)
    for t in range(1, _MARGIN_STEPS + 1):
        eta = 1.0 / (_MARGIN_LAMBDA * t)
        pull = np.where(y_signed * (X @ w) < 1.0, y_signed, 0.0)
        w *= 1.0 - eta * _MARGIN_LAMBDA
        w += (eta / len(X)) * (pull @ X)
        w *= radius / max(np.linalg.norm(w), radius)
    return w[:-1], w[-1]


def _synthesize_for_class(X: np.ndarray, y: np.ndarray, cls: int, need: int,
                          plan: ResamplePlan, rng: np.random.Generator) -> np.ndarray:
    """Generate `need` synthetic rows for one minority class; plan.method
    is an oversampler, as oversample checks."""
    k = plan.k_neighbors
    min_idx = np.flatnonzero(y == cls)
    x_min = X[min_idx]
    n_min = len(min_idx)

    if plan.method == "random_over":
        return x_min[rng.integers(0, n_min, size=need)]

    if n_min <= k:
        raise DataError(
            f"class {cls} has {n_min} members; needs more than k_neighbors={k}"
        )
    direction = 1.0
    if plan.method == "smote":
        nn_min, _ = _nearest(x_min, x_min, k, self_indices=np.arange(n_min))
        bases = rng.integers(0, n_min, size=need)
    else:
        # the other methods also inspect each minority row's neighbourhood in the full set
        nn_min, nn_full = _class_tables(X, min_idx, k)
        other_count = (y[nn_full] != cls).sum(axis=1)
        other_frac = other_count / k
        if plan.method == "borderline_smote":
            danger = np.flatnonzero((2 * other_count >= k) & (other_count < k))
            if danger.size == 0:
                raise DataError(
                    f"borderline_smote: class {cls} has no danger points; cannot synthesize"
                )
            bases = danger[rng.integers(0, danger.size, size=need)]
        elif plan.method == "adasyn":
            total = other_frac.sum()
            # a fully interior minority class falls back to a uniform allocation
            weights = other_frac / total if total else np.full(n_min, 1.0 / n_min)
            bases = np.repeat(np.arange(n_min), _largest_remainder(weights, need))
        else:  # svm_smote, the last oversampler
            y_signed = np.where(y == cls, 1.0, -1.0)
            w, b = _fit_linear_margin(X, y_signed)
            margins = y_signed[min_idx] * (x_min @ w + b)
            support = np.flatnonzero(margins <= 1.0 + 1e-12)
            if support.size == 0:
                support = np.arange(n_min)
            bases = support[rng.integers(0, support.size, size=need)]
            # crowded support vectors interpolate inward, safe ones extrapolate outward
            direction = np.where(other_frac[bases] >= 0.5, 1.0, -1.0)
    return _interpolate(x_min, bases, nn_min, rng, direction)


def oversample(data: Dataset, plan: ResamplePlan, seed: int) -> Dataset:
    """Original rows (order preserved) followed by synthetic rows, per-class
    counts equal to the plan's resolved targets."""
    if plan.method not in OVERSAMPLERS:
        raise ValueError(f"oversample() got undersampling method {plan.method!r}")
    counts = data.class_counts()
    targets = plan.resolved_targets(counts)
    rng = np.random.default_rng(seed)
    X, y = data.features, data.labels
    synth_rows, synth_labels = [], []
    for cls in sorted(counts):
        need = targets.get(cls, counts[cls]) - counts[cls]
        if need <= 0:
            continue
        rows = _synthesize_for_class(X, y, cls, need, plan, rng)
        synth_rows.append(rows)
        synth_labels.append(np.full(need, cls, dtype=np.int64))
    if not synth_rows:
        return data
    new_X = np.vstack([X] + synth_rows)
    new_y = np.concatenate([y] + synth_labels)
    return Dataset(new_X, new_y, data.feature_names)


def _nearmiss_keep(X_maj: np.ndarray, X_ref: np.ndarray, target: int,
                   plan: ResamplePlan) -> np.ndarray:
    """Indices into X_maj of the `target` rows that NearMiss keeps against
    the reference rows X_ref.

    Version 1 keeps the rows with the smallest average distance to their
    n_ref closest reference rows; version 2 uses the n_ref farthest; version
    3 pre-selects each reference row's m nearest rows of X_maj, then keeps
    those with the largest average distance. n_ref is capped at len(X_ref),
    and m is n_ref, or more where their union would fall short of the
    target: the least m whose union holds it.
    """
    n_use = min(plan.n_ref, len(X_ref))
    candidates = np.arange(len(X_maj))
    if plan.nearmiss_version == 3:
        # each reference row's `width` nearest majority rows, width doubling
        # until their union holds the target (all of them do at len(X_maj))
        width = least = min(n_use, len(X_maj))
        while True:
            near, _ = _nearest(X_ref, X_maj, width)
            # the column-major first sighting of each row is the width it joins at
            candidates, first = np.unique(near.T, return_index=True)
            if candidates.size >= target:
                break
            width = min(2 * width, len(X_maj))
        joins = first // len(near) + 1
        width = max(least, np.sort(joins)[:target].max(initial=0))
        candidates = candidates[joins <= width]
    _, picked = _nearest(X_maj[candidates], X_ref, n_use, farthest=plan.nearmiss_version == 2)
    scores = np.sort(np.sqrt(picked), axis=1).mean(axis=1)
    order = np.argsort(-scores if plan.nearmiss_version == 3 else scores, kind="stable")
    return candidates[order[:target]]


def apply_plan(data: Dataset, plan: ResamplePlan, seed: int) -> Dataset:
    """The plan run on `data`, seeded with `seed`: an oversampler's rows as
    from oversample, an undersampler's a subset of the input rows in their
    order.

    An undersampler visits the classes in increasing id. Each class above
    its resolved target keeps that many of its rows: random_under a uniform
    random subset, nearmiss the rows _nearmiss_keep picks against a
    reference class. Call the class with the fewest input rows (ties to the
    lower id) the smallest. Every other class's reference is the smallest
    class's rows kept so far, and "reference class {c} not present" when
    none is left. The smallest class's reference is the other class with
    the fewest rows kept so far (ties to the lower id; a class with no row
    left is none), and "nearmiss needs at least two classes" when there is
    none. "Kept so far" counts the lower ids as already reduced.
    """
    if plan.method in OVERSAMPLERS:
        return oversample(data, plan, seed)
    counts = data.class_counts()
    targets = plan.resolved_targets(counts)
    smallest = min(sorted(counts), key=lambda c: (counts[c], c))
    rng = np.random.default_rng(seed)
    X, y = data.features, data.labels
    keep = np.ones(len(y), dtype=bool)
    for cls in sorted(counts):
        target = targets.get(cls, counts[cls])
        if target >= counts[cls]:
            continue
        members = np.flatnonzero(y == cls)
        keep[members] = False
        if plan.method == "random_under":
            keep[rng.choice(members, size=target, replace=False)] = True
            continue
        ref = smallest
        if cls == smallest:
            # the other classes' kept rows, as cls's own are out of `keep` now
            ids, sizes = np.unique(y[keep], return_counts=True)
            if not ids.size:
                raise DataError("nearmiss needs at least two classes")
            ref = int(ids[np.argmin(sizes)])  # the first of equal sizes has the lower id
        X_ref = X[keep & (y == ref)]
        if not len(X_ref):
            raise DataError(f"reference class {ref} not present")
        keep[members[_nearmiss_keep(X[members], X_ref, target, plan)]] = True
    return data.take(np.flatnonzero(keep))
