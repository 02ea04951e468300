"""Class-balance correction over one shared exact nearest-neighbour search.

Oversamplers: smote, borderline_smote, svm_smote, adasyn, random_over.
Undersampler: nearmiss (versions 1-3). All methods are pure given
(data, plan): the same plan and seed always reproduce the same rows, and the
first n output rows are the input rows bitwise.

Every neighbour table, NearMiss's included, comes from _nearest. It
shortlists candidates by the norm expansion |q|^2 + |p|^2 - 2 q.p, keeping
every pool row within a provable rounding bound of each query's k-th value,
then re-ranks the shortlist on exact sums of squared differences, ties going
to the lower pool index. Its working memory per block is capped by
_BLOCK_BUDGET, whatever the input size, and its results do not depend on
that cap, on the input size or on BLAS threading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DataError

OVERSAMPLERS = ("smote", "borderline_smote", "svm_smote", "adasyn", "random_over")
UNDERSAMPLERS = ("nearmiss", "random_under")
METHODS = OVERSAMPLERS + UNDERSAMPLERS

# most distances one block of _nearest holds at once (one query row's worth when
# the pool is larger), so its memory does not grow with the number of queries
_BLOCK_BUDGET = 1 << 20


@dataclass(frozen=True)
class ResamplePlan:
    """Method, neighbor count, seed, and target per-class counts.

    target_counts=None means: equalize every class up to the majority count
    (oversamplers) or down to the minority count (nearmiss).
    """

    method: str
    seed: int
    k_neighbors: int = 5
    target_counts: dict[int, int] | None = None
    nearmiss_version: int = 1
    n_ref: int = 3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown resample method {self.method!r}")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.nearmiss_version not in (1, 2, 3):
            raise ValueError("nearmiss_version must be 1, 2, or 3")
        if self.n_ref < 1:
            raise ValueError("n_ref must be >= 1")

    def resolved_targets(self, counts: dict[int, int]) -> dict[int, int]:
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
                raise ValueError(f"oversampler target {t} below current count for class {c}")
            if self.method in UNDERSAMPLERS and t > counts.get(c, 0):
                raise ValueError(f"undersampler target {t} above current count for class {c}")
        return targets

    def to_dict(self) -> dict:
        out = {
            "method": self.method,
            "seed": self.seed,
            "k_neighbors": self.k_neighbors,
            "target_counts": None
            if self.target_counts is None
            else {str(c): int(n) for c, n in self.target_counts.items()},
        }
        if self.method == "nearmiss":
            out["nearmiss_version"] = self.nearmiss_version
            out["n_ref"] = self.n_ref
        return out


def _nearest(queries: np.ndarray, pool: np.ndarray, k: int,
             self_indices: np.ndarray | None = None,
             farthest: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The k nearest pool rows of each query (the k farthest with `farthest`),
    as (indices, squared distances), both shaped (n_queries, k).

    Distances are exact sums of squared differences, and equal distances order
    by lower pool index. self_indices[i] is the pool row that IS query i; it is
    skipped. Query rows go in blocks of at most _BLOCK_BUDGET distances. Each
    block computes the norm expansion |q|^2 + |p|^2 - 2 q.p and shortlists
    every pool row whose value is within twice the expansion's worst-case
    error of the row's k-th value; only the shortlist is re-ranked exactly.
    """
    n_pool, width = pool.shape
    usable = n_pool - (self_indices is not None)
    if k > usable:
        raise ValueError(f"k={k} exceeds usable pool size {usable}")
    sign = -1.0 if farthest else 1.0
    pool_sq = (pool**2).sum(axis=1)
    norms = (queries**2).sum(axis=1).max(initial=0.0) + pool_sq.max(initial=0.0)
    if not np.isfinite(4.0 * norms):
        raise DataError("feature values too large: squared distances overflow float64")
    scaled_pool_t, signed_pool_sq = -2.0 * sign * pool.T, sign * pool_sq
    # |norm expansion - exact sum| <= 4 (p + 4) eps (|q|^2 + |p|^2), so every row
    # of the exact top k lies within twice that of the k-th expansion value
    slack = 8 * (width + 4) * np.finfo(np.float64).eps
    index = np.empty((len(queries), k), dtype=np.int64)
    dist = np.empty((len(queries), k))
    step = max(1, _BLOCK_BUDGET // max(1, n_pool))
    chunk = max(1, _BLOCK_BUDGET // max(1, width))
    for start in range(0, len(queries), step):
        q = queries[start:start + step]
        q_sq = (q**2).sum(axis=1)
        approx = q @ scaled_pool_t
        approx += sign * q_sq[:, None]
        approx += signed_pool_sq
        if self_indices is not None:
            approx[np.arange(len(q)), self_indices[start:start + step]] = np.inf
        bound = np.partition(approx, k - 1, axis=1)[:, k - 1] + slack * norms
        rows, cols = np.nonzero(approx <= bound[:, None])
        del approx
        exact = np.empty(len(rows))
        for lo in range(0, len(rows), chunk):
            diff = q[rows[lo:lo + chunk]] - pool[cols[lo:lo + chunk]]
            exact[lo:lo + chunk] = (diff**2).sum(axis=1)
        order = np.lexsort((cols, sign * exact, rows))
        picked = order[np.searchsorted(rows, np.arange(len(q)))[:, None] + np.arange(k)]
        index[start:start + len(q)] = cols[picked]
        dist[start:start + len(q)] = exact[picked]
    return index, dist


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
    """SMOTE step: x + direction * u * (neighbor - x) with u ~ U[0, 1]; a row
    with direction -1 extrapolates away from its neighbor instead."""
    picks = rng.integers(0, nn_min.shape[1], size=len(bases))
    u = direction * rng.random(len(bases))
    anchors = x_min[bases]
    neighbors = x_min[nn_min[bases, picks]]
    return anchors + u[:, None] * (neighbors - anchors)


def _fit_linear_margin(X: np.ndarray, y_signed: np.ndarray, rng: np.random.Generator,
                       epochs: int = 20, lam: float = 1e-2) -> tuple[np.ndarray, float]:
    """Primal subgradient descent for a linear soft-margin classifier.

    Step size 1/(lam * t); returns (w, b). Only used by svm_smote to locate
    approximate minority support vectors.
    """
    n, p = X.shape
    w = np.zeros(p)
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            margin = y_signed[i] * (X[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * y_signed[i] * X[i]
                b += eta * y_signed[i]
    return w, b


def _synthesize_for_class(X: np.ndarray, y: np.ndarray, cls: int, need: int,
                          plan: ResamplePlan, rng: np.random.Generator) -> np.ndarray:
    """Generate `need` synthetic rows for one minority class."""
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
    nn_min, _ = _nearest(x_min, x_min, k, self_indices=np.arange(n_min))

    if plan.method == "smote":
        bases = rng.integers(0, n_min, size=need)
        return _interpolate(x_min, bases, nn_min, rng)

    # remaining methods inspect each minority point's neighborhood in the full set
    nn_full, _ = _nearest(x_min, X, k, self_indices=min_idx)
    other_count = (y[nn_full] != cls).sum(axis=1)
    other_frac = other_count / k

    if plan.method == "borderline_smote":
        danger = np.flatnonzero((2 * other_count >= k) & (other_count < k))
        if danger.size == 0:
            raise DataError(
                f"borderline_smote: class {cls} has no danger points; cannot synthesize"
            )
        bases = danger[rng.integers(0, danger.size, size=need)]
        return _interpolate(x_min, bases, nn_min, rng)

    if plan.method == "adasyn":
        weights = other_frac.copy()
        total = weights.sum()
        if total == 0.0:
            # fully interior minority class: fall back to uniform allocation
            weights = np.full(n_min, 1.0 / n_min)
        else:
            weights /= total
        budget = _largest_remainder(weights, need)
        chunks = []
        for i in np.flatnonzero(budget):
            bases = np.full(budget[i], i, dtype=np.int64)
            chunks.append(_interpolate(x_min, bases, nn_min, rng))
        return np.vstack(chunks) if chunks else np.empty((0, X.shape[1]))

    if plan.method == "svm_smote":
        y_signed = np.where(y == cls, 1.0, -1.0)
        w, b = _fit_linear_margin(X, y_signed, rng)
        margins = y_signed[min_idx] * (x_min @ w + b)
        support = np.flatnonzero(margins <= 1.0 + 1e-12)
        if support.size == 0:
            support = np.arange(n_min)
        bases = support[rng.integers(0, support.size, size=need)]
        # crowded support vectors interpolate inward, safe ones extrapolate outward
        direction = np.where(other_frac[bases] >= 0.5, 1.0, -1.0)
        return _interpolate(x_min, bases, nn_min, rng, direction)

    raise ValueError(f"not an oversampler: {plan.method!r}")


def oversample(data: Dataset, plan: ResamplePlan) -> Dataset:
    """Original rows (order preserved) followed by synthetic rows, per-class
    counts equal to the plan's resolved targets."""
    if plan.method not in OVERSAMPLERS:
        raise ValueError(f"oversample() got undersampling method {plan.method!r}")
    counts = data.class_counts()
    targets = plan.resolved_targets(counts)
    rng = np.random.default_rng(plan.seed)
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


def nearmiss_undersample(data: Dataset, majority_class: int, target_count: int,
                         version: int = ResamplePlan.nearmiss_version,
                         n_ref: int = ResamplePlan.n_ref,
                         reference_class: int | None = None) -> Dataset:
    """Keep the target_count majority instances selected by the NearMiss rule;
    all non-majority rows pass through unchanged.

    Version 1 (default) keeps the instances with the smallest average distance
    to their n_ref closest reference-class instances; version 2 uses the n_ref
    farthest; version 3 pre-selects each reference point's n_ref nearest
    majority instances, then keeps those with the largest average distance.
    The reference class defaults to the smallest other class.
    """
    maj_idx = _members(data, majority_class, target_count)
    counts = data.class_counts()
    if reference_class is None:
        others = {c: n for c, n in counts.items() if c != majority_class}
        if not others:
            raise DataError("nearmiss needs at least two classes")
        reference_class = min(sorted(others), key=lambda c: (others[c], c))
    ref_idx = np.flatnonzero(data.labels == reference_class)
    if ref_idx.size == 0:
        raise DataError(f"reference class {reference_class} not present")
    n_use = min(n_ref, ref_idx.size)
    X_maj = data.features[maj_idx]
    X_ref = data.features[ref_idx]
    candidates = np.arange(maj_idx.size)
    if version == 3:
        # each reference point's nearest majority rows
        near, _ = _nearest(X_ref, X_maj, min(n_use, maj_idx.size))
        candidates = np.unique(near)
        if candidates.size < target_count:
            raise DataError(
                f"nearmiss-3 candidate set of {candidates.size} is smaller than target "
                f"{target_count}; raise resample.n_ref (now {n_ref}) or set "
                "resample.target_counts"
            )
    _, picked = _nearest(X_maj[candidates], X_ref, n_use, farthest=version == 2)
    scores = np.sort(np.sqrt(picked), axis=1).mean(axis=1)
    order = candidates[np.argsort(-scores if version == 3 else scores, kind="stable")]
    return _keep(data, majority_class, maj_idx[order[:target_count]])


def random_undersample(data: Dataset, class_id: int, target_count: int,
                       rng: np.random.Generator) -> Dataset:
    """Keep a uniform random subset of one class, original row order preserved."""
    cls_idx = _members(data, class_id, target_count)
    return _keep(data, class_id, rng.choice(cls_idx, size=target_count, replace=False))


def _members(data: Dataset, cls: int, target_count: int) -> np.ndarray:
    """Row indices of class `cls`, which must have at least target_count rows."""
    counts = data.class_counts()
    if cls not in counts:
        raise DataError(f"class {cls} not present")
    if target_count > counts[cls]:
        raise DataError(f"target_count {target_count} exceeds class {cls} size {counts[cls]}")
    return np.flatnonzero(data.labels == cls)


def _keep(data: Dataset, cls: int, kept: np.ndarray) -> Dataset:
    """`data` without the rows of class `cls` outside `kept`, in row order."""
    keep_mask = data.labels != cls
    keep_mask[kept] = True
    return data.take(np.flatnonzero(keep_mask))


def apply_plan(data: Dataset, plan: ResamplePlan) -> Dataset:
    """Dispatch a plan: oversamplers add rows, undersamplers remove them
    class by class."""
    if plan.method in OVERSAMPLERS:
        return oversample(data, plan)
    counts = data.class_counts()
    targets = plan.resolved_targets(counts)
    smallest = min(sorted(counts), key=lambda c: (counts[c], c))
    rng = np.random.default_rng(plan.seed)
    out = data
    for cls in sorted(counts):
        if targets.get(cls, counts[cls]) >= counts[cls]:
            continue
        if plan.method == "random_under":
            out = random_undersample(out, cls, targets[cls], rng)
        else:
            out = nearmiss_undersample(
                out, cls, targets[cls],
                version=plan.nearmiss_version, n_ref=plan.n_ref,
                reference_class=smallest if smallest != cls else None,
            )
    return out
