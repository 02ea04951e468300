"""Class-balance correction over a shared exact k-nearest-neighbor backend.

Oversamplers: smote, borderline_smote, svm_smote, adasyn, random_over.
Undersampler: nearmiss (versions 1-3). All methods are pure given
(data, plan): the same plan and seed always reproduce the same rows, and the
first n output rows are the input rows bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError

OVERSAMPLERS = ("smote", "borderline_smote", "svm_smote", "adasyn", "random_over")
UNDERSAMPLERS = ("nearmiss", "random_under")
METHODS = OVERSAMPLERS + UNDERSAMPLERS

# direct pairwise differences are materialized only below this element budget;
# larger problems fall back to the norm-expansion formula with row blocking
_DIRECT_BUDGET = 1 << 24


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

    @classmethod
    def from_dict(cls, payload: dict) -> "ResamplePlan":
        targets = payload.get("target_counts")
        if targets is not None:
            targets = {int(c): int(n) for c, n in targets.items()}
        return cls(
            method=payload["method"],
            seed=int(payload["seed"]),
            k_neighbors=int(payload.get("k_neighbors", 5)),
            target_counts=targets,
            nearmiss_version=int(payload.get("nearmiss_version", 1)),
            n_ref=int(payload.get("n_ref", 3)),
        )


def _sq_dists(queries: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, queries x pool."""
    if queries.shape[0] * pool.shape[0] * pool.shape[1] <= _DIRECT_BUDGET:
        diff = queries[:, None, :] - pool[None, :, :]
        return (diff**2).sum(axis=2)
    q_norms = (queries**2).sum(axis=1)
    p_norms = (pool**2).sum(axis=1)
    d2 = q_norms[:, None] + p_norms[None, :] - 2.0 * (queries @ pool.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _neighbor_table(queries: np.ndarray, pool: np.ndarray, k: int,
                    self_indices: np.ndarray | None = None) -> np.ndarray:
    """Indices of the k nearest pool rows per query, ties broken by lower index.

    self_indices[i] gives the pool row that IS query i and must be skipped.
    Rows are processed in memory-bounded blocks.
    """
    if k > pool.shape[0] - (0 if self_indices is None else 1):
        raise ValueError(f"k={k} exceeds usable pool size {pool.shape[0]}")
    n_q = queries.shape[0]
    out = np.empty((n_q, k), dtype=np.int64)
    block = max(1, _DIRECT_BUDGET // max(1, pool.shape[0] * pool.shape[1]))
    for start in range(0, n_q, block):
        stop = min(start + block, n_q)
        d2 = _sq_dists(queries[start:stop], pool)
        if self_indices is not None:
            rows = np.arange(start, stop)
            d2[rows - start, self_indices[start:stop]] = np.inf
        order = np.argsort(d2, axis=1, kind="stable")
        out[start:stop] = order[:, :k]
    return out


def knn(query, pool, k: int) -> list[int]:
    """Indices of the k nearest pool rows to one query point, by Euclidean
    distance, distance ties broken by lower index."""
    pool = np.asarray(pool, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    if k > pool.shape[0]:
        raise ValueError(f"k={k} exceeds pool size {pool.shape[0]}")
    return [int(i) for i in _neighbor_table(query, pool, k)[0]]


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
    nn_min = _neighbor_table(x_min, x_min, k, self_indices=np.arange(n_min))

    if plan.method == "smote":
        bases = rng.integers(0, n_min, size=need)
        return _interpolate(x_min, bases, nn_min, rng)

    # remaining methods inspect each minority point's neighborhood in the full set
    nn_full = _neighbor_table(x_min, X, k, self_indices=min_idx)
    other_frac = (y[nn_full] != cls).mean(axis=1)

    if plan.method == "borderline_smote":
        other_count = (y[nn_full] != cls).sum(axis=1)
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
    return Dataset(new_X, new_y, data.feature_names, dict(data.class_names))


def nearmiss_undersample(data: Dataset, majority_class: int, target_count: int,
                         version: int = 1, n_ref: int = 3,
                         reference_class: int | None = None) -> Dataset:
    """Keep the target_count majority instances selected by the NearMiss rule;
    all non-majority rows pass through unchanged.

    Version 1 (default) keeps the instances with the smallest average distance
    to their n_ref closest reference-class instances; version 2 uses the n_ref
    farthest; version 3 pre-selects each reference point's n_ref nearest
    majority instances, then keeps those with the largest average distance.
    The reference class defaults to the smallest other class.
    """
    counts = data.class_counts()
    if majority_class not in counts:
        raise DataError(f"class {majority_class} not present")
    if target_count > counts[majority_class]:
        raise DataError(
            f"target_count {target_count} exceeds class {majority_class} size {counts[majority_class]}"
        )
    if reference_class is None:
        others = {c: n for c, n in counts.items() if c != majority_class}
        if not others:
            raise DataError("nearmiss needs at least two classes")
        reference_class = min(sorted(others), key=lambda c: (others[c], c))
    maj_idx = np.flatnonzero(data.labels == majority_class)
    ref_idx = np.flatnonzero(data.labels == reference_class)
    if ref_idx.size == 0:
        raise DataError(f"reference class {reference_class} not present")
    n_use = min(n_ref, ref_idx.size)
    X_maj = data.features[maj_idx]
    X_ref = data.features[ref_idx]
    dists = np.sqrt(_sq_dists(X_maj, X_ref))

    if version in (1, 2):
        part = np.sort(dists, axis=1)
        scores = part[:, :n_use].mean(axis=1) if version == 1 else part[:, -n_use:].mean(axis=1)
        order = np.argsort(scores, kind="stable")
        kept_local = np.sort(order[:target_count])
    else:
        near = np.argsort(dists.T, axis=1, kind="stable")[:, :n_use]  # per-reference nearest majority
        candidates = np.unique(near)
        if candidates.size < target_count:
            raise DataError(
                f"nearmiss-3 candidate set of {candidates.size} is smaller than target {target_count}"
            )
        avg_close = np.sort(dists[candidates], axis=1)[:, :n_use].mean(axis=1)
        order = candidates[np.argsort(-avg_close, kind="stable")]
        kept_local = np.sort(order[:target_count])

    keep_mask = np.zeros(data.n_instances, dtype=bool)
    keep_mask[data.labels != majority_class] = True
    keep_mask[maj_idx[kept_local]] = True
    return data.take(np.flatnonzero(keep_mask))


def random_undersample(data: Dataset, class_id: int, target_count: int,
                       rng: np.random.Generator) -> Dataset:
    """Keep a uniform random subset of one class, original row order preserved."""
    counts = data.class_counts()
    if class_id not in counts:
        raise DataError(f"class {class_id} not present")
    if target_count > counts[class_id]:
        raise DataError(
            f"target_count {target_count} exceeds class {class_id} size {counts[class_id]}"
        )
    cls_idx = np.flatnonzero(data.labels == class_id)
    kept = rng.choice(cls_idx, size=target_count, replace=False)
    keep_mask = np.zeros(data.n_instances, dtype=bool)
    keep_mask[data.labels != class_id] = True
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
