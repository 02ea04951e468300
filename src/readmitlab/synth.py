"""Seeded synthetic cohorts: three imbalanced classes of nonnegative numeric
features, shaped like an encoded encounter table. The tests draw their
small reproducible datasets from it, and bench/test_bench.py checks the
bench cohort against it; the demos build their own data."""

from __future__ import annotations

import numpy as np

from .data import Dataset


def synthetic_cohort(n_rows: int = 600, n_features: int = 12, seed: int = 0,
                     weights: tuple[float, float, float] = (0.50, 0.32, 0.18),
                     separation: float = 2.0) -> Dataset:
    """Three Gaussian-ish clusters with class imbalance set by `weights`.

    Features are clipped at zero so frequency-style scoring applies directly.
    `separation` scales how far apart the class centers sit (0 = pure noise).
    """
    if n_rows < 3:
        raise ValueError("need at least one row per class")
    rng = np.random.default_rng(seed)
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()

    counts = np.maximum(1, np.floor(w * n_rows).astype(np.int64))
    while counts.sum() < n_rows:
        counts[int(np.argmax(w * n_rows - counts))] += 1
    while counts.sum() > n_rows:
        counts[int(np.argmax(counts))] -= 1

    centers = rng.uniform(0.5, 0.5 + separation, size=(3, n_features))
    rows, labels = [], []
    for cls in range(3):
        block = rng.normal(centers[cls], 1.0, size=(counts[cls], n_features))
        rows.append(np.maximum(block, 0.0))
        labels.append(np.full(counts[cls], cls, dtype=np.int64))
    features = np.vstack(rows)
    label_arr = np.concatenate(labels)

    order = rng.permutation(n_rows)
    features, label_arr = features[order], label_arr[order]
    names = tuple(f"f{i:02d}" for i in range(n_features))
    return Dataset(features, label_arr, names)
