"""Seeded synthetic cohorts: three imbalanced classes of nonnegative numeric
features, shaped like an encoded encounter table. Used by the demo scripts
and anywhere a small reproducible dataset is needed."""

from __future__ import annotations

import numpy as np

from .data import Dataset


def synthetic_cohort(n_rows: int = 600, n_features: int = 12, seed: int = 0,
                     weights: tuple[float, float, float] = (0.50, 0.32, 0.18),
                     separation: float = 2.0,
                     constant_column: bool = False) -> Dataset:
    """Three Gaussian-ish clusters with class imbalance set by `weights`.

    Features are clipped at zero so frequency-style scoring applies directly.
    `separation` scales how far apart the class centers sit (0 = pure noise).
    `constant_column` appends an all-zeros feature for exercising degenerate
    column handling.
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
    if constant_column:
        features = np.column_stack([features, np.zeros(n_rows)])

    names = tuple(f"f{i:02d}" for i in range(features.shape[1]))
    return Dataset(features, label_arr, names)
