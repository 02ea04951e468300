"""The benchmark's own input: a seeded, UCI-shaped cohort written as CSV.

The recipe matches `readmitlab.synth.synthetic_cohort` (three Gaussian
classes clipped at zero, shuffled), but lives here so that a change to the
package's generator or CSV writer cannot change a workload's input.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

ROWS = 100_000
FEATURES = 45
WEIGHTS = (0.54, 0.11, 0.35)
SEPARATION = 2.0
LABEL_COLUMN = "readmitted"


def class_counts(n_rows: int, weights=WEIGHTS) -> list[int]:
    """Rows per class: floor of the weighted share, topped up by largest gap."""
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    counts = np.maximum(1, np.floor(w * n_rows).astype(np.int64))
    while counts.sum() < n_rows:
        counts[int(np.argmax(w * n_rows - counts))] += 1
    while counts.sum() > n_rows:
        counts[int(np.argmax(counts))] -= 1
    return [int(c) for c in counts]


def make_cohort(seed: int, n_rows: int = ROWS, n_features: int = FEATURES):
    """(features, labels) for one seed; same seed, same arrays."""
    rng = np.random.default_rng(seed)
    counts = class_counts(n_rows)
    centers = rng.uniform(0.5, 0.5 + SEPARATION, size=(3, n_features))
    blocks = [np.maximum(rng.normal(centers[c], 1.0, size=(counts[c], n_features)), 0.0)
              for c in range(3)]
    labels = np.concatenate([np.full(n, c, dtype=np.int64) for c, n in enumerate(counts)])
    order = rng.permutation(n_rows)
    return np.vstack(blocks)[order], labels[order]


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> None:
    names = [f"f{i:02d}" for i in range(features.shape[1])]
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names + [LABEL_COLUMN]) + "\n")
        for row, label in zip(features.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")
    os.replace(tmp, path)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cohort_csv(cache_dir: Path, seed: int, n_rows: int = ROWS,
               keep: int = 12) -> tuple[Path, list[int]]:
    """Path of the cached cohort CSV for `seed` (written on first use) and
    its per-class row counts. At most `keep` cohorts of this size stay cached."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"cohort-{n_rows}-{seed}.csv"
    if not path.exists():
        write_csv(path, *make_cohort(seed, n_rows))
        stale = sorted(cache_dir.glob(f"cohort-{n_rows}-*.csv"),
                       key=lambda p: p.stat().st_mtime, reverse=True)[keep:]
        for old in stale:
            old.unlink(missing_ok=True)
    return path, class_counts(n_rows)
