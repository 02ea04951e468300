"""Dataset ingestion, min-max scaling, and stratified fold planning.

`load_dataset` checks the CSV header with `csv` and parses the body in one C
pass with `np.loadtxt`; the table is then checked as a whole (cell count,
labels in {0, 1, 2}, finite features). Only on a failure does it scan the
file line by line, to name the first bad line in file order.

All arrays are numpy float64 / int64. Datasets are immutable once built and
safe to share across parallel fold workers.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Iterator, NoReturn

import numpy as np

from .errors import DataError

VALID_LABELS = (0, 1, 2)

DEFAULT_CLASS_NAMES = {0: "0 days", 1: "<30 days", 2: ">30 days"}

# One numeric cell as np.loadtxt's C parser reads it once surrounding
# whitespace is stripped: Python's float grammar without digit-group
# underscores and without non-ASCII digits.
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)",
                     re.ASCII | re.IGNORECASE)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix (rows = instances) plus integer class labels.

    Labels must already be encoded as 0/1/2; the readmission-day names are
    carried as metadata only. Every feature value must be finite.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    class_names: dict[int, str] = field(default_factory=lambda: dict(DEFAULT_CLASS_NAMES))

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DataError(
                f"labels length {labels.shape} does not match {feats.shape[0]} feature rows"
            )
        bad = np.flatnonzero(~np.isin(labels, VALID_LABELS))
        if bad.size:
            raise DataError(f"label {labels[bad[0]]} at row {bad[0] + 1} is outside {{0,1,2}}")
        names = tuple(self.feature_names)
        if len(names) != feats.shape[1]:
            raise DataError(
                f"{len(names)} feature names for {feats.shape[1]} feature columns"
            )
        bad = _first_non_finite(feats)
        if bad is not None:
            row, col = bad
            raise DataError(f"non-finite feature value {float(feats[row, col])} "
                            f"at row {row + 1}, column {names[col]!r}")
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"duplicate feature names: {', '.join(dupes)}")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def classes(self) -> list[int]:
        return sorted(self.class_counts())

    def take(self, indices) -> "Dataset":
        """New Dataset restricted to the given row indices (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names, dict(self.class_names))

    def select_features(self, columns) -> "Dataset":
        """New Dataset restricted to the given feature columns (order preserved)."""
        cols = list(columns)
        return Dataset(
            self.features[:, cols],
            self.labels,
            tuple(self.feature_names[c] for c in cols),
            dict(self.class_names),
        )


@dataclass(frozen=True)
class ScalingSpec:
    """Per-column min/max observed on a fit set; `degenerate` marks constant columns."""

    feature_names: tuple[str, ...]
    minima: np.ndarray
    maxima: np.ndarray

    def __post_init__(self):
        if np.any(self.maxima < self.minima):
            raise DataError("scaling spec has max < min")

    @property
    def degenerate_columns(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.maxima == self.minima))

    def to_json(self) -> str:
        payload = {
            name: {"min": float(lo), "max": float(hi)}
            for name, lo, hi in zip(self.feature_names, self.minima, self.maxima)
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScalingSpec":
        payload = json.loads(text)
        names = tuple(payload)
        lo = np.array([payload[n]["min"] for n in names], dtype=np.float64)
        hi = np.array([payload[n]["max"] for n in names], dtype=np.float64)
        return cls(names, lo, hi)


@dataclass(frozen=True)
class FoldPlan:
    """k disjoint test-index sets that exactly partition the instances."""

    k: int
    folds: tuple[np.ndarray, ...]
    seed: int

    def test_indices(self, fold: int) -> np.ndarray:
        return self.folds[fold]

    def train_indices(self, fold: int) -> np.ndarray:
        return np.concatenate([self.folds[f] for f in range(self.k) if f != fold])


def load_dataset(path, label_column: str = "readmitted") -> Dataset:
    """Read a numeric CSV (header row, one 0/1/2 label column) into a Dataset.

    The body is parsed in one C pass by `np.loadtxt`. Only when that parse or
    a check on its table fails is the file scanned line by line, so that the
    error names the first offending file line.
    """
    if not os.path.isfile(path):
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        first = next(_records(path, fh), None)
        if first is None:
            raise DataError(f"{path}: empty file")
        header = [h.strip() for h in first[1]]
        if label_column not in header:
            raise DataError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
        names = tuple(h for i, h in enumerate(header) if i != label_idx)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise DataError(f"{path}: duplicate feature names: {', '.join(dupes)}")
        try:
            with warnings.catch_warnings():
                # a body without rows is reported by the scan as "no data rows"
                warnings.simplefilter("ignore", UserWarning)
                # comments=None: by default a '#' would silently drop the rest of its line
                table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2)
        except ValueError:  # UnicodeDecodeError included
            _raise_first_bad_line(path, header, label_idx)
    if (table.shape[1] != len(header) or table.shape[0] == 0
            or not np.isin(table[:, label_idx], VALID_LABELS).all()):
        _raise_first_bad_line(path, header, label_idx)
    labels = table[:, label_idx].astype(np.int64)
    features = np.delete(table, label_idx, axis=1)
    del table
    if _first_non_finite(features) is not None:
        _raise_first_bad_line(path, header, label_idx)
    return Dataset(features, labels, names)


def _raise_first_bad_line(path, header: list[str], label_idx: int) -> NoReturn:
    """Raise the DataError for the first bad data line of the CSV at path.

    Line numbers count CSV records, header included; blank lines count but
    are skipped. Cells are tested against `_NUMBER`, the grammar of the C
    parse, so the scan fails exactly the lines `np.loadtxt` rejects.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        records = _records(path, fh)
        next(records)  # the header, already checked
        for line_no, row in records:
            if not row:
                continue
            where = f"{path} line {line_no}"
            if len(row) != len(header):
                raise DataError(f"{where}: {len(row)} cells, expected {len(header)}")
            cells = [(header[i], c) for i, c in enumerate(row) if i != label_idx]
            bad = next((c for _, c in cells if not _NUMBER.fullmatch(c.strip())), None)
            if bad is not None:
                raise DataError(f"{where}: non-numeric cell {bad!r}")
            raw_label = row[label_idx].strip()
            label = float(raw_label) if _NUMBER.fullmatch(raw_label) else math.nan
            if math.isnan(label):
                raise DataError(f"{where}: non-numeric label {raw_label!r}")
            if label not in VALID_LABELS:
                raise DataError(f"{where}: label {raw_label} outside {{0,1,2}}")
            for name, cell in cells:
                if not math.isfinite(float(cell)):
                    raise DataError(f"{where}: non-finite cell {str(float(cell))!r} "
                                    f"in column {name!r}")
    raise DataError(f"{path}: no data rows")


def _records(path, fh) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) of each CSV record read from fh, counting records
    from 1. A record csv rejects, such as one with a cell over its field size
    limit, and bytes that are not UTF-8 raise DataError naming the path."""
    rows = csv.reader(fh)
    for line_no in itertools.count(1):
        try:
            row = next(rows)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"{path} line {line_no}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: byte "
                            f"0x{exc.object[exc.start]:02x} {exc.reason}") from None
        yield line_no, row


def _first_non_finite(features: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first nan or infinite value, or None."""
    bad = ~np.isfinite(features)
    if not bad.any():
        return None
    row, col = np.argwhere(bad)[0]
    return int(row), int(col)


def save_dataset_csv(data: Dataset, path, label_column: str = "readmitted") -> None:
    """Write a Dataset back out in the same CSV dialect load_dataset reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.feature_names) + [label_column])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def dataset_sha256(path) -> str:
    """Content hash of the input CSV, recorded in every report."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def min_max_normalize(data: Dataset, spec: ScalingSpec | None = None) -> tuple[Dataset, ScalingSpec]:
    """Map each column to (x - min) / (max - min).

    With a supplied spec the same affine map is reused (fold-safe transform of
    test data); otherwise a fresh spec is fit on the input. Constant columns
    map to all zeros and are flagged on the spec.
    """
    if spec is None:
        spec = ScalingSpec(
            data.feature_names,
            data.features.min(axis=0),
            data.features.max(axis=0),
        )
    elif spec.feature_names != data.feature_names:
        raise DataError("scaling spec fitted on different feature names")
    span = spec.maxima - spec.minima
    safe_span = np.where(span == 0.0, 1.0, span)
    scaled = (data.features - spec.minima) / safe_span
    scaled[:, span == 0.0] = 0.0
    return Dataset(scaled, data.labels, data.feature_names, dict(data.class_names)), spec


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Shuffle indices within each class by seed, then deal round-robin into k folds.

    Per-fold class counts land within one instance of n_c / k, which keeps the
    fold class proportions within 1/|fold| of the global ones.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise DataError(
                f"class {int(cls)} has {members.size} members, fewer than k={k}"
            )
        shuffled = rng.permutation(members)
        # rotate the dealing start per class so overall fold sizes stay within 1
        for j, idx in enumerate(shuffled):
            buckets[(offset + j) % k].append(int(idx))
        offset = (offset + members.size) % k
    folds = tuple(np.array(sorted(b), dtype=np.int64) for b in buckets)
    for f in folds:
        f.setflags(write=False)
    return FoldPlan(k=k, folds=folds, seed=seed)


def stratified_subsample(data: Dataset, fraction: float, seed: int) -> Dataset:
    """Seeded per-class subsample keeping round(fraction * n_c) of each class."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return data
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    for cls in np.unique(data.labels):
        members = np.flatnonzero(data.labels == cls)
        n_keep = max(1, int(round(fraction * members.size)))
        keep.append(rng.permutation(members)[:n_keep])
    idx = np.sort(np.concatenate(keep))
    return data.take(idx)
