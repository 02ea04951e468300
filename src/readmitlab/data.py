"""Dataset ingestion, min-max scaling, and stratified fold planning.

`load_dataset` checks the CSV header with `csv` and parses the body in one C
pass with `np.loadtxt`; the table is then checked as a whole (cell count,
labels in {0, 1, 2}, finite features). Only on a failure does it scan the
file line by line, to name the first bad line in file order.

A parse is kept in a sidecar, `<csv>.readmitlab.npz`, written beside the
CSV (as Python keeps bytecode in `__pycache__`). It holds the parsed arrays,
the feature names, the label column, a format version and the SHA-256 of the
bytes they were parsed from. A later load uses it only when that digest, the
label column and the version all match the CSV as it is now; the Dataset is
then built from the stored arrays and checked as a parsed one is. Anything
else (a missing, stale, truncated or unreadable sidecar) means a parse, after
which the sidecar is written atomically, or not at all if the directory is
not writable. The sidecar is a cache: deleting it only costs the next load
its parse.

All arrays are numpy float64 / int64. Datasets are immutable once built and
safe to share across parallel fold workers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
import tempfile
import warnings
from dataclasses import dataclass
from typing import Iterator, NoReturn

import numpy as np

from .errors import UNREADABLE, DataError

VALID_LABELS = (0, 1, 2)

# the label column of every CSV read or written; a sidecar records it
LABEL_COLUMN = "readmitted"

DEFAULT_CLASS_NAMES = {0: "0 days", 1: "<30 days", 2: ">30 days"}

SIDECAR_SUFFIX = ".readmitlab.npz"
# bump when the sidecar's keys or their meaning change
_SIDECAR_VERSION = 2

# One numeric cell as np.loadtxt's C parser reads it once surrounding
# whitespace is stripped: Python's float grammar without digit-group
# underscores and without non-ASCII digits.
_NUMBER = re.compile(r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)",
                     re.ASCII | re.IGNORECASE)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix (rows = instances) plus integer class labels.

    Labels must already be encoded as 0/1/2; reports name them by
    DEFAULT_CLASS_NAMES. Every feature value must be finite.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

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
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)

    def select_features(self, columns) -> "Dataset":
        """New Dataset restricted to the given feature columns (order preserved)."""
        cols = list(columns)
        return Dataset(self.features[:, cols], self.labels,
                       tuple(self.feature_names[c] for c in cols))


@dataclass(frozen=True)
class ScalingSpec:
    """Per-column min/max observed on a fit set; `degenerate_columns` lists
    the constant ones. A bound that is not finite (a loaded spec's NaN), a
    max below its min and a column whose max - min overflows float64 are
    DataErrors; the first and the last name the column."""

    feature_names: tuple[str, ...]
    minima: np.ndarray
    maxima: np.ndarray

    def __post_init__(self):
        unbounded = np.flatnonzero(~(np.isfinite(self.minima) & np.isfinite(self.maxima)))
        if unbounded.size:
            i = unbounded[0]
            raise DataError(f"column {self.feature_names[i]!r} has a non-finite scaling bound: "
                            f"min {float(self.minima[i])}, max {float(self.maxima[i])}")
        if np.any(self.maxima < self.minima):
            raise DataError("scaling spec has max < min")
        with np.errstate(over="ignore"):
            overflows = np.flatnonzero(np.isinf(self.maxima - self.minima))
        if overflows.size:
            i = overflows[0]
            raise DataError(f"column {self.feature_names[i]!r} cannot be min-max scaled: its "
                            f"range {float(self.minima[i])} to {float(self.maxima[i])} "
                            "overflows float64")

    @classmethod
    def fit(cls, data: Dataset) -> "ScalingSpec":
        """The minima and maxima of data's columns."""
        return cls(data.feature_names, data.features.min(axis=0), data.features.max(axis=0))

    @property
    def degenerate_columns(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.maxima == self.minima))


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


def load_dataset(path, *, sha256: str | None = None) -> Dataset:
    """Read a numeric CSV (header row, a 0/1/2 LABEL_COLUMN) into a Dataset.

    `sha256` is the file's `dataset_sha256`, for a caller that has already
    taken it; it picks the sidecar that may stand in for the parse. Without
    a sidecar for it, the body is parsed in one C pass by `np.loadtxt`. Only
    when that parse or a check on its table fails is the file scanned line by
    line, so that the error names the first offending file line. Bytes
    parsed that are not the ones a given `sha256` was taken from (the file
    was rewritten in between) still key the sidecar, and then raise a
    DataError, as the caller's digest does not name them.
    """
    sidecar = os.fspath(path) + SIDECAR_SUFFIX
    data = _read_sidecar(sidecar, dataset_sha256(path) if sha256 is None else sha256)
    if data is None:
        data, parsed_sha256 = _parse_csv(path)
        _write_sidecar(sidecar, path, data, parsed_sha256)
        if sha256 not in (None, parsed_sha256):
            raise DataError(f"{path} changed while it was read")
    return data


def _parse_csv(path) -> tuple[Dataset, str]:
    """The CSV at path as a Dataset, and the SHA-256 of the bytes parsed."""
    with open(path, "rb") as raw:
        hashed = _HashingReader(raw)
        with io.TextIOWrapper(io.BufferedReader(hashed, 1 << 20),
                              encoding="utf-8-sig", newline="") as fh:
            first = next(_records(path, fh), None)
            if first is None:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in first[1]]
            if LABEL_COLUMN not in header:
                raise DataError(f"{path}: no column named {LABEL_COLUMN!r} in header")
            if len(header) == 1:
                raise DataError(f"{path}: no feature column besides {LABEL_COLUMN!r}")
            if len(set(header)) != len(header):
                dupes = sorted({n for n in header if header.count(n) > 1})
                raise DataError(f"{path}: duplicate column names: {', '.join(dupes)}")
            label_idx = header.index(LABEL_COLUMN)
            names = tuple(h for i, h in enumerate(header) if i != label_idx)
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
    try:
        data = Dataset(features, labels, names)
    except DataError:  # a non-finite cell, the one fault the checks above leave
        _raise_first_bad_line(path, header, label_idx)
    return data, hashed.sha256.hexdigest()


class _HashingReader(io.RawIOBase):
    """Raw reader passing a binary file's bytes through a SHA-256, so that a
    sidecar is keyed by the very bytes that were parsed, however the file
    changes around the load."""

    def __init__(self, raw):
        self._raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def _read_sidecar(sidecar: str, sha256: str) -> Dataset | None:
    """The Dataset a sidecar holds for this digest and LABEL_COLUMN, or None."""
    try:
        with np.load(sidecar, allow_pickle=False) as stored:
            version, digest, column, names = (
                stored[k].tolist() for k in ("version", "sha256", "label_column", "feature_names"))
            if (version, digest, column) != (_SIDECAR_VERSION, sha256, LABEL_COLUMN):
                return None
            features, labels = stored["features"], stored["labels"]
        names = json.loads(names) if isinstance(names, str) else None
    except UNREADABLE:
        return None
    if (features.dtype != np.float64 or labels.dtype != np.int64
            or not isinstance(names, list) or not all(isinstance(n, str) for n in names)):
        return None
    try:
        return Dataset(features, labels, tuple(names))
    except DataError:
        return None


def _write_sidecar(sidecar: str, path, data: Dataset, sha256: str) -> None:
    """Write the sidecar through a temporary file and a rename, so readers see
    a whole file or none; it takes the permission bits of the CSV at path. A
    directory that cannot take it (read-only, full) means no sidecar, and no
    error."""
    directory, name = os.path.split(sidecar)
    try:
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, version=np.int64(_SIDECAR_VERSION), sha256=np.str_(sha256),
                     label_column=np.str_(LABEL_COLUMN),
                     feature_names=np.str_(json.dumps(list(data.feature_names))),
                     features=data.features, labels=data.labels)
        os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _raise_first_bad_line(path, header: list[str], label_idx: int) -> NoReturn:
    """Raise the DataError for the first bad data line of the CSV at path.

    Line numbers count CSV records, header included; blank lines count but
    are skipped. Cells are tested against `_NUMBER`, the grammar of the C
    parse, so the scan fails exactly the lines `np.loadtxt` rejects.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def save_dataset_csv(data: Dataset, path) -> None:
    """Write a Dataset back out in the same CSV dialect load_dataset reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(data.feature_names) + [LABEL_COLUMN])
        for row, label in zip(data.features, data.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def dataset_sha256(path) -> str:
    """Content hash of the input CSV, recorded in every report and keying
    its sidecar."""
    if not os.path.isfile(path):
        raise DataError(f"dataset file not found: {path}")
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
        spec = ScalingSpec.fit(data)
    elif spec.feature_names != data.feature_names:
        raise DataError("scaling spec fitted on different feature names")
    span = spec.maxima - spec.minima
    safe_span = np.where(span == 0.0, 1.0, span)
    scaled = (data.features - spec.minima) / safe_span
    scaled[:, span == 0.0] = 0.0
    return Dataset(scaled, data.labels, data.feature_names), spec


def _class_shuffles(labels: np.ndarray, seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """(class, its row indices permuted) for each class in increasing order,
    every permutation drawn from one generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    # a return flag keeps np.unique from importing numpy.ma
    for cls in np.unique(labels, return_counts=True)[0]:
        yield int(cls), rng.permutation(np.flatnonzero(labels == cls))


def stratified_kfold(labels, k: int, seed: int) -> FoldPlan:
    """Shuffle indices within each class by seed, then deal round-robin into k folds.

    Per-fold class counts land within one instance of n_c / k, which keeps the
    fold class proportions within 1/|fold| of the global ones.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    fold_of = np.empty(labels.size, dtype=np.int64)
    offset = 0
    for cls, members in _class_shuffles(labels, seed):
        if members.size < k:
            raise DataError(f"class {cls} has {members.size} members, fewer than k={k}")
        # the j-th shuffled member goes to fold (offset + j) % k; rotating the
        # dealing start per class keeps overall fold sizes within 1
        fold_of[members] = (offset + np.arange(members.size)) % k
        offset = (offset + members.size) % k
    folds = tuple(np.flatnonzero(fold_of == f) for f in range(k))
    for f in folds:
        f.setflags(write=False)
    return FoldPlan(k=k, folds=folds, seed=seed)


def stratified_subsample(data: Dataset, fraction: float, seed: int) -> Dataset:
    """Seeded per-class subsample keeping round(fraction * n_c) of each class."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return data
    keep = [members[:max(1, int(round(fraction * members.size)))]
            for _, members in _class_shuffles(data.labels, seed)]
    return data.take(np.sort(np.concatenate(keep)))
