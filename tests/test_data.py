"""Dataset loading, min-max normalization, stratified folds, subsampling."""

import errno
import hashlib
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab.data import (
    SIDECAR_SUFFIX,
    VALID_LABELS,
    Dataset,
    ScalingSpec,
    dataset_sha256,
    load_dataset,
    min_max_normalize,
    save_dataset_csv,
    stratified_kfold,
    stratified_subsample,
)
from readmitlab.errors import DataError

from helpers import make_dataset


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def sidecar_of(path) -> Path:
    return Path(f"{path}{SIDECAR_SUFFIX}")


def load_error(path) -> str:
    """The DataError message load_dataset raises for the CSV at path, which
    must leave no sidecar behind."""
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert not sidecar_of(path).exists()
    return str(err.value)


class TestDataset:
    def test_valid_construction(self):
        data = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 2])
        assert data.n_instances == 2
        assert data.n_features == 2
        assert data.class_counts() == {0: 1, 2: 1}
        assert data.classes() == [0, 2]

    def test_label_outside_range_rejected(self):
        with pytest.raises(DataError) as err:
            make_dataset([[1.0], [2.0]], [0, 5])
        assert "5" in str(err.value)

    def test_negative_label_rejected(self):
        with pytest.raises(DataError):
            make_dataset([[1.0]], [-1])

    def test_feature_name_count_must_match(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int), ("a", "b"))

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(DataError) as err:
            Dataset(np.zeros((2, 2)), np.zeros(2, dtype=int), ("a", "a"))
        assert "duplicate" in str(err.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_rejected(self, value):
        features = np.zeros((3, 2))
        features[2, 1] = value
        with pytest.raises(DataError) as err:
            Dataset(features, np.zeros(3, dtype=int), ("a", "b"))
        assert f"non-finite feature value {value} at row 3, column 'b'" in str(err.value)

    def test_features_are_read_only(self):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            data.features[0, 0] = 9.0

    def test_take_preserves_order(self):
        data = make_dataset([[0.0], [1.0], [2.0]], [0, 1, 2])
        sub = data.take([2, 0])
        assert sub.features[:, 0].tolist() == [2.0, 0.0]
        assert sub.labels.tolist() == [2, 0]

    def test_select_features(self):
        data = make_dataset([[1.0, 2.0, 3.0]], [0], names=("a", "b", "c"))
        sub = data.select_features([2, 0])
        assert sub.feature_names == ("c", "a")
        assert sub.features.tolist() == [[3.0, 1.0]]


class TestLoadDataset:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = make_dataset(rng.normal(size=(17, 4)), rng.integers(0, 3, size=17))
        path = tmp_path / "cohort.csv"
        save_dataset_csv(data, path)
        back = load_dataset(path)
        assert back.feature_names == data.feature_names
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)

    def test_bad_label_names_offending_line(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "a,b,readmitted\n1,2,0\n3,4,5\n")
        message = load_error(path)
        assert "line 3" in message
        assert "5" in message

    def test_fractional_label_rejected(self, tmp_path):
        path = write_csv(tmp_path / "frac.csv", "a,readmitted\n1,0\n2,1.5\n")
        assert "line 3" in load_error(path)

    def test_float_encoded_integer_label_accepted(self, tmp_path):
        path = write_csv(tmp_path / "ok.csv", "a,readmitted\n1,2.0\n2,0\n")
        data = load_dataset(path)
        assert data.labels.tolist() == [2, 0]

    def test_non_numeric_cell_named(self, tmp_path):
        path = write_csv(tmp_path / "cell.csv", "a,b,readmitted\n1,oops,0\n")
        message = load_error(path)
        assert "line 2" in message
        assert "oops" in message

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_cell_named(self, tmp_path, cell):
        # the blank line still counts, so the bad cell is on file line 4
        path = write_csv(tmp_path / "cell.csv", f"a,b,readmitted\n1,2,0\n\n3,{cell},1\n")
        value = str(float(cell))
        assert f"line 4: non-finite cell '{value}' in column 'b'" in load_error(path)

    @pytest.mark.parametrize("label, message", [
        ("inf", "label inf outside {0,1,2}"),
        ("1e400", "label 1e400 outside {0,1,2}"),
        ("nan", "non-numeric label 'nan'"),
    ])
    def test_non_finite_label_named(self, tmp_path, label, message):
        path = write_csv(tmp_path / "label.csv", f"a,readmitted\n1,0\n2,{label}\n")
        assert f"line 3: {message}" in load_error(path)

    @pytest.mark.parametrize("line, message", [
        ("1_0,0", "non-numeric cell '1_0'"),
        ("\u0661,0", "non-numeric cell '\u0661'"),
        ("2#x,0", "non-numeric cell '2#x'"),
        ("#1,0", "non-numeric cell '#1'"),
        (",0", "non-numeric cell ''"),
    ])
    def test_cell_outside_the_number_grammar_named(self, tmp_path, line, message):
        # float() accepts digit-group underscores and non-ASCII digits; the
        # loader does not, and a '#' starts no comment
        path = write_csv(tmp_path / "cell.csv", f"a,readmitted\n1,0\n{line}\n")
        assert f"line 3: {message}" in load_error(path)

    def test_first_bad_line_in_file_order_is_named(self, tmp_path):
        path = write_csv(tmp_path / "two.csv", "a,b,readmitted\n1,nan,0\n1,oops,0\n")
        assert "line 2: non-finite cell 'nan' in column 'b'" in load_error(path)

    def test_peak_memory_within_four_feature_arrays(self, tmp_path):
        rng = np.random.default_rng(5)
        data = make_dataset(rng.normal(size=(20_000, 45)), rng.integers(0, 3, size=20_000))
        path = tmp_path / "big.csv"
        save_dataset_csv(data, path)
        tracemalloc.start()
        try:
            back = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.features, data.features)
        assert peak <= 4 * data.features.nbytes

    @pytest.mark.parametrize("rows_before", [0, 5_000])
    def test_bytes_that_are_not_utf8_are_a_data_error(self, tmp_path, rows_before):
        # 0 rows: the header read meets the byte; 5 000 rows (past the first
        # read-ahead chunk): the C parse meets it, and the line scan reports it
        body = "1,0\n" * rows_before
        path = tmp_path / "latin1.csv"
        path.write_bytes(f"a,readmitted\n{body}".encode() + b"caf\xe9,0\n")
        message = load_error(path)
        assert "not UTF-8 text: byte 0xe9" in message and str(path) in message

    @pytest.mark.parametrize("text, line", [
        ("a,readmitted\n1,0\n{cell},1\n", 3),
        ("a{cell},readmitted\n1,0\n", 1),
    ])
    def test_cell_over_the_csv_field_limit_names_its_line(self, tmp_path, text, line):
        # a 200 000-character cell is past csv's 131 072-character field limit
        path = write_csv(tmp_path / "long.csv", text.format(cell="1" * 199_999 + "x"))
        assert f"line {line}: field larger than field limit" in load_error(path)

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path / "nolabel.csv", "a,b\n1,2\n")
        assert "readmitted" in load_error(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path / "ragged.csv", "a,b,readmitted\n1,2,0\n1,0\n")
        assert "line 3" in load_error(path)

    def test_missing_file(self, tmp_path):
        load_error(tmp_path / "absent.csv")

    def test_empty_and_header_only_files(self, tmp_path):
        load_error(write_csv(tmp_path / "empty.csv", ""))
        load_error(write_csv(tmp_path / "header.csv", "a,readmitted\n"))

    @pytest.mark.parametrize("text", ["a,readmitted\n1,0\n2,1\n", "readmitted,a\n0,1\n1,2\n"],
                             ids=["feature-first", "label-first"])
    def test_a_byte_order_mark_is_not_part_of_a_name(self, tmp_path, text):
        data = load_dataset(write_csv(tmp_path / "bom.csv", "\ufeff" + text))
        assert data.feature_names == ("a",)
        assert data.labels.tolist() == [0, 1]
        assert data.features[:, 0].tolist() == [1.0, 2.0]

    def test_a_bad_line_after_a_byte_order_mark_is_named(self, tmp_path):
        path = write_csv(tmp_path / "bom.csv", "\ufeffa,readmitted\n1,0\nnan,1\n")
        assert "line 3: non-finite cell 'nan' in column 'a'" in load_error(path)

    @pytest.mark.parametrize("header, dupes", [
        ("readmitted,readmitted", "readmitted"), ("a,b,a,readmitted", "a"),
        ("b,readmitted,b,readmitted", "b, readmitted")])
    def test_a_header_that_names_a_column_twice_is_named(self, tmp_path, header, dupes):
        path = write_csv(tmp_path / "dup.csv", header + "\n" + ",".join(
            "0" for _ in header.split(",")) + "\n")
        assert load_error(path) == f"{path}: duplicate column names: {dupes}"

    def test_sha256_matches_file_bytes(self, tmp_path):
        path = write_csv(tmp_path / "h.csv", "a,readmitted\n1,0\n")
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert dataset_sha256(path) == expected


def forbid_parsing(monkeypatch):
    """From here on a load can only come from a sidecar."""
    def parse(*args, **kwargs):
        raise AssertionError("the CSV was parsed")

    monkeypatch.setattr(np, "loadtxt", parse)


def assert_same_bytes(got: Dataset, want: Dataset):
    assert got.feature_names == want.feature_names
    assert got.features.dtype == want.features.dtype and got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.dtype == want.labels.dtype and got.labels.tobytes() == want.labels.tobytes()


class TestSidecar:
    """The parsed table kept beside the CSV stands in for a parse only of the
    bytes it was parsed from."""

    @staticmethod
    def cohort(tmp_path, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-300, 300, size=(40, 3))
        features[0] = [-0.0, 5e-324, np.finfo(np.float64).max]
        data = make_dataset(features, rng.integers(0, 3, size=40), ("a", "b", "c"))
        path = tmp_path / "cohort.csv"
        save_dataset_csv(data, path)
        return path, data

    def test_a_hit_gives_the_parsed_bytes_without_parsing(self, tmp_path, monkeypatch):
        path, data = self.cohort(tmp_path)
        parsed = load_dataset(path)
        assert_same_bytes(parsed, data)
        assert sidecar_of(path).is_file()
        forbid_parsing(monkeypatch)
        for warm in (load_dataset(path), load_dataset(path, sha256=dataset_sha256(path))):
            assert_same_bytes(warm, parsed)
            assert not warm.features.flags.writeable and not warm.labels.flags.writeable

    def test_a_rewritten_csv_is_parsed_again_and_its_sidecar_replaced(self, tmp_path,
                                                                       monkeypatch):
        path, _ = self.cohort(tmp_path, seed=0)
        load_dataset(path)
        _, rewritten = self.cohort(tmp_path, seed=1)
        assert_same_bytes(load_dataset(path), rewritten)
        forbid_parsing(monkeypatch)
        assert_same_bytes(load_dataset(path), rewritten)

    def test_a_csv_changed_after_it_was_hashed_keys_the_sidecar_by_the_bytes_parsed(
            self, tmp_path, monkeypatch):
        path, first = self.cohort(tmp_path, seed=0)
        stale_digest = dataset_sha256(path)
        _, second = self.cohort(tmp_path, seed=1)
        # the caller's digest does not name the bytes parsed
        with pytest.raises(DataError) as err:
            load_dataset(path, sha256=stale_digest)
        assert str(err.value) == f"{path} changed while it was read"
        with monkeypatch.context() as patch:
            forbid_parsing(patch)
            assert_same_bytes(load_dataset(path), second)
        self.cohort(tmp_path, seed=0)  # the bytes stale_digest was taken from
        assert_same_bytes(load_dataset(path), first)

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "empty", "bit flip"])
    def test_an_unreadable_sidecar_is_parsed_again(self, tmp_path, monkeypatch, damage):
        path, data = self.cohort(tmp_path)
        load_dataset(path)
        sidecar = sidecar_of(path)
        stored = bytearray(sidecar.read_bytes())
        if damage == "truncated":
            stored = stored[: len(stored) // 2]
        elif damage == "garbage":
            stored = bytearray(b"not a sidecar\n" * 50)
        elif damage == "empty":
            stored = bytearray()
        else:
            stored[stored.index(b"features.npy") + 400] ^= 0x10
        sidecar.write_bytes(bytes(stored))
        assert_same_bytes(load_dataset(path), data)
        forbid_parsing(monkeypatch)  # the damaged sidecar was replaced
        assert_same_bytes(load_dataset(path), data)

    def test_a_sidecar_whose_npy_header_does_not_tokenize_is_parsed_again(
            self, tmp_path, monkeypatch):
        # np.load's header parser lets tokenize's error through on "{(((("
        path, data = self.cohort(tmp_path)
        header = b"{((((".ljust(53) + b"\n"
        sidecar_of(path).write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little")
                                     + header)
        assert_same_bytes(load_dataset(path), data)
        forbid_parsing(monkeypatch)  # the damaged sidecar was replaced
        assert_same_bytes(load_dataset(path), data)

    @pytest.mark.parametrize("field, value", [
        ("version", np.int64(0)),
        ("sha256", np.str_("0" * 64)),
        ("features", "nan"),
        ("features", "float32"),
        ("labels", "7"),
        ("feature_names", np.str_('["a", "b"]')),
        ("feature_names", np.str_('["a", "b", "b"]')),
        ("feature_names", np.str_("{}")),
    ])
    def test_a_sidecar_that_does_not_match_or_fails_the_checks_is_not_used(
            self, tmp_path, field, value):
        path, data = self.cohort(tmp_path)
        load_dataset(path)
        sidecar = sidecar_of(path)
        with np.load(sidecar) as stored:
            members = dict(stored)
        if value == "nan":
            value = members["features"].copy()
            value[3, 1] = np.nan
        elif value == "float32":
            value = np.zeros(members["features"].shape, np.float32)
        elif value == "7":
            value = members["labels"].copy()
            value[5] = 7
        members[field] = value
        np.savez(sidecar, **members)
        assert_same_bytes(load_dataset(path), data)

    @pytest.mark.parametrize("failure", ["read-only directory", "full disk"])
    def test_a_directory_that_cannot_take_the_sidecar_still_loads(self, tmp_path,
                                                                   monkeypatch, failure):
        path, data = self.cohort(tmp_path)

        def fail(*args, **kwargs):
            if failure == "read-only directory":
                raise PermissionError(errno.EACCES, "Permission denied")
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(*((tempfile, "mkstemp") if failure == "read-only directory"
                              else (np, "savez")), fail)
        assert_same_bytes(load_dataset(path), data)
        assert os.listdir(tmp_path) == ["cohort.csv"]  # no sidecar, no temporary file

    def test_a_version_1_sidecar_is_parsed_again(self, tmp_path):
        path = write_csv(tmp_path / "bom.csv", "\ufeffa,readmitted\n1,0\n2,1\n")
        load_dataset(path)
        sidecar = sidecar_of(path)
        with np.load(sidecar) as stored:
            members = dict(stored)
        # what version 1 stored for these bytes: the byte-order mark in the name
        members.update(version=np.int64(1), feature_names=np.str_('["\\ufeffa"]'))
        np.savez(sidecar, **members)
        assert load_dataset(path).feature_names == ("a",)
        with np.load(sidecar) as stored:
            assert json.loads(stored["feature_names"].item()) == ["a"]

    def test_the_sidecar_takes_the_csv_permission_bits(self, tmp_path):
        path, _ = self.cohort(tmp_path)
        path.chmod(0o640)
        load_dataset(path)
        assert sidecar_of(path).stat().st_mode & 0o777 == 0o640


def oracle_float(cell):
    """Python's float without the digit-group underscores and non-ASCII
    digits that the loader rejects; None for a non-numeric cell."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def oracle_load(text, n_cols, label_idx):
    """Plain per-line reading of a generated CSV: the file line of the first
    bad line, or the (features, labels) arrays."""
    rows, labels = [], []
    for line_no, line in enumerate(text.split("\n")[1:], start=2):
        if not line:
            continue
        cells = [c[1:-1] if len(c) > 1 and c[0] == c[-1] == '"' else c
                 for c in line.split(",")]
        if len(cells) != n_cols:
            return line_no
        values = [oracle_float(c) for i, c in enumerate(cells) if i != label_idx]
        label = oracle_float(cells[label_idx])
        if (None in values or label not in VALID_LABELS
                or not all(math.isfinite(v) for v in values)):
            return line_no
        rows.append(values)
        labels.append(int(label))
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


REPR = st.floats(allow_nan=False, allow_infinity=False).map(repr)
NUMBER = st.one_of(REPR, REPR.map(lambda c: f" {c}\t"), REPR.map(lambda c: f'"{c}"'),
                   REPR.map(lambda c: f'" {c} "'))
LABEL = st.sampled_from(["0", "1", "2", "2.0", " 1 ", '"0"', "1e0"])
BAD_CELL = st.sampled_from(["oops", "1_0", "\u0661", "2#x", "", "nan", "-inf", "1e400"])
BAD_LABEL = st.sampled_from(["1.5", "3", "nan", "inf"])
FAULT = st.sampled_from([None, None, None, "cell", "label", "comment", "count"])


@settings(max_examples=300, deadline=None)
@given(draw=st.data())
def test_loader_matches_a_per_line_oracle(tmp_path_factory, draw):
    n_features = draw.draw(st.integers(1, 3))
    label_idx = draw.draw(st.integers(0, n_features))
    header = [f"f{i}" for i in range(n_features)]
    header.insert(label_idx, "readmitted")
    lines = [",".join(header)]
    for _ in range(draw.draw(st.integers(1, 6))):
        cells = draw.draw(st.lists(NUMBER, min_size=n_features, max_size=n_features))
        cells.insert(label_idx, draw.draw(LABEL))
        fault = draw.draw(FAULT)
        if fault == "cell":
            column = draw.draw(st.sampled_from([i for i in range(len(cells)) if i != label_idx]))
            cells[column] = draw.draw(BAD_CELL)
        elif fault == "label":
            cells[label_idx] = draw.draw(BAD_LABEL)
        elif fault == "count":
            cells = cells[:-1] if draw.draw(st.booleans()) else cells + ["0"]
        if draw.draw(st.booleans()):
            lines.append("")
        lines.append(("#" if fault == "comment" else "") + ",".join(cells))
    text = "\n".join(lines) + "\n"
    path = tmp_path_factory.mktemp("oracle") / "cohort.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = oracle_load(text, n_features + 1, label_idx)
    try:
        got = load_dataset(path)
    except DataError as err:
        assert isinstance(expected, int), (text, str(err))
        assert f" line {expected}: " in str(err), (text, str(err))
        assert not sidecar_of(path).exists()
        return
    assert not isinstance(expected, int), text
    assert np.array_equal(got.features.view(np.int64), expected[0].view(np.int64)), text
    assert np.array_equal(got.labels, expected[1]), text


class TestNormalize:
    def test_column_2_4_6_maps_to_unit_interval(self):
        data = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 2])
        scaled, spec = min_max_normalize(data)
        assert scaled.features[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert spec.degenerate_columns == ()

    def test_constant_column_zeroed_and_flagged(self):
        data = make_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 2])
        scaled, spec = min_max_normalize(data)
        assert np.all(scaled.features[:, 0] == 0.0)
        assert spec.degenerate_columns == (0,)

    def test_normalizing_normalized_data_is_identity(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng.normal(size=(20, 3)), rng.integers(0, 3, size=20))
        once, _ = min_max_normalize(data)
        twice, _ = min_max_normalize(once)
        assert np.allclose(once.features, twice.features, atol=1e-15)

    def test_spec_reuse_applies_training_ranges(self):
        train = make_dataset([[0.0], [10.0]], [0, 1])
        _, spec = min_max_normalize(train)
        test = make_dataset([[5.0], [20.0]], [0, 1])
        scaled, _ = min_max_normalize(test, spec)
        assert scaled.features[:, 0].tolist() == [0.5, 2.0]

    def test_spec_reuse_rejects_other_feature_names(self):
        train = make_dataset([[0.0], [1.0]], [0, 1], names=("a",))
        _, spec = min_max_normalize(train)
        other = make_dataset([[0.0], [1.0]], [0, 1], names=("b",))
        with pytest.raises(DataError):
            min_max_normalize(other, spec)

    def test_spec_rejects_inverted_range(self):
        with pytest.raises(DataError):
            ScalingSpec(("a",), np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("minima, maxima", [
        ([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.0], [1.0, np.nan]), ([0.0, -np.inf], [1.0, 1.0])])
    def test_a_bound_that_is_not_finite_is_named(self, minima, maxima):
        with pytest.raises(DataError, match="^column 'b' has a non-finite scaling bound"):
            ScalingSpec(("a", "b"), np.array(minima), np.array(maxima))

    def test_a_column_whose_range_overflows_is_named(self, recwarn):
        data = make_dataset([[-1e308, 1.0], [1e308, 2.0]], [0, 1], names=("a", "b"))
        with pytest.raises(DataError) as info:
            min_max_normalize(data)
        assert str(info.value) == ("column 'a' cannot be min-max scaled: "
                                   "its range -1e+308 to 1e+308 overflows float64")
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_the_widest_finite_range_still_scales(self):
        big = np.finfo(np.float64).max
        data = make_dataset([[-big / 2, 0.0], [big / 2, 1.0], [0.0, 0.5]], [0, 1, 2])
        scaled, _ = min_max_normalize(data)
        assert scaled.features.tolist() == [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]


class TestStratifiedKfold:
    def test_90_balanced_labels_k10_gives_3_per_class_per_fold(self):
        labels = np.repeat([0, 1, 2], 30)
        plan = stratified_kfold(labels, k=10, seed=5)
        for fold in range(10):
            test = plan.test_indices(fold)
            assert test.size == 9
            values, counts = np.unique(labels[test], return_counts=True)
            assert values.tolist() == [0, 1, 2]
            assert counts.tolist() == [3, 3, 3]

    def test_folds_partition_all_indices(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            labels = rng.integers(0, 3, size=int(rng.integers(40, 120)))
            if np.unique(labels).size < 3 or min(np.bincount(labels)) < 4:
                continue
            plan = stratified_kfold(labels, k=4, seed=trial)
            merged = np.concatenate(plan.folds)
            assert np.array_equal(np.sort(merged), np.arange(labels.size))
            for fold in range(4):
                train = plan.train_indices(fold)
                test = plan.test_indices(fold)
                assert np.intersect1d(train, test).size == 0
                assert train.size + test.size == labels.size

    def test_fold_sizes_within_one(self):
        labels = np.repeat([0, 1, 2], [31, 17, 23])
        plan = stratified_kfold(labels, k=5, seed=2)
        sizes = [f.size for f in plan.folds]
        assert max(sizes) - min(sizes) <= 1

    def test_per_class_fold_counts_within_one(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 3, size=101)
        plan = stratified_kfold(labels, k=7, seed=4)
        for cls in (0, 1, 2):
            per_fold = [int((labels[f] == cls).sum()) for f in plan.folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic_and_seed_sensitive(self):
        labels = np.repeat([0, 1, 2], 20)
        a = stratified_kfold(labels, k=5, seed=11)
        b = stratified_kfold(labels, k=5, seed=11)
        c = stratified_kfold(labels, k=5, seed=12)
        assert all(np.array_equal(x, y) for x, y in zip(a.folds, b.folds))
        assert any(not np.array_equal(x, y) for x, y in zip(a.folds, c.folds))

    def test_class_smaller_than_k_rejected(self):
        labels = np.array([0] * 10 + [1] * 3 + [2] * 10)
        with pytest.raises(DataError) as err:
            stratified_kfold(labels, k=5, seed=0)
        assert "class 1" in str(err.value)

    def test_k_below_2_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 1, 2]), k=1, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=3),
           k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), shuffle=st.integers(0, 99))
    def test_matches_the_per_row_dealing_loop(self, counts, k, seed, shuffle):
        labels = np.repeat(np.arange(len(counts)), counts)
        labels = np.random.default_rng(shuffle).permutation(labels)
        if labels.size == 0 or min(np.bincount(labels)[np.unique(labels)]) < k:
            return
        rng = np.random.default_rng(seed)
        buckets = [[] for _ in range(k)]
        offset = 0
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            for j, idx in enumerate(rng.permutation(members)):
                buckets[(offset + j) % k].append(int(idx))
            offset = (offset + members.size) % k
        plan = stratified_kfold(labels, k, seed)
        for got, bucket in zip(plan.folds, buckets, strict=True):
            assert got.dtype == np.int64
            assert np.array_equal(got, np.array(sorted(bucket), dtype=np.int64))


class TestStratifiedSubsample:
    def test_per_class_rounding(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng.normal(size=(60, 2)),
                            np.repeat([0, 1, 2], [30, 20, 10]))
        sub = stratified_subsample(data, 0.5, seed=1)
        assert sub.class_counts() == {0: 15, 1: 10, 2: 5}

    def test_keeps_at_least_one_per_class(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng.normal(size=(12, 2)),
                            np.repeat([0, 1, 2], [8, 2, 2]))
        sub = stratified_subsample(data, 0.1, seed=0)
        assert set(sub.classes()) == {0, 1, 2}

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        data = make_dataset(rng.normal(size=(50, 3)), rng.integers(0, 3, size=50))
        a = stratified_subsample(data, 0.4, seed=7)
        b = stratified_subsample(data, 0.4, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @settings(max_examples=200, deadline=None)
    @given(counts=st.lists(st.integers(0, 40), min_size=1, max_size=3),
           fraction=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1),
           shuffle=st.integers(0, 99))
    def test_matches_the_per_class_loop(self, counts, fraction, seed, shuffle):
        labels = np.repeat(np.arange(len(counts)), counts)
        labels = np.random.default_rng(shuffle).permutation(labels)
        if labels.size == 0:
            return
        data = make_dataset(np.arange(labels.size, dtype=np.float64)[:, None], labels)
        rng = np.random.default_rng(seed)
        keep = []
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            keep.append(rng.permutation(members)[:max(1, int(round(fraction * members.size)))])
        want = data if fraction == 1.0 else data.take(np.sort(np.concatenate(keep)))
        got = stratified_subsample(data, fraction, seed)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tobytes() == want.labels.tobytes()

    def test_fraction_one_returns_same_dataset(self):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        assert stratified_subsample(data, 1.0, seed=0) is data

    def test_invalid_fraction_rejected(self):
        data = make_dataset([[1.0], [2.0]], [0, 1])
        for fraction in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                stratified_subsample(data, fraction, seed=0)
