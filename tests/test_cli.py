"""End-to-end command-line runs against small synthetic CSV files."""

import contextlib
import dataclasses
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from readmitlab.cli import _COMMANDS, _MODEL_DEFAULTS, _SECTIONS, main
from readmitlab import cli
from readmitlab import data as data_module
from readmitlab.data import (SIDECAR_SUFFIX, load_dataset, min_max_normalize, save_dataset_csv,
                             stratified_kfold)
from readmitlab.ensemble import cascade_fit, load_cascade
from readmitlab.errors import DataError, NumericError
from readmitlab.models import NetworkClassifier
from readmitlab.resample import ResamplePlan
from readmitlab.synth import synthetic_cohort
from readmitlab.trees import GradientBoostedClassifier, RandomForest

from helpers import ProcessLog, blob_dataset, make_dataset


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("READMIT_SEED", raising=False)


def write_csv(tmp_path, name="data.csv", counts=None, seed=0, n_features=8):
    counts = counts or {0: 18, 1: 15, 2: 12}
    rng = np.random.default_rng(seed)
    data = blob_dataset(rng, counts, {0: [0, 0], 1: [2.5, 0], 2: [0, 2.5]},
                        spread=0.8)
    pad = rng.normal(scale=0.05, size=(data.n_instances, n_features - 2))
    ds = make_dataset(np.hstack([data.features, pad]), data.labels)
    path = tmp_path / name
    save_dataset_csv(ds, path)
    return path


def write_fold_constant_csv(tmp_path, folds=3, seed=1):
    """write_csv's table plus a last column, 'c', that is zero except on the
    held-out rows of fold 0 of the folds a CLI run with this --folds and
    --seed draws, so it is constant on training fold 0 alone."""
    csv = write_csv(tmp_path)
    data = load_dataset(csv)
    test = stratified_kfold(data.labels, folds, seed).test_indices(0)
    column = np.zeros(data.n_instances)
    column[test] = np.arange(1, len(test) + 1)
    save_dataset_csv(make_dataset(np.column_stack([data.features, column]), data.labels,
                                  data.feature_names + ("c",)), csv)
    return csv


def test_ingest_rewrites_a_sidecar_whose_npy_header_does_not_tokenize(tmp_path):
    csv = tmp_path / "small.csv"
    csv.write_text("a,readmitted\n1,0\n2,1\n3,2\n")
    sidecar = Path(str(csv) + SIDECAR_SUFFIX)
    header = b"{((((".ljust(53) + b"\n"
    corrupt = b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header
    sidecar.write_bytes(corrupt)
    assert run_main(["ingest", "--data", str(csv), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == (0, "")
    assert sidecar.read_bytes() != corrupt
    assert load_dataset(csv).class_counts() == {0: 1, 1: 1, 2: 1}


class TestArgumentHandling:
    def test_no_subcommand_is_a_config_error(self, capsys):
        assert main([]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("make, message", [
        (lambda path: None, "file not found"),
        (lambda path: path.mkdir(), "cannot be read as UTF-8 text (IsADirectoryError)"),
        (lambda path: path.write_bytes(b'{"seed": "\xff"}'),
         "cannot be read as UTF-8 text (UnicodeDecodeError)"),
        (lambda path: path.write_text("{seed: 1"), "not valid JSON (Expecting property name"),
        (lambda path: path.write_text("[1]"), "not a JSON object"),
    ], ids=["missing", "a-directory", "not-utf8", "not-json", "not-an-object"])
    def test_a_config_file_it_cannot_use_is_a_config_error_naming_it(self, tmp_path, capsys,
                                                                     make, message):
        config = tmp_path / "cfg.json"
        make(config)
        assert main(["ingest", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {config}: {message}")
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_is_a_config_error(self, tmp_path):
        csv = write_csv(tmp_path)
        assert main(["ingest", "--data", str(csv), "--out", str(tmp_path / "o"),
                     "--seed", "1", "--frobnicate"]) == 1

    def test_missing_seed_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        assert main(["ingest", "--data", str(csv),
                     "--out", str(tmp_path / "o")]) == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_output_dir_is_a_config_error(self, tmp_path):
        csv = write_csv(tmp_path)
        assert main(["ingest", "--data", str(csv), "--seed", "1"]) == 1

    def test_missing_data_is_a_config_error(self, tmp_path):
        assert main(["ingest", "--seed", "1", "--out", str(tmp_path / "o")]) == 1

    def test_env_var_supplies_the_seed(self, tmp_path, monkeypatch):
        csv = write_csv(tmp_path)
        monkeypatch.setenv("READMIT_SEED", "33")
        out = tmp_path / "o"
        assert main(["ingest", "--data", str(csv), "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["seed"] == 33

    def test_non_integer_env_seed_is_a_config_error(self, tmp_path, monkeypatch):
        csv = write_csv(tmp_path)
        monkeypatch.setenv("READMIT_SEED", "many")
        assert main(["ingest", "--data", str(csv),
                     "--out", str(tmp_path / "o")]) == 1

    def test_seed_precedence_flag_over_config_over_env(self, tmp_path, monkeypatch):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 5}))
        monkeypatch.setenv("READMIT_SEED", "3")

        out1 = tmp_path / "o1"
        assert main(["ingest", "--data", str(csv), "--config", str(config),
                     "--seed", "9", "--out", str(out1)]) == 0
        assert json.loads((out1 / "config.json").read_text())["seed"] == 9

        out2 = tmp_path / "o2"
        assert main(["ingest", "--data", str(csv), "--config", str(config),
                     "--out", str(out2)]) == 0
        assert json.loads((out2 / "config.json").read_text())["seed"] == 5

    def test_invalid_config_field_is_named(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 1, "bogus": True}))
        assert main(["ingest", "--data", str(csv), "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config_file_is_a_config_error(self, tmp_path):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert main(["ingest", "--data", str(csv), "--config", str(config),
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 1
        config.write_text("[1, 2]")
        assert main(["ingest", "--data", str(csv), "--config", str(config),
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 1

    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        assert main(["ingest", "--data", str(csv), "--config", str(tmp_path),
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 1
        assert "cannot be read" in capsys.readouterr().err

    def test_missing_data_file_is_a_data_error(self, tmp_path, capsys):
        assert main(["ingest", "--data", str(tmp_path / "nope.csv"),
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_data_file_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"a,readmitted\ncaf\xe9,0\n")
        assert main(["ingest", "--data", str(data),
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_invalid_fraction_is_a_config_error(self, tmp_path):
        csv = write_csv(tmp_path)
        assert main(["ingest", "--data", str(csv), "--seed", "1",
                     "--fraction", "1.5", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_is_a_config_error(self, tmp_path, capsys, workers):
        csv = write_csv(tmp_path)
        assert main(["train", "--data", str(csv), "--seed", "1", "--model", "gbm",
                     "--workers", workers, "--out", str(tmp_path / "o")]) == 1
        assert f"invalid config field 'workers': {workers} below 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestIngest:
    def test_writes_the_three_report_files(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["ingest", "--data", str(csv), "--seed", "1",
                     "--out", str(out)]) == 0
        for name in ("config.json", "report.tsv", "report.txt"):
            assert (out / name).is_file()
        tsv = (out / "report.tsv").read_text()
        assert "class balance" in tsv
        assert "dataset sha256:" in tsv
        assert "18" in tsv and "15" in tsv and "12" in tsv

    def test_rerun_is_byte_identical(self, tmp_path):
        csv = write_csv(tmp_path)
        argv = ["ingest", "--data", str(csv), "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("config.json", "report.tsv", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_fraction_subsamples_before_reporting(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["ingest", "--data", str(csv), "--seed", "1",
                     "--fraction", "0.5", "--out", str(out)]) == 0
        assert "stratified subsample" in (out / "report.tsv").read_text()

    def test_input_csv_is_never_mutated(self, tmp_path):
        csv = write_csv(tmp_path)
        before = csv.read_bytes()
        assert main(["ingest", "--data", str(csv), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 0
        assert csv.read_bytes() == before

    @pytest.mark.parametrize("command, flags", [
        ("ingest", []),
        ("train", ["--folds", "3", "--model", "gbm", "--n-rounds", "3"]),
    ])
    def test_constant_feature_is_named_in_the_report(self, tmp_path, command, flags):
        rng = np.random.default_rng(3)
        data = blob_dataset(rng, {0: 24, 1: 18, 2: 18},
                            {0: [0, 0], 1: [2.5, 0], 2: [0, 2.5]}, spread=0.8)
        features = np.column_stack([data.features[:, 0], np.ones(data.n_instances),
                                    data.features[:, 1]])
        csv = tmp_path / "data.csv"
        save_dataset_csv(make_dataset(features, data.labels, ("a", "b", "c")), csv)
        out = tmp_path / "run"
        assert main([command, "--data", str(csv), "--seed", "1", *flags,
                     "--out", str(out)]) == 0
        for name in ("report.tsv", "report.txt"):
            assert "constant features scaled to zero: b\n" in (out / name).read_text()

    def test_a_csv_with_no_feature_column_is_a_data_error(self, tmp_path, capsys):
        csv = tmp_path / "labels.csv"
        csv.write_text("readmitted\n0\n1\n2\n")
        out = tmp_path / "run"
        assert main(["ingest", "--data", str(csv), "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {csv}: no feature column besides 'readmitted'\n")
        assert not out.exists()


class TestParsedTableSidecar:
    @pytest.mark.parametrize("command, flags", [
        ("ingest", []),
        ("train", ["--folds", "3", "--model", "gbm", "--n-rounds", "3",
                   "--resample-method", "smote"]),
    ])
    def test_reports_are_identical_cold_and_warm(self, tmp_path, monkeypatch, command, flags):
        csv = write_csv(tmp_path)
        hashed = []

        def counting_sha256(path):
            hashed.append(path)
            return sha256(path)

        sha256 = data_module.dataset_sha256
        monkeypatch.setattr(cli, "dataset_sha256", counting_sha256)
        monkeypatch.setattr(data_module, "dataset_sha256", counting_sha256)
        argv = [command, "--data", str(csv), "--seed", "1", *flags]
        assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
        assert Path(f"{csv}{SIDECAR_SUFFIX}").is_file()

        def parse(*args, **kwargs):
            raise AssertionError("the warm run parsed the CSV")

        monkeypatch.setattr(np, "loadtxt", parse)
        assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        assert hashed == [str(csv), str(csv)]  # once per run
        for name in ("report.tsv", "report.txt"):
            assert (tmp_path / "cold" / name).read_bytes() == \
                (tmp_path / "warm" / name).read_bytes()

    def test_a_csv_rewritten_after_it_was_hashed_is_a_data_error(self, tmp_path, monkeypatch):
        csv = write_csv(tmp_path)
        sha256 = data_module.dataset_sha256

        def hash_then_rewrite(path):
            digest = sha256(path)
            write_csv(tmp_path, seed=1)  # other bytes than the ones the report names
            return digest

        monkeypatch.setattr(cli, "dataset_sha256", hash_then_rewrite)
        out = tmp_path / "o"
        assert run_main(["ingest", "--data", str(csv), "--seed", "1", "--out", str(out)]) == (
            2, f"data error: {csv} changed while it was read\n")
        assert not out.exists()


class TestStats:
    def test_reports_requested_features_only(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["stats", "--data", str(csv), "--seed", "1",
                     "--features", "f00,f03", "--out", str(out)]) == 0
        tsv = (out / "report.tsv").read_text()
        assert "f00" in tsv and "f03" in tsv
        assert "f05" not in tsv

    def test_unknown_feature_is_a_data_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        assert main(["stats", "--data", str(csv), "--seed", "1",
                     "--features", "ghost", "--out", str(tmp_path / "o")]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_means_of_1e30_render_in_full(self, tmp_path):
        csv = tmp_path / "big.csv"
        csv.write_text("f00,f01,readmitted\n1e30,0.5,0\n2e30,0.25,1\n"
                       "3e30,0.75,2\n4e30,1.0,0\n")
        out = tmp_path / "run"
        assert main(["stats", "--data", str(csv), "--no-normalize", "--seed", "1",
                     "--out", str(out)]) == 0
        rows = [line.split("\t") for line in (out / "report.tsv").read_text().splitlines()]
        means = {row[0]: row[1:4] for row in rows if row[0] in ("f00", "f01")}
        assert means["f00"] == [m + ".000000" for m in ("25" + "0" * 29, "2" + "0" * 30,
                                                        "3" + "0" * 30)]
        assert means["f01"] == ["0.750000", "0.250000", "0.750000"]


class TestSelect:
    def test_scores_ranks_and_topk_line(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["select", "--data", str(csv), "--seed", "1",
                     "--select-method", "chi2", "--select-k", "2",
                     "--out", str(out)]) == 0
        tsv = (out / "report.tsv").read_text()
        assert "chi2 scores" in tsv
        assert "top 2 by chi2:" in tsv

    @pytest.mark.parametrize("method", ["chi2", "anova_f", "pearson"])
    def test_default_k_is_every_feature_the_scorer_ranks(self, tmp_path, method):
        csv = write_csv(tmp_path)
        data = load_dataset(csv)
        constant = np.column_stack([data.features, np.full(data.n_instances, 3.0)])
        save_dataset_csv(make_dataset(constant, data.labels, data.feature_names + ("c",)), csv)
        out = tmp_path / "run"
        assert main(["select", "--data", str(csv), "--seed", "1", "--select-method", method,
                     "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["select"]["k"] == 8
        assert f"top 8 by {method}: f00, " in (out / "report.tsv").read_text()

    def test_unknown_method_is_a_config_error(self, tmp_path):
        csv = write_csv(tmp_path)
        assert main(["select", "--data", str(csv), "--seed", "1",
                     "--select-method", "mutualinfo",
                     "--out", str(tmp_path / "o")]) == 1

    def test_model_section_without_compare_ks_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {"kind": "forest", "n_trees": 0, "bogus": 1}}))
        out = tmp_path / "run"
        assert main(["select", "--data", str(csv), "--seed", "1",
                     "--config", str(config), "--out", str(out)]) == 1
        assert "compare_ks" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_ks_given_as_a_string_is_a_list_of_ks(self, tmp_path):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"compare_ks": "2,5",
                                      "model": {"kind": "gbm", "n_rounds": 2}}))
        out = tmp_path / "run"
        assert main(["select", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["compare_ks"] == [2, 5]
        tsv = (out / "report.tsv").read_text()
        table = tsv.split("gbm accuracy by feature count")[1].strip().splitlines()
        assert [row.split("\t")[0] for row in table[1:3]] == ["2", "5"]

    @pytest.mark.parametrize("compare_ks, message", [
        ([2.5], "got 2.5"), ([True], "got True"), ([0], "got 0"), ("a,b", "got 'a'"),
        (["2"], "got '2'")], ids=["fraction", "boolean", "zero", "comma-form-letters",
                                  "string-in-a-list"])
    def test_a_compare_ks_entry_that_is_not_a_count_is_named(self, tmp_path, capsys,
                                                             compare_ks, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"compare_ks": compare_ks,
                                      "model": {"kind": "gbm", "n_rounds": 2}}))
        out = tmp_path / "run"
        assert main(["select", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--folds", "2", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("config error: invalid config field 'compare_ks': "
                                           f"compare_ks must be an integer >= 1, {message}\n")
        assert not out.exists()

    def test_compare_ks_reads_and_echoes_the_fold_fields(self, tmp_path):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"compare_ks": [2], "folds": 2,
                                      "model": {"kind": "gbm", "n_rounds": 2}}))
        out = tmp_path / "run"
        assert main(["select", "--data", str(csv), "--seed", "1",
                     "--config", str(config), "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count())
        assert (echo["folds"], echo["workers"]) == (2, cpus)


class TestResample:
    def test_counts_before_and_after(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["resample", "--data", str(csv), "--seed", "1",
                     "--resample-method", "random_over",
                     "--out", str(out)]) == 0
        tsv = (out / "report.tsv").read_text()
        assert "class balance before" in tsv
        assert "class balance after" in tsv

    def test_write_csv_emits_a_loadable_balanced_file(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["resample", "--data", str(csv), "--seed", "1",
                     "--resample-method", "random_over", "--write-csv",
                     "--out", str(out)]) == 0
        resampled = load_dataset(out / "resampled.csv")
        assert resampled.class_counts() == {0: 18, 1: 18, 2: 18}

    def test_missing_method_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        assert main(["resample", "--data", str(csv), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1
        assert "resample" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["smote", "random_under", "nearmiss"])
    def test_nearmiss_fields_at_their_defaults_run_with_any_method(self, tmp_path, method):
        # config.json echoes every field of the section, so the echo reruns
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"resample": {"method": method, "n_ref": 3, "nearmiss_version": 1}}))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["resample", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--config", str(tmp_path / "cfg.json"), "--out", str(first)]) == 0
        assert json.loads((first / "config.json").read_text())["resample"] == {
            "method": method, "k_neighbors": 5, "target_counts": None,
            "nearmiss_version": 1, "n_ref": 3}
        assert main(["resample", "--config", str(first / "config.json"),
                     "--out", str(second)]) == 0
        for name in ("config.json", "report.tsv", "report.txt"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_nearmiss_version_3_runs_with_its_defaults(self, tmp_path):
        # class 2 sits apart, so each of its rows' 3 nearest class-0 rows are
        # the same few: the first stage widens until it holds the target
        rng = np.random.default_rng(0)
        csv = tmp_path / "apart.csv"
        save_dataset_csv(blob_dataset(rng, {0: 18, 1: 15, 2: 12},
                                      {0: [0, 0], 1: [2.5, 0], 2: [9, 9]}, spread=0.8), csv)
        out = tmp_path / "run"
        assert main(["resample", "--data", str(csv), "--seed", "1", "--resample-method",
                     "nearmiss", "--nearmiss-version", "3", "--write-csv",
                     "--out", str(out)]) == 0
        assert load_dataset(out / "resampled.csv").class_counts() == {0: 12, 1: 12, 2: 12}
        assert "resampled by nearmiss: class 0: 12, class 1: 12, class 2: 12\n" in (
            out / "report.txt").read_text()

    def test_target_counts_with_class_ids_as_strings_or_integers(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"resample": {"method": "random_over", "target_counts": {"2": 20}}}))
        out = tmp_path / "run"
        assert main(["resample", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--write-csv", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)]) == 0
        assert load_dataset(out / "resampled.csv").class_counts() == {0: 18, 1: 15, 2: 20}

    def test_nearmiss_version_is_checked_by_the_plan(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        assert main(["resample", "--data", str(csv), "--seed", "1",
                     "--resample-method", "nearmiss", "--nearmiss-version", "4",
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == ("config error: invalid config field 'resample': "
                                           "nearmiss_version must be 1, 2, or 3\n")

    def test_squared_distances_that_overflow_print_one_line_and_no_warning(self, tmp_path,
                                                                           capsys):
        csv = tmp_path / "huge.csv"
        csv.write_text("a,b,readmitted\n" + "".join(f"{1 + i / 16}e300,{2 - i / 16}e300,{i % 3}\n"
                                                    for i in range(14)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["resample", "--data", str(csv), "--seed", "1", "--no-normalize",
                         "--resample-method", "nearmiss", "--out", str(tmp_path / "o")]) == 2
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ("data error: feature values too large: "
                                           "squared distances overflow float64\n")


class TestTrain:
    def test_boosting_cross_validation_smoke(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--model", "gbm", "--n-rounds", "5", "--max-depth", "2",
                     "--out", str(out)]) == 0
        tsv = (out / "report.tsv").read_text()
        assert "gbm cross-validation: mean over folds" in tsv
        assert "gbm cross-validation: pooled confusion" in tsv

    def test_an_unlimited_gbm_depth_runs(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {"kind": "gbm", "n_rounds": 2,
                                                "max_depth": None}}))
        out = tmp_path / "run"
        assert main(["train", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--model", "gbm", "--folds", "2", "--config", str(config),
                     "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["model"]["max_depth"] is None
        assert "gbm cross-validation: mean over folds" in (out / "report.tsv").read_text()

    def test_forest_kind_runs(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--model", "forest", "--n-trees", "10",
                     "--out", str(out)]) == 0
        assert "forest cross-validation" in (out / "report.tsv").read_text()

    def test_empty_forest_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--model", "forest", "--n-trees", "0",
                     "--out", str(tmp_path / "o")]) == 1
        assert "n_trees" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["svm", ["gbm"]])
    def test_a_kind_outside_the_models_is_a_config_error(self, tmp_path, capsys, kind):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {"kind": kind}}))
        assert main(["train", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"config error: invalid config field 'model.kind': unknown model kind {kind!r}; "
            "expected one of ('network', 'gbm', 'forest')\n")

    def test_network_kind_runs(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--model", "network", "--arch", "vanilla", "--epochs", "1",
                     "--batch-size", "16", "--out", str(out)]) == 0
        assert "network cross-validation" in (out / "report.tsv").read_text()

    def test_selection_and_resampling_compose(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--model", "gbm", "--n-rounds", "5",
                     "--select-method", "anova_f", "--select-k", "4",
                     "--resample-method", "random_over",
                     "--out", str(out)]) == 0
        tsv = (out / "report.tsv").read_text()
        for fold in range(3):
            assert f"fold {fold}: selected 4 features by anova_f:" in tsv

    def test_a_fold_with_fewer_scorable_columns_than_k_is_a_data_error(self, tmp_path,
                                                                        capsys):
        csv = write_fold_constant_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--model", "gbm", "--n-rounds", "2", "--select-method", "chi2",
                     "--select-k", "9", "--workers", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "data error: training fold 0: k=9 exceeds the 8 non-excluded features\n"
        assert not out.exists()

    def test_paper_mode_resamples_before_splitting(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--model", "gbm", "--n-rounds", "5",
                     "--resample-method", "random_over", "--paper-mode",
                     "--out", str(out)]) == 0
        assert "paper mode: whole dataset resampled before fold splitting" in \
            (out / "report.tsv").read_text()

    def test_rerun_is_byte_identical(self, tmp_path):
        csv = write_csv(tmp_path)
        argv = ["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                "--model", "gbm", "--n-rounds", "5",
                "--resample-method", "smote"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        for name in ("config.json", "report.tsv", "report.txt"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_selection_frees_the_loaded_dataset_before_the_folds(self, tmp_path,
                                                                  monkeypatch):
        from readmitlab import cli

        loaded, alive = [], []
        load_data, cross_validate = cli._load_data, cli.cross_validate

        def recording_load_data(cfg, report):
            data = load_data(cfg, report)
            loaded.append(weakref.ref(data))
            return data

        def checking_cross_validate(*args, **kwargs):
            alive.append(loaded[0]() is not None)
            return cross_validate(*args, **kwargs)

        monkeypatch.setattr(cli, "_load_data", recording_load_data)
        monkeypatch.setattr(cli, "cross_validate", checking_cross_validate)
        csv = write_csv(tmp_path)
        # paper mode selects on all rows before the folds; per-fold selection
        # needs every column in each fold
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--model", "gbm", "--n-rounds", "3", "--select-method", "chi2",
                     "--select-k", "4", "--paper-mode", "--out", str(tmp_path / "o")]) == 0
        assert alive == [False]

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_select_k_below_one_is_a_config_error(self, tmp_path, capsys, k):
        csv = write_csv(tmp_path)
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--model", "gbm", "--n-rounds", "2", "--select-method", "chi2",
                     "--select-k", k, "--out", str(tmp_path / "o")]) == 1
        assert "at least 1" in capsys.readouterr().err

    def test_divergent_network_training_is_a_numeric_failure(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(csv), "--seed", "1", "--folds", "2",
                         "--model", "network", "--arch", "vanilla", "--epochs", "25",
                         "--learning-rate", "1e12", "--optimizer", "sgd",
                         "--batch-size", "16", "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err


    @pytest.mark.parametrize("argv, config", [
        (["binary-study"], {"booster": {"learning_rate": 1e308}}),
        (["train", "--model", "gbm"], {"model": {"kind": "gbm", "learning_rate": 1e308}}),
    ], ids=["binary-study", "train"])
    def test_a_diverging_booster_is_a_numeric_failure_with_one_line(self, tmp_path, capsys,
                                                                   argv, config):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, "--data", str(write_csv(tmp_path)), "--seed", "1",
                         "--folds", "2", "--workers", "1", "--config",
                         str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")])
        assert code == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ("numeric failure: non-finite boosting scores at "
                                           "round 1; reduce the learning rate\n")
        assert not (tmp_path / "o").exists()

    def test_a_large_finite_booster_rate_runs_without_warnings(self, tmp_path, capsys):
        # scores of +-1e3 overflow exp in the sigmoid, whose limit is exact
        (tmp_path / "cfg.json").write_text(json.dumps({"booster": {"n_rounds": 5,
                                                                   "learning_rate": 1e3}}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["binary-study", "--data", str(write_csv(tmp_path)), "--seed", "1",
                         "--folds", "2", "--workers", "1", "--config",
                         str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_each_fold_reports_its_resampled_class_counts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--folds", "3", "--workers", "1", "--model", "gbm", "--n-rounds", "2",
                     "--resample-method", "random_under", "--out", str(out)]) == 0
        notes = [line for line in (out / "report.txt").read_text().splitlines()
                 if "resampled by" in line]
        # 2/3 of each class (18, 15, 12) trains, all cut to the smallest class's 8
        assert notes == [f"fold {f}: resampled by random_under: class 0: 8, class 1: 8, "
                         "class 2: 8" for f in range(3)]


class TestWorkerFailures:
    @pytest.mark.parametrize("error, code, kind", [(DataError, 2, "data error"),
                                                   (NumericError, 3, "numeric failure")])
    def test_a_failure_in_a_worker_process_reaches_main_as_at_one_worker(
            self, tmp_path, capsys, monkeypatch, error, code, kind):
        csv = write_csv(tmp_path)
        pids = ProcessLog(tmp_path / "pids")
        caller = os.getpid()
        run = {"workers": "1"}

        def failing_fit(self, X, y):
            pids.append({"pid": os.getpid()})
            if run["workers"] == "2" and self.seed == 1 and os.getpid() == caller:
                pids.wait_for_other_process()  # fold 0 fails after a worker's fold
            raise error(f"network with seed {self.seed} failed")

        monkeypatch.setattr(NetworkClassifier, "fit", failing_fit)
        outcomes = {}
        for workers in ("1", "2"):
            run["workers"] = workers
            out = tmp_path / f"o{workers}"
            code_seen = main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                              "--model", "network", "--arch", "vanilla",
                              "--workers", workers, "--out", str(out)])
            outcomes[workers] = (code_seen, capsys.readouterr().err)
            assert not out.exists()
        assert outcomes["1"] == outcomes["2"] == (code, f"{kind}: network with seed 1 failed\n")
        assert {v["pid"] for v in pids.read()} - {caller}

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_resampler_data_error_names_its_fold(self, tmp_path, capsys, workers):
        csv = tmp_path / "cohort.csv"
        save_dataset_csv(synthetic_cohort(90, 8, seed=2), csv)
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"resample": {"method": "borderline_smote", "k_neighbors": 1}}))
        assert main(["train", "--data", str(csv), "--seed", "1", "--model", "gbm",
                     "--n-rounds", "2", "--folds", "2", "--workers", workers,
                     "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "data error: training fold 0: borderline_smote: class 1 has no danger points; "
            "cannot synthesize\n")

    @pytest.mark.parametrize("fold_0_fit_fails, code, err", [
        (False, 2, "data error: training fold 1: fold 1 could not be resampled\n"),
        (True, 3, "numeric failure: network with seed 1 failed\n"),
    ], ids=["preparing", "fitting-an-earlier-fold"])
    def test_the_lowest_fold_fails_first_whether_preparing_or_fitting(
            self, tmp_path, capsys, monkeypatch, fold_0_fit_fails, code, err):
        from readmitlab import evaluate

        csv = write_csv(tmp_path)
        resample = evaluate.apply_plan
        fit = NetworkClassifier.fit

        def failing_apply_plan(train, plan, seed):
            if seed == 2:  # run seed 1 plus fold 1
                raise DataError("fold 1 could not be resampled")
            return resample(train, plan, seed)

        def failing_fit(self, X, y):
            if fold_0_fit_fails and self.seed == 1:
                raise NumericError(f"network with seed {self.seed} failed")
            return fit(self, X, y)

        monkeypatch.setattr(evaluate, "apply_plan", failing_apply_plan)
        monkeypatch.setattr(NetworkClassifier, "fit", failing_fit)
        outcomes = {}
        for workers in ("1", "2"):
            out = tmp_path / f"o{workers}"
            code_seen = main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                              "--model", "network", "--arch", "vanilla", "--epochs", "1",
                              "--resample-method", "random_over",
                              "--workers", workers, "--out", str(out)])
            outcomes[workers] = (code_seen, capsys.readouterr().err)
            assert not out.exists()
        assert outcomes["1"] == outcomes["2"] == (code, err)


class TestSweep:
    def test_single_cell_grid_reports_a_winner(self, tmp_path):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "grid": {"epochs": [1], "learning_rate": [1e-3], "batch_size": [16]},
        }))
        out = tmp_path / "run"
        assert main(["sweep", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--config", str(config), "--arch", "vanilla",
                     "--out", str(out)]) == 0
        tsv = (out / "report.tsv").read_text()
        assert "grid results, best first" in tsv
        assert "best combination: epochs=1" in tsv
        header = tsv.split("# grid results, best first\n")[1].split("\n")[0]
        assert header.split("\t") == ["best", "epochs", "learning_rate", "batch_size",
                                      "mean_accuracy", "mean_macro_f"]
        text_header = next(line for line in (out / "report.txt").read_text().splitlines()
                           if line.startswith("best "))
        assert text_header.split()[-1] == "mean_macro_f"

    def test_non_network_model_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {"kind": "gbm"}}))
        assert main(["sweep", "--data", str(csv), "--seed", "1",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == ("config error: invalid config field 'model.kind': "
                                           "unknown model kind 'gbm'; "
                                           "expected one of ('network',)\n")

    def test_unknown_grid_axis_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid": {"momentum": [0.9]}}))
        assert main(["sweep", "--data", str(csv), "--seed", "1",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "grid.momentum" in capsys.readouterr().err


class TestCascade:
    def test_two_stage_run_with_saved_model(self, tmp_path):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "network": {"arch": "vanilla", "epochs": 1, "batch_size": 16,
                        "learning_rate": 1e-3},
            "booster": {"n_rounds": 4, "max_depth": 2},
        }))
        out = tmp_path / "run"
        assert main(["cascade", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--config", str(config), "--save-model",
                     "--out", str(out)]) == 0
        tsv = (out / "report.tsv").read_text()
        assert "stage 1 network: mean over folds" in tsv
        assert "stage 2 booster (outer classes): mean over folds" in tsv
        assert "cascade: mean over folds" in tsv
        assert "stage-composition" not in tsv
        model_dir = out / "cascade_model"
        assert (model_dir / "network.params").is_file()
        assert (model_dir / "booster.json").is_file()
        assert (model_dir / "cascade.json").is_file()

    def test_flags_win_over_the_network_and_booster_sections(self, tmp_path):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "network": {"arch": "cnn2", "kernel_size": 2, "epochs": 1, "batch_size": 16,
                        "dropout": 0.1},
            "booster": {"n_rounds": 4, "max_depth": 2}}))
        out = tmp_path / "run"
        assert main(["cascade", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--epochs", "2", "--n-rounds", "3", "--config", str(config),
                     "--save-model", "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert "model" not in echo
        assert (echo["network"]["epochs"], echo["network"]["dropout"]) == (2, 0.1)
        assert (echo["booster"]["n_rounds"], echo["booster"]["max_depth"]) == (3, 2)
        saved = json.loads((out / "cascade_model" / "cascade.json").read_text())
        assert (saved["network"]["epochs"], saved["network"]["dropout"]) == (2, 0.1)
        booster = json.loads((out / "cascade_model" / "booster.json").read_text())
        assert (len(booster["trees"]), booster["max_depth"]) == (3, 2)

    @pytest.mark.parametrize("mode", [[], ["--paper-mode"]], ids=["default", "paper-mode"])
    def test_the_saved_scaling_maps_raw_rows_to_the_rows_the_cascade_was_fitted_on(
            self, tmp_path, mode):
        csv = write_fold_constant_csv(tmp_path)  # one column is constant on some folds
        out = tmp_path / "run"
        assert main(["cascade", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--workers", "1", "--arch", "vanilla", "--epochs", "1",
                     "--n-rounds", "2", "--save-model", *mode, "--out", str(out)]) == 0
        saved, scaling = load_cascade(out / "cascade_model")
        raw = load_dataset(csv)
        rows, _ = min_max_normalize(raw, scaling)
        assert rows.features.tobytes() == min_max_normalize(raw)[0].features.tobytes()
        refit = cascade_fit(rows, {"arch": "vanilla", "epochs": 1}, {"n_rounds": 2}, seed=1)
        assert refit.network.net.theta.tobytes() == saved.network.net.theta.tobytes()
        assert saved.predict(rows.features).tobytes() == refit.predict(rows.features).tobytes()

    def test_the_saved_scaling_refuses_a_table_with_other_column_names(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["cascade", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--arch", "vanilla", "--epochs", "1", "--n-rounds", "1",
                     "--save-model", "--out", str(out)]) == 0
        scaling = load_cascade(out / "cascade_model")[1]
        raw = load_dataset(csv)
        assert scaling.feature_names == raw.feature_names
        renamed = make_dataset(raw.features, raw.labels,
                               tuple(f"x{i}" for i in range(raw.n_features)))
        with pytest.raises(DataError, match="scaling spec fitted on different feature names"):
            min_max_normalize(renamed, scaling)

    def test_a_column_range_that_overflows_fails_the_saved_model_before_any_fold(
            self, tmp_path):
        csv = tmp_path / "huge.csv"
        csv.write_text("a,b,c,d,e,f,g,h,readmitted\n" + "".join(
            f"{(-1) ** i * 1e308},{i},{i},{i},{i},{i},{i},{i},{i % 3}\n" for i in range(12)))
        assert run_main(["cascade", "--data", str(csv), "--seed", "1", "--folds", "2",
                         "--arch", "vanilla", "--epochs", "1", "--n-rounds", "1",
                         "--save-model", "--out", str(tmp_path / "run")]) == (
            2, "data error: column 'a' cannot be min-max scaled: its range -1e+308 to "
               "1e+308 overflows float64\n")

    def test_a_cascade_saved_without_scaling_records_none(self, tmp_path):
        out = tmp_path / "run"
        assert main(["cascade", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--folds", "2", "--arch", "vanilla", "--epochs", "1", "--n-rounds", "1",
                     "--no-normalize", "--save-model", "--out", str(out)]) == 0
        assert json.loads((out / "cascade_model" / "cascade.json").read_text())["scaling"] is None
        assert load_cascade(out / "cascade_model")[1] is None

    def test_an_unlimited_booster_depth_runs_saves_and_reloads(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"network": {"arch": "vanilla", "epochs": 1},
                                      "booster": {"max_depth": None, "n_rounds": 2}}))
        out = tmp_path / "run"
        csv = write_csv(tmp_path)
        assert main(["cascade", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--config", str(config), "--save-model", "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text())["booster"]["max_depth"] is None
        saved = json.loads((out / "cascade_model" / "booster.json").read_text())
        assert saved["max_depth"] is None
        cascade, scaling = load_cascade(out / "cascade_model")
        assert cascade.booster.max_depth is None
        assert cascade.booster.to_dict() == saved

    def test_unknown_booster_field_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"booster": {"n_estimators": 10}}))
        assert main(["cascade", "--data", str(csv), "--seed", "1",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "booster.n_estimators" in capsys.readouterr().err


class TestWorkerCount:
    @pytest.mark.parametrize("command, flags, config", [
        ("train", ["--model", "network", "--arch", "vanilla", "--epochs", "1",
                   "--batch-size", "16", "--select-method", "chi2", "--select-k", "5",
                   "--resample-method", "adasyn"], None),
        ("sweep", ["--arch", "vanilla", "--resample-method", "smote"],
         {"grid": {"epochs": [1], "learning_rate": [1e-2], "batch_size": [16, 64]}}),
        ("cascade", ["--arch", "vanilla", "--epochs", "1", "--batch-size", "16",
                     "--n-rounds", "3"], None),
        ("binary-study", [], {"booster": {"n_rounds": 3}}),
        ("select", ["--select-method", "anova_f"],
         {"compare_ks": [6, 8], "model": {"kind": "network", "arch": "vanilla",
                                          "epochs": 1, "batch_size": 16}}),
        ("train", ["--model", "gbm", "--n-rounds", "3", "--select-method", "chi2",
                   "--select-k", "8", "--resample-method", "smote"], None),
    ])
    def test_reports_are_identical_at_one_and_two_workers(self, tmp_path, command, flags,
                                                          config):
        # column c, constant on training fold 0 alone, makes the per-fold
        # scaling and selection lines differ from fold to fold
        csv = write_fold_constant_csv(tmp_path)
        argv = [command, "--data", str(csv), "--seed", "1", "--folds", "3", *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        for workers in ("1", "2"):
            assert main(argv + ["--workers", workers, "--out", str(tmp_path / workers)]) == 0
        for name in ("report.tsv", "report.txt"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_workers_default_to_the_cpus_this_process_may_use(self, tmp_path):
        # a process whose affinity mask allows one CPU, however many the machine has
        out = tmp_path / "run"
        argv = ["train", "--data", str(write_csv(tmp_path)), "--seed", "1", "--folds", "2",
                "--model", "gbm", "--n-rounds", "1", "--out", str(out)]
        script = ("import os, sys\n"
                  "os.sched_getaffinity = lambda pid: {0}\n"
                  "from readmitlab.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((out / "config.json").read_text())["workers"] == 1


def test_no_run_imports_numpy_ma(tmp_path):
    # np.unique without a return flag, and np.setdiff1d, import numpy.ma,
    # about 15 ms of every process
    csv = str(write_csv(tmp_path))
    (tmp_path / "sweep.json").write_text(json.dumps(
        {"grid": {"epochs": [1], "learning_rate": [1e-2], "batch_size": [16]}}))
    common = ["--data", csv, "--seed", "1", "--folds", "2", "--workers", "1"]
    runs = [["ingest", "--data", csv, "--seed", "1"],
            ["train", *common, "--model", "network", "--arch", "vanilla", "--epochs", "1",
             "--select-method", "chi2", "--select-k", "5", "--resample-method", "adasyn"],
            ["cascade", *common, "--arch", "vanilla", "--epochs", "1", "--n-rounds", "2"],
            ["sweep", *common, "--arch", "vanilla", "--config", str(tmp_path / "sweep.json")]]
    script = ("import json, sys\n"
              "from readmitlab.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    argvs = [[*argv, "--out", str(tmp_path / argv[0])] for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0, 0], False]


class TestModelSettingsCheckedUpFront:
    @pytest.mark.parametrize("command, config, message", [
        ("train", {"model": {"arch": "vanilla", "optimizer": "bogus"}},
         "unknown optimizer 'bogus'; expected one of ('sgd', 'adam', 'adabelief')"),
        ("train", {"model": {"arch": "bogus"}}, "unknown architecture 'bogus'"),
        ("train", {"model": {"kind": "gbm", "n_rounds": -1}},
         "n_rounds must be an integer >= 0, got -1"),
        ("cascade", {"network": {"arch": "bogus"}}, "unknown architecture 'bogus'"),
        ("cascade", {"booster": {"max_depth": -1}}, "max_depth must be an integer >= 0, got -1"),
        ("sweep", {"grid": {"epochs": [1], "learning_rate": [1e-2, 0.0], "batch_size": [16]}},
         "learning_rate must be positive"),
        ("binary-study", {"booster": {"n_rounds": -1}},
         "n_rounds must be an integer >= 0, got -1"),
        ("train", {"model": {"arch": "vanilla", "kernel_size": 0}},
         "kernel must be an integer >= 1, got 0"),
        ("train", {"model": {"arch": "cnn2", "dropout": 1.5}},
         "dropout rate must be in [0, 1)"),
        # a kernel_size or dropout the architecture does not read
        ("train", {"model": {"arch": "vanilla", "dropout": 0.5}},
         "invalid config field 'model.dropout': architecture 'vanilla' does not read it"),
        ("train", {"model": {"arch": "rnn_simple", "kernel_size": 7}},
         "invalid config field 'model.kernel_size': architecture 'rnn_simple' does not read it"),
        ("train", {"model": {"arch": "rnn_deep", "dropout": 0.3}},
         "invalid config field 'model.dropout': architecture 'rnn_deep' does not read it"),
        ("select", {"compare_ks": [8], "model": {"kind": "network", "arch": "rnn_deep",
                                                 "kernel_size": 3}},
         "invalid config field 'model.kernel_size': architecture 'rnn_deep' does not read it"),
        ("sweep", {"model": {"dropout": 0.1}},
         "invalid config field 'model.dropout': architecture 'vanilla' does not read it"),
        ("sweep", {"model": {"arch": "cnn2_multibranch", "kernel_size": 2}},
         "invalid config field 'model.kernel_size': "
         "architecture 'cnn2_multibranch' does not read it"),
        ("cascade", {"network": {"arch": "cnn2_multibranch", "kernel_size": 9}},
         "invalid config field 'network.kernel_size': "
         "architecture 'cnn2_multibranch' does not read it"),
        ("cascade", {"network": {"arch": "rnn_simple", "dropout": 0.0}},
         "invalid config field 'network.dropout': architecture 'rnn_simple' does not read it"),
        # a constructor error names its section
        ("train", {"model": {"kind": "forest", "n_trees": 0}},
         "config error: invalid config field 'model': n_trees must be an integer >= 1, got 0\n"),
        ("cascade", {"network": {"optimizer": "bogus"}},
         "config error: invalid config field 'network': unknown optimizer 'bogus'; "
         "expected one of ('sgd', 'adam', 'adabelief')\n"),
        ("binary-study", {"booster": {"learning_rate": 0}},
         "config error: invalid config field 'booster': learning_rate must be positive"),
        # a resample setting the method does not read, and a plan field that is
        # not what the plan takes; --resample-method sets the method, smote
        ("train", {"resample": {"n_ref": 5}},
         "config error: invalid config field 'resample.n_ref': method 'smote' does not read it\n"),
        ("cascade", {"resample": {"nearmiss_version": 2}},
         "invalid config field 'resample.nearmiss_version': method 'smote' does not read it"),
        *(("train", {"resample": {"target_counts": counts}},
           "invalid config field 'resample': target_counts must map class ids [0, 1, 2] "
           "to nonnegative integers") for counts in ([5], {"x": 5}, {"7": 50}, {"0": -1},
                                                    {"1": 2.5}, {"2": True}, "5")),
        *(("sweep", {"resample": {field: value}}, f"invalid config field 'resample': {message}")
          for field, value, message in (
              ("k_neighbors", 2.5, "k_neighbors must be an integer >= 1, got 2.5"),
              ("k_neighbors", "3", "k_neighbors must be an integer >= 1, got '3'"),
              ("nearmiss_version", True, "nearmiss_version must be 1, 2, or 3"),
              ("n_ref", None, "n_ref must be an integer >= 1, got None"))),
        # a count that is not an integer, and a features_per_split that is
        # none of its three forms
        ("train", {"model": {"kind": "gbm", "n_rounds": 2.5}},
         "config error: invalid config field 'model': "
         "n_rounds must be an integer >= 0, got 2.5\n"),
        ("train", {"model": {"kind": "network", "arch": "vanilla", "batch_size": 8.5}},
         "config error: invalid config field 'model': "
         "batch_size must be an integer >= 1, got 8.5\n"),
        ("train", {"model": {"kind": "forest", "features_per_split": "bogus"}},
         "config error: invalid config field 'model': features_per_split must be \"sqrt\", "
         "\"all\" or an integer >= 1, got 'bogus'\n"),
        ("train", {"model": {"kind": "forest", "n_trees": True}},
         "invalid config field 'model': n_trees must be an integer >= 1, got True"),
        ("cascade", {"network": {"epochs": 1.0}},
         "invalid config field 'network': epochs must be an integer >= 1, got 1.0"),
        ("cascade", {"booster": {"max_depth": 2.5}},
         "invalid config field 'booster': max_depth must be an integer >= 0, got 2.5"),
        ("binary-study", {"booster": {"min_samples_leaf": "1"}},
         "invalid config field 'booster': min_samples_leaf must be an integer >= 1, got '1'"),
    ])
    def test_a_bad_setting_fails_before_any_fold_is_resampled(
            self, tmp_path, capsys, monkeypatch, command, config, message):
        from readmitlab import evaluate

        calls = []
        apply_plan = evaluate.apply_plan

        def spy(*args, **kwargs):
            calls.append(args)
            return apply_plan(*args, **kwargs)

        monkeypatch.setattr(evaluate, "apply_plan", spy)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [command, "--data", str(write_csv(tmp_path)), "--seed", "1", "--folds", "3",
                "--workers", "1", "--config", str(tmp_path / "cfg.json")]
        # binary-study's nearmiss regime resamples its folds; select does not resample
        if command not in ("binary-study", "select"):
            argv += ["--resample-method", "smote"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["train"], {"model": {"kind": "gbm", "learning_rate": True}},
         "invalid config field 'model': learning_rate must be positive, got True"),
        (["sweep"], {"grid": {"epochs": [1], "learning_rate": [True], "batch_size": [16]}},
         "invalid config field 'grid.learning_rate': learning_rate must be positive"),
        (["train", "--arch", "cnn2"], {"model": {"dropout": False}},
         "invalid config field 'model': dropout rate must be in [0, 1)"),
    ], ids=["gbm-learning-rate", "sweep-grid-learning-rate", "dropout"])
    def test_a_json_boolean_is_never_a_rate(self, tmp_path, capsys, argv, config, message):
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main([*argv, "--data", str(write_csv(tmp_path)), "--seed", "1", "--folds", "2",
                     "--workers", "1", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    # a default, which config.json echoes for every architecture, is accepted
    @pytest.mark.parametrize("arch, field, value", [
        ("vanilla", "kernel_size", 3), ("cnn2", "dropout", 0.1),
        ("cnn2_multibranch", "dropout", 0.1), ("vanilla", "dropout", 0.2),
        ("rnn_simple", "kernel_size", None)])
    def test_a_setting_the_architecture_reads_or_a_default_is_accepted(self, tmp_path, arch,
                                                                      field, value):
        config = {"model": {"kind": "network", "arch": arch, field: value, "epochs": 1}}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        csv = write_csv(tmp_path, n_features=14)
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--workers", "1", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o")]) == 0


class TestInputWidthCheckedUpFront:
    """An input too short for the network, a k beyond the features, or a
    grid axis that is not a nonempty list fails before any resampling or
    cross-validation."""

    @pytest.mark.parametrize("argv, config, code, message", [
        (["train", "--arch", "cnn2", "--select-method", "chi2", "--select-k", "3",
          "--resample-method", "adasyn"], {},
         2, "data error: cnn2: input of 3 features is too short"),
        (["train", "--arch", "cnn2", "--select-method", "chi2", "--select-k", "3",
          "--resample-method", "random_over", "--paper-mode"], {},
         2, "data error: cnn2: input of 3 features is too short"),
        # a kernel this wide would need tebibytes of weights: none is drawn
        (["train", "--arch", "cnn2", "--kernel-size", "1000000000000"], {},
         2, "data error: cnn2: input of 8 features is too short: "
            "input length 8 shorter than kernel 1000000000000\n"),
        (["sweep", "--arch", "cnn2", "--resample-method", "smote"],
         {"grid": {"epochs": [1], "learning_rate": [1e-3], "batch_size": [16]}},
         2, "data error: cnn2: input of 8 features is too short"),
        (["cascade", "--arch", "cnn2", "--resample-method", "random_over", "--paper-mode"], {},
         2, "data error: cnn2: input of 8 features is too short"),
        (["select"], {"compare_ks": [8, 3], "model": {"kind": "network", "arch": "vanilla"}},
         2, "data error: vanilla: input of 3 features is too short"),
        (["select"], {"compare_ks": [3, 999], "model": {"kind": "gbm", "n_rounds": 2}},
         1, "config error: invalid config field 'compare_ks': k=999 must be at least 1 "
            "and at most the 8 features"),
        (["train", "--model", "gbm", "--select-method", "chi2", "--select-k", "9"], {},
         1, "config error: invalid config field 'select.k': k=9 must be at least 1 "
            "and at most the 8 features"),
        (["sweep", "--resample-method", "random_over", "--paper-mode"],
         {"grid": {"epochs": []}}, 1, "config error: invalid config field 'grid.epochs'"),
        (["sweep", "--resample-method", "random_over", "--paper-mode"],
         {"grid": {"epochs": 5}}, 1, "config error: invalid config field 'grid.epochs'"),
        # a forest's features_per_split beyond the width, by its trees' own rule
        (["train", "--model", "forest", "--resample-method", "random_over"],
         {"model": {"kind": "forest", "n_trees": 2, "features_per_split": 50}},
         1, "config error: invalid config field 'model': features_per_split 50 outside "
            "[1, 8]\n"),
        (["train", "--model", "forest", "--select-method", "chi2", "--select-k", "3",
          "--resample-method", "random_over", "--paper-mode"],
         {"model": {"kind": "forest", "n_trees": 2, "features_per_split": 5}},
         1, "config error: invalid config field 'model': features_per_split 5 outside "
            "[1, 3]\n"),
        (["select"], {"compare_ks": [8, 3], "model": {"kind": "forest", "n_trees": 2,
                                                      "features_per_split": 5}},
         1, "config error: invalid config field 'model': features_per_split 5 outside "
            "[1, 3]\n"),
    ], ids=["train", "train-paper-mode", "train-kernel-wider-than-input", "sweep",
            "cascade-paper-mode", "select-network",
            "select-k-beyond-the-features", "train-k-beyond-the-features",
            "sweep-empty-grid-axis", "sweep-grid-axis-not-a-list",
            "train-forest-features-beyond-width", "train-forest-features-beyond-k-paper-mode",
            "select-forest-features-beyond-k"])
    def test_fails_before_any_fold_work(self, tmp_path, capsys, monkeypatch, argv, config,
                                        code, message):
        from readmitlab import ensemble, evaluate

        calls = []

        def spy(name, fn):
            def recording(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return recording

        monkeypatch.setattr(evaluate, "apply_plan", spy("apply_plan", evaluate.apply_plan))
        for module in (cli, ensemble, evaluate):
            monkeypatch.setattr(module, "cross_validate",
                                spy("cross_validate", module.cross_validate))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(argv + ["--data", str(write_csv(tmp_path)), "--seed", "1",
                            "--folds", "3", "--workers", "1", "--config",
                            str(tmp_path / "cfg.json"), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert calls == []
        assert not out.exists()


GBM_CV = ["--model", "gbm", "--n-rounds", "1", "--folds", "2", "--workers", "1"]
CHI2_K2 = ["--select-method", "chi2", "--select-k", "2"]


def smote_target(count: int) -> dict:
    return {"resample": {"method": "smote", "target_counts": {"0": count}}}


class TestFaultsOfTheRows:
    """A fault of the rows is a data error (exit 2) whether a training fold
    or the whole table meets it, as in paper mode, select and resample; a
    bad config list entry is a config error (exit 1) naming its field. Each
    run writes one error line. "one" is a 30-row table whose column a is
    constant, so chi2 ranks one column; "none" has no other column."""

    TABLES = {
        "one": "a,b,readmitted\n" + "".join(f"1,{i * 7 % 11},{i % 3}\n" for i in range(30)),
        "none": "a,readmitted\n" + "".join(f"1,{i % 3}\n" for i in range(9)),
    }

    def run(self, tmp_path, argv, config, table):
        (tmp_path / "rows.csv").write_text(self.TABLES[table])
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        return main([argv[0], *(["--data", str(tmp_path / "rows.csv"), "--seed", "1"]
                                if argv[0] != "report" else []),
                     *argv[1:], "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o")])

    # a train run whose last field is True exits alike with --paper-mode
    # toggled: its fault is in every training fold and in the whole table
    @pytest.mark.parametrize("argv, config, table, code, message, twin", [
        (["train", *GBM_CV, *CHI2_K2], {}, "one",
         2, "data error: training fold 0: k=2 exceeds the 1 non-excluded features", True),
        (["train", *GBM_CV, *CHI2_K2, "--paper-mode"], {}, "one",
         2, "data error: k=2 exceeds the 1 non-excluded features", True),
        (["select", "--select-k", "2"], {}, "one",
         2, "data error: k=2 exceeds the 1 non-excluded features", False),
        (["resample"], smote_target(5), "one",
         2, "data error: oversampler target 5 below current count for class 0", False),
        # no twin: each training fold holds 5 rows of class 0, so a target of 5 fits
        (["train", *GBM_CV, "--paper-mode"], smote_target(5), "one",
         2, "data error: oversampler target 5 below current count for class 0", False),
        (["train", *GBM_CV], smote_target(4), "one",
         2, "data error: training fold 0: oversampler target 4 below current count for "
            "class 0", True),
        (["select"], {}, "none", 2, "data error: chi2 ranks none of the 1 features", False),
        (["select"], {"compare_ks": [1, 999], "model": {"kind": "gbm", "n_rounds": 1}}, "one",
         1, "config error: invalid config field 'compare_ks': k=999 must be at least 1 "
            "and at most the 2 features", False),
        (["report"], {"runs": [1]}, "one",
         1, "config error: invalid config field 'runs': 1 is not a string", False),
        (["stats"], {"features": [1]}, "one",
         1, "config error: invalid config field 'features': 1 is not a string", False),
    ], ids=["train-k", "train-k-paper-mode", "select-k", "resample-target",
            "train-target-paper-mode", "train-target", "select-none-ranked",
            "compare-ks-beyond-the-features", "runs-entry", "features-entry"])
    def test_fails_with_one_line(self, tmp_path, capsys, argv, config, table, code, message,
                                 twin):
        assert self.run(tmp_path, argv, config, table) == code
        assert capsys.readouterr().err == message + "\n"
        if twin:
            toggled = ([a for a in argv if a != "--paper-mode"] if "--paper-mode" in argv
                       else [*argv, "--paper-mode"])
            assert self.run(tmp_path, toggled, config, table) == code
            assert capsys.readouterr().err.count("\n") == 1


class TestNonFiniteInput:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_a_data_error(self, tmp_path, capsys, cell):
        csv = write_csv(tmp_path, n_features=3)
        lines = csv.read_text().splitlines()
        row = lines[5].split(",")
        row[1] = cell
        lines[5] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--model", "gbm", "--n-rounds", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert f"line 6: non-finite cell '{cell}' in column 'f01'" in err
        assert not out.exists()

    def test_a_column_whose_range_overflows_is_a_data_error(self, tmp_path, capsys):
        csv = tmp_path / "wide.csv"
        csv.write_text("a,b,readmitted\n-1e308,1,0\n1e308,2,1\n0,3,2\n1,4,0\n")
        assert main(["ingest", "--data", str(csv), "--seed", "1",
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            "data error: column 'a' cannot be min-max scaled: "
            "its range -1e+308 to 1e+308 overflows float64\n")

    @pytest.mark.parametrize("label", ["inf", "1e400"])
    def test_infinite_label_is_a_data_error(self, tmp_path, capsys, label):
        csv = write_csv(tmp_path, n_features=3)
        lines = csv.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + label
        csv.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--data", str(csv), "--seed", "1",
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert f"line 6: label {label} outside {{0,1,2}}" in err


    def test_values_beyond_float32_are_a_data_error_for_the_network(self, tmp_path, capsys):
        data = load_dataset(write_csv(tmp_path, counts={0: 10, 1: 10, 2: 10}))
        csv = tmp_path / "huge.csv"
        save_dataset_csv(make_dataset(data.features * 1e300, data.labels), csv)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the cast to float32 warns no more
            assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "2",
                         "--model", "network", "--arch", "vanilla", "--epochs", "1",
                         "--no-normalize", "--workers", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: feature values beyond the float32 range")
        assert "--no-normalize" in err and not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("stats", []),
        ("select", ["--select-method", "chi2"]),
        ("select", ["--select-method", "anova_f"]),
        ("select", ["--select-method", "pearson"]),
    ], ids=["stats", "chi2", "anova_f", "pearson"])
    def test_sums_that_overflow_float64_are_a_data_error(self, tmp_path, capsys, command,
                                                         flags):
        data = load_dataset(write_csv(tmp_path))
        csv = tmp_path / "huge.csv"
        save_dataset_csv(make_dataset(np.abs(data.features) * 1e200, data.labels), csv)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            assert main([command, "--data", str(csv), "--seed", "1", "--no-normalize",
                         *flags, "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ") and "overflows float64" in line
        assert not out.exists()


class TestLeakage:
    """Pure noise: 600 rows of 2 000 uniform features with uniform labels, so
    no model can beat the majority share on held-out rows without seeing
    their labels."""

    def test_selection_sees_held_out_labels_in_paper_mode_only(self, tmp_path):
        rng = np.random.default_rng(0)
        features, labels = rng.random((600, 2000)), rng.integers(0, 3, size=600)
        csv = tmp_path / "noise.csv"
        header = ",".join([f"f{i:04d}" for i in range(2000)] + ["readmitted"])
        np.savetxt(csv, np.column_stack([features, labels]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        majority = 100.0 * np.bincount(labels).max() / 600  # 34.33
        argv = ["train", "--data", str(csv), "--seed", "1", "--model", "gbm",
                "--n-rounds", "30", "--max-depth", "2", "--select-method", "anova_f",
                "--select-k", "10", "--folds", "5", "--workers", "1"]

        def mean_accuracy(*flags):
            out = tmp_path / "-".join(("run",) + flags)
            assert main(argv + [*flags, "--out", str(out)]) == 0
            rows = (out / "report.tsv").read_text().split(
                "# gbm cross-validation: mean over folds\n")[1].splitlines()
            assert rows[1].startswith("accuracy\t")
            return float(rows[1].split("\t")[1])

        per_fold = mean_accuracy()  # 30.83 when measured
        whole = mean_accuracy("--paper-mode")  # 41.50
        assert abs(per_fold - majority) < 5.0
        assert whole - majority > 5.0


class TestBinaryStudy:
    def test_requested_regimes_are_reported(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["binary-study", "--data", str(csv), "--seed", "1",
                     "--folds", "3", "--regimes", "full,random_under",
                     "--out", str(out)]) == 0
        tsv = (out / "report.tsv").read_text()
        assert "binary 0-vs-2 study" in tsv
        assert "full: pooled confusion" in tsv
        assert "random_under: pooled confusion" in tsv
        assert "nearmiss: pooled confusion" not in tsv

    def test_each_regime_reports_its_own_fold_notes(self, tmp_path):
        out = tmp_path / "run"
        assert main(["binary-study", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--folds", "2", "--workers", "1", "--regimes", "nearmiss,full",
                     "--out", str(out)]) == 0
        notes = [line for line in (out / "report.txt").read_text().splitlines()
                 if " fold " in line]
        # the outer classes' 18 and 12 rows train 9 and 6 a fold
        assert notes == [f"nearmiss fold {f}: resampled by nearmiss: class 0: 6, class 2: 6"
                         for f in range(2)]

    def test_unknown_regime_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        assert main(["binary-study", "--data", str(csv), "--seed", "1",
                     "--regimes", "oversample", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "config error: invalid config field 'regimes': unknown regime 'oversample'; "
            "expected one of ('nearmiss', 'random_under', 'full')\n")


class TestOutputDirectory:
    @pytest.mark.parametrize("command, out, extra", [
        ("ingest", "afile", []),
        ("resample", "afile/sub", ["--resample-method", "smote", "--write-csv"]),
    ])
    def test_an_out_that_is_or_lies_under_a_file_fails_before_the_data_load(
            self, tmp_path, capsys, monkeypatch, command, out, extra):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n")
        # a missing CSV would be a data error: the out check comes first
        assert main([command, "--data", "missing.csv", "--seed", "1", *extra,
                     "--out", out]) == 1
        assert capsys.readouterr().err == ("config error: invalid config field 'out': "
                                           "afile is not a directory\n")
        assert Path("afile").read_text() == "kept\n"
        assert sorted(os.listdir()) == ["afile"]


class TestReportCommand:
    def test_collates_previous_runs(self, tmp_path):
        csv = write_csv(tmp_path)
        run1, run2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["ingest", "--data", str(csv), "--seed", "1",
                     "--out", str(run1)]) == 0
        assert main(["stats", "--data", str(csv), "--seed", "1",
                     "--out", str(run2)]) == 0
        out = tmp_path / "collated"
        assert main(["report", "--runs", str(run1), str(run2),
                     "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert f"--- run {run1} (command: ingest) ---" in text
        assert f"--- run {run2} (command: stats) ---" in text

    def test_runs_given_as_a_string_is_one_run_directory(self, tmp_path):
        csv = write_csv(tmp_path)
        run = tmp_path / "r1"
        assert main(["ingest", "--data", str(csv), "--seed", "1", "--out", str(run)]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"runs": str(run)}))
        out = tmp_path / "collated"
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        assert f"--- run {run} (command: ingest) ---" in (out / "report.txt").read_text()
        assert json.loads((out / "config.json").read_text())["runs"] == [str(run)]

    def test_report_without_runs_is_a_config_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "o")]) == 1

    def test_non_run_directory_is_a_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--runs", str(empty),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_malformed_run_config_is_a_data_error(self, tmp_path, capsys, text):
        csv = write_csv(tmp_path)
        run = tmp_path / "r"
        assert main(["ingest", "--data", str(csv), "--seed", "1", "--out", str(run)]) == 0
        (run / "config.json").write_text(text)
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / "o")]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, spoil, message", [
        ("report.txt", lambda path: path.write_bytes(b"\xff\xfe report"),
         "cannot be read as UTF-8 text (UnicodeDecodeError)"),
        ("config.json", lambda path: path.write_bytes(b'{"command": "\xff"}'),
         "cannot be read as UTF-8 text (UnicodeDecodeError)"),
        ("config.json", lambda path: (path.unlink(), path.mkdir()),
         "cannot be read as UTF-8 text (IsADirectoryError)"),
        ("report.txt", lambda path: path.unlink(), "file not found"),
    ], ids=["report-not-utf8", "config-not-utf8", "config-a-directory", "report-missing"])
    def test_an_unreadable_run_file_is_a_data_error_naming_it(self, tmp_path, capsys, name,
                                                               spoil, message):
        run = tmp_path / "r"
        assert main(["ingest", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--out", str(run)]) == 0
        capsys.readouterr()
        spoil(run / name)
        assert main(["report", "--runs", str(run), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"data error: {run / name}: {message}\n"
        assert not (tmp_path / "o").exists()


ROOT = Path(__file__).resolve().parent.parent
TINY_GRID = {"epochs": [1], "learning_rate": [1e-3], "batch_size": [16]}
NETWORK = {"arch": "vanilla", "epochs": 1, "learning_rate": 1e-3, "batch_size": 16,
           "optimizer": "adam", "kernel_size": None, "dropout": 0.2}
BOOSTER = {"n_rounds": 2, "learning_rate": 0.1, "max_depth": 3, "min_samples_leaf": 1}

# the fold fields of a CV command run with --workers 1 --folds 2
FOLDS = {"workers": 1, "folds": 2}
CV = {**FOLDS, "paper_mode": False}

# command, extra flags, config file (or None), resolved fields beyond the
# command, dataset, seed, normalize and fraction every data command echoes
ECHOES = [
    ("ingest", [], None, {}),
    ("stats", ["--features", "f00,f03"], None, {"features": ["f00", "f03"]}),
    ("select", [], None,
     {"select": {"method": "chi2", "k": 8, "paper_exclusion": False}, "compare_ks": None}),
    ("resample", ["--resample-method", "nearmiss"], None,
     {"resample": {"method": "nearmiss", "k_neighbors": 5, "target_counts": None,
                   "nearmiss_version": 1, "n_ref": 3}, "write_csv": False}),
    ("train", ["--workers", "1", "--folds", "2", "--model", "gbm", "--n-rounds", "2"], None,
     {**CV, "select": None, "resample": None, "model": {"kind": "gbm", **BOOSTER}}),
    ("sweep", ["--workers", "1", "--folds", "2"], {"grid": TINY_GRID},
     {**CV, "resample": None, "grid": TINY_GRID,
      "model": {"kind": "network", "arch": "vanilla", "optimizer": "adam",
                "kernel_size": None, "dropout": 0.2}}),
    ("cascade", ["--workers", "1", "--folds", "2", "--arch", "vanilla", "--epochs", "1",
                 "--learning-rate", "1e-3", "--batch-size", "16", "--n-rounds", "2"], None,
     {**CV, "resample": None, "network": NETWORK, "booster": BOOSTER, "save_model": False}),
    ("binary-study", ["--workers", "1", "--folds", "2", "--regimes", "full"],
     {"booster": {"n_rounds": 2}}, {**FOLDS, "regimes": ["full"], "booster": BOOSTER}),
]

# command, shared flags, the values as flags, then as config-file sections
SAME_BY_FLAGS_OR_CONFIG = [
    ("select", [],
     ["--select-method", "pearson", "--select-k", "3", "--paper-exclusion"],
     [{"select": {"method": "pearson", "k": 3, "paper_exclusion": True}}]),
    ("train", ["--workers", "1", "--folds", "2", "--model", "gbm", "--n-rounds", "2"],
     ["--select-method", "anova_f", "--select-k", "4", "--resample-method", "smote",
      "--k-neighbors", "2"],
     [{"select": {"method": "anova_f", "k": 4},
       "resample": {"method": "smote", "k_neighbors": 2}}]),
    ("resample", [], ["--resample-method", "nearmiss", "--nearmiss-version", "3"],
     [{"resample": {"method": "nearmiss", "nearmiss_version": 3}}]),
    ("train", ["--workers", "1", "--folds", "2"],
     ["--model", "gbm", "--n-rounds", "3", "--max-depth", "2"],
     [{"model": {"kind": "gbm", "n_rounds": 3, "max_depth": 2}}]),
    ("train", ["--workers", "1", "--folds", "2"],
     ["--model", "forest", "--n-trees", "5", "--max-depth", "3"],
     [{"model": {"kind": "forest", "n_trees": 5, "max_depth": 3}}]),
    ("train", ["--workers", "1", "--folds", "2"],
     ["--model", "network", "--arch", "cnn2", "--kernel-size", "2", "--epochs", "1",
      "--learning-rate", "1e-2", "--batch-size", "16", "--optimizer", "sgd", "--dropout", "0.1"],
     [{"model": {"kind": "network", "arch": "cnn2", "kernel_size": 2, "epochs": 1,
                 "learning_rate": 1e-2, "batch_size": 16, "optimizer": "sgd",
                 "dropout": 0.1}}]),
    ("cascade", ["--workers", "1", "--folds", "2"],
     ["--arch", "vanilla", "--epochs", "1", "--batch-size", "16", "--n-rounds", "2",
      "--max-depth", "2"],
     [{"network": {"arch": "vanilla", "epochs": 1, "batch_size": 16},
       "booster": {"n_rounds": 2, "max_depth": 2}}]),
]

# command, and a flag with its value, that the command does not read
UNREAD_FLAGS = [
    *(("sweep", flag, value) for flag, value in [
        ("--model", "network"), ("--epochs", "1"), ("--learning-rate", "0.1"),
        ("--batch-size", "16"), ("--n-rounds", "3"), ("--max-depth", "2"),
        ("--n-trees", "3")]),
    ("cascade", "--model", "network"),
    ("cascade", "--n-trees", "3"),
    ("ingest", "--workers", "1"),
    ("stats", "--workers", "1"),
    ("resample", "--workers", "1"),
    ("select", "--paper-mode", None),
    ("binary-study", "--paper-mode", None),
    ("report", "--seed", "1"),
    ("report", "--workers", "1"),
]

# command, and flags for a small run of it; report collates an ingest run
RERUNS = [
    ("ingest", []),
    ("stats", ["--features", "f00,f03", "--no-normalize"]),
    ("select", ["--select-method", "pearson", "--select-k", "3"]),
    ("resample", ["--resample-method", "smote", "--k-neighbors", "3", "--fraction", "0.8"]),
    ("train", ["--workers", "1", "--folds", "2", "--model", "gbm", "--n-rounds", "2",
               "--select-method", "chi2", "--select-k", "4",
               "--resample-method", "random_over", "--paper-mode"]),
    ("sweep", ["--workers", "1", "--folds", "2", "--arch", "vanilla",
               "--resample-method", "random_over"]),
    ("cascade", ["--workers", "1", "--folds", "2", "--arch", "vanilla", "--epochs", "1",
                 "--batch-size", "16", "--n-rounds", "2"]),
    ("binary-study", ["--workers", "1", "--folds", "2", "--regimes", "full,random_under"]),
    ("report", []),
]


class TestConfigTable:
    @pytest.mark.parametrize("command, flags, config, fields", ECHOES,
                             ids=[case[0] for case in ECHOES])
    def test_resolved_config_echo(self, tmp_path, command, flags, config, fields):
        csv = write_csv(tmp_path)
        argv = [command, "--data", str(csv), "--seed", "1", *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text()) == {
            "command": command, "dataset": str(csv), "seed": 1,
            "normalize": True, "fraction": None, **fields}

    def test_resolved_report_echo(self, tmp_path):
        csv = write_csv(tmp_path)
        run = tmp_path / "r"
        assert main(["ingest", "--data", str(csv), "--seed", "1", "--out", str(run)]) == 0
        out = tmp_path / "o"
        assert main(["report", "--runs", str(run), "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text()) == {
            "command": "report", "runs": [str(run)]}

    @pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS,
                             ids=[command + flag for command, flag, _ in UNREAD_FLAGS])
    def test_flag_a_command_does_not_read_is_not_offered(self, tmp_path, capsys, command,
                                                         flag, value):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert not re.search(rf"(?<![\w-]){flag}(?![\w-])", capsys.readouterr().out)

        if command == "report":
            argv = [command, "--runs", str(tmp_path)]
        else:
            argv = [command, "--data", str(write_csv(tmp_path)), "--seed", "1"]
        argv += [flag] + ([value] if value is not None else [])
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flags", RERUNS, ids=[case[0] for case in RERUNS])
    def test_config_echo_reruns_the_run(self, tmp_path, command, flags):
        csv = write_csv(tmp_path)
        if command == "report":
            assert main(["ingest", "--data", str(csv), "--seed", "1",
                         "--out", str(tmp_path / "ingest")]) == 0
            argv = ["report", "--runs", str(tmp_path / "ingest")]
        else:
            argv = [command, "--data", str(csv), "--seed", "1", *flags]
        if command == "sweep":
            (tmp_path / "grid.json").write_text(json.dumps({"grid": TINY_GRID}))
            argv += ["--config", str(tmp_path / "grid.json")]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(argv + ["--out", str(first)]) == 0
        assert main([command, "--config", str(first / "config.json"),
                     "--out", str(second)]) == 0
        for name in ("config.json", "report.tsv", "report.txt"):
            assert (second / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("command, shared, flags, configs", SAME_BY_FLAGS_OR_CONFIG,
                             ids=["select", "train-select-resample", "resample-nearmiss3",
                                  "train-gbm", "train-forest", "train-network", "cascade"])
    def test_flags_and_config_file_give_identical_outputs(self, tmp_path, command, shared,
                                                          flags, configs):
        csv = write_csv(tmp_path, counts={0: 18, 1: 15, 2: 6})
        argv = [command, "--data", str(csv), "--seed", "1", *shared]
        assert main(argv + flags + ["--out", str(tmp_path / "flags")]) == 0
        for i, config in enumerate(configs):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"config{i}"
            assert main(argv + ["--config", str(path), "--out", str(out)]) == 0
            for name in ("config.json", "report.tsv", "report.txt"):
                assert (out / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    @pytest.mark.parametrize("command, flags, config, field", [
        ("ingest", [], {"workers": 2}, "workers"),
        ("stats", [], {"workers": 2}, "workers"),
        ("sweep", [], {"model": {"batch_size": 8}}, "model.batch_size"),
        ("cascade", [], {"model": {"epochs": 3}}, "model"),
        ("resample", ["--resample-method", "smote"], {"workers": 2}, "workers"),
        ("cascade", [], {"network": {"layers": 3}}, "network.layers"),
        ("select", [], {"select": {"top": 3}}, "select.top"),
        ("train", ["--model", "gbm"], {"model": {"depth": 2}}, "model.depth"),
        ("resample", [], {"resample": {"method": "smote", "ratio": 1}}, "resample.ratio"),
        ("binary-study", [], {"booster": {"depth": 2}}, "booster.depth"),
        ("train", ["--model", "gbm"], {"network": {"epochs": 99}}, "network"),
        ("train", ["--model", "gbm"], {"grid": {"epochs": [3]}}, "grid"),
        ("ingest", [], {"select": {"method": "chi2", "k": 2}}, "select"),
        ("stats", [], {"resample": {"method": "smote"}}, "resample"),
        ("binary-study", [], {"model": {"kind": "gbm"}}, "model"),
        ("sweep", [], {"booster": {"n_rounds": 5}}, "booster"),
        ("resample", ["--resample-method", "smote"], {"regimes": ["full"]}, "regimes"),
        ("select", [], {"paper_mode": True}, "paper_mode"),
        ("binary-study", [], {"paper_mode": True}, "paper_mode"),
        ("report", [], {"seed": 1}, "seed"),
        ("report", [], {"dataset": "data.csv"}, "dataset"),
        ("report", [], {"workers": 1}, "workers"),
        ("select", [], {"workers": 2}, "workers"),
        ("select", ["--folds", "4"], None, "folds"),
        ("select", ["--select-method", "chi2", "--paper-exclusion"], None,
         "select.paper_exclusion"),
        ("train", ["--model", "gbm"],
         {"select": {"method": "anova_f", "k": 2, "paper_exclusion": True}},
         "select.paper_exclusion"),
        ("resample", ["--resample-method", "smote", "--nearmiss-version", "3"], None,
         "resample.nearmiss_version"),
        ("train", ["--model", "gbm"], {"resample": {"method": "random_under", "n_ref": 5}},
         "resample.n_ref"),
        # k_neighbors, which only the four synthesizing oversamplers read
        ("resample", [], {"resample": {"method": "random_over", "k_neighbors": 9}},
         "resample.k_neighbors"),
        ("resample", ["--resample-method", "nearmiss", "--k-neighbors", "4"], None,
         "resample.k_neighbors"),
        ("train", ["--model", "gbm"], {"resample": {"method": "random_under", "k_neighbors": 2}},
         "resample.k_neighbors"),
    ])
    def test_field_a_command_does_not_use_is_named(self, tmp_path, capsys, command, flags,
                                                   config, field):
        if command == "report":
            argv = [command, "--runs", str(tmp_path)]
        else:
            argv = [command, "--data", str(write_csv(tmp_path)), "--seed", "1", *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert f"invalid config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, fields", [
        ("train", [("--model", "model.kind"), ("--arch", "model.arch"),
                   ("--epochs", "model.epochs"), ("--learning-rate", "model.learning_rate"),
                   ("--batch-size", "model.batch_size"), ("--optimizer", "model.optimizer"),
                   ("--kernel-size", "model.kernel_size"), ("--dropout", "model.dropout"),
                   ("--n-rounds", "model.n_rounds"), ("--max-depth", "model.max_depth"),
                   ("--n-trees", "model.n_trees")]),
        ("sweep", [("--arch", "model.arch"), ("--optimizer", "model.optimizer"),
                   ("--kernel-size", "model.kernel_size"), ("--dropout", "model.dropout")]),
        ("cascade", [("--arch", "network.arch"), ("--epochs", "network.epochs"),
                     ("--learning-rate", "network.learning_rate"),
                     ("--batch-size", "network.batch_size"),
                     ("--optimizer", "network.optimizer"),
                     ("--kernel-size", "network.kernel_size"),
                     ("--dropout", "network.dropout")]),
    ])
    def test_the_network_fields_are_unchanged(self, command, fields):
        # the network's dtype is fixed in NetworkClassifier, not a setting
        options = [entry for group in _COMMANDS[command][2] for entry in group]
        assert [(flag, ".".join(path)) for flag, path, *_ in options
                if path[0] in ("model", "network")] == fields
        assert list(_SECTIONS["network"]) == ["arch", "epochs", "learning_rate", "batch_size",
                                              "optimizer", "kernel_size", "dropout"]

    @pytest.mark.parametrize("kind, cls", [("network", NetworkClassifier),
                                           ("gbm", GradientBoostedClassifier),
                                           ("forest", RandomForest)])
    def test_model_defaults_match_the_constructors(self, kind, cls):
        params = inspect.signature(cls).parameters
        assert {name: params[name].default for name in _MODEL_DEFAULTS[kind]} == \
            _MODEL_DEFAULTS[kind]

    def test_resample_defaults_match_the_plan(self):
        plan_defaults = {f.name: f.default for f in dataclasses.fields(ResamplePlan)
                         if f.name != "method"}
        assert {"method": None, **plan_defaults} == _SECTIONS["resample"]

    @pytest.mark.parametrize("command", [[], *([name] for name in _COMMANDS)],
                             ids=lambda argv: " ".join(argv) or "top")
    def test_help_exits_zero(self, command):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "readmitlab", *command, "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: readmitlab")


# per field of the resample and select sections: its default and values in
# range, then values out of range, a string, null and a fractional float
RESAMPLE_GOOD = {
    "method": ["smote", "adasyn", "borderline_smote", "svm_smote", "random_over", "nearmiss",
               "random_under"],
    "k_neighbors": [5, 1, 3],
    "target_counts": [None, {"0": 24, "1": 24, "2": 24}, {"2": 9}, {"0": 5, "1": 5, "2": 5}],
    "nearmiss_version": [1, 2, 3],
    "n_ref": [3, 1, 6],
}
RESAMPLE_BAD = {
    "method": ["mixup", None, 1.5],
    "k_neighbors": [0, -2, "3", None, 2.5],
    "target_counts": [{"0": -1}, [5], {"x": 5}, {"7": 50}, {"1": 2.5}, "5", 1.5],
    "nearmiss_version": [0, 4, "2", None, 1.5],
    "n_ref": [0, "3", None, 2.5],
}
SELECT_GOOD = {"method": ["chi2", "pearson", "anova_f"], "k": [1, 4, 8],
               "paper_exclusion": [False, True]}
SELECT_BAD = {"method": ["mutual_info", None, 1.5], "k": [0, 9, "3", None, 2.5],
              "paper_exclusion": ["yes", None, 0.5]}


@st.composite
def config_sections(draw, good, bad, required):
    """No section, or one with the `required` fields and some others, each
    drawn from `good`; in half of them one field, or a field no section has,
    then takes a value from `bad`."""
    if draw(st.booleans()):
        return None
    section = draw(st.fixed_dictionaries(
        {field: st.sampled_from(good[field]) for field in required},
        optional={field: st.sampled_from(values) for field, values in good.items()
                  if field not in required}))
    spoiled = draw(st.one_of(st.none(), st.sampled_from(
        [("ratio", 1), *((field, value) for field, values in bad.items() for value in values)])))
    if spoiled is not None:
        section[spoiled[0]] = spoiled[1]
    return section


class TestConfigValueTypes:
    """A config file's top-level value is what its flag would give, and a
    section is a JSON object; anything else fails before the data load."""

    @pytest.mark.parametrize("command, config, message", [
        ("train", {"paper_mode": "false"}, "'paper_mode': \"false\" is not a JSON boolean"),
        ("train", {"paper_mode": None}, "'paper_mode': null is not a JSON boolean"),
        ("cascade", {"save_model": "false"}, "'save_model': \"false\" is not a JSON boolean"),
        ("resample", {"write_csv": 1}, "'write_csv': 1 is not a JSON boolean"),
        ("stats", {"normalize": "false"}, "'normalize': \"false\" is not a JSON boolean"),
        ("train", {"folds": 2.7}, "'folds': 2.7 is not an integer"),
        ("ingest", {"seed": 1.5}, "'seed': 1.5 is not an integer"),
        ("ingest", {"seed": "1"}, "'seed': \"1\" is not an integer"),
        ("train", {"workers": True}, "'workers': true is not an integer"),
        ("train", {"workers": "x"}, "'workers': \"x\" is not an integer"),
        ("select", {"folds": 2.0, "compare_ks": [2]}, "'folds': 2.0 is not an integer"),
        ("ingest", {"fraction": "0.5"}, "'fraction': \"0.5\" is not a number"),
        ("ingest", {"fraction": False}, "'fraction': false is not a number"),
        ("resample", {"resample": "smote"}, "'resample': \"smote\" is not a JSON object"),
        ("train", {"model": 5}, "'model': 5 is not a JSON object"),
        ("train", {"select": False}, "'select': false is not a JSON object"),
        ("sweep", {"grid": []}, "'grid': [] is not a JSON object"),
        ("cascade", {"network": True}, "'network': true is not a JSON object"),
        ("binary-study", {"booster": [1]}, "'booster': [1] is not a JSON object"),
        ("select", {"model": "gbm", "compare_ks": [2]}, "'model': \"gbm\" is not a JSON object"),
    ])
    def test_a_value_of_the_wrong_type_fails_before_the_data_load(
            self, tmp_path, capsys, monkeypatch, command, config, message):
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: loads.append(a))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [command, "--data", str(write_csv(tmp_path)), "--seed", "1",
                "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "o")]
        if command == "resample":  # a flag that sets a resample field, over the config's
            argv += ["--k-neighbors", "3", *(() if "resample" in config
                                             else ("--resample-method", "smote"))]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: invalid config field {message}\n"
        assert loads == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flags, config", [
        ("train", ["--folds", "2", "--workers", "1", "--paper-mode", "--no-normalize",
                   "--fraction", "1", "--resample-method", "smote", "--model", "gbm",
                   "--n-rounds", "2"],
         {"seed": 1, "folds": 2, "workers": 1, "paper_mode": True, "normalize": False,
          "fraction": 1, "resample": {"method": "smote"},
          "model": {"kind": "gbm", "n_rounds": 2}}),
        ("cascade", ["--folds", "2", "--workers", "1", "--save-model", "--arch", "vanilla",
                     "--epochs", "1", "--n-rounds", "2"],
         {"seed": 1, "folds": 2, "workers": 1, "save_model": True, "paper_mode": False,
          "network": {"arch": "vanilla", "epochs": 1}, "booster": {"n_rounds": 2}}),
        ("resample", ["--resample-method", "random_over", "--write-csv", "--fraction", "0.5"],
         {"seed": 1, "write_csv": True, "fraction": 0.5, "normalize": True,
          "resample": {"method": "random_over"}}),
        # null leaves a field without a default unset: the seed then comes from
        # READMIT_SEED
        ("ingest", [], {"seed": None, "fraction": None}),
    ])
    def test_values_of_the_flags_types_give_the_flags_outputs(
            self, tmp_path, monkeypatch, command, flags, config):
        monkeypatch.setenv("READMIT_SEED", "1")
        csv = write_csv(tmp_path)
        assert main([command, "--data", str(csv), "--seed", "1", *flags,
                     "--out", str(tmp_path / "flags")]) == 0
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([command, "--data", str(csv), "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "config")]) == 0
        flag_files = sorted(p.relative_to(tmp_path / "flags")
                            for p in (tmp_path / "flags").rglob("*") if p.is_file())
        assert flag_files == sorted(p.relative_to(tmp_path / "config")
                                    for p in (tmp_path / "config").rglob("*") if p.is_file())
        for name in flag_files:
            assert (tmp_path / "config" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()

    @pytest.mark.parametrize("method", ["smote", "borderline_smote", "svm_smote", "adasyn"])
    def test_the_synthesizing_methods_read_k_neighbors(self, tmp_path, method):
        assert main(["resample", "--data", str(write_csv(tmp_path)), "--seed", "1",
                     "--resample-method", method, "--k-neighbors", "3",
                     "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "config.json").read_text())["resample"][
            "k_neighbors"] == 3


class TestConfigResolverProperty:
    # the one function-scoped fixture, no_ambient_seed, unsets READMIT_SEED,
    # which holds for every example alike
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(resample=config_sections(RESAMPLE_GOOD, RESAMPLE_BAD, ("method",)),
           select=config_sections(SELECT_GOOD, SELECT_BAD, ("method", "k")))
    def test_a_run_succeeds_and_its_echo_reruns_or_fails_with_one_clean_line(
            self, resample, select):
        config = {key: section for key, section in (("resample", resample), ("select", select))
                  if section is not None}
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "cfg.json").write_text(json.dumps(config))
            argv = ["train", "--data", str(write_csv(tmp, counts={0: 24, 1: 20, 2: 16})),
                    "--seed", "1", "--folds", "2", "--workers", "1", "--model", "gbm",
                    "--n-rounds", "1", "--config", str(tmp / "cfg.json")]
            first, second = tmp / "first", tmp / "second"
            code, err = run_main(argv + ["--out", str(first)])
            if code == 0:
                assert run_main(["train", "--config", str(first / "config.json"),
                                 "--out", str(second)]) == (0, "")
                for name in ("config.json", "report.tsv", "report.txt"):
                    assert (second / name).read_bytes() == (first / name).read_bytes()
            else:
                prefix = {1: "config error: ", 2: "data error: "}[code]
                assert err.startswith(prefix) and err.count("\n") == 1, err
                assert not first.exists()


def run_main(argv):
    """(exit code, stderr) of main(argv), its report on stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestOneRulePerKindOfValue:
    """A count below its least value fails before the data load, a list-valued
    field that is not a list or gives an entry twice fails naming the field,
    and a bad grid value fails naming its axis, both before any fold work. A
    name outside its choices fails alike from a flag and from a config file."""

    @pytest.mark.parametrize("command, flags, config, env, message", [
        ("ingest", ["--seed", "-1"], {}, None, "'seed': -1 below 0"),
        ("ingest", ["--seed", "-1", "--fraction", "0.5"], {}, None, "'seed': -1 below 0"),
        ("train", [], {"seed": -1}, None, "'seed': -1 below 0"),
        ("train", [], {}, "-1", "'seed': -1 below 0"),
        ("train", ["--seed", "1", "--folds", "1"], {}, None, "'folds': 1 below 2"),
        ("train", ["--seed", "1", "--folds", "1", "--paper-mode", "--resample-method",
                   "random_over"], {}, None, "'folds': 1 below 2"),
        ("cascade", ["--seed", "1"], {"folds": 0}, None, "'folds': 0 below 2"),
        ("binary-study", ["--seed", "1", "--folds", "-3"], {}, None, "'folds': -3 below 2"),
        ("select", ["--seed", "1"], {"compare_ks": [2], "folds": 1}, None,
         "'folds': 1 below 2"),
        ("sweep", ["--seed", "1"], {"workers": 0}, None, "'workers': 0 below 1"),
    ], ids=["ingest-seed-flag", "ingest-seed-with-fraction", "train-seed-config",
            "train-seed-environment", "train-folds", "train-folds-paper-mode",
            "cascade-folds-config", "binary-study-folds", "select-folds", "sweep-workers"])
    def test_a_count_below_its_least_fails_before_the_data_load(
            self, tmp_path, capsys, monkeypatch, command, flags, config, env, message):
        if env is not None:
            monkeypatch.setenv("READMIT_SEED", env)
        loads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *a, **k: loads.append(a))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main([command, "--data", str(write_csv(tmp_path)), *flags,
                     "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: invalid config field {message}\n"
        assert loads == []
        assert not out.exists()

    @pytest.mark.parametrize("command, config, message", [
        ("select", {"compare_ks": 5, "model": {"kind": "gbm", "n_rounds": 2}},
         "'compare_ks': 5 is not a list"),
        ("binary-study", {"regimes": 5}, "'regimes': 5 is not a list"),
        ("binary-study", {"regimes": {"full": 1}}, "'regimes': {\"full\": 1} is not a list"),
        ("stats", {"features": 5}, "'features': 5 is not a list"),
        ("report", {"runs": 5}, "'runs': 5 is not a list"),
        ("sweep", {"grid": {"learning_rate": [1e-3, 0.0]}},
         "'grid.learning_rate': learning_rate must be positive"),
        ("sweep", {"grid": {"epochs": [1, 0], "learning_rate": [1e-3], "batch_size": [16]}},
         "'grid.epochs': epochs must be an integer >= 1, got 0"),
        ("sweep", {"grid": {"epochs": [1], "learning_rate": [1e-3], "batch_size": [1.5]}},
         "'grid.batch_size': batch_size must be an integer >= 1, got 1.5"),
        # an entry given twice would run the same study, row or cell twice
        ("select", {"compare_ks": [3, 4, 3], "model": {"kind": "gbm", "n_rounds": 2}},
         "'compare_ks': 3 is given twice"),
        ("select", {"compare_ks": "3,03", "model": {"kind": "gbm", "n_rounds": 2}},
         "'compare_ks': 3 is given twice"),
        ("binary-study", {"regimes": ["full", "full"]}, "'regimes': \"full\" is given twice"),
        ("stats", {"features": "f00,f01,f00"}, "'features': \"f00\" is given twice"),
        ("report", {"runs": ["a", "a"]}, "'runs': \"a\" is given twice"),
        ("sweep", {"grid": {"batch_size": [16, 32, 16]}}, "'grid.batch_size': 16 is given twice"),
    ], ids=["compare-ks", "regimes", "regimes-object", "features", "runs",
            "grid-learning-rate", "grid-epochs", "grid-batch-size", "compare-ks-twice",
            "compare-ks-comma-form-twice", "regimes-twice", "features-twice", "runs-twice",
            "grid-twice"])
    def test_a_bad_list_or_grid_value_is_named_before_any_fold_work(
            self, tmp_path, capsys, monkeypatch, command, config, message):
        from readmitlab import ensemble, evaluate

        calls = []
        for module in (cli, ensemble, evaluate):
            monkeypatch.setattr(module, "stratified_kfold",
                                lambda *a, **k: calls.append(a), raising=False)
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "o"
        argv = [command, "--config", str(tmp_path / "cfg.json"), "--out", str(out)]
        if command != "report":
            argv += ["--data", str(write_csv(tmp_path)), "--seed", "1"]
        if command not in ("report", "stats"):
            argv += ["--folds", "2", "--workers", "1"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: invalid config field {message}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, config", [
        ("binary-study", ["--regimes", "full,random_under"],
         {"regimes": ["full", "random_under"]}),
        ("stats", ["--features", "f01,f00"], {"features": ["f01", "f00"]}),
    ])
    def test_the_comma_form_and_the_list_give_the_same_run(self, tmp_path, command, flag,
                                                            config):
        argv = [command, "--data", str(write_csv(tmp_path)), "--seed", "1"]
        if command == "binary-study":
            argv += ["--folds", "2", "--workers", "1"]
        assert main([*argv, *flag, "--out", str(tmp_path / "flag")]) == 0
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([*argv, "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "config")]) == 0
        for name in ("config.json", "report.tsv", "report.txt"):
            assert (tmp_path / "config" / name).read_bytes() == \
                (tmp_path / "flag" / name).read_bytes()

    @pytest.mark.parametrize("command, flag, config, message", [
        ("train", ["--arch", "bogus"], {"model": {"arch": "bogus"}},
         "invalid config field 'model': unknown architecture 'bogus'; expected one of "
         "('vanilla', 'cnn2', 'cnn2_wide', 'cnn2_multibranch', 'rnn_simple', 'rnn_deep')"),
        ("train", ["--optimizer", "bogus"], {"model": {"optimizer": "bogus"}},
         "invalid config field 'model': unknown optimizer 'bogus'; "
         "expected one of ('sgd', 'adam', 'adabelief')"),
        ("train", ["--model", "bogus"], {"model": {"kind": "bogus"}},
         "invalid config field 'model.kind': unknown model kind 'bogus'; "
         "expected one of ('network', 'gbm', 'forest')"),
        ("resample", ["--resample-method", "bogus"], {"resample": {"method": "bogus"}},
         "invalid config field 'resample': unknown resample method 'bogus'; expected one of "
         "('smote', 'borderline_smote', 'svm_smote', 'adasyn', 'random_over', 'nearmiss', "
         "'random_under')"),
        ("select", ["--select-method", "bogus"], {"select": {"method": "bogus"}},
         "invalid config field 'select': unknown feature scorer 'bogus'; "
         "expected one of ('chi2', 'pearson', 'anova_f')"),
        ("binary-study", ["--regimes", "bogus"], {"regimes": ["bogus"]},
         "invalid config field 'regimes': unknown regime 'bogus'; "
         "expected one of ('nearmiss', 'random_under', 'full')"),
    ], ids=["arch", "optimizer", "model-kind", "resample-method", "select-method", "regimes"])
    def test_an_unknown_name_fails_alike_from_a_flag_and_a_config_file(
            self, tmp_path, capsys, command, flag, config, message):
        argv = [command, "--data", str(write_csv(tmp_path)), "--seed", "1",
                "--out", str(tmp_path / "o")]
        assert main([*argv, *flag]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main([*argv, "--config", str(tmp_path / "cfg.json")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_the_paper_grid_builds_one_network_per_axis_value(self, tmp_path, monkeypatch):
        built = []
        checked = cli._checked
        monkeypatch.setattr(cli, "_checked",
                            lambda name, *a, **k: built.append(name) or checked(name, *a, **k))

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(cli, "grid_sweep", stop)
        with pytest.raises(Stop):
            main(["sweep", "--data", str(write_csv(tmp_path)), "--seed", "1", "--folds", "2",
                  "--workers", "1", "--out", str(tmp_path / "o")])
        assert [name for name in built if name.startswith("grid.")] == (
            ["grid.epochs"] * 2 + ["grid.learning_rate"] * 4 + ["grid.batch_size"] * 3)


class TestSettingsBeforeData:
    """Every command resolves the settings it reads before it loads the CSV,
    so a bad one, from a flag or a config file, fails before the CSV is
    hashed or read."""

    @pytest.mark.parametrize("command, flags, config, message", [
        ("select", ["--select-method", "bogus"], {},
         "'select': unknown feature scorer 'bogus'; "
         "expected one of ('chi2', 'pearson', 'anova_f')"),
        ("select", [], {"compare_ks": [2], "model": {"kind": "gbm", "learning_rate": 0}},
         "'model': learning_rate must be positive, got 0"),
        ("resample", [], {"resample": {"method": "smote", "k_neighbors": 0}},
         "'resample': k_neighbors must be an integer >= 1, got 0"),
        ("train", ["--arch", "bogus"], {},
         "'model': unknown architecture 'bogus'; expected one of "
         "('vanilla', 'cnn2', 'cnn2_wide', 'cnn2_multibranch', 'rnn_simple', 'rnn_deep')"),
        ("sweep", [], {"grid": {"learning_rate": [0.0]}},
         "'grid.learning_rate': learning_rate must be positive"),
        ("cascade", ["--dropout", "2"], {}, "'network': dropout rate must be in [0, 1)"),
        ("binary-study", ["--regimes", "bogus"], {},
         "'regimes': unknown regime 'bogus'; "
         "expected one of ('nearmiss', 'random_under', 'full')"),
    ], ids=["select", "select-compare-ks-model", "resample", "train", "sweep", "cascade",
            "binary-study"])
    def test_a_bad_setting_fails_before_the_data_load(
            self, tmp_path, capsys, monkeypatch, command, flags, config, message):
        loads = []
        monkeypatch.setattr(cli, "_load_data", lambda *a: loads.append(a))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main([command, "--data", str(write_csv(tmp_path)), "--seed", "1", *flags,
                     "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: invalid config field {message}\n"
        assert loads == []
        assert not out.exists()
