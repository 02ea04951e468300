"""End-to-end command-line runs against small synthetic CSV files."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from readmitlab.cli import _COMMANDS, _MODEL_DEFAULTS, _SECTIONS, main
from readmitlab.data import load_dataset, save_dataset_csv
from readmitlab.models import NetworkClassifier
from readmitlab.resample import ResamplePlan
from readmitlab.trees import GradientBoostedClassifier, RandomForest

from helpers import blob_dataset, make_dataset


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


class TestArgumentHandling:
    def test_no_subcommand_is_a_config_error(self, capsys):
        assert main([]) == 1
        assert "config error" in capsys.readouterr().err

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

    def test_unknown_method_is_a_config_error(self, tmp_path):
        csv = write_csv(tmp_path)
        assert main(["select", "--data", str(csv), "--seed", "1",
                     "--select-method", "mutualinfo",
                     "--out", str(tmp_path / "o")]) == 1


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

    def test_forest_kind_runs(self, tmp_path):
        csv = write_csv(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--model", "forest", "--n-trees", "10",
                     "--out", str(out)]) == 0
        assert "forest cross-validation" in (out / "report.tsv").read_text()

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
        assert "selected 4 features by anova_f:" in tsv

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

    def test_non_network_model_is_a_config_error(self, tmp_path):
        csv = write_csv(tmp_path)
        assert main(["sweep", "--data", str(csv), "--seed", "1",
                     "--model", "gbm", "--out", str(tmp_path / "o")]) == 1

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
        assert "stage-composition combined confusion" in tsv
        model_dir = out / "cascade_model"
        assert (model_dir / "network.params").is_file()
        assert (model_dir / "booster.json").is_file()
        assert (model_dir / "cascade.json").is_file()

    def test_flags_win_over_the_network_and_booster_sections(self, tmp_path):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "network": {"arch": "vanilla", "epochs": 1, "batch_size": 16},
            "booster": {"n_rounds": 4, "max_depth": 2},
            # a model section is routed to the stages, below their own sections
            "model": {"epochs": 3, "max_depth": 1, "dropout": 0.1}}))
        out = tmp_path / "run"
        assert main(["cascade", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--epochs", "2", "--n-rounds", "3", "--config", str(config),
                     "--save-model", "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert "model" not in echo
        assert (echo["network"]["epochs"], echo["network"]["dropout"]) == (2, 0.1)
        assert (echo["booster"]["n_rounds"], echo["booster"]["max_depth"]) == (3, 2)
        saved = json.loads((out / "cascade_model" / "cascade.json").read_text())
        assert saved["train_config"]["epochs"] == 2
        booster = json.loads((out / "cascade_model" / "booster.json").read_text())
        assert (len(booster["trees"]), booster["max_depth"]) == (3, 2)

    def test_unknown_booster_field_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"booster": {"n_estimators": 10}}))
        assert main(["cascade", "--data", str(csv), "--seed", "1",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "booster.n_estimators" in capsys.readouterr().err


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

    def test_unknown_regime_is_a_config_error(self, tmp_path):
        csv = write_csv(tmp_path)
        assert main(["binary-study", "--data", str(csv), "--seed", "1",
                     "--regimes", "oversample", "--out", str(tmp_path / "o")]) == 1


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


ROOT = Path(__file__).resolve().parent.parent
TINY_GRID = {"epochs": [1], "learning_rate": [1e-3], "batch_size": [16]}
NETWORK = {"arch": "vanilla", "epochs": 1, "learning_rate": 1e-3, "batch_size": 16,
           "optimizer": "adam", "kernel_size": None, "dropout": 0.2}
BOOSTER = {"n_rounds": 2, "learning_rate": 0.1, "max_depth": 3, "min_samples_leaf": 1}

# command, extra flags, config file (or None), resolved fields beyond the
# top-level defaults
ECHOES = [
    ("ingest", [], None, {}),
    ("stats", ["--features", "f00,f03"], None, {"features": ["f00", "f03"]}),
    ("select", [], None,
     {"select": {"method": "chi2", "k": 8, "paper_exclusion": False}, "compare_ks": None}),
    ("resample", ["--resample-method", "nearmiss"], None,
     {"resample": {"method": "nearmiss", "k_neighbors": 5, "target_counts": None,
                   "nearmiss_version": 1, "n_ref": 3}, "write_csv": False}),
    ("train", ["--folds", "2", "--model", "gbm", "--n-rounds", "2"], None,
     {"folds": 2, "select": None, "resample": None, "model": {"kind": "gbm", **BOOSTER}}),
    ("sweep", ["--folds", "2"], {"grid": TINY_GRID},
     {"folds": 2, "resample": None, "grid": TINY_GRID,
      "model": {"kind": "network", "arch": "vanilla", "optimizer": "adam",
                "kernel_size": None, "dropout": 0.2}}),
    ("cascade", ["--folds", "2", "--arch", "vanilla", "--epochs", "1",
                 "--learning-rate", "1e-3", "--batch-size", "16", "--n-rounds", "2"], None,
     {"folds": 2, "resample": None, "network": NETWORK, "booster": BOOSTER,
      "save_model": False}),
    ("binary-study", ["--folds", "2", "--regimes", "full"], {"booster": {"n_rounds": 2}},
     {"folds": 2, "regimes": ["full"], "booster": BOOSTER}),
]

# command, shared flags, the values as flags, then as config-file sections
SAME_BY_FLAGS_OR_CONFIG = [
    ("select", [], ["--select-method", "pearson", "--select-k", "3", "--paper-exclusion"],
     [{"select": {"method": "pearson", "k": 3, "paper_exclusion": True}}]),
    ("train", ["--folds", "2", "--model", "gbm", "--n-rounds", "2"],
     ["--select-method", "anova_f", "--select-k", "4", "--resample-method", "smote",
      "--k-neighbors", "2"],
     [{"select": {"method": "anova_f", "k": 4},
       "resample": {"method": "smote", "k_neighbors": 2}}]),
    ("resample", [], ["--resample-method", "nearmiss", "--nearmiss-version", "3",
                      "--k-neighbors", "4"],
     [{"resample": {"method": "nearmiss", "nearmiss_version": 3, "k_neighbors": 4}}]),
    ("train", ["--folds", "2"], ["--model", "gbm", "--n-rounds", "3", "--max-depth", "2"],
     [{"model": {"kind": "gbm", "n_rounds": 3, "max_depth": 2}}]),
    ("train", ["--folds", "2"], ["--model", "forest", "--n-trees", "5", "--max-depth", "3"],
     [{"model": {"kind": "forest", "n_trees": 5, "max_depth": 3}}]),
    ("train", ["--folds", "2"],
     ["--model", "network", "--arch", "vanilla", "--epochs", "1", "--learning-rate", "1e-2",
      "--batch-size", "16", "--optimizer", "sgd", "--dropout", "0.1"],
     [{"model": {"kind": "network", "arch": "vanilla", "epochs": 1, "learning_rate": 1e-2,
                 "batch_size": 16, "optimizer": "sgd", "dropout": 0.1}}]),
    ("cascade", ["--folds", "2"],
     ["--arch", "vanilla", "--epochs", "1", "--batch-size", "16", "--n-rounds", "2",
      "--max-depth", "2"],
     [{"network": {"arch": "vanilla", "epochs": 1, "batch_size": 16},
       "booster": {"n_rounds": 2, "max_depth": 2}},
      {"model": {"arch": "vanilla", "epochs": 1, "batch_size": 16, "n_rounds": 2,
                 "max_depth": 2}}]),
]


class TestConfigTable:
    @pytest.mark.parametrize("command, flags, config, fields", ECHOES,
                             ids=[case[0] for case in ECHOES])
    def test_resolved_config_echo(self, tmp_path, command, flags, config, fields):
        csv = write_csv(tmp_path)
        argv = [command, "--data", str(csv), "--seed", "1", "--workers", "1", *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text()) == {
            "command": command, "dataset": str(csv), "seed": 1, "workers": 1,
            "normalize": True, "fraction": None, "folds": 10, "paper_mode": False,
            **fields}

    def test_resolved_report_echo(self, tmp_path):
        csv = write_csv(tmp_path)
        run = tmp_path / "r"
        assert main(["ingest", "--data", str(csv), "--seed", "1", "--out", str(run)]) == 0
        out = tmp_path / "o"
        assert main(["report", "--runs", str(run), "--workers", "1", "--out", str(out)]) == 0
        assert json.loads((out / "config.json").read_text()) == {
            "command": "report", "runs": [str(run)], "workers": 1, "normalize": True,
            "fraction": None, "folds": 10, "paper_mode": False}

    @pytest.mark.parametrize("command, shared, flags, configs", SAME_BY_FLAGS_OR_CONFIG,
                             ids=["select", "train-select-resample", "resample-nearmiss3",
                                  "train-gbm", "train-forest", "train-network", "cascade"])
    def test_flags_and_config_file_give_identical_outputs(self, tmp_path, command, shared,
                                                          flags, configs):
        csv = write_csv(tmp_path, counts={0: 18, 1: 15, 2: 6})
        argv = [command, "--data", str(csv), "--seed", "1", "--workers", "1", *shared]
        assert main(argv + flags + ["--out", str(tmp_path / "flags")]) == 0
        for i, config in enumerate(configs):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"config{i}"
            assert main(argv + ["--config", str(path), "--out", str(out)]) == 0
            for name in ("config.json", "report.tsv", "report.txt"):
                assert (out / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    @pytest.mark.parametrize("command, flags, config, field", [
        ("sweep", ["--epochs", "7"], None, "model.epochs"),
        ("sweep", ["--learning-rate", "0.1"], None, "model.learning_rate"),
        ("sweep", [], {"model": {"batch_size": 8}}, "model.batch_size"),
        ("cascade", ["--model", "forest"], None, "model.kind"),
        ("cascade", ["--n-trees", "3"], None, "model.n_trees"),
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
    ])
    def test_field_a_command_does_not_use_is_named(self, tmp_path, capsys, command, flags,
                                                   config, field):
        csv = write_csv(tmp_path)
        argv = [command, "--data", str(csv), "--seed", "1", *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert f"invalid config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, cls", [("network", NetworkClassifier),
                                           ("gbm", GradientBoostedClassifier),
                                           ("forest", RandomForest)])
    def test_model_defaults_match_the_constructors(self, kind, cls):
        params = inspect.signature(cls).parameters
        assert {name: params[name].default for name in _MODEL_DEFAULTS[kind]} == \
            _MODEL_DEFAULTS[kind]

    def test_resample_defaults_match_the_plan(self):
        plan_defaults = {f.name: f.default for f in dataclasses.fields(ResamplePlan)
                         if f.name not in ("method", "seed")}
        assert {"method": None, **plan_defaults} == _SECTIONS["resample"]

    @pytest.mark.parametrize("command", [[], *([name] for name in _COMMANDS)],
                             ids=lambda argv: " ".join(argv) or "top")
    def test_help_exits_zero(self, command):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "readmitlab", *command, "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: readmitlab")
