"""End-to-end command-line runs against small synthetic CSV files."""

import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from readmitlab.cli import _COMMANDS, _MODEL_DEFAULTS, _SECTIONS, main
from readmitlab.data import load_dataset, save_dataset_csv
from readmitlab.errors import DataError, NumericError
from readmitlab.models import NetworkClassifier
from readmitlab.resample import ResamplePlan
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

    def test_empty_forest_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "2",
                     "--model", "forest", "--n-trees", "0",
                     "--out", str(tmp_path / "o")]) == 1
        assert "n_trees" in capsys.readouterr().err

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
        assert main(["train", "--data", str(csv), "--seed", "1", "--folds", "3",
                     "--model", "gbm", "--n-rounds", "3", "--select-method", "chi2",
                     "--select-k", "4", "--out", str(tmp_path / "o")]) == 0
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

    def test_non_network_model_is_a_config_error(self, tmp_path, capsys):
        csv = write_csv(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"model": {"kind": "gbm"}}))
        assert main(["sweep", "--data", str(csv), "--seed", "1",
                     "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert "model.kind must be 'network'" in capsys.readouterr().err

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
            "network": {"arch": "vanilla", "epochs": 1, "batch_size": 16, "dropout": 0.1},
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


class TestWorkerCount:
    @pytest.mark.parametrize("command, flags, grid", [
        ("train", ["--model", "network", "--arch", "vanilla", "--epochs", "1",
                   "--batch-size", "16", "--select-method", "chi2", "--select-k", "5",
                   "--resample-method", "adasyn"], None),
        ("sweep", ["--arch", "vanilla", "--resample-method", "smote"],
         {"epochs": [1], "learning_rate": [1e-2], "batch_size": [16, 64]}),
        ("cascade", ["--arch", "vanilla", "--epochs", "1", "--batch-size", "16",
                     "--n-rounds", "3"], None),
    ])
    def test_reports_are_identical_at_one_and_two_workers(self, tmp_path, command, flags,
                                                          grid):
        csv = write_csv(tmp_path)
        argv = [command, "--data", str(csv), "--seed", "1", "--folds", "3", *flags]
        if grid is not None:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"grid": grid}))
            argv += ["--config", str(config)]
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


class TestModelSettingsCheckedUpFront:
    @pytest.mark.parametrize("command, config, message", [
        ("train", {"model": {"arch": "vanilla", "optimizer": "bogus"}},
         "unknown optimizer 'bogus'"),
        ("train", {"model": {"arch": "bogus"}}, "unknown architecture 'bogus'"),
        ("train", {"model": {"kind": "gbm", "n_rounds": -1}}, "n_rounds must be >= 0, got -1"),
        ("cascade", {"network": {"arch": "bogus"}}, "unknown architecture 'bogus'"),
        ("cascade", {"booster": {"max_depth": -1}}, "max_depth must be >= 0, got -1"),
        ("sweep", {"grid": {"epochs": [1], "learning_rate": [1e-2, 0.0], "batch_size": [16]}},
         "learning_rate must be positive"),
        ("binary-study", {"booster": {"n_rounds": -1}}, "n_rounds must be >= 0, got -1"),
        ("train", {"model": {"arch": "vanilla", "kernel_size": 0}}, "kernel must be >= 1"),
        ("train", {"model": {"arch": "cnn2", "dropout": 1.5}},
         "dropout rate must be in [0, 1)"),
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
        if command != "binary-study":  # whose nearmiss regime resamples its folds
            argv += ["--resample-method", "smote"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "o").exists()


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
    ("resample", [], ["--resample-method", "nearmiss", "--nearmiss-version", "3",
                      "--k-neighbors", "4"],
     [{"resample": {"method": "nearmiss", "nearmiss_version": 3, "k_neighbors": 4}}]),
    ("train", ["--workers", "1", "--folds", "2"],
     ["--model", "gbm", "--n-rounds", "3", "--max-depth", "2"],
     [{"model": {"kind": "gbm", "n_rounds": 3, "max_depth": 2}}]),
    ("train", ["--workers", "1", "--folds", "2"],
     ["--model", "forest", "--n-trees", "5", "--max-depth", "3"],
     [{"model": {"kind": "forest", "n_trees": 5, "max_depth": 3}}]),
    ("train", ["--workers", "1", "--folds", "2"],
     ["--model", "network", "--arch", "vanilla", "--epochs", "1", "--learning-rate", "1e-2",
      "--batch-size", "16", "--optimizer", "sgd", "--dropout", "0.1"],
     [{"model": {"kind": "network", "arch": "vanilla", "epochs": 1, "learning_rate": 1e-2,
                 "batch_size": 16, "optimizer": "sgd", "dropout": 0.1}}]),
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
