"""Run every readmitlab command on one seeded synthetic CSV, and a table of
runs that must fail, and keep what each run writes, so that two versions of
the package can be compared byte for byte with `diff -r`.

Usage: PYTHONPATH=src python tools/cli_outputs.py OUT

OUT must not exist. The tool writes OUT/cohort.csv (300 rows, 14 features,
synthetic_cohort seed 4, the bench's class weights) and the small CSVs of
CSVS, and runs each command in this process, from inside OUT with relative
paths, so that no output names OUT itself. Run NAME writes its reports to
OUT/NAME/, unless its argv gives its own --out (its config file, if any, is
OUT/NAME.json), and its stdout and stderr, every warning included, to
OUT/NAME.stdout and OUT/NAME.stderr; OUT/exit_codes.tsv lists each run's
exit code. The runs use 2 folds, 1 worker (each NAME-workers-2 uses two), 1
epoch (sweep-grid-axes also 2) and few boosting rounds. One small CSV
starts with a sidecar whose .npy header does not parse, which its ingest
run replaces. The runs of runs() must exit 0 and those of failures() with
their expected codes, so a diff of two trees shows which error messages
moved. Exits 1 when any run exits with another code.

To compare a change with its parent, run the tool once with each version's
src on PYTHONPATH, into two directories, and diff them:

    PYTHONPATH=../parent/src python tools/cli_outputs.py ../before
    PYTHONPATH=src python tools/cli_outputs.py ../after
    diff -r ../before ../after
"""

import contextlib
import json
import os
import sys
import warnings
from pathlib import Path

from readmitlab.cli import main as cli_main
from readmitlab.data import save_dataset_csv
from readmitlab.features import SCORERS
from readmitlab.nn import ARCHITECTURES
from readmitlab.resample import METHODS, UNDERSAMPLERS
from readmitlab.synth import synthetic_cohort

COHORT = ["--data", "cohort.csv"]
DATA = [*COHORT, "--seed", "1"]
FOLDS = ["--folds", "2", "--workers", "1"]
CV = [*DATA, *FOLDS]
NETWORK = {"epochs": 1, "batch_size": 32, "learning_rate": 1e-3}
# the bench cohort's class weights: 267 outer-class rows, so the booster a
# saved cascade fits on all of them bins 6 of its 14 columns in groups of values
WEIGHTS = (0.54, 0.11, 0.35)
BOM = "\ufeff"  # as Excel's "CSV UTF-8" writes it
# small CSVs by name: a header that names the label twice, a table whose
# squared distances overflow float64, a label-first header after a
# byte-order mark, a constant column a beside a column b that chi2 ranks,
# a constant column alone, a table whose sidecar is CORRUPT_SIDECAR, and
# eight columns whose first spans -1e308 to 1e308, a range float64 cannot hold
CSVS = {
    "label-twice.csv": "readmitted,readmitted\n" + "".join(f"{i % 3},{i}\n" for i in range(9)),
    "huge.csv": "a,b,readmitted\n" + "".join(f"{1 + i / 16}e300,{2 - i / 16}e300,{i % 3}\n"
                                            for i in range(14)),
    "bom-label-first.csv": BOM + "readmitted,a,b\n" + "".join(f"{i % 3},{i},{i * i % 7}\n"
                                                             for i in range(9)),
    "constant-a.csv": "a,b,readmitted\n" + "".join(f"1,{i * 7 % 11},{i % 3}\n"
                                                   for i in range(30)),
    "constant-only.csv": "a,readmitted\n" + "".join(f"1,{i % 3}\n" for i in range(9)),
    "corrupt-sidecar.csv": "a,readmitted\n1,0\n2,1\n3,2\n",
    "range-overflows.csv": "a,b,c,d,e,f,g,h,readmitted\n" + "".join(
        f"{(-1) ** i}e308,{i},{i * 2},{i * 3},{i % 4},{i % 5},{i % 6},{i % 7},{i % 3}\n"
        for i in range(12)),
}
# a .npy header that np.load's parser fails on with tokenize's error
_HEADER = b"{((((".ljust(53) + b"\n"
CORRUPT_SIDECAR = b"\x93NUMPY\x01\x00" + len(_HEADER).to_bytes(2, "little") + _HEADER


def runs() -> list[tuple[str, list[str], dict | None]]:
    """(name, argv without --out, config or None) of every run, in order."""
    table = [("ingest", ["ingest", *DATA], None), ("stats", ["stats", *DATA], None)]
    table += [(f"select-{method}", ["select", *DATA, "--select-method", method], None)
              for method in sorted(SCORERS)]
    # each study run NAME-workers-2 is NAME forked over two processes
    two = [*DATA, "--folds", "2", "--workers", "2"]
    compare_ks = {"compare_ks": [10, 4], "model": {"kind": "gbm", "n_rounds": 3}}
    table.append(("select-compare-ks", ["select", *CV], compare_ks))
    table.append(("select-compare-ks-workers-2", ["select", *two], compare_ks))
    table += [(f"resample-{method}", ["resample", *DATA, "--resample-method", method,
                                      "--write-csv"], None) for method in METHODS]
    table += [(f"resample-nearmiss{version}", ["resample", *DATA, "--resample-method",
                                               "nearmiss", "--nearmiss-version", version,
                                               "--write-csv"], None) for version in "23"]
    # targets that cut the smallest class, 1, after class 0: NearMiss ranks it
    # against the other class with the fewest rows kept, class 0
    table += [(f"resample-{method}-targets", ["resample", *DATA, "--write-csv"],
               {"resample": {"method": method, "target_counts": {"0": 20, "1": 10, "2": 20}}})
              for method in UNDERSAMPLERS]
    table += [(f"train-{arch}", ["train", *CV, "--model", "network", "--arch", arch],
               {"model": NETWORK}) for arch in ARCHITECTURES]
    table += [(f"train-{optimizer}", ["train", *CV, "--model", "network", "--arch", "vanilla",
                                      "--optimizer", optimizer], {"model": NETWORK})
              for optimizer in ("sgd", "adabelief")]
    table.append(("train-gbm", ["train", *CV, "--model", "gbm", "--n-rounds", "3"], None))
    table.append(("train-forest", ["train", *CV, "--model", "forest", "--n-trees", "3"], None))
    table.append(("sweep", ["sweep", *CV, "--resample-method", "random_over"],
                  {"grid": {"epochs": [1], "learning_rate": [1e-3], "batch_size": [32]}}))
    # two grid cells a fold, so both processes of the forked sweep prepare the same fold
    table += [(f"sweep-workers-{workers}", ["sweep", *DATA, "--folds", "2", "--workers",
                                             workers, "--resample-method", "random_over"],
               {"grid": {"epochs": [1], "learning_rate": [1e-3], "batch_size": [16, 32]}})
              for workers in "12"]
    # a config may give the grid's names in any order; the report keeps the default's
    table.append(("sweep-grid-axes", ["sweep", *CV],
                  {"grid": {"batch_size": [16, 32], "learning_rate": [1e-3, 1e-2, 1],
                            "epochs": [1, 2]}}))
    table.append(("binary-study", ["binary-study", *CV], {"booster": {"n_rounds": 3}}))
    table.append(("binary-study-workers-2", ["binary-study", *two], {"booster": {"n_rounds": 3}}))
    table += [(f"cascade-{arch}", ["cascade", *CV, "--arch", arch, "--n-rounds", "3",
                                   "--save-model"], {"network": NETWORK})
              for arch in ("vanilla", "cnn2", "cnn2_wide", "cnn2_multibranch")]
    table.append(("report", ["report", "--runs", "ingest", "train-gbm", "cascade-vanilla"],
                  None))
    # a byte-order mark is not part of the first column's name
    table.append(("stats-bom", ["stats", "--data", "bom.csv", "--seed", "1"], None))
    table.append(("ingest-bom-label-first", ["ingest", "--data", "bom-label-first.csv",
                                             "--seed", "1"], None))
    table.append(("ingest-corrupt-sidecar", ["ingest", "--data", "corrupt-sidecar.csv",
                                             "--seed", "1"], None))
    return table


def failures() -> list[tuple[str, list[str], dict | None, int]]:
    """(name, argv, config or None, expected exit code) of every run that
    must fail; only an argv that tests --out itself gives one."""
    gbm = ["--model", "gbm", "--n-rounds", "2"]
    constant_a = ["--data", "constant-a.csv", "--seed", "1"]
    target_5 = {"resample": {"method": "smote", "target_counts": {"0": 5}}}  # class 0: 10 rows
    return [
        ("fail-seed-negative", ["ingest", *COHORT, "--seed", "-1"], None, 1),
        ("fail-seed-negative-fraction", ["ingest", *COHORT, "--seed", "-1",
                                         "--fraction", "0.5"], None, 1),
        ("fail-seed-negative-train", ["train", *COHORT, "--seed", "-1", *FOLDS, *gbm],
         None, 1),
        ("fail-folds-one", ["train", *DATA, "--folds", "1", "--workers", "1", *gbm], None, 1),
        ("fail-folds-one-paper-mode", ["train", *DATA, "--folds", "1", "--workers", "1", *gbm,
                                       "--paper-mode", "--resample-method", "random_over"],
         None, 1),
        ("fail-compare-ks-not-a-list", ["select", *CV],
         {"compare_ks": 5, "model": {"kind": "gbm", "n_rounds": 2}}, 1),
        ("fail-regimes-not-a-list", ["binary-study", *CV], {"regimes": 5}, 1),
        ("fail-features-not-a-list", ["stats", *DATA], {"features": 5}, 1),
        ("fail-runs-not-a-list", ["report"], {"runs": 5}, 1),
        ("fail-grid-learning-rate", ["sweep", *CV], {"grid": {"learning_rate": [0.0]}}, 1),
        ("fail-label-twice", ["ingest", "--data", "label-twice.csv", "--seed", "1"], None, 2),
        ("fail-nearmiss-overflow", ["resample", "--data", "huge.csv", "--seed", "1",
                                    "--resample-method", "nearmiss", "--no-normalize"], None, 2),
        # faults of the rows met by a whole-table fit, and bad list entries
        ("fail-select-k-beyond-ranked-paper-mode", ["train", *constant_a, *FOLDS, *gbm,
                                                    "--select-method", "chi2", "--select-k",
                                                    "2", "--paper-mode"], None, 2),
        ("fail-select-k-beyond-ranked", ["select", *constant_a, "--select-k", "2"], None, 2),
        ("fail-target-below-count", ["resample", *constant_a], target_5, 2),
        ("fail-target-below-count-paper-mode", ["train", *constant_a, *FOLDS, *gbm,
                                                "--paper-mode"], target_5, 2),
        ("fail-select-none-ranked", ["select", "--data", "constant-only.csv", "--seed", "1"],
         None, 2),
        ("fail-compare-ks-beyond", ["select", *CV],
         {"compare_ks": [3, 999], "model": {"kind": "gbm", "n_rounds": 2}}, 1),
        ("fail-runs-entry", ["report"], {"runs": [1]}, 1),
        ("fail-features-entry", ["stats", *DATA], {"features": [1]}, 1),
        # a name that is not a string, a name outside its choices, and an entry given twice
        ("fail-optimizer-not-a-name", ["train", *CV],
         {"model": {"kind": "network", "optimizer": ["adam"]}}, 1),
        ("fail-select-method-not-a-name", ["train", *CV],
         {"select": {"method": ["chi2"], "k": 3}}, 1),
        ("fail-arch-flag-unknown", ["train", *CV, "--arch", "bogus"], None, 1),
        ("fail-regimes-twice", ["binary-study", *CV, "--regimes", "full,full"], None, 1),
        # a setting fails before the CSV is read, so a missing CSV does not hide it
        ("fail-arch-unknown-csv-missing", ["train", "--data", "missing.csv", "--seed", "1",
                                           *FOLDS, "--arch", "bogus"], None, 1),
        ("fail-regimes-unknown", ["binary-study", *CV, "--regimes", "bogus"], None, 1),
        # messages that stay as they were
        ("fail-workers-zero", ["train", *DATA, "--workers", "0", *gbm], None, 1),
        ("fail-unknown-field", ["ingest", *DATA], {"bogus": 1}, 1),
        ("fail-select-k-beyond", ["train", *CV, *gbm, "--select-method", "chi2",
                                  "--select-k", "99"], None, 1),
        # an --out that is a file, and a booster whose scores overflow
        ("fail-out-is-a-file", ["ingest", *DATA, "--out", "cohort.csv"], None, 1),
        ("fail-booster-diverges", ["binary-study", *CV],
         {"booster": {"n_rounds": 2, "learning_rate": 1e308}}, 3),
        # a saved cascade's scaling of a column whose range overflows float64
        ("fail-cascade-save-model-range-overflows",
         ["cascade", "--data", "range-overflows.csv", "--seed", "1", *FOLDS, "--arch", "vanilla",
          "--n-rounds", "1", "--save-model"], {"network": NETWORK}, 2),
        # a kernel wider than the 14 features, too wide for its weights to be drawn
        ("fail-kernel-wider-than-input", ["train", *CV, "--model", "network", "--arch", "cnn2",
                                          "--kernel-size", "1000000000000"], None, 2),
        # a forest that would scan more features per split than a row holds
        ("fail-forest-features-beyond-width", ["train", *CV, "--model", "forest",
                                               "--resample-method", "random_over"],
         {"model": {"kind": "forest", "n_trees": 2, "features_per_split": 50}}, 1),
    ]


def run_all(out: Path) -> dict[str, int]:
    """Every run's exit code, by name, with the outputs written under out."""
    out.mkdir(parents=True)
    home = Path.cwd()
    os.chdir(out)
    try:
        save_dataset_csv(synthetic_cohort(300, 14, seed=4, weights=WEIGHTS), "cohort.csv")
        Path("bom.csv").write_text(BOM + Path("cohort.csv").read_text())
        for name, text in CSVS.items():
            Path(name).write_text(text)
        Path("corrupt-sidecar.csv.readmitlab.npz").write_bytes(CORRUPT_SIDECAR)
        codes = {}
        for name, argv, config, _ in [(*run, 0) for run in runs()] + failures():
            if config is not None:
                Path(f"{name}.json").write_text(json.dumps(config))
                argv = [*argv, "--config", f"{name}.json"]
            with open(f"{name}.stdout", "w") as stdout, open(f"{name}.stderr", "w") as stderr:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                        warnings.catch_warnings():
                    warnings.simplefilter("always")
                    # a run's own --out, after this one, wins
                    codes[name] = cli_main([argv[0], "--out", name, *argv[1:]])
        Path("exit_codes.tsv").write_text("".join(f"{n}\t{c}\n" for n, c in codes.items()))
        return codes
    finally:
        os.chdir(home)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    codes = run_all(Path(argv[0]))
    expected = {name: code for name, _, _, code in failures()}
    wrong = [name for name, code in codes.items() if code != expected.get(name, 0)]
    print(f"{len(codes)} runs, {len(wrong)} with an unexpected exit code"
          + "".join(f"\n  {n}" for n in wrong))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
