"""Run every readmitlab command on one seeded synthetic CSV and keep what each
run writes, so that two versions of the package can be compared byte for
byte with `diff -r`.

Usage: PYTHONPATH=src python tools/cli_outputs.py OUT

OUT must not exist. The tool writes OUT/cohort.csv (300 rows, 14 features,
synthetic_cohort seed 4, the bench's class weights) and runs each command
in this process, from inside OUT with relative paths, so that no output
names OUT itself. Run NAME writes its reports to OUT/NAME/ (its config
file, if any, is OUT/NAME.json), its stdout and stderr to OUT/NAME.stdout
and OUT/NAME.stderr; OUT/exit_codes.tsv lists each run's exit code. The
runs use 2 folds, 1 worker, 1 epoch and few boosting rounds. NearMiss
version 3 is left out: with its defaults it fails on equalised targets.
Exits 1 when any run exits nonzero.

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
from pathlib import Path

from readmitlab.cli import main as cli_main
from readmitlab.data import save_dataset_csv
from readmitlab.features import SCORERS
from readmitlab.nn import ARCHITECTURES
from readmitlab.resample import METHODS
from readmitlab.synth import synthetic_cohort

DATA = ["--data", "cohort.csv", "--seed", "1"]
CV = [*DATA, "--folds", "2", "--workers", "1"]
NETWORK = {"epochs": 1, "batch_size": 32, "learning_rate": 1e-3}
# the bench cohort's class weights: 267 outer-class rows, so the booster a
# saved cascade fits on all of them bins 6 of its 14 columns in groups of values
WEIGHTS = (0.54, 0.11, 0.35)


def runs() -> list[tuple[str, list[str], dict | None]]:
    """(name, argv without --out, config or None) of every run, in order."""
    table = [("ingest", ["ingest", *DATA], None), ("stats", ["stats", *DATA], None)]
    table += [(f"select-{method}", ["select", *DATA, "--select-method", method], None)
              for method in sorted(SCORERS)]
    table.append(("select-compare-ks", ["select", *CV],
                  {"compare_ks": [10, 4], "model": {"kind": "gbm", "n_rounds": 3}}))
    table += [(f"resample-{method}", ["resample", *DATA, "--resample-method", method,
                                      "--write-csv"], None) for method in METHODS]
    table.append(("resample-nearmiss2", ["resample", *DATA, "--resample-method", "nearmiss",
                                         "--nearmiss-version", "2", "--write-csv"], None))
    table += [(f"train-{arch}", ["train", *CV, "--model", "network", "--arch", arch],
               {"model": NETWORK}) for arch in ARCHITECTURES]
    table.append(("train-gbm", ["train", *CV, "--model", "gbm", "--n-rounds", "3"], None))
    table.append(("train-forest", ["train", *CV, "--model", "forest", "--n-trees", "3"], None))
    table.append(("sweep", ["sweep", *CV, "--resample-method", "random_over"],
                  {"grid": {"epochs": [1], "learning_rate": [1e-3], "batch_size": [32]}}))
    table.append(("binary-study", ["binary-study", *DATA, "--folds", "2", "--workers", "1"],
                  {"booster": {"n_rounds": 3}}))
    table += [(f"cascade-{arch}", ["cascade", *CV, "--arch", arch, "--n-rounds", "3",
                                   "--save-model"], {"network": NETWORK})
              for arch in ("vanilla", "cnn2", "cnn2_wide", "cnn2_multibranch")]
    table.append(("report", ["report", "--runs", "ingest", "train-gbm", "cascade-vanilla"],
                  None))
    return table


def run_all(out: Path) -> dict[str, int]:
    """Every run's exit code, by name, with the outputs written under out."""
    out.mkdir(parents=True)
    home = Path.cwd()
    os.chdir(out)
    try:
        save_dataset_csv(synthetic_cohort(300, 14, seed=4, weights=WEIGHTS), "cohort.csv")
        codes = {}
        for name, argv, config in runs():
            if config is not None:
                Path(f"{name}.json").write_text(json.dumps(config))
                argv = [*argv, "--config", f"{name}.json"]
            with open(f"{name}.stdout", "w") as stdout, open(f"{name}.stderr", "w") as stderr:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    codes[name] = cli_main([*argv, "--out", name])
        Path("exit_codes.tsv").write_text("".join(f"{n}\t{c}\n" for n, c in codes.items()))
        return codes
    finally:
        os.chdir(home)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    codes = run_all(Path(argv[0]))
    failed = [name for name, code in codes.items() if code != 0]
    print(f"{len(codes)} runs, {len(failed)} failed" + "".join(f"\n  {n}" for n in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
