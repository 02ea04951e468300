"""tools/code_lines.py: which lines of a Python file count as code;
tools/cli_outputs.py: every command runs and writes its reports;
tools/step_time.py: it times every bench shape."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = load_tool("code_lines")
cli_outputs = load_tool("cli_outputs")


@pytest.mark.parametrize("source, count", [
    ("", 0),
    ("x = 1\n", 1),
    # blank lines and comments, whole-line or trailing, add nothing
    ("\n\n# a comment\nx = 1  # trailing\n\n    \n", 1),
    # module, class and function docstrings, one line or many, add nothing
    ('"""Module.\n\nMore.\n"""\n\nx = 1\n', 1),
    ('class A:\n    """One line."""\n\n    y = 2\n', 2),
    ('def f():\n    """First.\n\n    Second.\n    """\n    return 1\n', 2),
    ('async def f():\n    """Doc."""\n    return 1\n', 2),
    # a statement over several lines counts once per line
    ("x = f(\n    1,\n    2,\n)\n", 4),
    ("if (a and\n        b):\n    pass\n", 3),
    # a string that is not a docstring counts every line it spans
    ('x = """one\ntwo\n\nfour"""\n', 4),
    ('def f():\n    x = 1\n    """not a docstring:\n    it follows code"""\n', 4),
    # a comment inside a bracketed statement adds nothing
    ("x = [\n    # first\n    1,\n]\n", 3),
])
def test_code_lines(source, count):
    assert code_lines.code_lines(source) == count


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "pkg" / "b.py").write_text("y = (\n    2)\n# note\n")
    (tmp_path / "pkg" / "notes.txt").write_text("z = 3\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", str(tmp_path / "pkg" / "a.py")], ["2", str(tmp_path / "pkg" / "b.py")], ["3"]]


def test_main_without_paths_prints_usage(capsys):
    assert code_lines.main([]) == 2
    assert "Usage:" in capsys.readouterr().err


def test_cli_outputs_runs_every_command_and_each_writes_its_reports(tmp_path, capsys):
    home = os.getcwd()
    assert cli_outputs.main([str(tmp_path / "out")]) == 0
    assert os.getcwd() == home
    names = [name for name, _, _ in cli_outputs.runs()]
    failures = {name: code for name, _, _, code in cli_outputs.failures()}
    assert len(set(names) | set(failures)) == len(names) + len(failures)
    assert capsys.readouterr().out == (f"{len(names) + len(failures)} runs, "
                                       "0 with an unexpected exit code\n")
    out = tmp_path / "out"
    assert (out / "exit_codes.tsv").read_text() == "".join(
        [f"{n}\t0\n" for n in names] + [f"{n}\t{c}\n" for n, c in failures.items()])
    for name in names:
        for report in ("config.json", "report.tsv", "report.txt"):
            assert (out / name / report).is_file(), (name, report)
        assert (out / f"{name}.stderr").read_text() == ""
    assert {"select-compare-ks", "report", "binary-study", "train-gbm", "train-forest",
            "cascade-cnn2_multibranch", "resample-adasyn", "stats-bom"} <= set(names)
    assert (out / "resample-smote" / "resampled.csv").is_file()
    assert (out / "cascade-cnn2" / "cascade_model" / "booster.json").is_file()
    assert (out / "stats-bom" / "report.tsv").read_text().splitlines()[3].startswith("f00\t")
    # a study forked over two processes reports what one process reports
    for one, two in (("sweep-workers-1", "sweep-workers-2"),
                     ("select-compare-ks", "select-compare-ks-workers-2"),
                     ("binary-study", "binary-study-workers-2")):
        for report in ("report.tsv", "report.txt"):
            assert (out / one / report).read_bytes() == (out / two / report).read_bytes(), (
                two, report)
    # each failure writes no reports and one error line, warnings included
    for name, code in failures.items():
        assert not (out / name).exists(), name
        err = (out / f"{name}.stderr").read_text()
        assert err.startswith({1: "config error: ", 2: "data error: ",
                               3: "numeric failure: "}[code]), (name, err)
        assert err.count("\n") == 1, (name, err)
    assert (out / "fail-workers-zero.stderr").read_text() == (
        "config error: invalid config field 'workers': 0 below 1\n")
    # a name outside its choices, from a flag or a config file, names the choices
    assert (out / "fail-optimizer-not-a-name.stderr").read_text() == (
        "config error: invalid config field 'model': unknown optimizer ['adam']; "
        "expected one of ('sgd', 'adam', 'adabelief')\n")
    assert (out / "fail-select-method-not-a-name.stderr").read_text() == (
        "config error: invalid config field 'select': unknown feature scorer ['chi2']; "
        "expected one of ('chi2', 'pearson', 'anova_f')\n")
    assert (out / "fail-arch-flag-unknown.stderr").read_text().startswith(
        "config error: invalid config field 'model': unknown architecture 'bogus'; "
        "expected one of ('vanilla', ")
    assert (out / "fail-regimes-twice.stderr").read_text() == (
        "config error: invalid config field 'regimes': \"full\" is given twice\n")
    # a setting is checked before the CSV is read, and a regime names its field
    assert (out / "fail-arch-unknown-csv-missing.stderr").read_text() == (
        "config error: invalid config field 'model': unknown architecture 'bogus'; "
        "expected one of ('vanilla', 'cnn2', 'cnn2_wide', 'cnn2_multibranch', "
        "'rnn_simple', 'rnn_deep')\n")
    assert (out / "fail-regimes-unknown.stderr").read_text() == (
        "config error: invalid config field 'regimes': unknown regime 'bogus'; "
        "expected one of ('nearmiss', 'random_under', 'full')\n")
    # a forest's features_per_split beyond the width names its section
    assert (out / "fail-forest-features-beyond-width.stderr").read_text() == (
        "config error: invalid config field 'model': features_per_split 50 outside [1, 14]\n")


def test_cli_outputs_without_one_directory_prints_usage(capsys):
    assert cli_outputs.main([]) == 2
    assert "Usage:" in capsys.readouterr().err


def test_step_time_prints_one_time_per_bench_shape():
    # a process of its own, so that its one-thread BLAS setting precedes numpy's import
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "step_time.py"),
                           "--steps", "2", "--reps", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [row[:3] for row in rows] == [
        ["cnn2", "30 features", "batch 64"], ["cnn2", "45 features", "batch 64"],
        ["vanilla", "45 features", "batch 16"], ["vanilla", "45 features", "batch 64"]]
    assert all(row[3].endswith(" ms") and float(row[3][:-3]) > 0.0 for row in rows)
