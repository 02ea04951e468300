"""Report rendering: half-up percent formatting and byte-stable run files."""

import decimal
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab.evaluate import ConfusionMatrix, metrics
from readmitlab.features import (EXCLUDE_ZERO_VARIANCE, ClassStatsTable, FeatureScoreTable,
                                 per_class_stats)
from readmitlab.report import (
    RunReport,
    aligned_table,
    class_stats_section,
    confusion_rows,
    feature_scores_section,
    format_number,
    format_percent,
    metrics_rows,
    tsv_table,
)

from helpers import make_dataset


class TestFormatPercent:
    def test_two_decimal_defaults(self):
        assert format_percent(0.5) == "50.00"
        assert format_percent(0.0) == "0.00"
        assert format_percent(1.0) == "100.00"
        assert format_percent(1 / 3) == "33.33"
        assert format_percent(2 / 3) == "66.67"

    def test_ties_round_half_up_not_half_even(self):
        # banker's rounding would give 64.92 here
        assert format_percent(0.64925) == "64.93"
        assert format_percent(0.64935) == "64.94"

    def test_value_just_below_a_tie_stays_down(self):
        assert format_percent(0.649345) == "64.93"

    def test_a_trailing_zero_decimal_is_kept(self):
        assert format_percent(0.005) == "0.50"


class TestFormatNumber:
    def test_six_decimal_default(self):
        assert format_number(0.3920455) == "0.392046"
        assert format_number(1.091505) == "1.091505"
        assert format_number(2 / 3) == "0.666667"

    def test_negative_ties_round_away_from_zero(self):
        assert format_number(-0.0000005) == "-0.000001"

    def test_any_finite_float_renders(self):
        assert format_number(4e30) == "4" + "0" * 30 + ".000000"
        assert format_number(-1.5e300) == "-15" + "0" * 299 + ".000000"
        assert format_percent(1e300) == "1" + "0" * 302 + ".00"
        assert len(format_number(np.finfo(np.float64).max)) == 309 + 7


def default_context_half_up(value, scale, quantum):
    """value * scale rendered in decimal's default 28-digit context, which
    cannot quantize a value of about 1e22 or more to 6 places."""
    with decimal.localcontext(decimal.Context()):
        scaled = decimal.Decimal(repr(value)) * scale
        return str(scaled.quantize(decimal.Decimal(quantum), rounding=decimal.ROUND_HALF_UP))


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e21, 1e21), st.floats(-1e23, 1e23))
def test_values_the_default_context_renders_keep_their_strings(value, fraction):
    assert format_number(value) == default_context_half_up(value, 1, "0.000001")
    assert format_percent(fraction) == default_context_half_up(fraction, 100, "0.01")


class TestTables:
    def test_tsv_table_exact_bytes(self):
        out = tsv_table(["a", "b"], [["1", "2"], ["3", "4"]])
        assert out == "a\tb\n1\t2\n3\t4\n"

    def test_aligned_table_exact_bytes(self):
        out = aligned_table(["m", "v"], [["aa", "1"], ["b", "22"]])
        assert out == "m    v\naa   1\nb   22\n"

    def test_aligned_table_strips_trailing_spaces(self):
        out = aligned_table(["name", "x"], [["a", "1"]])
        for line in out.splitlines():
            assert line == line.rstrip()


class TestConfusionRows:
    def test_predicted_by_actual_layout(self):
        cm = ConfusionMatrix(np.array([[5, 2], [1, 3]]), (0, 2))
        header, rows = confusion_rows(cm)
        assert header == ["predicted\\actual", "0", "2"]
        assert rows == [["0", "5", "2"], ["2", "1", "3"]]


class TestMetricsRows:
    def test_rows_cover_macro_and_per_class_values(self):
        cm = ConfusionMatrix(np.array([[4, 1], [2, 3]]), (0, 2))
        rows = metrics_rows(metrics(cm))
        as_dict = {name: value for name, value in rows}
        assert as_dict["accuracy"] == "70.00"
        assert set(as_dict) == {"accuracy", "macro_precision", "macro_recall",
                                "macro_f", "recall_0", "precision_0",
                                "recall_2", "precision_2"}
        assert as_dict["recall_0"] == format_percent(4 / 6)


class TestRunReport:
    def build(self):
        report = RunReport("evaluate", {"seed": 7, "folds": 5})
        cm = ConfusionMatrix(np.array([[4, 1, 0], [2, 3, 0], [0, 0, 0]]),
                             (0, 1, 2))
        report.add_confusion("confusion", cm)
        report.add_metrics("metrics", metrics(cm))
        report.add_line("plain note")
        return report

    def test_write_produces_three_files(self, tmp_path):
        out = self.build().write(tmp_path / "run")
        assert (out / "config.json").is_file()
        assert (out / "report.tsv").is_file()
        assert (out / "report.txt").is_file()
        config = json.loads((out / "config.json").read_text())
        assert config == {"seed": 7, "folds": 5}

    def test_identical_runs_write_identical_bytes(self, tmp_path):
        a = self.build().write(tmp_path / "a")
        b = self.build().write(tmp_path / "b")
        for name in ("config.json", "report.tsv", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_no_output_path_leaks_into_the_report(self, tmp_path):
        out = self.build().write(tmp_path / "run")
        for name in ("report.tsv", "report.txt"):
            assert str(tmp_path) not in (out / name).read_text()

    def test_tsv_structure(self):
        text = self.build().render_tsv()
        lines = text.splitlines()
        assert lines[0] == "# command\tevaluate"
        assert "# confusion" in lines
        assert "# metrics" in lines
        assert "# notes" in lines
        assert "plain note" in lines
        # degenerate class 2 from the all-zero row/column is explained
        assert any("never predicted" in line for line in lines)
        assert any("no actual instances" in line for line in lines)

    def test_text_structure(self):
        text = self.build().render_text()
        assert text.startswith("command: evaluate\n")
        assert "== confusion ==" in text
        assert "== metrics ==" in text
        assert "predicted\\actual" in text

    def test_metrics_notes_are_tagged_with_their_section(self):
        report = self.build()
        tagged = [line for line in report.render_tsv().splitlines()
                  if line.startswith("note [metrics]:")]
        assert len(tagged) == 2


class TestClassStatsSection:
    def test_header_and_six_decimal_cells(self):
        means = np.array([[0.3920455, 1.091505, 0.846258],
                          [2.0, 3.0, 4.0]])
        variances = np.array([[0.5, 0.25, 0.125],
                              [1.0, 1.0, 1.0]])
        header, rows = class_stats_section(
            ClassStatsTable(("number_inpatient", "age"), (0, 1, 2), means, variances))
        assert header == ["feature", "mean_0", "mean_1", "mean_2",
                          "var_0", "var_1", "var_2"]
        assert rows[0][0] == "number_inpatient"
        assert rows[0][1] == "0.392046"
        assert rows[0][2] == "1.091505"
        assert rows[1][4] == "1.000000"

    def test_a_per_class_stats_table_renders_means_then_variances(self):
        rng = np.random.default_rng(15)
        data = make_dataset(rng.random((9, 2)), np.repeat([0, 1, 2], 3))
        stats = per_class_stats(data)
        text = tsv_table(*class_stats_section(stats))
        header, first = (line.split("\t") for line in text.splitlines()[:2])
        assert header == ["feature", "mean_0", "mean_1", "mean_2", "var_0", "var_1", "var_2"]
        assert first == [data.feature_names[0],
                         *(format_number(v) for v in stats.means[0]),
                         *(format_number(v) for v in stats.variances[0])]


class TestFeatureScoresSection:
    def test_scores_in_full_and_excluded_features_with_their_reason(self):
        table = FeatureScoreTable("chi2", ("a", "b", "c"), np.array([0.1, np.nan, 2.0 / 3.0]),
                                  {1: EXCLUDE_ZERO_VARIANCE}, np.array([2, 0, 1]))
        header, rows = feature_scores_section(table)
        assert header == ["feature", "score", "rank", "note"]
        assert rows == [["a", "0.1", "2", ""],
                        ["b", "excluded", "-", EXCLUDE_ZERO_VARIANCE],
                        ["c", "0.6666666666666666", "1", ""]]
