"""Deterministic report rendering: percent formatting with half-up rounding,
TSV tables, aligned text tables, the rows of every table a run reports, and
the files a CLI run writes.

Reports never embed timestamps or absolute paths, so re-running an identical
config produces byte-identical files.
"""

from __future__ import annotations

import decimal
import json
from pathlib import Path

from .evaluate import ConfusionMatrix, MetricsReport
from .features import ClassStatsTable, FeatureScoreTable


# digits enough to hold any finite float64 quantized: up to 309 before the
# point, 2 more for a percent, and 6 after it; the default context has 28
_DIGITS = decimal.Context(prec=320, rounding=decimal.ROUND_HALF_UP)


def format_percent(fraction: float) -> str:
    """Render a [0,1] fraction as a percentage, half-up at 2 places."""
    return _half_up(_DIGITS.multiply(decimal.Decimal(repr(float(fraction))), 100), "0.01")


def format_number(value: float) -> str:
    """Render a value half-up at 6 places."""
    return _half_up(decimal.Decimal(repr(float(value))), "0.000001")


def _half_up(value: decimal.Decimal, quantum: str) -> str:
    return str(value.quantize(decimal.Decimal(quantum), context=_DIGITS))


def tsv_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["\t".join(header)]
    lines += ["\t".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def aligned_table(header: list[str], rows: list[list[str]]) -> str:
    """Fixed-width text table; first column left-aligned, the rest right."""
    table = [header] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    out = []
    for row in table:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(widths[i]) for i, cell in enumerate(row) if i > 0]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out) + "\n"


def metrics_rows(report: MetricsReport) -> list[list[str]]:
    rows = [
        ["accuracy", format_percent(report.accuracy)],
        ["macro_precision", format_percent(report.macro_precision)],
        ["macro_recall", format_percent(report.macro_recall)],
        ["macro_f", format_percent(report.macro_f)],
    ]
    for c in report.class_ids:
        rows.append([f"recall_{c}", format_percent(report.per_class_recall[c])])
        rows.append([f"precision_{c}", format_percent(report.per_class_precision[c])])
    return rows


def confusion_rows(cm: ConfusionMatrix) -> tuple[list[str], list[list[str]]]:
    """Predicted-by-actual layout: one row per predicted class."""
    header = ["predicted\\actual"] + [str(c) for c in cm.class_ids]
    rows = []
    for i, c in enumerate(cm.class_ids):
        rows.append([str(c)] + [str(int(n)) for n in cm.counts[i]])
    return header, rows


class RunReport:
    """Accumulates the sections of one run and writes the three report files:
    config.json (resolved config echo), report.tsv, report.txt."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = config
        self._sections: list[tuple[str, list[str], list[list[str]]]] = []
        self._lines: list[str] = []

    def add_line(self, text: str) -> None:
        self._lines.append(text)

    def add_table(self, title: str, header: list[str], rows: list[list[str]]) -> None:
        self._sections.append((title, header, rows))

    def add_metrics(self, title: str, report: MetricsReport) -> None:
        self.add_table(title, ["metric", "value"], metrics_rows(report))
        for note in report.notes:
            self.add_line(f"note [{title}]: {note}")

    def add_confusion(self, title: str, cm: ConfusionMatrix) -> None:
        header, rows = confusion_rows(cm)
        self.add_table(title, header, rows)

    def _render(self, head: str, title_form: str, table, notes_head: str) -> str:
        """The head line, each section's title_form.format(title) and
        table(header, rows), then notes_head and the notes, if any."""
        parts = [head]
        for title, header, rows in self._sections:
            parts += [title_form.format(title), table(header, rows)]
        if self._lines:
            parts += [notes_head, *(line + "\n" for line in self._lines)]
        return "".join(parts)

    def render_tsv(self) -> str:
        return self._render(f"# command\t{self.command}\n", "# {}\n", tsv_table, "# notes\n")

    def render_text(self) -> str:
        return self._render(f"command: {self.command}\n", "\n== {} ==\n", aligned_table, "\n")

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(
            json.dumps(self.config, indent=2, sort_keys=True) + "\n")
        (out / "report.tsv").write_text(self.render_tsv())
        (out / "report.txt").write_text(self.render_text())
        return out


def feature_scores_section(table: FeatureScoreTable) -> tuple[list[str], list[list[str]]]:
    """One row per feature: its score in full (repr) and its rank, or
    "excluded" and the reason."""
    rows = []
    for i, name in enumerate(table.feature_names):
        if i in table.excluded:
            rows.append([name, "excluded", "-", table.excluded[i]])
        else:
            rows.append([name, repr(float(table.scores[i])), str(int(table.ranks[i])), ""])
    return ["feature", "score", "rank", "note"], rows


def class_stats_section(stats: ClassStatsTable) -> tuple[list[str], list[list[str]]]:
    """Per-feature rows of class means then class variances, 6 decimals."""
    header = (["feature"] + [f"mean_{c}" for c in stats.classes]
              + [f"var_{c}" for c in stats.classes])
    rows = [[name, *map(format_number, means), *map(format_number, variances)]
            for name, means, variances in zip(stats.feature_names, stats.means,
                                              stats.variances)]
    return header, rows
