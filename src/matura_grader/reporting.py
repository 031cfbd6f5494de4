"""Report files: metrics.csv, report.md, per-dimension confusion CSV/SVG.

The markdown tables use the compact row shape
``technique & grade & t1-dims & t2-dims`` with two-decimal QWK values
(leading zero stripped) and one-decimal percent accuracies. SVG heatmaps
are generated directly so output bytes depend only on the report content.
"""

from __future__ import annotations

import csv
from html import escape
from pathlib import Path

from .grading import DIMENSIONS, TASKS, VALID_GRADES
from .metrics import DIMENSION_KEYS, DimensionReport, EvaluationReport

UNDEFINED = "—"


def format_qwk_value(value: float | None) -> str:
    if value is None:
        return UNDEFINED
    text = f"{value:.2f}"
    if text.startswith("0."):
        return text[1:]
    if text.startswith("-0."):
        return "-" + text[2:]
    return text


def format_accuracy_value(value: float | None) -> str:
    if value is None:
        return UNDEFINED
    return f"{value * 100:.1f}"


def _row(technique: str, values: list[str]) -> str:
    width = len(DIMENSIONS)
    tasks = ("/".join(values[start : start + width]) for start in range(1, 1 + len(TASKS) * width, width))
    return " & ".join((technique, values[0], *tasks))


def _ordered_values(report: EvaluationReport, pick) -> list[str]:
    return [pick(report.dimensions[key]) for key in DIMENSION_KEYS]


def qwk_table_row(report: EvaluationReport) -> str:
    return _row(report.technique, _ordered_values(report, lambda d: format_qwk_value(d.qwk)))


def accuracy_table_row(report: EvaluationReport) -> str:
    return _row(report.technique, _ordered_values(report, lambda d: format_accuracy_value(d.accuracy)))


def _metric_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def metrics_csv_rows(report: EvaluationReport) -> list[list[str]]:
    rows = [["technique", "dimension", "qwk", "mae", "pcc", "accuracy", "n", "invalid"]]
    for key in DIMENSION_KEYS:
        d = report.dimensions[key]
        rows.append(
            [
                report.technique,
                key,
                _metric_cell(d.qwk),
                _metric_cell(d.mae),
                _metric_cell(d.pcc),
                _metric_cell(d.accuracy),
                str(d.n),
                str(d.invalid_count),
            ]
        )
    return rows


def render_report_md(report: EvaluationReport, config_hash: str | None = None) -> str:
    lines = [
        "# Evaluation report",
        "",
        f"Technique: {report.technique}",
    ]
    if config_hash:
        lines.append(f"Config hash: {config_hash}")
    lines.append(f"Graded: {report.n} valid, {report.invalid_count} invalid")
    if report.errored:
        lines.append(f"Errored candidates: {', '.join(report.errored)}")
    lines += [
        "",
        "Dimensions per task: " + ", ".join(DIMENSIONS),
        "",
        "## QWK",
        "",
        "```",
        "Technique & Grade & Task 1 dimensions & Task 2 dimensions",
        qwk_table_row(report),
        "```",
        "",
        "## Accuracy (%)",
        "",
        "```",
        "Technique & Grade & Task 1 & Task 2",
        accuracy_table_row(report),
        "```",
    ]
    degenerate = [key for key in DIMENSION_KEYS if report.dimensions[key].qwk_degenerate]
    if degenerate:
        lines += [
            "",
            "Constant-series QWK convention (1.0 identical / 0.0 otherwise) applied to: "
            + ", ".join(degenerate),
        ]
    return "\n".join(lines) + "\n"


def confusion_csv_rows(d: DimensionReport) -> list[list[str]]:
    rows = [["gold\\model"] + [str(grade) for grade in VALID_GRADES]]
    for grade, row in zip(VALID_GRADES, d.confusion):
        rows.append([str(grade)] + [str(cell) for cell in row])
    return rows


def confusion_svg(d: DimensionReport, title: str) -> str:
    """A 5x5 heatmap; rows are human grades, columns model grades."""
    cell = 56
    left, top = 70, 60
    width = left + 5 * cell + 20
    height = top + 5 * cell + 40
    peak = max((max(row) for row in d.confusion), default=0) or 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{left}" y="22" font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>',
        f'<text x="{left + 5 * cell / 2:.0f}" y="42" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle">model grade</text>',
        f'<text x="16" y="{top + 5 * cell / 2:.0f}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {top + 5 * cell / 2:.0f})">human grade</text>',
    ]
    for i, row in enumerate(d.confusion):
        parts.append(
            f'<text x="{left - 10}" y="{top + i * cell + cell // 2 + 4}" font-family="sans-serif" '
            f'font-size="12" text-anchor="end">{i + 1}</text>'
        )
        for j, count in enumerate(row):
            shade = count / peak
            red = round(255 - 160 * shade)
            green = round(255 - 110 * shade)
            x, y = left + j * cell, top + i * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({red},{green},255)" stroke="#666"/>'
            )
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" font-family="sans-serif" '
                f'font-size="12" text-anchor="middle">{count}</text>'
            )
    for j in range(5):
        parts.append(
            f'<text x="{left + j * cell + cell // 2}" y="{top + 5 * cell + 18}" '
            f'font-family="sans-serif" font-size="12" text-anchor="middle">{j + 1}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(report: EvaluationReport, directory: str | Path, config_hash: str | None = None) -> None:
    """Write all report artifacts into ``directory``."""
    if not report.dimensions:
        raise ValueError("report has no dimensions; nothing to write")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "metrics.csv").open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(metrics_csv_rows(report))
    (out / "report.md").write_text(render_report_md(report, config_hash), encoding="utf-8")
    for key in DIMENSION_KEYS:
        d = report.dimensions[key]
        name = f"confusion_{key.replace('.', '_')}"
        with (out / f"{name}.csv").open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(confusion_csv_rows(d))
        (out / f"{name}.svg").write_text(confusion_svg(d, f"{report.technique}: {key}"), encoding="utf-8")
