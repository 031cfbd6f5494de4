from __future__ import annotations

import csv
import xml.etree.ElementTree as ET

import pytest

from matura_grader.metrics import DIMENSION_KEYS, DimensionReport, EvaluationReport
from matura_grader.reporting import (
    accuracy_table_row,
    confusion_svg,
    emit_report,
    format_accuracy_value,
    format_qwk_value,
    metrics_csv_rows,
    qwk_table_row,
    render_report_md,
)


def _dimension(qwk=None, accuracy=None, confusion=None, n=10, invalid=0) -> DimensionReport:
    return DimensionReport(
        qwk=qwk,
        mae=0.5,
        pcc=0.25,
        accuracy=accuracy,
        confusion=confusion or tuple((0,) * 5 for _ in range(5)),
        n=n,
        invalid_count=invalid,
    )


def _report(technique: str, qwk_values: dict[str, float], accuracy_values: dict[str, float]) -> EvaluationReport:
    dimensions = {
        key: _dimension(qwk=qwk_values[key], accuracy=accuracy_values[key]) for key in DIMENSION_KEYS
    }
    return EvaluationReport(technique=technique, dimensions=dimensions, n=10, invalid_count=0)


def _by_keys(final, t1, t2):
    values = {"final": final}
    for key, value in zip(DIMENSION_KEYS[1:5], t1):
        values[key] = value
    for key, value in zip(DIMENSION_KEYS[5:], t2):
        values[key] = value
    return values


BASELINE_QWK = _by_keys(0.29, (0.39, 0.09, 0.41, 0.19), (0.07, 0.10, 0.23, 0.12))
BASELINE_ACC = _by_keys(0.208, (0.248, 0.277, 0.277, 0.287), (0.218, 0.228, 0.248, 0.218))


def test_qwk_value_formatting():
    assert format_qwk_value(0.29) == ".29"
    assert format_qwk_value(1.0) == "1.00"
    assert format_qwk_value(-0.05) == "-.05"
    assert format_qwk_value(None) == "—"


def test_accuracy_value_formatting():
    assert format_accuracy_value(0.208) == "20.8"
    assert format_accuracy_value(1.0) == "100.0"
    assert format_accuracy_value(None) == "—"


def test_table_rows_match_published_shape():
    report = _report("baseline", BASELINE_QWK, BASELINE_ACC)
    assert qwk_table_row(report) == "baseline & .29 & .39/.09/.41/.19 & .07/.10/.23/.12"
    assert accuracy_table_row(report) == "baseline & 20.8 & 24.8/27.7/27.7/28.7 & 21.8/22.8/24.8/21.8"


def test_report_md_contains_rows_and_hash():
    report = _report("baseline", BASELINE_QWK, BASELINE_ACC)
    text = render_report_md(report, config_hash="abc123")
    assert "baseline & .29 & .39/.09/.41/.19 & .07/.10/.23/.12" in text
    assert "Config hash: abc123" in text


def test_report_md_flags_degenerate_qwk():
    dimensions = {key: _dimension(qwk=1.0, accuracy=1.0) for key in DIMENSION_KEYS}
    dimensions["final"] = DimensionReport(
        qwk=1.0, mae=0.0, pcc=None, accuracy=1.0,
        confusion=tuple((0,) * 5 for _ in range(5)), n=10, invalid_count=0, qwk_degenerate=True,
    )
    report = EvaluationReport("echo", dimensions, n=10, invalid_count=0)
    assert "Constant-series QWK convention" in render_report_md(report)


def test_metrics_csv_layout():
    report = _report("baseline", BASELINE_QWK, BASELINE_ACC)
    rows = metrics_csv_rows(report)
    assert rows[0] == ["technique", "dimension", "qwk", "mae", "pcc", "accuracy", "n", "invalid"]
    assert len(rows) == 1 + 9
    assert rows[1][0] == "baseline"
    assert rows[1][1] == "final"
    assert rows[1][2] == "0.290000"


def test_emit_report_writes_all_files(tmp_path):
    report = _report("baseline", BASELINE_QWK, BASELINE_ACC)
    assert emit_report(report, tmp_path / "out", config_hash="deadbeef") is None
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert "metrics.csv" in names
    assert "report.md" in names
    assert sum(1 for n in names if n.endswith(".svg")) == 9
    assert sum(1 for n in names if n.startswith("confusion_") and n.endswith(".csv")) == 9

    with (tmp_path / "out" / "metrics.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 10
    assert rows[0][0] == "technique"


def test_emit_report_rejects_empty(tmp_path):
    empty = EvaluationReport("x", {}, n=0, invalid_count=0)
    with pytest.raises(ValueError):
        emit_report(empty, tmp_path)


def test_confusion_csv_and_svg_contents(tmp_path):
    confusion = tuple(tuple(10 * i + j for j in range(5)) for i in range(5))
    dimensions = {key: _dimension(qwk=0.5, accuracy=0.5, confusion=confusion) for key in DIMENSION_KEYS}
    report = EvaluationReport("probe", dimensions, n=100, invalid_count=0)
    emit_report(report, tmp_path)

    with (tmp_path / "confusion_task1_content.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["gold\\model", "1", "2", "3", "4", "5"]
    assert rows[3] == ["3", "20", "21", "22", "23", "24"]

    svg = (tmp_path / "confusion_final.svg").read_text()
    assert svg.count("<rect") == 25
    assert ">44<" in svg  # largest count rendered
    assert "human grade" in svg and "model grade" in svg


def test_confusion_svg_titles_are_escaped(tmp_path):
    report = _report("A&B <x>", BASELINE_QWK, BASELINE_ACC)
    emit_report(report, tmp_path)
    assert len(list(tmp_path.glob("*.svg"))) == len(DIMENSION_KEYS)
    for key in DIMENSION_KEYS:
        path = tmp_path / f"confusion_{key.replace('.', '_')}.svg"
        title = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}text")
        assert title.text == f"A&B <x>: {key}"


def test_confusion_svg_is_deterministic():
    confusion = tuple(tuple((i * 3 + j) % 7 for j in range(5)) for i in range(5))
    d = _dimension(qwk=0.1, accuracy=0.2, confusion=confusion)
    assert confusion_svg(d, "t") == confusion_svg(d, "t")
