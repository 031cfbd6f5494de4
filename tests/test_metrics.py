from __future__ import annotations

import random
import statistics

import pytest

from matura_grader.grading import DIMENSIONS
from matura_grader.metrics import (
    DIMENSION_KEYS,
    GradeSeries,
    Prediction,
    accuracy_and_confusion,
    build_report,
    mae,
    pcc,
    qwk,
)
from matura_grader.grading import aggregate
from matura_grader.reporting import metrics_csv_rows

from conftest import make_corpus, make_record


# Brute-force references, implemented independently of the package: QWK via
# the pairwise-weight formulation, PCC via statistics.correlation.

def oracle_qwk(pred, gold):
    n = len(pred)

    def weight(a, b):
        return (a - b) ** 2 / 16.0

    observed = sum(weight(p, g) for p, g in zip(pred, gold)) / n
    expected = sum(weight(g, p) for g in gold for p in pred) / (n * n)
    if expected == 0.0:
        return 1.0 if list(pred) == list(gold) else 0.0
    return 1.0 - observed / expected


def oracle_mae(pred, gold):
    total = 0
    for p, g in zip(pred, gold):
        total += abs(p - g)
    return total / len(pred)


def oracle_pcc(pred, gold):
    try:
        return statistics.correlation(pred, gold)
    except statistics.StatisticsError:
        return None


def oracle_accuracy_confusion(pred, gold):
    matrix = [[0] * 5 for _ in range(5)]
    hits = 0
    for p, g in zip(pred, gold):
        matrix[g - 1][p - 1] += 1
        if p == g:
            hits += 1
    return hits / len(pred), tuple(tuple(row) for row in matrix)


def series(pred, gold) -> GradeSeries:
    return GradeSeries(tuple(pred), tuple(gold))


def test_series_validation():
    with pytest.raises(ValueError):
        GradeSeries((1, 2), (1,))
    with pytest.raises(ValueError):
        GradeSeries((), ())
    with pytest.raises(ValueError):
        GradeSeries((0,), (1,))


def test_qwk_perfect_agreement():
    assert qwk(series([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])) == 1.0


def test_qwk_constant_prediction_matches_oracle():
    pred = [3] * 6
    gold = [1, 2, 3, 4, 5, 3]
    assert qwk(series(pred, gold)) == pytest.approx(oracle_qwk(pred, gold), abs=1e-12)


def test_qwk_reversed_series():
    pred = [1, 2, 3, 4, 5]
    gold = [5, 4, 3, 2, 1]
    value = qwk(series(pred, gold))
    assert value == pytest.approx(oracle_qwk(pred, gold), abs=1e-12)
    assert value == pytest.approx(-1.0, abs=1e-12)


def test_qwk_constant_series_convention():
    assert qwk(series([3, 3, 3], [3, 3, 3])) == 1.0
    assert qwk(series([2, 2, 2], [4, 4, 4])) == 0.0  # formula value, documented convention edge


def test_qwk_needs_two_pairs():
    with pytest.raises(ValueError):
        qwk(series([3], [3]))


def test_qwk_symmetry_and_upper_bound():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 30)
        pred = [rng.randint(1, 5) for _ in range(n)]
        gold = [rng.randint(1, 5) for _ in range(n)]
        forward = qwk(series(pred, gold))
        backward = qwk(series(gold, pred))
        assert forward == pytest.approx(backward, abs=1e-12)
        assert forward <= 1.0 + 1e-12


def test_grade_label_reversal_invariance():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 30)
        pred = [rng.randint(1, 5) for _ in range(n)]
        gold = [rng.randint(1, 5) for _ in range(n)]
        flipped_pred = [6 - p for p in pred]
        flipped_gold = [6 - g for g in gold]
        assert qwk(series(pred, gold)) == pytest.approx(qwk(series(flipped_pred, flipped_gold)), abs=1e-12)
        assert mae(series(pred, gold)) == pytest.approx(mae(series(flipped_pred, flipped_gold)), abs=1e-12)
        original = pcc(series(pred, gold))
        flipped = pcc(series(flipped_pred, flipped_gold))
        if original is None:
            assert flipped is None
        else:
            assert original == pytest.approx(flipped, abs=1e-12)
        assert accuracy_and_confusion(series(pred, gold))[0] == pytest.approx(
            accuracy_and_confusion(series(flipped_pred, flipped_gold))[0], abs=1e-12
        )


def test_mae_examples():
    assert mae(series([2, 2], [2, 2])) == 0.0
    assert mae(series([1, 1], [5, 5])) == 4.0
    assert mae(series([2, 3, 4], [3, 3, 3])) == pytest.approx(2 / 3)


def test_pcc_examples():
    assert pcc(series([1, 2, 3], [1, 2, 3])) == pytest.approx(1.0)
    assert pcc(series([5, 4, 3, 2, 1], [1, 2, 3, 4, 5])) == pytest.approx(-1.0)
    assert pcc(series([3, 3, 3], [1, 2, 3])) is None


def test_accuracy_identity_and_constant_prediction():
    identical = series([1, 2, 3, 4, 5, 1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 1, 2, 3, 4, 5])
    accuracy, confusion = accuracy_and_confusion(identical)
    assert accuracy == 1.0
    for i in range(5):
        for j in range(5):
            if i != j:
                assert confusion[i][j] == 0

    gold = [g for g in (1, 2, 3, 4, 5) for _ in range(20)]
    pred = [3] * 100
    accuracy, confusion = accuracy_and_confusion(series(pred, gold))
    assert accuracy == pytest.approx(0.20)
    for i in range(5):
        for j in range(5):
            assert confusion[i][j] == (20 if j == 2 else 0)


def test_accuracy_matches_counting_oracle():
    rng = random.Random(99)
    pred = [rng.randint(1, 5) for _ in range(50)]
    gold = [rng.randint(1, 5) for _ in range(50)]
    accuracy, confusion = accuracy_and_confusion(series(pred, gold))
    oracle_acc, oracle_matrix = oracle_accuracy_confusion(pred, gold)
    assert accuracy == pytest.approx(oracle_acc, abs=1e-12)
    assert confusion == oracle_matrix


def test_perfect_accuracy_implies_zero_mae_and_unit_qwk():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 40)
        values = [rng.randint(1, 5) for _ in range(n)]
        s = series(values, values)
        assert accuracy_and_confusion(s)[0] == 1.0
        assert mae(s) == 0.0
        assert qwk(s) == 1.0


def _outcome(exam_id: str, grades: dict[str, dict[str, int]] | None, error: str | None = None) -> Prediction:
    if grades is None:
        return Prediction(exam_id, error, None, None)
    return Prediction(exam_id, None, grades, aggregate(grades).final)


def _uniform(g: int) -> dict[str, dict[str, int]]:
    return {"task1": {d: g for d in DIMENSIONS}, "task2": {d: g for d in DIMENSIONS}}


def test_build_report_echo_style_outcomes():
    records = [make_record(f"m-{g}", (g,) * 4, (g,) * 4) for g in range(1, 6)]
    corpus = make_corpus(records)
    outcomes = [_outcome(r.id, r.gold.sub_dimensions()) for r in records]
    report = build_report("echo", outcomes, corpus)
    assert report.n == 5
    assert report.invalid_count == 0
    for key in DIMENSION_KEYS:
        assert report.dimensions[key].accuracy == 1.0
        assert report.dimensions[key].qwk == 1.0
        assert report.dimensions[key].mae == 0.0


def test_build_report_counts_invalid_outcomes():
    records = [make_record(f"v-{i:03d}", (3, 3, 3, 3), (3, 3, 3, 3)) for i in range(101)]
    corpus = make_corpus(records)
    outcomes = [_outcome(r.id, r.gold.sub_dimensions()) for r in records[:90]]
    outcomes += [_outcome(r.id, None) for r in records[90:]]
    report = build_report("fixture", outcomes, corpus)
    assert report.invalid_count == 11
    assert report.n == 90
    for key in DIMENSION_KEYS:
        assert report.dimensions[key].n == 90
        assert report.dimensions[key].invalid_count == 11


def test_build_report_final_accuracy_for_constant_grader():
    grades = [1, 3, 3, 2, 5, 3, 4]
    records = [make_record(f"c-{i}", (g,) * 4, (g,) * 4) for i, g in enumerate(grades)]
    corpus = make_corpus(records)
    outcomes = [_outcome(r.id, _uniform(3)) for r in records]
    report = build_report("always3", outcomes, corpus)
    share_of_threes = grades.count(3) / len(grades)
    final = report.dimensions["final"]
    assert final.accuracy == pytest.approx(share_of_threes)
    for i in range(5):
        for j in range(5):
            if j != 2:
                assert final.confusion[i][j] == 0


def test_build_report_confusion_totals_match_n():
    rng = random.Random(5)
    records = [
        make_record(f"t-{i:02d}", tuple(rng.randint(1, 5) for _ in range(4)), tuple(rng.randint(1, 5) for _ in range(4)))
        for i in range(12)
    ]
    corpus = make_corpus(records)
    outcomes = [_outcome(r.id, _uniform(rng.randint(1, 5))) for r in records]
    report = build_report("random", outcomes, corpus)
    for key in DIMENSION_KEYS:
        d = report.dimensions[key]
        assert sum(sum(row) for row in d.confusion) == d.n
        trace = sum(d.confusion[i][i] for i in range(5))
        assert d.accuracy == pytest.approx(trace / d.n)


def test_build_report_marks_errored_candidates():
    records = [make_record(f"e-{i}", (2,) * 4, (2,) * 4) for i in range(3)]
    corpus = make_corpus(records)
    outcomes = [
        _outcome(records[0].id, records[0].gold.sub_dimensions()),
        _outcome(records[1].id, records[1].gold.sub_dimensions()),
        _outcome(records[2].id, None, error="chat request failed"),
    ]
    report = build_report("err", outcomes, corpus)
    assert report.errored == (records[2].id,)
    assert report.invalid_count == 1
    assert report.n == 2


def test_build_report_over_one_valid_prediction_leaves_qwk_and_pcc_empty():
    records = [make_record(f"o-{i}", (2,) * 4, (3,) * 4) for i in range(2)]
    predictions = [_outcome(records[0].id, _uniform(3)), _outcome(records[1].id, None, error="timeout")]
    report = build_report("one", predictions, make_corpus(records))
    assert report.n == 1 and report.invalid_count == 1
    for key in DIMENSION_KEYS:
        assert report.dimensions[key].qwk is None and report.dimensions[key].pcc is None
        assert report.dimensions[key].accuracy is not None and report.dimensions[key].mae is not None
    header, *rows = metrics_csv_rows(report)
    assert len(rows) == len(DIMENSION_KEYS)
    for row in rows:
        cells = dict(zip(header, row))
        assert cells["qwk"] == cells["pcc"] == "" and cells["mae"] and cells["accuracy"]


def test_build_report_rejects_empty():
    with pytest.raises(ValueError):
        build_report("none", [], make_corpus([make_record("x", (1,) * 4, (1,) * 4)]))


def test_metrics_against_oracles_on_random_series():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 50)
        pred = [rng.randint(1, 5) for _ in range(n)]
        gold = [rng.randint(1, 5) for _ in range(n)]
        s = series(pred, gold)
        assert mae(s) == pytest.approx(oracle_mae(pred, gold), abs=1e-12)
        accuracy, confusion = accuracy_and_confusion(s)
        oracle_acc, oracle_matrix = oracle_accuracy_confusion(pred, gold)
        assert accuracy == pytest.approx(oracle_acc, abs=1e-12)
        assert confusion == oracle_matrix
        if n >= 2:
            assert qwk(s) == pytest.approx(oracle_qwk(pred, gold), abs=1e-12)
            expected_pcc = oracle_pcc(pred, gold)
            actual_pcc = pcc(s)
            if expected_pcc is None:
                assert actual_pcc is None
            else:
                assert actual_pcc == pytest.approx(expected_pcc, abs=1e-12)
