"""Agreement statistics between model and human grades.

QWK, MAE, PCC and accuracy over the fixed 5-grade scale, per sub-dimension
and for the final grade (failed exams count as grade 5). Confusion matrices
are oriented rows = human, columns = model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import Corpus
from .grading import DIMENSIONS, TASKS, VALID_GRADES, final_to_grade

DIMENSION_KEYS = ("final",) + tuple(f"{task}.{dim}" for task in TASKS for dim in DIMENSIONS)


@dataclass(frozen=True)
class GradeSeries:
    predicted: tuple[int, ...]
    gold: tuple[int, ...]

    def __post_init__(self):
        if len(self.predicted) != len(self.gold):
            raise ValueError("predicted and gold series must have equal length")
        if not self.predicted:
            raise ValueError("series must not be empty")
        for value in self.predicted + self.gold:
            if value not in VALID_GRADES:
                raise ValueError(f"grade out of range in series: {value!r}")

    def __len__(self) -> int:
        return len(self.predicted)


def qwk(series: GradeSeries) -> float:
    """Cohen's kappa with quadratic weights over the fixed grade set 1..5.

    When expected disagreement is zero (both series constant on the same
    grade) the convention is 1.0 for identical series, 0.0 otherwise.
    """
    n = len(series)
    if n < 2:
        raise ValueError("QWK needs at least 2 pairs")
    _, counts = accuracy_and_confusion(series)
    gold_marginal = [sum(row) for row in counts]
    pred_marginal = [sum(counts[i][j] for i in range(5)) for j in range(5)]
    # The common 1/(R-1)^2 weight factor cancels between numerator and
    # denominator, so both stay integers until the final division.
    observed = sum(
        (i - j) ** 2 * counts[i][j] for i in range(5) for j in range(5)
    )
    expected = sum(
        (i - j) ** 2 * gold_marginal[i] * pred_marginal[j] for i in range(5) for j in range(5)
    )
    if expected == 0:
        return 1.0 if series.predicted == series.gold else 0.0
    return 1.0 - (n * observed) / expected


def mae(series: GradeSeries) -> float:
    return sum(abs(p - g) for p, g in zip(series.predicted, series.gold)) / len(series)


def pcc(series: GradeSeries) -> float | None:
    """Pearson correlation; None when either series has zero variance."""
    if len(series) < 2:
        raise ValueError("PCC needs at least 2 pairs")
    n = len(series)
    mean_p = sum(series.predicted) / n
    mean_g = sum(series.gold) / n
    dev_p = [p - mean_p for p in series.predicted]
    dev_g = [g - mean_g for g in series.gold]
    var_p = sum(d * d for d in dev_p)
    var_g = sum(d * d for d in dev_g)
    if var_p == 0.0 or var_g == 0.0:
        return None
    return sum(a * b for a, b in zip(dev_p, dev_g)) / math.sqrt(var_p * var_g)


def accuracy_and_confusion(series: GradeSeries) -> tuple[float, tuple[tuple[int, ...], ...]]:
    matrix = [[0] * 5 for _ in range(5)]
    for pred, gold in zip(series.predicted, series.gold):
        matrix[gold - 1][pred - 1] += 1
    accuracy = sum(matrix[i][i] for i in range(5)) / len(series)
    return accuracy, tuple(tuple(row) for row in matrix)


@dataclass(frozen=True)
class DimensionReport:
    qwk: float | None
    mae: float | None
    pcc: float | None
    accuracy: float | None
    confusion: tuple[tuple[int, ...], ...]
    n: int
    invalid_count: int
    qwk_degenerate: bool = False


@dataclass(frozen=True)
class EvaluationReport:
    technique: str
    dimensions: dict[str, DimensionReport]
    n: int
    invalid_count: int
    errored: tuple[str, ...] = ()


class Prediction(NamedTuple):
    """One candidate's prediction line as a report scores it.

    ``grades`` maps each of TASKS to its dimension grades and ``final`` is
    their aggregated final grade, an integer or FAIL. Both are None unless
    the line is a valid prediction.
    """

    exam_id: str
    error: str | None
    grades: dict[str, dict[str, int]] | None
    final: int | str | None


def _dimension_pairs(prediction: Prediction, record) -> list[tuple[int, int]]:
    """(predicted, gold) for each of DIMENSION_KEYS, in that order."""
    pairs = [(final_to_grade(prediction.final), record.gold.final_as_grade())]
    for position, task in enumerate(TASKS, start=1):
        pairs.extend((prediction.grades[task][dim], gold) for dim, gold in zip(DIMENSIONS, record.gold.task(position)))
    return pairs


def build_report(technique: str, predictions: list[Prediction], corpus: Corpus) -> EvaluationReport:
    """Per-dimension agreement reports over one experiment's predictions.

    Invalid or errored predictions are excluded from the metric pairs but
    kept in the invalid count.
    """
    if not predictions:
        raise ValueError("cannot build a report from zero outcomes")
    valid = [p for p in predictions if p.grades is not None]
    invalid_count = len(predictions) - len(valid)
    errored = tuple(sorted(p.exam_id for p in predictions if p.error is not None))

    dimensions: dict[str, DimensionReport] = {}
    if not valid:
        empty = DimensionReport(
            qwk=None, mae=None, pcc=None, accuracy=None,
            confusion=tuple((0,) * 5 for _ in range(5)), n=0, invalid_count=invalid_count,
        )
        dimensions = dict.fromkeys(DIMENSION_KEYS, empty)
    # one row of pairs per valid prediction, read column by column
    columns = zip(*(_dimension_pairs(p, corpus.get(p.exam_id)) for p in valid))
    for key, pairs in zip(DIMENSION_KEYS, columns):
        series = GradeSeries(*zip(*pairs))
        accuracy, confusion = accuracy_and_confusion(series)
        degenerate = False
        if len(series) >= 2:
            kappa = qwk(series)
            degenerate = len(set(series.predicted)) == 1 and series.predicted == series.gold
        else:
            kappa = None
        dimensions[key] = DimensionReport(
            qwk=kappa,
            mae=mae(series),
            pcc=pcc(series) if len(series) >= 2 else None,
            accuracy=accuracy,
            confusion=confusion,
            n=len(series),
            invalid_count=invalid_count,
            qwk_degenerate=degenerate,
        )
    return EvaluationReport(
        technique=technique,
        dimensions=dimensions,
        n=len(valid),
        invalid_count=invalid_count,
        errored=errored,
    )
