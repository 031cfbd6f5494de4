"""Austrian A-level grading arithmetic.

Eight sub-dimension grades (2 tasks x content/structure/language_norms/
style_expression, 1 best .. 5 worst) are folded into section grades K1, K2,
K3/1, K3/2, K3 and a final grade. A section grade of 5 fails the whole exam.
Section and final grades are means of whole grades, rounded in whole numbers
by quotient and remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

FAIL = "fail"

# The grade sheet's names; every other module iterates these.
TASKS = ("task1", "task2")

VALID_GRADES = (1, 2, 3, 4, 5)


def final_to_grade(final: int | str) -> int:
    """A final grade as a number, FAIL counted as the worst grade (5), as
    metrics, grade coverage and reference picks count it."""
    return VALID_GRADES[-1] if final == FAIL else int(final)


# Grades the rubric describes; grade 5 marks failure to meet the grade-4 bar.
RUBRIC_GRADES = VALID_GRADES[:-1]

# Rounding of exact .5 averages: toward the better (lower) grade by default,
# toward the worse grade when configured.
HALF_TO_BETTER = "better"
HALF_TO_WORSE = "worse"


class TaskGrades(NamedTuple):
    """One task's four rubric grades; a plain tuple in DIMENSIONS order."""

    content: int
    structure: int
    language_norms: int
    style_expression: int

    def as_dict(self) -> dict[str, int]:
        return self._asdict()


DIMENSIONS = TaskGrades._fields


@dataclass(frozen=True)
class SectionScores:
    k1: int
    k2: int
    k3_1: int
    k3_2: int
    k3: int


SECTIONS = tuple(f.name for f in fields(SectionScores))


@dataclass(frozen=True)
class ExamOutcome:
    sections: SectionScores
    final: int | str  # 1..4 or FAIL
    fail_reason: str | None = None


def _check_grade(value: int, name: str = "grade") -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value not in VALID_GRADES:
        raise ValueError(f"{name} must be an integer in 1..5, got {value!r}")
    return value


def _rounded_mean(grades: tuple[int, ...], half: str) -> int:
    """The mean of whole grades rounded to the nearest whole grade, in
    integers: exact halves go toward the better grade (the lower number)
    unless ``half`` is HALF_TO_WORSE."""
    if half not in (HALF_TO_BETTER, HALF_TO_WORSE):
        raise ValueError(f"unknown half-rounding mode: {half!r}")
    lower, rest = divmod(sum(grades), len(grades))
    twice = 2 * rest
    return lower + (twice > len(grades) or (twice == len(grades) and half == HALF_TO_WORSE))


def section_grade(dim_a: int, dim_b: int, half: str = HALF_TO_BETTER) -> int:
    """Combine the two dimension grades of one section into its grade."""
    _check_grade(dim_a, "dim_a")
    _check_grade(dim_b, "dim_b")
    return _rounded_mean((dim_a, dim_b), half)


# K3 folds the per-task K3 halves the way a section folds its two
# dimensions: one failed half is tolerated as long as the average still
# rounds to 4 or better; (5, 5) stays 5.
combine_k3 = section_grade


def final_grade(k1: int, k2: int, k3: int, half: str = HALF_TO_BETTER) -> tuple[int | str, str | None]:
    """Final grade from the three section grades.

    Any section at 5 fails the exam; the returned reason names the failing
    section(s). Otherwise the final grade is the rounded section average.
    """
    _check_grade(k1, "k1")
    _check_grade(k2, "k2")
    _check_grade(k3, "k3")
    failing = [name for name, value in (("k1", k1), ("k2", k2), ("k3", k3)) if value == 5]
    if failing:
        return FAIL, ", ".join(failing)
    return _rounded_mean((k1, k2, k3), half), None


def aggregate(sub: dict[str, dict[str, int]], half: str = HALF_TO_BETTER) -> ExamOutcome:
    """Fold the 8 sub-dimension grades into sections and the final grade.

    ``sub`` maps each of TASKS to its four dimension grades. A 5 in a
    single sub-dimension does not fail the exam by itself; only section
    grades of 5 do.
    """
    for task in TASKS:
        if task not in sub:
            raise ValueError(f"missing grades for {task}")
        for dim in DIMENSIONS:
            if dim not in sub[task]:
                raise ValueError(f"missing grade for {task}.{dim}")
            _check_grade(sub[task][dim], f"{task}.{dim}")

    t1, t2 = (sub[task] for task in TASKS)
    k1 = section_grade(t1["content"], t1["structure"], half)
    k2 = section_grade(t2["content"], t2["structure"], half)
    k3_1 = section_grade(t1["style_expression"], t1["language_norms"], half)
    k3_2 = section_grade(t2["style_expression"], t2["language_norms"], half)
    k3 = combine_k3(k3_1, k3_2, half)
    final, reason = final_grade(k1, k2, k3, half)
    return ExamOutcome(SectionScores(k1, k2, k3_1, k3_2, k3), final, reason)
