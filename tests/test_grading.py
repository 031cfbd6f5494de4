from __future__ import annotations

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from matura_grader import grading
from matura_grader.grading import (
    DIMENSIONS,
    FAIL,
    HALF_TO_BETTER,
    HALF_TO_WORSE,
    RUBRIC_GRADES,
    SECTIONS,
    TASKS,
    VALID_GRADES,
    TaskGrades,
    aggregate,
    combine_k3,
    final_grade,
    final_to_grade,
    section_grade,
)

from conftest import make_record


def oracle_round(num: int, den: int, half_to_better: bool = True) -> int:
    """Independent exact-rational rounding used to cross-check section and final grades."""
    x = Fraction(num, den)
    lower, upper = x.numerator // x.denominator, -((-x.numerator) // x.denominator)
    if lower == upper:
        return lower
    if x - lower < Fraction(1, 2):
        return lower
    if x - lower > Fraction(1, 2):
        return upper
    return lower if half_to_better else upper


def test_section_and_final_grades_match_rational_oracle_on_all_small_averages():
    for half, half_to_better in ((HALF_TO_BETTER, True), (HALF_TO_WORSE, False)):
        for a, b in itertools.product(VALID_GRADES, repeat=2):
            assert section_grade(a, b, half=half) == oracle_round(a + b, 2, half_to_better)
        for trio in itertools.product(RUBRIC_GRADES, repeat=3):
            assert final_grade(*trio, half=half) == (oracle_round(sum(trio), 3, half_to_better), None)


def test_unknown_half_rounding_mode_is_refused():
    with pytest.raises(ValueError, match="unknown half-rounding mode: 'up'"):
        section_grade(2, 3, half="up")
    with pytest.raises(ValueError, match="unknown half-rounding mode: 'up'"):
        final_grade(2, 3, 3, half="up")


def test_section_grade_examples():
    assert section_grade(1, 3) == 2
    assert section_grade(2, 3) == 2
    assert section_grade(5, 5) == 5


def test_section_grade_symmetry():
    for a in range(1, 6):
        for b in range(1, 6):
            assert section_grade(a, b) == section_grade(b, a)


def test_combine_k3_examples():
    assert combine_k3(3, 3) == 3
    assert combine_k3(5, 1) == 3  # one failed half tolerated
    assert combine_k3(5, 5) == 5


def test_combine_k3_symmetry():
    for a in range(1, 6):
        for b in range(1, 6):
            assert combine_k3(a, b) == combine_k3(b, a)


def test_final_grade_examples():
    assert final_grade(2, 3, 2) == (2, None)
    assert final_grade(1, 1, 5) == (FAIL, "k3")
    assert final_grade(4, 4, 4) == (4, None)


def test_final_grade_names_all_failing_sections():
    final, reason = final_grade(5, 2, 5)
    assert final == FAIL
    assert reason == "k1, k3"


def test_final_grade_fails_iff_any_section_is_5():
    for trio in itertools.product(range(1, 6), repeat=3):
        final, reason = final_grade(*trio)
        if max(trio) == 5:
            assert final == FAIL
            assert reason
        else:
            assert final == oracle_round(sum(trio), 3)
            assert reason is None


def _sub(task1, task2):
    return {"task1": dict(zip(DIMENSIONS, task1)), "task2": dict(zip(DIMENSIONS, task2))}


def test_aggregate_uniform():
    outcome = aggregate(_sub((2, 2, 2, 2), (2, 2, 2, 2)))
    assert (outcome.sections.k1, outcome.sections.k2, outcome.sections.k3) == (2, 2, 2)
    assert outcome.final == 2


def test_aggregate_failing_task():
    outcome = aggregate(_sub((1, 1, 1, 1), (5, 5, 5, 5)))
    assert outcome.sections.k1 == 1
    assert outcome.sections.k2 == 5
    assert outcome.final == FAIL
    assert "k2" in outcome.fail_reason


def test_aggregate_hand_derived_case():
    # task1 content 1, structure 3, norms 2, style 2; task2 content 3,
    # structure 3, norms 4, style 4
    outcome = aggregate(_sub((1, 3, 2, 2), (3, 3, 4, 4)))
    assert outcome.sections.k1 == 2
    assert outcome.sections.k3_1 == 2
    assert outcome.sections.k2 == 3
    assert outcome.sections.k3_2 == 4
    assert outcome.sections.k3 == 3
    assert outcome.final == 3  # round(8/3)


def test_aggregate_rejects_bad_input():
    with pytest.raises(ValueError):
        aggregate({"task1": dict(zip(DIMENSIONS, (1, 2, 3, 4)))})
    with pytest.raises(ValueError):
        aggregate(_sub((1, 2, 3, 6), (1, 1, 1, 1)))


def _final_rank(outcome) -> int:
    return 6 if outcome.final == FAIL else outcome.final


def test_aggregate_monotonic_in_every_sub_dimension():
    rng = random.Random(42)
    for _ in range(2000):
        vector = [rng.randint(1, 5) for _ in range(8)]
        base = aggregate(_sub(vector[:4], vector[4:]))
        slot = rng.randrange(8)
        if vector[slot] == 5:
            continue
        worse = list(vector)
        worse[slot] += 1
        bumped = aggregate(_sub(worse[:4], worse[4:]))
        assert _final_rank(bumped) >= _final_rank(base)
        for name in ("k1", "k2", "k3_1", "k3_2", "k3"):
            assert getattr(bumped.sections, name) >= getattr(base.sections, name)


def test_aggregate_uniform_fixed_point():
    for g in range(1, 6):
        outcome = aggregate(_sub((g,) * 4, (g,) * 4))
        if g == 5:
            assert outcome.final == FAIL
        else:
            assert outcome.final == g


def test_grade_sheet_names():
    assert TASKS == ("task1", "task2")
    assert SECTIONS == ("k1", "k2", "k3_1", "k3_2", "k3")
    assert VALID_GRADES == (1, 2, 3, 4, 5)
    assert RUBRIC_GRADES == (1, 2, 3, 4)


def test_dimensions_are_the_task_grade_fields():
    assert DIMENSIONS == TaskGrades._fields == ("content", "structure", "language_norms", "style_expression")
    grades = TaskGrades(1, 2, 3, 4)
    assert grades == (1, 2, 3, 4)
    assert grades.as_dict() == {"content": 1, "structure": 2, "language_norms": 3, "style_expression": 4}
    assert list(grades.as_dict()) == list(DIMENSIONS)


# The grade sheet's names are written out in grading.py only; every other
# module iterates TASKS, DIMENSIONS, SECTIONS, VALID_GRADES and RUBRIC_GRADES.
_GRADE_SHEET_LITERALS = {
    ("task1", "task2"),
    ("content", "structure", "language_norms", "style_expression"),
    (1, 2, 3, 4, 5),
    (1, 2, 3, 4),
    ("k1", "k2", "k3_1", "k3_2", "k3"),
}


def _grade_sheet_literals(source: str) -> list[tuple[int, tuple]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and all(isinstance(e, ast.Constant) for e in node.elts):
            values = tuple(e.value for e in node.elts)
            if values in _GRADE_SHEET_LITERALS:
                found.append((node.lineno, values))
    return found


def test_grade_sheet_literals_are_detected():
    source = 'A = ("task1", "task2")\nB = [1, 2, 3, 4, 5]\nC = {1, 2, 3, 4}\nD = (1, 2)\nE = ("k1", "k2")\n'
    assert _grade_sheet_literals(source) == [(1, ("task1", "task2")), (2, (1, 2, 3, 4, 5)), (3, (1, 2, 3, 4))]


def test_grade_sheet_names_are_written_out_only_in_grading():
    package = Path(grading.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "grading.py")
    assert len(modules) > 10
    offenders = {
        path.name: found for path in modules if (found := _grade_sheet_literals(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
    assert _grade_sheet_literals(Path(grading.__file__).read_text(encoding="utf-8"))


def test_fail_counts_as_grade_5_on_both_grade_sheets():
    assert [final_to_grade(final) for final in (*RUBRIC_GRADES, FAIL)] == list(VALID_GRADES)
    finals = set()
    for task1, task2 in [((1,) * 4, (1,) * 4), ((3, 2, 4, 1), (2, 2, 3, 3)), ((4,) * 4, (4,) * 4), ((5,) * 4, (5,) * 4)]:
        outcome = aggregate({TASKS[0]: dict(zip(DIMENSIONS, task1)), TASKS[1]: dict(zip(DIMENSIONS, task2))})
        gold = make_record("g-1", task1, task2).gold
        assert gold.final_as_grade() == final_to_grade(outcome.final)
        finals.add(outcome.final)
    assert FAIL in finals
