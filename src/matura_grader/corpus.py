"""Exam corpus and rubric loading.

One JSON file per exam (schema below), one JSON file per text-type rubric.
Records are validated on load — structural problems and grades inconsistent
with the grading arithmetic are reported per file and excluded — and the
resulting corpus is immutable. All exams of one (year, pack) task pack
answer the same two text types: the first exam kept for a pack, in
file-name order, fixes them, and a later exam of that pack with other types
is reported and excluded, since its references would be labelled and
graded under the wrong rubric.

An exam's id names its transcript file ``<id>.json``, so it must be one
file name: encodable as strict UTF-8 (a lone surrogate is not), 1 to 250
bytes once encoded (so ``<id>.json`` fits a 255-byte name), and holding no
``/``, ``\\`` or NUL. Every artifact that holds the id is written as UTF-8.

Exam schema::

    {"id": str, "year": int, "pack": str,
     "tasks": [{"text_type": str, "body": str}, {...}],
     "gold": {"task1": {"content": 1-5, "structure": 1-5,
                        "language_norms": 1-5, "style_expression": 1-5},
              "task2": {...},
              "k1": int, "k2": int, "k3_1": int, "k3_2": int, "k3": int,
              "final": int | "fail"}}

Rubric schema::

    {"text_type": str, "summary": str,
     "dimensions": {"content": {"1": str, "2": str, "3": str, "4": str}, ...}}
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .grading import (
    DIMENSIONS,
    FAIL,
    HALF_TO_BETTER,
    RUBRIC_GRADES,
    SECTIONS,
    TASKS,
    VALID_GRADES,
    TaskGrades,
    aggregate,
    final_to_grade,
)

TEXT_TYPES = (
    "Discussion Essay",
    "Commentary",
    "Letter to the Editor",
    "Opinion Speech",
    "Text Analysis",
    "Literary Interpretation",
    "Summary",
)

# A "-\n" between word characters. The literal comes first and the
# lookbehind checks the character before the "-", so ``re`` searches for
# "-\n" instead of trying a lookbehind at every offset of the text.
_HYPHEN_BREAK = re.compile(r"-\n(?<=\w-\n)(?=\w)")
_PARAGRAPH_SPLIT = re.compile(r"\n\s*\n")
# Unicode category Cc is fixed at exactly U+0000-U+001F and U+007F-U+009F;
# the newline is kept.
_CONTROL = re.compile(r"[\x00-\x09\x0b-\x1f\x7f-\x9f]")


def normalize_text(raw: str) -> str:
    """Whitespace/control-character normalization applied to every task body.

    Unifies line breaks to "\\n", strips every other control character,
    joins soft line-break hyphenation ("wor-\\nt" -> "wort"), collapses
    whitespace runs to single spaces and keeps paragraph breaks as single
    blank lines. Idempotent.
    """
    text = raw.replace("\r\n", "\n").replace("\r", "\n")
    text = _CONTROL.sub("", text)
    text = _HYPHEN_BREAK.sub("", text)
    paragraphs = [" ".join(p.split()) for p in _PARAGRAPH_SPLIT.split(text)]
    return "\n\n".join(p for p in paragraphs if p)


@dataclass(frozen=True)
class TaskText:
    text_type: str
    body: str


@dataclass(frozen=True)
class GoldGrades:
    task1: TaskGrades
    task2: TaskGrades
    k1: int
    k2: int
    k3_1: int
    k3_2: int
    k3: int
    final: int | str  # 1..5 or FAIL

    def task(self, position: int) -> TaskGrades:
        """Grades of the task at position 1 or 2."""
        return (self.task1, self.task2)[position - 1]

    def sub_dimensions(self) -> dict[str, dict[str, int]]:
        return {task: self.task(position).as_dict() for position, task in enumerate(TASKS, start=1)}

    def final_as_grade(self) -> int:
        return final_to_grade(self.final)


@dataclass(frozen=True)
class ExamRecord:
    id: str
    year: int
    pack: str
    tasks: tuple[TaskText, TaskText]
    gold: GoldGrades

    def task(self, position: int) -> TaskText:
        """Task text at position 1 or 2."""
        return self.tasks[position - 1]


@dataclass(frozen=True)
class CorpusError:
    file: str
    reason: str


@dataclass(frozen=True)
class Corpus:
    records: tuple[ExamRecord, ...]
    errors: tuple[CorpusError, ...] = ()

    @cached_property
    def by_id(self) -> dict[str, ExamRecord]:
        return {r.id: r for r in self.records}

    @cached_property
    def _pools(self) -> dict[tuple[int, str], tuple[ExamRecord, ...]]:
        pools: dict[tuple[int, str], list[ExamRecord]] = {}
        for record in sorted(self.records, key=lambda r: r.id):
            pools.setdefault((record.year, record.pack), []).append(record)
        return {key: tuple(records) for key, records in pools.items()}

    def get(self, exam_id: str) -> ExamRecord:
        try:
            return self.by_id[exam_id]
        except KeyError:
            raise KeyError(f"no exam with id {exam_id!r}") from None

    def pool(self, year: int, pack: str) -> tuple[ExamRecord, ...]:
        """All exams of one (year, pack) task pack, in id order."""
        return self._pools.get((year, pack), ())

    def packs(self) -> tuple[tuple[int, str], ...]:
        return tuple(sorted(self._pools))


def _require(data: dict, key: str, kind: type, where: str) -> object:
    if not isinstance(data, dict):
        raise ValueError(f"{where.rstrip('.') or 'top level'} must be an object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing field {where}{key}")
    value = data[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError(f"field {where}{key} must be an integer, got {value!r}")
    if kind is not int and not isinstance(value, kind):
        raise ValueError(f"field {where}{key} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_task_grades(data: dict, where: str) -> TaskGrades:
    return TaskGrades(*(_require(data, dim, int, where) for dim in DIMENSIONS))


def parse_record(data: dict) -> ExamRecord:
    """Structural parse of one exam JSON document. Raises ValueError."""
    exam_id = _require(data, "id", str, "")
    try:
        # Strict UTF-8, as every artifact is written; at most 250 bytes, so "<id>.json" fits a 255-byte name.
        fits = 0 < len(exam_id.encode("utf-8")) <= 250
    except UnicodeEncodeError:
        fits = False
    if not fits or any(c in exam_id for c in "/\\\0"):
        raise ValueError(f"exam id {exam_id!r} must be one file name: encodable, 1 to 250 bytes, no '/', '\\' or NUL")
    year = _require(data, "year", int, "")
    pack = _require(data, "pack", str, "")
    tasks_raw = _require(data, "tasks", list, "")
    if len(tasks_raw) != 2:
        raise ValueError(f"expected exactly 2 tasks, got {len(tasks_raw)}")
    tasks = []
    for i, task in enumerate(tasks_raw, start=1):
        text_type = _require(task, "text_type", str, f"tasks[{i}].")
        body = normalize_text(_require(task, "body", str, f"tasks[{i}]."))
        tasks.append(TaskText(text_type=text_type, body=body))
    gold_raw = _require(data, "gold", dict, "")
    final = gold_raw.get("final")
    if final is None:
        raise ValueError("missing field gold.final")
    if final != FAIL and (not isinstance(final, int) or isinstance(final, bool)):
        raise ValueError(f'field gold.final must be an integer or "{FAIL}", got {final!r}')
    gold = GoldGrades(
        **{task: _parse_task_grades(_require(gold_raw, task, dict, "gold."), f"gold.{task}.") for task in TASKS},
        **{name: _require(gold_raw, name, int, "gold.") for name in SECTIONS},
        final=final,
    )
    return ExamRecord(id=exam_id, year=year, pack=pack, tasks=(tasks[0], tasks[1]), gold=gold)


def validate_record(record: ExamRecord, half: str = HALF_TO_BETTER, trust_stored_grades: bool = False) -> tuple[str, ...]:
    """Content validation: grade ranges, text types, stored-aggregate consistency.

    Returns the violations, empty when the record is valid: they are data,
    not exceptions. With ``trust_stored_grades`` the stored aggregates are
    not compared with their recomputation.
    """
    violations: list[str] = []
    for position, (name, task) in enumerate(zip(TASKS, record.tasks), start=1):
        if task.text_type not in TEXT_TYPES:
            violations.append(f"unknown text_type for task {position}: {task.text_type!r}")
        if not task.body:
            violations.append(f"task {position} body is empty after normalization")
        for dim, value in zip(DIMENSIONS, record.gold.task(position)):
            if value not in VALID_GRADES:
                violations.append(f"grade out of range: {name}.{dim} = {value}")
    for name in SECTIONS:
        value = getattr(record.gold, name)
        if value not in VALID_GRADES:
            violations.append(f"grade out of range: {name} = {value}")
    if record.gold.final != FAIL and record.gold.final not in VALID_GRADES:
        violations.append(f"grade out of range: final = {record.gold.final}")
    if violations or trust_stored_grades:
        return tuple(violations)

    expected = aggregate(record.gold.sub_dimensions(), half)
    for name in SECTIONS:
        got, want = getattr(record.gold, name), getattr(expected.sections, name)
        if got != want:
            violations.append(f"stored {name} inconsistent with recomputation (expected {want}, stored {got})")
    if record.gold.final != expected.final:
        violations.append(
            f"stored final inconsistent with recomputation (expected {expected.final}, stored {record.gold.final})"
        )
    return tuple(violations)


def load_corpus(path: str | Path, trust_stored_grades: bool = False, half: str = HALF_TO_BETTER) -> Corpus:
    """Load every ``*.json`` exam file under ``path``.

    Invalid files become error entries instead of records, and so does an
    exam whose two text types differ from those of the first exam kept for
    its (year, pack) in file-name order; with ``trust_stored_grades``
    records whose stored aggregates disagree with recomputation are kept as
    stored.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {directory}")
    records: list[ExamRecord] = []
    errors: list[CorpusError] = []
    seen: set[str] = set()
    pack_types: dict[tuple[int, str], tuple[str, tuple[str, ...]]] = {}
    for file in sorted(directory.glob("*.json")):
        try:
            data = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            errors.append(CorpusError(file.name, f"unreadable JSON: {exc}"))
            continue
        try:
            record = parse_record(data)
        except ValueError as exc:
            errors.append(CorpusError(file.name, str(exc)))
            continue
        if record.id in seen:
            errors.append(CorpusError(file.name, f"duplicate exam id {record.id!r}"))
            continue
        violations = validate_record(record, half, trust_stored_grades)
        if violations:
            errors.append(CorpusError(file.name, "; ".join(violations)))
            continue
        types = tuple(task.text_type for task in record.tasks)
        first_id, first_types = pack_types.setdefault((record.year, record.pack), (record.id, types))
        if types != first_types:
            where = f"{first_id!r} in pack {record.year}/{record.pack}"
            errors.append(CorpusError(file.name, f"text types {types} differ from those of {where}"))
            continue
        seen.add(record.id)
        records.append(record)
    return Corpus(records=tuple(records), errors=tuple(errors))


class RubricError(KeyError):
    """A corpus text type that no loaded rubric describes; raised once, at
    a run's set-up (``runner.load_run_inputs``)."""


@dataclass(frozen=True)
class Rubric:
    """One text type's rubric: its summary and dimension -> grade (1..4) -> text.

    Grade 5 has no descriptor; it marks failure to meet the grade-4 bar.
    """

    summary: str
    descriptors: dict[str, dict[int, str]]


def load_rubrics(path: str | Path) -> dict[str, Rubric]:
    """Load all rubric JSON files in a directory, keyed by text type.

    Each rubric holds a summary and all 16 descriptors (4 dimensions x
    grades 1-4), each a non-empty string, and no two files describe one text
    type, or the load fails with a ValueError naming the file(s)."""
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"rubric directory not found: {directory}")
    rubrics: dict[str, Rubric] = {}
    files: dict[str, str] = {}
    for file in sorted(directory.glob("*.json")):
        try:  # malformed JSON raises json.JSONDecodeError, a ValueError
            text_type, rubric = _parse_rubric(json.loads(file.read_text(encoding="utf-8")))
        except ValueError as exc:
            raise ValueError(f"{file.name}: {exc}") from None
        if text_type in files:
            raise ValueError(f"{file.name}: a second rubric for text type {text_type!r}, after {files[text_type]}")
        files[text_type] = file.name
        rubrics[text_type] = rubric
    return rubrics


def _non_empty(text: object, what: str) -> str:
    if not isinstance(text, str) or not text:
        raise ValueError(f"{what} must be a non-empty string, got {text!r}")
    return text


def _parse_rubric(data: dict) -> tuple[str, Rubric]:
    """Text type and rubric of one rubric JSON document. Raises ValueError."""
    text_type = _require(data, "text_type", str, "")
    if text_type not in TEXT_TYPES:
        raise ValueError(f"unknown text_type {text_type!r}")
    summary = _non_empty(_require(data, "summary", str, ""), "field summary")
    dims_raw = _require(data, "dimensions", dict, "")
    dims: dict[str, dict[int, str]] = {}
    for dim in DIMENSIONS:
        descriptors = _require(dims_raw, dim, dict, "dimensions.")
        table = {}
        for grade in RUBRIC_GRADES:
            key = str(grade)
            if key not in descriptors:
                raise ValueError(f"missing descriptor for ({text_type}, {dim}, grade {grade})")
            table[grade] = _non_empty(descriptors[key], f"descriptor for ({text_type}, {dim}, grade {grade})")
        dims[dim] = table
    return text_type, Rubric(summary, dims)
