"""Prompt rendering.

All German wording lives in ``templates/*.txt`` so it can be audited and
edited without touching code; this module only fills placeholders. The
system prompt carries the full rubric (all grade 1-4 descriptors of both
text types), the meaning of grade 5, and the literal output schema.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from .corpus import ExamRecord, Rubric
from .grading import DIMENSIONS, RUBRIC_GRADES
from .retrieval import ContextEntry, ContextSelection

_TEMPLATE_DIR = Path(__file__).parent / "templates"

GERMAN_DIMENSION_LABELS = {
    "content": "Inhalt",
    "structure": "Textstruktur",
    "language_norms": "Sprachrichtigkeit",
    "style_expression": "Stil/Ausdruck",
}


@lru_cache(maxsize=None)
def template(name: str) -> str:
    return (_TEMPLATE_DIR / f"{name}.txt").read_text(encoding="utf-8").rstrip("\n")


def grades_line(grades: dict[str, int], final_grade: int | None = None) -> str:
    parts = [f"{GERMAN_DIMENSION_LABELS[dim]}: {grades[dim]}" for dim in DIMENSIONS]
    line = ", ".join(parts)
    if final_grade is not None:
        line += f" (Gesamtnote der Klausur: {final_grade})"
    return line


def _rubric_section(rubric: Rubric, text_type: str) -> str:
    blocks = []
    for dim in DIMENSIONS:
        lines = [f"-- {GERMAN_DIMENSION_LABELS[dim]} ({dim}) --"]
        for grade in RUBRIC_GRADES:
            lines.append(f"Note {grade}: {rubric.descriptors[dim][grade]}")
        blocks.append("\n".join(lines))
    return template("rubric_section").format(
        text_type=text_type, summary=rubric.summary, dimension_blocks="\n\n".join(blocks)
    )


def build_system_prompt(rubrics: dict[str, Rubric], types: tuple[str, str], cot: bool = False) -> str:
    """System prompt for a pack's two text types; optionally with the
    criterion-by-criterion reasoning instruction. A type missing from
    ``rubrics`` raises KeyError; a run checks every type at set-up."""
    sections = [_rubric_section(rubrics[text_type], text_type) for text_type in dict.fromkeys(types)]
    prompt = template("system_prompt").format(
        type1=types[0], type2=types[1], rubric_block="\n\n".join(sections), schema=template("output_schema")
    )
    if cot:
        prompt += "\n\n" + template("cot_instruction")
    return prompt


def render_reference_block(entry: ContextEntry, label: str, text_type: str) -> str:
    if entry.is_noise:
        return template("noise_block").format(label=label, body=entry.body)
    return template("reference_block").format(
        label=label,
        exam_id=entry.exam_id,
        position=entry.task_position,
        text_type=text_type,
        body=entry.body,
        grades=grades_line(entry.gold, entry.final_grade),
    )


def render_context_blocks(selection: ContextSelection, candidate: ExamRecord) -> list[str]:
    """One rendered block per context entry, in selection order."""
    blocks = []
    for i, entry in enumerate(selection.entries, start=1):
        text_type = "" if entry.is_noise else candidate.task(entry.task_position).text_type
        blocks.append(render_reference_block(entry, f"R{i}", text_type))
    return blocks


def render_candidate_block(candidate: ExamRecord) -> str:
    return template("candidate_block").format(
        type1=candidate.task(1).text_type,
        type2=candidate.task(2).text_type,
        body1=candidate.task(1).body,
        body2=candidate.task(2).body,
    )


def render_calibration_message(index: int, exam: ExamRecord, positions: tuple[int, ...]) -> str:
    items = "\n\n".join(
        template("calibration_item").format(
            exam_id=exam.id,
            position=position,
            text_type=exam.task(position).text_type,
            body=exam.task(position).body,
        )
        for position in positions
    )
    return template("calibration_turn").format(index=index, items=items)


def render_reveal_gold(exam: ExamRecord, positions: tuple[int, ...]) -> str:
    lines = []
    for position in positions:
        grades = exam.gold.task(position).as_dict()
        prefix = f"Aufgabe {position}: " if len(positions) > 1 else ""
        lines.append(prefix + grades_line(grades, exam.gold.final_as_grade() if position == positions[-1] else None))
    return template("reveal_gold").format(exam_id=exam.id, grades="; ".join(lines))
