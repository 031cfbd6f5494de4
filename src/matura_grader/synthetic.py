"""Synthetic exam corpus for offline runs and tests.

Generates German filler texts with a controlled spread of gold grades: the
first ten exams pin one uniform exam per grade level in each of the two
task packs, so every final grade 1..5 is represented per pack once n >= 10;
later exams get jittered grade vectors for variety. Rubric files for all
seven text types are emitted alongside. Output is byte-deterministic in
(n, seed).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict
from pathlib import Path

from .grading import DIMENSIONS, RUBRIC_GRADES, TASKS, aggregate
from .retrieval import word_list

PACKS = (
    {"year": 2023, "pack": "pack-a", "types": ("Literary Interpretation", "Letter to the Editor")},
    {"year": 2024, "pack": "pack-b", "types": ("Literary Interpretation", "Commentary")},
)

TYPE_SUMMARIES = {
    "Discussion Essay": "Eine Erörterung setzt sich argumentativ mit einer Fragestellung auseinander, wägt Für und Wider ab und kommt zu einem begründeten Schluss.",
    "Commentary": "Ein Kommentar ist ein journalistischer Text, der die Leserschaft von der eigenen Haltung zu einem Thema überzeugen will und sich für eine Veröffentlichung eignet.",
    "Letter to the Editor": "Ein Leserbrief formuliert die persönliche Meinung zu einem bekannten Thema oder zu einem vorangegangenen Artikel desselben Mediums.",
    "Opinion Speech": "Eine Meinungsrede vertritt vor einem Publikum pointiert einen eigenen Standpunkt und setzt rhetorische Mittel gezielt ein.",
    "Text Analysis": "Eine Textanalyse untersucht Aufbau, Sprache und Wirkung eines vorgelegten Textes sachlich und belegt die Befunde am Text.",
    "Literary Interpretation": "Eine Textinterpretation erschließt einen literarischen Text über das Zusammenspiel formaler, sprachlicher und inhaltlicher Aspekte.",
    "Summary": "Eine Zusammenfassung gibt die zentralen Aussagen eines Ausgangstextes sachlich, geordnet und in eigenen Worten verkürzt wieder.",
}

_GRADE_QUALIFIERS = {
    1: "weit über das geforderte Maß hinaus",
    2: "über das geforderte Maß hinaus",
    3: "in zufriedenstellendem Maß",
    4: "in den wesentlichen Bereichen gerade noch ausreichend",
}

_DIMENSION_SENTENCES = {
    "content": "Die inhaltlichen Vorgaben der Aufgabenstellung werden {q} erfüllt; die Auseinandersetzung mit dem Thema ist entsprechend tragfähig.",
    "structure": "Der Textaufbau entspricht der geforderten Textsorte {q}; Gliederung und Gedankenführung sind entsprechend nachvollziehbar.",
    "language_norms": "Rechtschreibung, Grammatik und Zeichensetzung werden {q} beherrscht.",
    "style_expression": "Wortwahl, Satzbau und stilistische Angemessenheit erfüllen die Anforderungen der Textsorte {q}.",
}


def rubric_document(text_type: str) -> dict:
    dimensions = {}
    for dim in DIMENSIONS:
        dimensions[dim] = {
            str(grade): f"{text_type}: " + _DIMENSION_SENTENCES[dim].format(q=_GRADE_QUALIFIERS[grade])
            for grade in RUBRIC_GRADES
        }
    return {"text_type": text_type, "summary": TYPE_SUMMARIES[text_type], "dimensions": dimensions}


def write_rubrics(directory: str | Path) -> None:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for i, text_type in enumerate(sorted(TYPE_SUMMARIES), start=1):
        (out / f"rubric_{i:02d}.json").write_text(
            json.dumps(rubric_document(text_type), ensure_ascii=False, sort_keys=True, indent=1) + "\n",
            encoding="utf-8",
        )


def _sentence(rng: random.Random, topic: list[str], words: tuple[str, ...]) -> str:
    length = rng.randint(7, 14)
    chosen = [rng.choice(topic) if rng.random() < 0.45 else rng.choice(words) for _ in range(length)]
    return chosen[0].capitalize() + " " + " ".join(chosen[1:]) + "."


def _body(rng: random.Random, topic: list[str], words: tuple[str, ...], target_words: int) -> str:
    paragraphs: list[str] = []
    sentences: list[str] = []
    count = 0
    while count < target_words:
        sentence = _sentence(rng, topic, words)
        sentences.append(sentence)
        count += len(sentence.split())
        if len(sentences) >= rng.randint(3, 5):
            paragraphs.append(" ".join(sentences))
            sentences = []
    if sentences:
        paragraphs.append(" ".join(sentences))
    return "\n\n".join(paragraphs)


def _grade_vector(rng: random.Random, target: int, jitter: bool) -> dict[str, dict[str, int]]:
    sub = {task: {dim: target for dim in DIMENSIONS} for task in TASKS}
    if jitter:
        for _ in range(2):
            task = rng.choice(TASKS)
            dim = rng.choice(DIMENSIONS)
            sub[task][dim] = min(5, max(1, sub[task][dim] + rng.choice((-1, 1))))
    return sub


def make_synthetic(out_dir: str | Path, n: int, seed: int) -> tuple[Path, Path]:
    """Write ``n`` exams plus rubrics; returns (exam dir, rubric dir)."""
    if n < 1:
        raise ValueError("need n >= 1 exams")
    out = Path(out_dir)
    exam_dir = out / "exams"
    exam_dir.mkdir(parents=True, exist_ok=True)
    rubric_dir = out / "rubrics"
    write_rubrics(rubric_dir)

    words = word_list()
    for i in range(n):
        rng = random.Random(seed * 1_000_003 + i)
        pack = PACKS[i % 2]
        # First five exams of each pack are uniform at grades 1..5.
        target = (i // 2) % 5 + 1 if i < 10 else rng.randint(1, 5)
        jitter = i >= 10 and i % 3 == 2
        sub = _grade_vector(rng, target, jitter)
        outcome = aggregate(sub)

        topic = [rng.choice(words) for _ in range(12)]
        # Better exams run a little longer; task 1 is the longer text type.
        length_bonus = (5 - target) * 15
        body1 = _body(rng, topic, words, 180 + length_bonus + rng.randint(0, 40))
        body2 = _body(rng, topic, words, 110 + length_bonus // 2 + rng.randint(0, 30))

        doc = {
            "id": f"exam-{i + 1:03d}",
            "year": pack["year"],
            "pack": pack["pack"],
            "tasks": [
                {"text_type": pack["types"][0], "body": body1},
                {"text_type": pack["types"][1], "body": body2},
            ],
            "gold": {**sub, **asdict(outcome.sections), "final": outcome.final},
        }
        path = exam_dir / f"exam-{i + 1:03d}.json"
        path.write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return exam_dir, rubric_dir
