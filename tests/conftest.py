from __future__ import annotations

import random

import pytest

from matura_grader.corpus import Corpus, ExamRecord, GoldGrades, TaskGrades, TaskText, load_corpus, load_rubrics
from matura_grader.grading import DIMENSIONS, aggregate
from matura_grader.retrieval import word_list
from matura_grader.synthetic import make_synthetic


def make_body(seed: str, length: int = 60) -> str:
    rng = random.Random(seed)
    words = word_list()
    return " ".join(rng.choice(words) for _ in range(length))


def make_record(
    exam_id: str,
    task1: tuple[int, int, int, int],
    task2: tuple[int, int, int, int],
    year: int = 2023,
    pack: str = "pack-a",
    body1: str | None = None,
    body2: str | None = None,
) -> ExamRecord:
    """An in-memory exam whose stored aggregates are consistent by construction."""
    grades1 = TaskGrades(**dict(zip(DIMENSIONS, task1)))
    grades2 = TaskGrades(**dict(zip(DIMENSIONS, task2)))
    outcome = aggregate({"task1": grades1.as_dict(), "task2": grades2.as_dict()})
    gold = GoldGrades(
        task1=grades1,
        task2=grades2,
        k1=outcome.sections.k1,
        k2=outcome.sections.k2,
        k3_1=outcome.sections.k3_1,
        k3_2=outcome.sections.k3_2,
        k3=outcome.sections.k3,
        final=outcome.final,
    )
    body1 = body1 if body1 is not None else make_body(exam_id + "-1")
    body2 = body2 if body2 is not None else make_body(exam_id + "-2")
    return ExamRecord(
        id=exam_id,
        year=year,
        pack=pack,
        tasks=(
            TaskText("Literary Interpretation", body1),
            TaskText("Letter to the Editor", body2),
        ),
        gold=gold,
    )


def make_corpus(records) -> Corpus:
    return Corpus(records=tuple(records))


@pytest.fixture(scope="session")
def synthetic_dirs_30(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus30")
    return make_synthetic(root, n=30, seed=11)


@pytest.fixture(scope="session")
def corpus_30(synthetic_dirs_30):
    exam_dir, _ = synthetic_dirs_30
    return load_corpus(exam_dir)


@pytest.fixture(scope="session")
def synthetic_dirs_25(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus25")
    return make_synthetic(root, n=25, seed=5)


@pytest.fixture(scope="session")
def corpus_25(synthetic_dirs_25):
    exam_dir, _ = synthetic_dirs_25
    return load_corpus(exam_dir)


@pytest.fixture(scope="session")
def rubrics_25(synthetic_dirs_25):
    _, rubric_dir = synthetic_dirs_25
    return load_rubrics(rubric_dir)
