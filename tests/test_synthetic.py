from __future__ import annotations

from matura_grader.corpus import TEXT_TYPES, load_rubrics, validate_record
from matura_grader.grading import DIMENSIONS
from matura_grader.synthetic import make_synthetic


def _dir_fingerprint(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_make_synthetic_is_deterministic(tmp_path):
    first_exams, first_rubrics = make_synthetic(tmp_path / "a", n=25, seed=7)
    second_exams, second_rubrics = make_synthetic(tmp_path / "b", n=25, seed=7)
    assert _dir_fingerprint(first_exams) == _dir_fingerprint(second_exams)
    assert _dir_fingerprint(first_rubrics) == _dir_fingerprint(second_rubrics)
    different, _ = make_synthetic(tmp_path / "c", n=25, seed=8)
    assert _dir_fingerprint(first_exams) != _dir_fingerprint(different)


def test_synthetic_corpus_loads_cleanly(corpus_25):
    assert len(corpus_25.records) == 25
    assert corpus_25.errors == ()
    for record in corpus_25.records:
        assert validate_record(record) == ()
        words1, words2 = (len(record.task(position).body.split()) for position in (1, 2))
        assert words1 > words2 // 2
        assert words1 > 0


def test_synthetic_covers_all_grades_per_pack(corpus_30):
    for year, pack in corpus_30.packs():
        finals = {r.gold.final_as_grade() for r in corpus_30.pool(year, pack)}
        assert finals == {1, 2, 3, 4, 5}


def test_synthetic_pools_are_split_by_pack(corpus_30):
    packs = corpus_30.packs()
    assert len(packs) == 2
    sizes = [len(corpus_30.pool(year, pack)) for year, pack in packs]
    assert sum(sizes) == 30
    assert min(sizes) >= 14


def test_synthetic_rubrics_cover_all_types(synthetic_dirs_30):
    _, rubric_dir = synthetic_dirs_30
    rubrics = load_rubrics(rubric_dir)
    assert set(rubrics) == set(TEXT_TYPES)
    for rubric in rubrics.values():
        assert rubric.summary
        assert set(rubric.descriptors) == set(DIMENSIONS)
