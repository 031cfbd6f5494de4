from __future__ import annotations

import hashlib
import importlib
import json
import pkgutil
import random
import re
import shutil
import unicodedata
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matura_grader
from matura_grader import corpus as corpus_module
from matura_grader.cli import main
from matura_grader.corpus import (
    TEXT_TYPES,
    Corpus,
    load_corpus,
    load_rubrics,
    normalize_text,
    parse_record,
    validate_record,
)

from conftest import make_record
from helpers import corpus_to_json


def test_normalize_strips_control_characters_and_collapses_spaces():
    assert normalize_text("Hallo\u0000  Welt") == "Hallo Welt"


def test_normalize_joins_soft_hyphenation():
    assert normalize_text("Zusammen-\nfassung") == "Zusammenfassung"


def test_normalize_keeps_paragraph_breaks_as_single_blank_lines():
    assert normalize_text("Erster Absatz.\n\n\n  Zweiter  Absatz.") == "Erster Absatz.\n\nZweiter Absatz."


def test_normalize_hyphen_before_paragraph_break_is_kept():
    assert normalize_text("Wort-\n\nAnfang") == "Wort-\n\nAnfang"


def _random_messy_string(rng: random.Random) -> str:
    pieces = []
    for _ in range(rng.randint(0, 40)):
        pieces.append(
            rng.choice(
                ["wort", "Satz-", "\n", "\n\n", " ", "\t", "\u0000", "\u0007", "über", " display", "-", "maß  ", "\r\n"]
            )
        )
    return "".join(pieces)


def test_normalize_idempotent_and_never_longer():
    rng = random.Random(1234)
    for _ in range(100):
        raw = _random_messy_string(rng)
        once = normalize_text(raw)
        assert normalize_text(once) == once
        assert len(once) <= len(raw)


_CC = [chr(code) for code in range(0x110000) if unicodedata.category(chr(code)) == "Cc"]


def _normalize_by_category(raw: str) -> str:
    """normalize_text with the control characters removed one character at a
    time by Unicode category, the reference for the precompiled pattern."""
    text = raw.replace("\r\n", "\n").replace("\r", "\n")
    text = "".join(ch for ch in text if ch == "\n" or unicodedata.category(ch) != "Cc")
    text = re.sub(r"(?<=\w)-\n(?=\w)", "", text)
    paragraphs = [" ".join(p.split()) for p in re.split(r"\n\s*\n", text)]
    return "\n\n".join(p for p in paragraphs if p)


def test_control_category_is_the_65_code_points():
    assert _CC == [chr(c) for c in range(0x00, 0x20)] + [chr(c) for c in range(0x7F, 0xA0)]
    assert len(_CC) == 65


def test_normalize_removes_every_control_character_but_newline():
    everything = "a" + "b".join(_CC) + "c"
    assert normalize_text(everything) == _normalize_by_category(everything)
    assert not any(ch in normalize_text(everything) for ch in _CC if ch != "\n")


# "!-\nwort" and " -\nwort" put a non-word character before a "-\n" that a
# word character follows, which the hyphen-break pattern must keep.
_PIECES = st.sampled_from(
    _CC
    + ["\r\n", "\u0085", "\u00a0", "\u2028", "-\n", "Zusammen-\nfassung", "wort", "ÄÖÜß", " ", "\n\n", "-"]
    + ["!-\nwort", " -\nwort"]
)


@settings(deadline=None)
@given(st.one_of(st.lists(_PIECES, max_size=40).map("".join), st.text()))
def test_normalize_matches_per_character_category_filter(raw):
    assert normalize_text(raw) == _normalize_by_category(raw)


# The hyphen-break pattern as it was before it was rewritten to start with
# its "-\n" literal, kept as the reference for the rewrite;
# _normalize_by_category applies the same pattern.
_LOOKBEHIND_FIRST_HYPHEN_BREAK = re.compile(r"(?<=\w)-\n(?=\w)")


_HYPHEN_ALPHABET = st.sampled_from(list("aZäÖüß_7-\n\r \t") + ["-\n", "\r\n", "Wort-\n"] + _CC)


@settings(deadline=None, max_examples=500)
@given(st.lists(_HYPHEN_ALPHABET, max_size=60).map("".join))
def test_hyphen_break_matches_the_lookbehind_first_pattern(raw):
    assert corpus_module._HYPHEN_BREAK.sub("", raw) == _LOOKBEHIND_FIRST_HYPHEN_BREAK.sub("", raw)
    assert normalize_text(raw) == _normalize_by_category(raw)


def _starts_with_lookbehind(pattern: re.Pattern) -> bool:
    """A pattern that opens with a lookbehind: ``re`` then tries that
    lookbehind at every offset instead of searching for a literal."""
    return pattern.pattern.startswith(("(?<=", "(?<!"))


def test_lookbehind_first_patterns_are_detected():
    assert _starts_with_lookbehind(_LOOKBEHIND_FIRST_HYPHEN_BREAK)
    assert _starts_with_lookbehind(re.compile(r"(?<!\d)x"))
    assert not _starts_with_lookbehind(corpus_module._HYPHEN_BREAK)


def test_no_module_pattern_starts_with_a_lookbehind():
    names = [info.name for info in pkgutil.iter_modules(matura_grader.__path__)]
    modules = [importlib.import_module(f"matura_grader.{name}") for name in names]
    assert len(modules) > 10
    patterns = {
        f"{module.__name__}.{name}": value
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, re.Pattern)
    }
    assert "matura_grader.corpus._HYPHEN_BREAK" in patterns
    assert {name: p.pattern for name, p in patterns.items() if _starts_with_lookbehind(p)} == {}


def test_pool_groups_by_pack_in_id_order(corpus_30):
    shuffled = list(corpus_30.records)
    random.Random(4).shuffle(shuffled)
    corpus = Corpus(records=tuple(shuffled))
    for year, pack in corpus.packs():
        expected = tuple(sorted((r for r in shuffled if (r.year, r.pack) == (year, pack)), key=lambda r: r.id))
        assert corpus.pool(year, pack) == expected
    assert corpus.pool(1999, "none") == ()
    assert corpus.packs() == tuple(sorted({(r.year, r.pack) for r in shuffled}))


def test_load_corpus_on_synthetic_directory(synthetic_dirs_30, corpus_30):
    exam_dir, _ = synthetic_dirs_30
    assert len(corpus_30.records) == 30
    assert corpus_30.errors == ()
    again = load_corpus(exam_dir)
    assert corpus_to_json(corpus_30) == corpus_to_json(again)


def test_every_loaded_record_validates(corpus_30):
    for record in corpus_30.records:
        assert validate_record(record) == ()


def test_load_corpus_empty_directory(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    corpus = load_corpus(empty)
    assert len(corpus.records) == 0
    assert corpus.errors == ()


def test_load_corpus_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope")


def test_load_corpus_reports_missing_grade_field(tmp_path, synthetic_dirs_30):
    exam_dir, _ = synthetic_dirs_30
    broken_dir = tmp_path / "broken"
    broken_dir.mkdir()
    files = sorted(exam_dir.glob("*.json"))[:4]
    for file in files:
        shutil.copy(file, broken_dir / file.name)
    victim = broken_dir / files[0].name
    data = json.loads(victim.read_text(encoding="utf-8"))
    del data["gold"]["task1"]["structure"]
    victim.write_text(json.dumps(data), encoding="utf-8")

    corpus = load_corpus(broken_dir)
    assert len(corpus.records) == 3
    assert len(corpus.errors) == 1
    assert corpus.errors[0].file == victim.name
    assert "gold.task1.structure" in corpus.errors[0].reason


def test_load_corpus_reports_malformed_json(tmp_path, synthetic_dirs_30):
    exam_dir, _ = synthetic_dirs_30
    target = tmp_path / "mixed"
    target.mkdir()
    good = sorted(exam_dir.glob("*.json"))[0]
    shutil.copy(good, target / good.name)
    (target / "zz-broken.json").write_text("{not json", encoding="utf-8")
    (target / "zz-not-utf8.json").write_bytes(b"\xff\xfe{}")
    corpus = load_corpus(target)
    assert len(corpus.records) == 1
    assert [error.file for error in corpus.errors] == ["zz-broken.json", "zz-not-utf8.json"]
    assert "can't decode byte 0xff in position 0" in corpus.errors[1].reason


@pytest.mark.parametrize(
    "document,reason",
    [
        ("5", "top level must be an object, got int"),
        ("null", "top level must be an object, got NoneType"),
        ('"id"', "top level must be an object, got str"),
        ('{"id": "x", "year": 2023, "pack": "p", "tasks": ["a", "b"]}', "tasks[1] must be an object, got str"),
    ],
    ids=["number", "null", "string", "string_task"],
)
def test_load_corpus_reports_a_non_object_where_an_object_belongs(document, reason, tmp_path, synthetic_dirs_30):
    exam_dir, _ = synthetic_dirs_30
    target = tmp_path / "mixed"
    target.mkdir()
    good = sorted(exam_dir.glob("*.json"))[0]
    shutil.copy(good, target / good.name)
    (target / "zz-odd.json").write_text(document, encoding="utf-8")
    corpus = load_corpus(target)
    assert len(corpus.records) == 1
    assert [(error.file, error.reason) for error in corpus.errors] == [("zz-odd.json", reason)]


def test_load_corpus_rejects_duplicate_ids(tmp_path, synthetic_dirs_30):
    exam_dir, _ = synthetic_dirs_30
    target = tmp_path / "dups"
    target.mkdir()
    good = sorted(exam_dir.glob("*.json"))[0]
    shutil.copy(good, target / "a.json")
    shutil.copy(good, target / "b.json")
    corpus = load_corpus(target)
    assert len(corpus.records) == 1
    assert "duplicate exam id" in corpus.errors[0].reason


@pytest.mark.parametrize(
    "bad_id", ["", "../../escaped", "sub/exam-004", "sub\\exam-004", "exam\0004", "exam-\ud800", "exam-\udcff", "x" * 300]
)
def test_an_exam_id_that_is_not_one_file_name_is_skipped(bad_id, tmp_path, synthetic_dirs_30, capsys):
    exam_dir, _ = synthetic_dirs_30
    target = tmp_path / "ids"
    target.mkdir()
    good, victim = sorted(exam_dir.glob("*.json"))[:2]
    shutil.copy(good, target / good.name)
    data = json.loads(victim.read_text(encoding="utf-8"))
    data["id"] = bad_id
    (target / victim.name).write_text(json.dumps(data), encoding="utf-8")

    with pytest.raises(ValueError, match=re.escape(repr(bad_id))):
        parse_record(data)
    corpus = load_corpus(target)
    assert [record.id for record in corpus.records] == [json.loads(good.read_text(encoding="utf-8"))["id"]]
    assert [(error.file, error.reason) for error in corpus.errors] == [
        (victim.name, f"exam id {bad_id!r} must be one file name: encodable, 1 to 250 bytes, no '/', '\\' or NUL")
    ]
    assert main(["validate-corpus", str(target)]) == 1
    assert f"error: {victim.name}: exam id {bad_id!r}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edits,skipped",
    [
        # exam-001 fixes pack-a, so the pack's later exam-003 is skipped
        ({"exam-003": "Commentary"}, {"exam-003": "exam-001"}),
        # exam-001 fixes pack-a with its own types, so both later pack-a exams are skipped
        ({"exam-001": "Commentary"}, {"exam-003": "exam-001", "exam-005": "exam-001"}),
        # exam-001 is not kept, so the first kept pack-a exam, exam-003, fixes the pack
        ({"exam-001": None, "exam-003": "Commentary"}, {"exam-001": None, "exam-005": "exam-003"}),
    ],
)
def test_an_exam_whose_text_types_differ_from_its_packs_is_skipped(edits, skipped, tmp_path, synthetic_dirs_30):
    exam_dir, _ = synthetic_dirs_30
    target = tmp_path / "packs"
    target.mkdir()
    for source in sorted(exam_dir.glob("*.json"))[:6]:
        data = json.loads(source.read_text(encoding="utf-8"))
        if data["id"] in edits:
            if edits[data["id"]] is None:
                data["gold"]["final"] = 9  # out of range: the file is skipped before its pack is fixed
            else:
                data["tasks"][0]["text_type"] = edits[data["id"]]
        (target / source.name).write_text(json.dumps(data), encoding="utf-8")

    corpus = load_corpus(target)
    assert sorted(record.id for record in corpus.records) == sorted(
        f"exam-{i:03d}" for i in range(1, 7) if f"exam-{i:03d}" not in skipped
    )
    reasons = {error.file: error.reason for error in corpus.errors}
    assert sorted(reasons) == sorted(f"{exam_id}.json" for exam_id in skipped)
    for exam_id, fixer in skipped.items():
        if fixer is None:
            assert "grade out of range: final = 9" in reasons[f"{exam_id}.json"]
            continue
        types = (edits.get(exam_id, "Literary Interpretation"), "Letter to the Editor")
        assert reasons[f"{exam_id}.json"] == f"text types {types} differ from those of {fixer!r} in pack 2023/pack-a"
    # pack-b (the even-numbered exams) is untouched
    assert [record.id for record in corpus.pool(2024, "pack-b")] == ["exam-002", "exam-004", "exam-006"]


def test_validate_record_uniform_ok():
    record = make_record("ok-1", (3, 3, 3, 3), (3, 3, 3, 3))
    assert validate_record(record) == ()


def test_validate_record_grade_out_of_range():
    record = make_record("bad-1", (3, 3, 3, 3), (3, 3, 3, 3))
    broken = json.loads(json.dumps(_record_json(record)))
    broken["gold"]["task1"]["content"] = 6
    parsed = parse_record(broken)
    assert any("grade out of range: task1.content" in v for v in validate_record(parsed))


def test_validate_record_inconsistent_stored_final():
    record = make_record("bad-2", (2, 2, 2, 2), (2, 2, 2, 2))
    broken = _record_json(record)
    broken["gold"]["final"] = 4
    parsed = parse_record(broken)
    assert any("stored final inconsistent with recomputation (expected 2" in v for v in validate_record(parsed))


def test_validate_record_trusting_stored_grades_skips_only_the_recomputation():
    record = make_record("trust", (2, 2, 2, 2), (2, 2, 2, 2))
    inconsistent = replace(record, gold=replace(record.gold, k1=1, final=4))
    assert validate_record(inconsistent, trust_stored_grades=True) == validate_record(record)
    out_of_range = replace(inconsistent, gold=replace(inconsistent.gold, k2=0))
    assert validate_record(out_of_range, trust_stored_grades=True) == ("grade out of range: k2 = 0",)


def test_trust_stored_grades_keeps_inconsistent_record(tmp_path):
    record = make_record("t-1", (2, 2, 2, 2), (2, 2, 2, 2))
    doc = _record_json(record)
    doc["gold"]["final"] = 4
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "t-1.json").write_text(json.dumps(doc), encoding="utf-8")

    strict = load_corpus(directory)
    assert len(strict.records) == 0 and len(strict.errors) == 1

    trusting = load_corpus(directory, trust_stored_grades=True)
    assert len(trusting.records) == 1
    assert trusting.records[0].gold.final == 4


def test_trust_stored_grades_does_not_excuse_range_errors(tmp_path):
    record = make_record("t-2", (2, 2, 2, 2), (2, 2, 2, 2))
    doc = _record_json(record)
    doc["gold"]["task2"]["style_expression"] = 0
    directory = tmp_path / "corpus"
    directory.mkdir()
    (directory / "t-2.json").write_text(json.dumps(doc), encoding="utf-8")
    corpus = load_corpus(directory, trust_stored_grades=True)
    assert len(corpus.records) == 0
    assert len(corpus.errors) == 1


def test_parse_record_requires_two_tasks():
    record = make_record("t-3", (1, 1, 1, 1), (1, 1, 1, 1))
    doc = _record_json(record)
    doc["tasks"] = doc["tasks"][:1]
    with pytest.raises(ValueError, match="exactly 2 tasks"):
        parse_record(doc)


def _without_final(doc):
    del doc["gold"]["final"]


@pytest.mark.parametrize(
    "edit,reason",
    [
        (_without_final, "missing field gold.final"),
        (lambda doc: doc["gold"].update(final=2.5), 'field gold.final must be an integer or "fail", got 2.5'),
        (lambda doc: doc["gold"]["task1"].update(content="3"), "field gold.task1.content must be an integer, got '3'"),
        (
            lambda doc: doc["gold"]["task2"].update(style_expression=True),
            "field gold.task2.style_expression must be an integer, got True",
        ),
    ],
    ids=["missing_final", "fractional_final", "string_grade", "bool_grade"],
)
def test_parse_record_rejects_a_malformed_gold_grade(edit, reason):
    doc = _record_json(make_record("t-5", (2, 2, 2, 2), (3, 3, 3, 3)))
    edit(doc)
    with pytest.raises(ValueError) as raised:
        parse_record(doc)
    assert str(raised.value) == reason


@pytest.mark.parametrize(
    "edit,violation",
    [
        (lambda doc: doc["tasks"][1].update(body=" \x01\n\t "), "task 2 body is empty after normalization"),
        (lambda doc: doc["gold"].update(final=6), "grade out of range: final = 6"),
    ],
    ids=["empty_body", "final_out_of_range"],
)
def test_validate_record_reports_the_violation(edit, violation):
    doc = _record_json(make_record("t-6", (2, 2, 2, 2), (2, 2, 2, 2)))
    edit(doc)
    assert validate_record(parse_record(doc)) == (violation,)


def test_validate_record_unknown_text_type():
    record = make_record("t-4", (1, 1, 1, 1), (1, 1, 1, 1))
    doc = _record_json(record)
    doc["tasks"][0]["text_type"] = "Novelle"
    assert any("unknown text_type" in v for v in validate_record(parse_record(doc)))


def test_rubrics_load_and_cover_all_types(synthetic_dirs_30):
    _, rubric_dir = synthetic_dirs_30
    rubrics = load_rubrics(rubric_dir)
    assert set(rubrics) == set(TEXT_TYPES)
    for rubric in rubrics.values():
        assert rubric.summary
        assert rubric.descriptors["content"][1] != rubric.descriptors["content"][4]


def test_rubrics_missing_descriptor_is_an_error(tmp_path, synthetic_dirs_30):
    _, rubric_dir = synthetic_dirs_30
    target = tmp_path / "rubrics"
    target.mkdir()
    source = sorted(rubric_dir.glob("*.json"))[0]
    data = json.loads(source.read_text(encoding="utf-8"))
    del data["dimensions"]["content"]["3"]
    (target / source.name).write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ValueError, match="missing descriptor"):
        load_rubrics(target)


def _with_descriptor(data: dict, text) -> dict:
    """A rubric document whose content descriptor for grade 1 is ``text``."""
    content = {**data["dimensions"]["content"], "1": text}
    return {**data, "dimensions": {**data["dimensions"], "content": content}}


@pytest.mark.parametrize(
    "edit,reason",
    [
        (lambda data: "{not json", "Expecting property name enclosed in double quotes"),
        (lambda data: "5", "top level must be an object, got int"),
        (lambda data: json.dumps({k: v for k, v in data.items() if k != "text_type"}), "missing field text_type"),
        (
            lambda data: json.dumps({**data, "dimensions": {**data["dimensions"], "content": "Note 1 gut"}}),
            "field dimensions.content must be dict, got str",
        ),
        (lambda data: json.dumps({**data, "text_type": "Novelle"}), "unknown text_type 'Novelle'"),
        (
            lambda data: json.dumps(_with_descriptor(data, None)),
            "descriptor for (Commentary, content, grade 1) must be a non-empty string, got None",
        ),
        (
            lambda data: json.dumps(_with_descriptor(data, 3)),
            "descriptor for (Commentary, content, grade 1) must be a non-empty string, got 3",
        ),
        (
            lambda data: json.dumps(_with_descriptor(data, "")),
            "descriptor for (Commentary, content, grade 1) must be a non-empty string, got ''",
        ),
        (lambda data: json.dumps({**data, "summary": ""}), "field summary must be a non-empty string, got ''"),
    ],
    ids=[
        "malformed_json",
        "number",
        "missing_text_type",
        "string_dimension",
        "unknown_text_type",
        "null_descriptor",
        "number_descriptor",
        "empty_descriptor",
        "empty_summary",
    ],
)
def test_rubric_errors_name_the_file(edit, reason, tmp_path, synthetic_dirs_30):
    _, rubric_dir = synthetic_dirs_30
    target = tmp_path / "rubrics"
    target.mkdir()
    source = sorted(rubric_dir.glob("*.json"))[0]
    (target / source.name).write_text(edit(json.loads(source.read_text(encoding="utf-8"))), encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        load_rubrics(target)
    assert str(raised.value).startswith(f"{source.name}: {reason}"), str(raised.value)


def test_a_second_rubric_for_a_text_type_names_both_files(tmp_path, synthetic_dirs_30):
    _, rubric_dir = synthetic_dirs_30
    target = tmp_path / "rubrics"
    target.mkdir()
    source = rubric_dir / "rubric_01.json"
    (target / source.name).write_text(source.read_text(encoding="utf-8"), encoding="utf-8")
    data = json.loads(source.read_text(encoding="utf-8"))
    (target / "rubric_99.json").write_text(json.dumps({**data, "summary": "Another summary."}), encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        load_rubrics(target)
    assert str(raised.value) == "rubric_99.json: a second rubric for text type 'Commentary', after rubric_01.json"


def _record_json(record) -> dict:
    return {
        "id": record.id,
        "year": record.year,
        "pack": record.pack,
        "tasks": [{"text_type": t.text_type, "body": t.body} for t in record.tasks],
        "gold": {
            "task1": record.gold.task1.as_dict(),
            "task2": record.gold.task2.as_dict(),
            "k1": record.gold.k1,
            "k2": record.gold.k2,
            "k3_1": record.gold.k3_1,
            "k3_2": record.gold.k3_2,
            "k3": record.gold.k3,
            "final": record.gold.final,
        },
    }


# sha256 of corpus_to_json() on make_synthetic(n=25, seed=5), recorded before
# the gold block was serialized with dataclasses.asdict.
TO_JSON_SHA256 = "c3223e7e14cedbe3bb0c504c3b4b366e056973b879f1a72fec74eb0da63b0720"


def test_to_json_is_pinned(corpus_25):
    assert len(corpus_25.records) == 25 and not corpus_25.errors
    assert hashlib.sha256(corpus_to_json(corpus_25).encode("utf-8")).hexdigest() == TO_JSON_SHA256


def test_gold_task_reads_a_task_by_position():
    gold = make_record("t-1", (1, 2, 3, 4), (4, 3, 2, 2)).gold
    assert gold.task(1) is gold.task1 and gold.task(2) is gold.task2
    assert tuple(gold.task(1)) == (1, 2, 3, 4)
    assert tuple(gold.task(2)) == (4, 3, 2, 2)
    assert gold.sub_dimensions() == {"task1": gold.task1.as_dict(), "task2": gold.task2.as_dict()}


def test_to_json_writes_task_grades_as_objects(corpus_25):
    written = json.loads(corpus_to_json(corpus_25))
    assert [entry["gold"] for entry in written] == [_record_json(r)["gold"] for r in corpus_25.records]
    for entry in written:
        for task in ("task1", "task2"):
            assert isinstance(entry["gold"][task], dict)


def test_validate_record_reports_every_inconsistent_section():
    record = make_record("inc", (2, 2, 2, 2), (4, 4, 4, 4))
    gold = replace(record.gold, k1=1, k3_2=5, final=1)
    assert validate_record(replace(record, gold=gold)) == (
        "stored k1 inconsistent with recomputation (expected 2, stored 1)",
        "stored k3_2 inconsistent with recomputation (expected 4, stored 5)",
        "stored final inconsistent with recomputation (expected 3, stored 1)",
    )
