from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matura_grader.config import TECHNIQUES
from matura_grader.corpus import load_corpus, normalize_text
from matura_grader.grading import DIMENSIONS, VALID_GRADES
from matura_grader.retrieval import (
    ALL_GRADES,
    BEST_AVERAGE_WORST,
    FALLBACK_DIM,
    MIXED_PER_TASK,
    MOST_SIMILAR,
    RANGE_OF_EXAMPLES,
    ContextSelection,
    ContextStrategy,
    EmbeddingError,
    FallbackEmbedder,
    TaskTextIndex,
    _entry_for,
    build_context,
    inject_noise,
    select_best_average_worst,
    select_grade_exemplars,
    select_most_similar,
    select_range_of_examples,
)
from matura_grader.synthetic import make_synthetic

from conftest import make_body, make_corpus, make_record
from helpers import cosine_similarity, reference_ids


@pytest.fixture(scope="module")
def embedder():
    return FallbackEmbedder(dim=64)


def test_fallback_embedding_deterministic(embedder):
    text = "Die Interpretation des Gedichts zeigt eine klare Struktur."
    assert embedder.embed(text) == embedder.embed(text)


def test_fallback_embedding_normalizes_first(embedder):
    assert embedder.embed("aaa") == embedder.embed("aaa ")


def test_fallback_embedding_self_similarity(embedder):
    vector = embedder.embed("kurzer text mit einigen wörtern")
    assert cosine_similarity(vector, vector) == pytest.approx(1.0, abs=1e-9)


def test_fallback_embedding_rejects_empty(embedder):
    with pytest.raises(EmbeddingError):
        embedder.embed("   \n ")


class _UnreachableEmbedder:
    def embed(self, text):
        raise EmbeddingError("embedding request failed: http://127.0.0.1:9 (connection refused)")


def test_index_build_names_the_exam_and_task_of_a_failed_embedding(embedder):
    records = [make_record(f"e-{i}", (2, 2, 2, 2), (3, 3, 3, 3)) for i in range(3)]
    records[1] = make_record("e-1", (2, 2, 2, 2), (3, 3, 3, 3), body2="... -- !!!")
    with pytest.raises(EmbeddingError, match=r"^exam 'e-1' task 2: cannot embed empty text$") as empty:
        TaskTextIndex.build(make_corpus(records), embedder)
    assert str(empty.value.__cause__) == "cannot embed empty text"
    with pytest.raises(EmbeddingError, match=r"^exam 'e-0' task 1: embedding request failed: http://127\.0\.0\.1:9 "):
        TaskTextIndex.build(make_corpus(records), _UnreachableEmbedder())


def test_cosine_identity_and_orthogonal():
    assert cosine_similarity((1.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0)
    assert cosine_similarity((1.0, 0.0), (0.0, 1.0)) == pytest.approx(0.0)


def test_cosine_direct_arithmetic_case():
    # dot = 32, |a| = sqrt(14), |b| = sqrt(77)
    expected = 32 / math.sqrt(14 * 77)
    assert cosine_similarity((1, 2, 3), (4, 5, 6)) == pytest.approx(expected, abs=1e-12)
    assert cosine_similarity((1, 2, 3), (4, 5, 6)) == pytest.approx(0.9746, abs=1e-3)


def test_cosine_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        cosine_similarity((1.0,), (1.0, 2.0))
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_similarity((0.0, 0.0), (1.0, 2.0))


def _graded_corpus():
    return make_corpus(
        [
            make_record("e-all1", (1, 1, 1, 1), (1, 1, 1, 1)),
            make_record("e-all3", (3, 3, 3, 3), (3, 3, 3, 3)),
            make_record("e-all5", (5, 5, 5, 5), (5, 5, 5, 5)),
        ]
    )


def test_baw_picks_extremes_and_average_in_order():
    selection = select_best_average_worst(_graded_corpus(), 2023, "pack-a")
    assert reference_ids(selection) == ("e-all1", "e-all3", "e-all5")
    by_position = [e for e in selection.entries if e.task_position == 1]
    assert [e.exam_id for e in by_position] == ["e-all1", "e-all3", "e-all5"]
    assert all(e.gold is not None for e in selection.entries)


def test_baw_tie_break_prefers_smaller_id():
    corpus = make_corpus(
        [
            make_record("b-nu", (1, 1, 1, 1), (1, 1, 1, 1)),
            make_record("a-xi", (1, 1, 1, 1), (1, 1, 1, 1)),
            make_record("m-mid", (3, 3, 3, 3), (3, 3, 3, 3)),
            make_record("z-bad", (5, 5, 5, 5), (5, 5, 5, 5)),
        ]
    )
    selection = select_best_average_worst(corpus, 2023, "pack-a")
    assert reference_ids(selection)[0] == "a-xi"


# With x-04 best and x-02 worst, x-05 and x-06 both lie exactly 35/6 from the
# pack means, so the smaller id wins; float sums put x-06 first by noise.
_EXACT_TIE_PACK = [
    ((1, 3, 2, 2), (4, 4, 4, 1)),
    ((3, 3, 4, 2), (4, 4, 2, 4)),
    ((1, 2, 4, 4), (1, 1, 2, 4)),
    ((1, 2, 1, 1), (2, 4, 3, 4)),
    ((4, 2, 2, 3), (2, 3, 3, 2)),
    ((3, 3, 2, 1), (4, 4, 3, 2)),
]


def _numbered_pack(grades):
    return make_corpus(
        [make_record(f"x-{i:02d}", task1, task2, body1="a", body2="b") for i, (task1, task2) in enumerate(grades, 1)]
    )


def test_baw_average_tie_goes_to_the_smaller_id_not_float_noise():
    selection = select_best_average_worst(_numbered_pack(_EXACT_TIE_PACK), 2023, "pack-a")
    assert reference_ids(selection) == ("x-04", "x-05", "x-02")


def test_baw_requires_three_exams():
    small = make_corpus([make_record("one", (1,) * 4, (1,) * 4), make_record("two", (2,) * 4, (2,) * 4)])
    with pytest.raises(ValueError, match="at least 3"):
        select_best_average_worst(small, 2023, "pack-a")


def _ten_exam_corpus():
    vectors = [
        ("x-01", (1, 1, 2, 1), (1, 1, 1, 1)),
        ("x-02", (1, 2, 2, 2), (2, 1, 2, 2)),
        ("x-03", (2, 2, 2, 2), (2, 2, 2, 2)),
        ("x-04", (3, 2, 3, 3), (2, 3, 3, 3)),
        ("x-05", (3, 3, 3, 3), (3, 3, 3, 3)),
        ("x-06", (3, 4, 3, 4), (4, 3, 3, 4)),
        ("x-07", (4, 4, 4, 4), (4, 4, 4, 4)),
        ("x-08", (4, 5, 4, 4), (5, 4, 4, 4)),
        ("x-09", (5, 5, 5, 5), (5, 5, 5, 5)),
        ("x-10", (2, 3, 2, 3), (3, 2, 3, 2)),
    ]
    return make_corpus([make_record(i, a, b) for i, a, b in vectors])


def test_baw_matches_exhaustive_oracle():
    corpus = _ten_exam_corpus()
    pool = corpus.pool(2023, "pack-a")

    def final(r):
        return r.gold.final_as_grade()

    def subsum(r):
        return sum(r.gold.task1.as_dict().values()) + sum(r.gold.task2.as_dict().values())

    best = None
    for r in pool:
        if best is None or (final(r), subsum(r), r.id) < (final(best), subsum(best), best.id):
            best = r
    worst = None
    for r in pool:
        if r.id == best.id:
            continue
        if worst is None or (-final(r), -subsum(r), r.id) < (-final(worst), -subsum(worst), worst.id):
            worst = r
    means = {}
    for task in ("task1", "task2"):
        for dim in ("content", "structure", "language_norms", "style_expression"):
            means[(task, dim)] = sum(getattr(getattr(r.gold, task), dim) for r in pool) / len(pool)
    average = None
    best_distance = None
    for r in pool:
        if r.id in (best.id, worst.id):
            continue
        distance = sum(
            abs(getattr(getattr(r.gold, task), dim) - means[(task, dim)])
            for task in ("task1", "task2")
            for dim in ("content", "structure", "language_norms", "style_expression")
        )
        if best_distance is None or (distance, r.id) < (best_distance, average.id):
            best_distance, average = distance, r

    selection = select_best_average_worst(corpus, 2023, "pack-a")
    assert reference_ids(selection) == (best.id, average.id, worst.id)


def test_baw_same_selection_when_excluding_unselected_candidate():
    corpus = _ten_exam_corpus()
    base = select_best_average_worst(corpus, 2023, "pack-a")
    for record in corpus.records:
        if record.id in reference_ids(base):
            continue
        assert select_best_average_worst(corpus, 2023, "pack-a", exclude_id=record.id) == base


def test_most_similar_finds_near_duplicate(embedder):
    candidate_body = make_body("dup-src-1", length=80)
    near = candidate_body + " extra wort"
    corpus = make_corpus(
        [
            make_record("cand", (3,) * 4, (3,) * 4, body1=candidate_body),
            make_record("near", (2,) * 4, (2,) * 4, body1=near),
            make_record("far1", (1,) * 4, (1,) * 4),
            make_record("far2", (4,) * 4, (4,) * 4),
        ]
    )
    index = TaskTextIndex.build(corpus, embedder)
    selection = select_most_similar(index, corpus.get("cand"), k=1, positions=(1,))
    assert [e.exam_id for e in selection.entries] == ["near"]


def test_most_similar_leave_one_out(embedder):
    corpus = _ten_exam_corpus()
    index = TaskTextIndex.build(corpus, embedder)
    for record in corpus.records:
        selection = select_most_similar(index, record, k=9)
        assert record.id not in [e.exam_id for e in selection.entries]


def test_most_similar_matches_full_scan_oracle(embedder):
    corpus = _ten_exam_corpus()
    index = TaskTextIndex.build(corpus, embedder)
    candidate = corpus.get("x-04")
    for k in (1, 4, 7):
        selection = select_most_similar(index, candidate, k=k)
        for position in (1, 2):
            got = [(e.exam_id, e.similarity) for e in selection.entries if e.task_position == position]
            query = embedder.embed(candidate.task(position).body)
            scored = []
            for record in corpus.records:
                if record.id == candidate.id:
                    continue
                scored.append((record.id, cosine_similarity(query, embedder.embed(record.task(position).body))))
            scored.sort(key=lambda item: (-item[1], item[0]))
            assert got == scored[:k]


@pytest.fixture(scope="module")
def corpus_60_with_ties(tmp_path_factory):
    """A synthetic corpus of 60 exams plus two exams whose task bodies equal
    those of ``exam-004``, so every query meets exact similarity ties."""
    exam_dir, _ = make_synthetic(tmp_path_factory.mktemp("corpus60"), n=60, seed=3)
    corpus = load_corpus(exam_dir)
    source = corpus.get("exam-004")
    twins = [replace(source, id=exam_id) for exam_id in ("tie-a", "tie-b")]
    return make_corpus(corpus.records + tuple(twins))


def _full_scan(corpus, candidate, position):
    """The reference ranking: cosine_similarity over freshly embedded texts."""
    embedder = FallbackEmbedder()
    query = embedder.embed(candidate.task(position).body)
    scored = [
        (record.id, cosine_similarity(query, embedder.embed(record.task(position).body)))
        for record in corpus.pool(candidate.year, candidate.pack)
        if record.id != candidate.id
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def test_index_query_equals_full_scan_with_ties(corpus_60_with_ties):
    corpus = corpus_60_with_ties
    index = TaskTextIndex.build(corpus, FallbackEmbedder())
    ties_seen = 0
    for candidate in corpus.records:
        for position in (1, 2):
            ranked = index.query(candidate, position)
            got = [(record.id, similarity) for record, similarity in ranked]
            assert got == _full_scan(corpus, candidate, position)
            similarity = dict(got)
            if "tie-a" in similarity and "tie-b" in similarity:
                assert similarity["tie-a"] == similarity["tie-b"]
                ties_seen += 1
    assert ties_seen > 0


class _RecordingEmbedder(FallbackEmbedder):
    """The fallback embedder, remembering every text it embeds."""

    def __init__(self):
        super().__init__()
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return super().embed(text)


def test_index_query_non_member_candidate(corpus_60_with_ties):
    """A query ranks the candidate's own pool: a record whose id is not in
    that pool is a KeyError naming both, and nothing is embedded for it."""
    corpus = corpus_60_with_ties
    embedder = _RecordingEmbedder()
    index = TaskTextIndex.build(corpus, embedder)
    embedded = len(embedder.texts)
    member = corpus.get("exam-010")
    outsiders = [
        replace(member, id="outsider"),
        replace(member, pack="no-such-pack"),
        replace(member, year=member.year + 1),
    ]
    for outsider in outsiders:
        for position in (1, 2):
            key = (outsider.year, outsider.pack, position)
            with pytest.raises(KeyError, match=re.escape(f"exam {outsider.id!r} is not in the index pool {key}")):
                index.query(outsider, position, limit=3)
    assert len(embedder.texts) == embedded == 2 * len(corpus.records)


class _TableEmbedder:
    """Maps a task body to a fixed vector."""

    def __init__(self, table):
        self.table = table

    def embed(self, text):
        return tuple(self.table[text])


_ZERO_NORM = "embedding has zero norm, so its cosine similarity is undefined"


def test_index_build_rejects_the_vectors_cosine_similarity_cannot_rank():
    table = {
        "eins": (1.0, 2.0),
        "drei": (3.0, 1.0),
        "null": (0.0, 0.0),
        "winzig": (1e-200, 1e-200),  # its squares underflow to 0.0
        "kurz": (1.0,),
        "lang": (1.0, 2.0, 3.0),
    }
    reasons = {
        "null": _ZERO_NORM,
        "winzig": _ZERO_NORM,
        "kurz": "embedding has 1 dimensions, the index's first has 2",
        "lang": "embedding has 3 dimensions, the index's first has 2",
    }
    for odd, reason in reasons.items():
        with pytest.raises(ValueError):  # nor can the oracle rank it
            cosine_similarity(table["eins"], table[odd])
        for position in (1, 2):
            bodies = {f"body{position}": odd, f"body{3 - position}": "drei"}
            corpus = make_corpus(
                [
                    make_record("v-1", (1,) * 4, (1,) * 4, body1="eins", body2="eins"),
                    make_record("v-2", (2,) * 4, (2,) * 4, **bodies),
                    make_record("v-3", (3,) * 4, (3,) * 4, body1="drei", body2="drei"),
                ]
            )
            with pytest.raises(EmbeddingError, match=f"^exam 'v-2' task {position}: {re.escape(reason)}$"):
                TaskTextIndex.build(corpus, _TableEmbedder(table))
    # The length to keep is that of the index's first vector, across pools.
    corpus = make_corpus(
        [
            make_record("v-1", (1,) * 4, (1,) * 4, body1="kurz", body2="kurz"),
            make_record("v-2", (2,) * 4, (2,) * 4, pack="pack-b", body1="eins", body2="eins"),
        ]
    )
    with pytest.raises(EmbeddingError, match="^exam 'v-2' task 1: embedding has 2 dimensions, the index's first has 1$"):
        TaskTextIndex.build(corpus, _TableEmbedder(table))
    # A shorter vector in a pool of count vectors, sorting last.
    corpus, table = _table_corpus(_random_counts("float-path", 12, 4) + [(1.0, 2.0, 3.0)])
    with pytest.raises(EmbeddingError, match="^exam 't-12' task 1: embedding has 3 dimensions, the index's first has 4$"):
        TaskTextIndex.build(corpus, _TableEmbedder(table))


def test_fallback_embedder_memo_keeps_vectors(corpus_60_with_ties):
    bodies = [record.task(position).body for record in corpus_60_with_ties.records for position in (1, 2)]
    warm = FallbackEmbedder()
    for body in bodies:
        warm.embed(body)
    assert [warm.embed(body) for body in bodies] == [FallbackEmbedder().embed(body) for body in bodies]


def _token_by_token_embed(text, dim):
    """FallbackEmbedder.embed computed token by token, kept as the
    reference: tokens of the lowercased text, one sha256 and one addition
    of 1.0 per token."""
    tokens = re.findall(r"\w+", text.lower())
    if not tokens:
        raise EmbeddingError("cannot embed empty text")
    counts = [0.0] * dim
    for token in tokens:
        digest = hashlib.sha256(token.encode("utf-8")).digest()
        counts[int.from_bytes(digest[:4], "big") % dim] += 1.0
    return tuple(counts)


def _embed_or_error(embed, text):
    try:
        return embed(text)
    except EmbeddingError:
        return EmbeddingError


_SPACES = [chr(code) for code in range(sys.maxunicode + 1) if chr(code).isspace()]
_CONTROLS = [chr(code) for code in (*range(0x00, 0x20), *range(0x7F, 0xA0))]
_EMBED_ALPHABET = st.sampled_from(
    _SPACES
    + _CONTROLS
    + ["-\n", "\r\n", "-", "\u03a3", "\u03c3", "\u03c2", "\u0130", "\u0307", "\ufb01", "_", "a", "Z"]
    + list("0123456789")
    + list("äöüÄÖÜß")
)
# A small dimension, so distinct tokens share buckets; it lives for the whole
# property, so later examples meet a warm memo.
_WARM_SMALL = FallbackEmbedder(dim=7)


@settings(deadline=None, max_examples=500)
@given(st.lists(_EMBED_ALPHABET, max_size=40).map("".join).map(normalize_text))
def test_word_count_embed_equals_the_token_by_token_embed(text):
    expected = _embed_or_error(lambda t: _token_by_token_embed(t, 7), text)
    assert _embed_or_error(FallbackEmbedder(dim=7).embed, text) == expected
    assert _embed_or_error(_WARM_SMALL.embed, text) == expected


@pytest.fixture(scope="module")
def synthetic_60_bodies(tmp_path_factory):
    """Every task body of a 60-exam synthetic corpus, as stored in its files
    and as normalized at load."""
    exam_dir, _ = make_synthetic(tmp_path_factory.mktemp("bodies60"), n=60, seed=5)
    raw = [
        task["body"]
        for path in sorted(exam_dir.glob("*.json"))
        for task in json.loads(path.read_text(encoding="utf-8"))["tasks"]
    ]
    loaded = [record.task(position).body for record in load_corpus(exam_dir).records for position in (1, 2)]
    assert len(raw) == len(loaded) == 120
    return raw + loaded


def test_word_count_embed_equals_the_token_by_token_embed_on_synthetic_bodies(synthetic_60_bodies):
    expected = [_token_by_token_embed(body, FALLBACK_DIM) for body in synthetic_60_bodies]
    warm = FallbackEmbedder()
    assert [FallbackEmbedder().embed(body) for body in synthetic_60_bodies] == expected
    assert [warm.embed(body) for body in synthetic_60_bodies] == expected
    assert [warm.embed(body) for body in synthetic_60_bodies] == expected


def test_fallback_embedding_counts_in_ints(synthetic_60_bodies):
    # Ints send every fallback-embedded pool down the index's integer path.
    embedder = FallbackEmbedder()
    assert {type(count) for body in synthetic_60_bodies for count in embedder.embed(body)} == {int}


def test_no_code_point_is_both_whitespace_and_a_word_character():
    """The lemmas the word-count path rests on, checked against this
    interpreter's Unicode database: a whitespace character never matches
    ``\\w``, lowercases to itself, and bounds the final-sigma context of
    ``str.lower`` (it is neither cased nor case-ignorable)."""
    assert len(_SPACES) > 20
    assert [ch for ch in _SPACES if re.match(r"\w", ch)] == []
    for ch in _SPACES:
        assert ch.lower() == ch
        assert ("A\u03a3" + ch + "B").lower() == "a\u03c2" + ch + "b"
        assert ("A" + ch + "\u03a3").lower() == "a" + ch + "\u03c3"


def test_most_similar_small_pool_warns(embedder):
    corpus = make_corpus(
        [
            make_record("a", (1,) * 4, (1,) * 4),
            make_record("b", (2,) * 4, (2,) * 4),
            make_record("c", (3,) * 4, (3,) * 4),
        ]
    )
    index = TaskTextIndex.build(corpus, embedder)
    selection = select_most_similar(index, corpus.get("a"), k=5)
    assert len([e for e in selection.entries if e.task_position == 1]) == 2
    assert selection.warnings


def test_range_of_examples_full_coverage(embedder):
    corpus = _ten_exam_corpus()
    index = TaskTextIndex.build(corpus, embedder)
    candidate = corpus.get("x-10")
    selection = select_range_of_examples(index, candidate, n=1, positions=(1,))
    grades = sorted(e.final_grade for e in selection.entries)
    assert len(selection.entries) == 5
    assert grades == [1, 2, 3, 4, 5]
    assert selection.coverage[1] == {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


def test_range_of_examples_double_coverage(embedder):
    corpus = _ten_exam_corpus()
    index = TaskTextIndex.build(corpus, embedder)
    # x-10's final is 3 (mixed dims); pool minus candidate still covers each
    # grade at least twice except where only two exist
    selection = select_range_of_examples(index, corpus.get("x-03"), n=2, positions=(1,))
    counts = selection.coverage[1]
    assert all(count <= 2 for count in counts.values())
    assert len(selection.entries) == sum(counts.values())


def test_mixed_per_task_coverage_counts_only_its_range_task(embedder):
    corpus = _ten_exam_corpus()
    index = TaskTextIndex.build(corpus, embedder)
    candidate = corpus.get("x-10")
    strategy = ContextStrategy(
        MIXED_PER_TASK, task1=ContextStrategy(MOST_SIMILAR, k=2), task2=ContextStrategy(RANGE_OF_EXAMPLES)
    )
    selection = build_context(corpus, index, candidate, strategy)
    assert [e.task_position for e in selection.entries] == [1, 1, 2, 2, 2, 2, 2]
    assert selection.coverage == select_range_of_examples(index, candidate, n=1, positions=(2,)).coverage
    assert selection.coverage == {2: {1: 1, 2: 1, 3: 1, 4: 1, 5: 1}}


def test_range_of_examples_reports_missing_grade(embedder):
    corpus = make_corpus(
        [
            make_record("r-2", (2,) * 4, (2,) * 4),
            make_record("r-3", (3,) * 4, (3,) * 4),
            make_record("r-4", (4,) * 4, (4,) * 4),
            make_record("r-5", (5,) * 4, (5,) * 4),
            make_record("r-c", (3,) * 4, (3,) * 4),
        ]
    )
    index = TaskTextIndex.build(corpus, embedder)
    selection = select_range_of_examples(index, corpus.get("r-c"), n=1, positions=(1,))
    assert len(selection.entries) == 4
    assert selection.coverage[1][1] == 0


def test_range_never_exceeds_n(embedder, corpus_30):
    index = TaskTextIndex.build(corpus_30, embedder)
    for record in corpus_30.records[:6]:
        for n in (1, 2):
            selection = select_range_of_examples(index, record, n=n)
            for counts in selection.coverage.values():
                assert all(count <= n for count in counts.values())


def test_inject_noise_identity_for_zero():
    selection = select_best_average_worst(_graded_corpus(), 2023, "pack-a")
    assert inject_noise(selection, 0, seed=9) is selection


def test_inject_noise_appends_flagged_entries_deterministically():
    selection = select_best_average_worst(_graded_corpus(), 2023, "pack-a", positions=(1,))
    noisy = inject_noise(selection, 2, seed=42)
    again = inject_noise(selection, 2, seed=42)
    assert noisy == again
    assert len(noisy.entries) == 5
    assert [e.is_noise for e in noisy.entries] == [False, False, False, True, True]
    assert noisy.entries[:3] == selection.entries
    assert noisy.entries[3].body != noisy.entries[4].body
    other_seed = inject_noise(selection, 2, seed=43)
    assert other_seed != noisy


def test_grade_exemplars_l1_fallback():
    corpus = _ten_exam_corpus()
    exemplars = select_grade_exemplars(corpus, 2023, "pack-a", levels=(1, 3, 5))
    by_level = {level: record.id for level, record in exemplars}
    assert by_level == {1: "x-01", 3: "x-05", 5: "x-09"}


def test_grade_exemplars_manifest_wins():
    corpus = _ten_exam_corpus()
    exemplars = select_grade_exemplars(corpus, 2023, "pack-a", levels=(1, 3), manifest={1: "x-02"})
    assert exemplars[0][1].id == "x-02"


def test_grade_exemplars_excludes_candidate():
    corpus = _ten_exam_corpus()
    exemplars = select_grade_exemplars(corpus, 2023, "pack-a", levels=(1,), exclude_id="x-01")
    assert exemplars[0][1].id != "x-01"


def test_strategy_invariants():
    with pytest.raises(ValueError):
        ContextStrategy(MOST_SIMILAR, k=0)
    with pytest.raises(ValueError):
        ContextStrategy("unbekannt")
    inner = ContextStrategy(MIXED_PER_TASK, task1=ContextStrategy(BEST_AVERAGE_WORST), task2=ContextStrategy(ALL_GRADES))
    with pytest.raises(ValueError, match="nest"):
        ContextStrategy(MIXED_PER_TASK, task1=inner, task2=ContextStrategy(ALL_GRADES))


def test_build_context_mixed_per_task(embedder):
    corpus = _ten_exam_corpus()
    index = TaskTextIndex.build(corpus, embedder)
    strategy = ContextStrategy(
        MIXED_PER_TASK, task1=ContextStrategy(BEST_AVERAGE_WORST), task2=ContextStrategy(ALL_GRADES)
    )
    candidate = corpus.get("x-05")
    selection = build_context(corpus, index, candidate, strategy)
    task1_entries = [e for e in selection.entries if e.task_position == 1]
    task2_entries = [e for e in selection.entries if e.task_position == 2]
    assert len(task1_entries) == 3
    assert len(task2_entries) == 5
    assert candidate.id not in [e.exam_id for e in selection.entries]


def test_build_context_applies_noise_per_candidate(embedder):
    corpus = _ten_exam_corpus()
    index = TaskTextIndex.build(corpus, embedder)
    strategy = ContextStrategy(BEST_AVERAGE_WORST, noise_count=2, noise_seed=7)
    first = build_context(corpus, index, corpus.get("x-03"), strategy)
    second = build_context(corpus, index, corpus.get("x-03"), strategy)
    other = build_context(corpus, index, corpus.get("x-04"), strategy)
    assert first == second
    assert sum(e.is_noise for e in first.entries) == 2
    assert [e.body for e in first.entries if e.is_noise] != [e.body for e in other.entries if e.is_noise]


# Reference oracles: the bodies of select_best_average_worst and
# select_grade_exemplars before both went through one greedy picker.


def _oracle_sub_dimension_sum(record) -> int:
    return sum(sum(getattr(record.gold, task).as_dict().values()) for task in ("task1", "task2"))


def _oracle_best_average_worst(corpus, year, pack, exclude_id=None, positions=(1, 2)):
    pool = corpus.pool(year, pack)
    eligible = [r for r in pool if r.id != exclude_id]
    if len(eligible) < 3:
        raise ValueError(f"need at least 3 exams in pack ({year}, {pack!r}), have {len(eligible)}")

    best = min(eligible, key=lambda r: (r.gold.final_as_grade(), _oracle_sub_dimension_sum(r), r.id))
    remaining = [r for r in eligible if r.id != best.id]
    worst = min(remaining, key=lambda r: (-r.gold.final_as_grade(), -_oracle_sub_dimension_sum(r), r.id))
    remaining = [r for r in remaining if r.id != worst.id]

    means = {}
    for task in ("task1", "task2"):
        for dim in DIMENSIONS:
            means[(task, dim)] = Fraction(sum(getattr(getattr(r.gold, task), dim) for r in pool), len(pool))

    def l1_to_means(record):
        return sum(
            abs(getattr(getattr(record.gold, task), dim) - means[(task, dim)])
            for task in ("task1", "task2")
            for dim in DIMENSIONS
        )

    average = min(remaining, key=lambda r: (l1_to_means(r), r.id))

    entries = tuple(
        _entry_for(record, position, None)
        for position in positions
        for record in (best, average, worst)
    )
    return ContextSelection(entries=entries)


def _oracle_grade_exemplars(corpus, year, pack, levels, exclude_id=None, manifest=None, task_position=None):
    pool = corpus.pool(year, pack)
    eligible = {r.id: r for r in pool if r.id != exclude_id}

    def distance(record, grade):
        if task_position is None:
            tasks = ("task1", "task2")
        else:
            tasks = (f"task{task_position}",)
        return sum(abs(getattr(getattr(record.gold, task), dim) - grade) for task in tasks for dim in DIMENSIONS)

    picked = []
    taken = set()
    for level in levels:
        manifest_id = (manifest or {}).get(level)
        if manifest_id and manifest_id in eligible and manifest_id not in taken:
            record = eligible[manifest_id]
        else:
            candidates = [r for r in eligible.values() if r.id not in taken]
            if not candidates:
                break
            record = min(candidates, key=lambda r: (distance(r, level), r.id))
        taken.add(record.id)
        picked.append((level, record))
    return picked


def _grade_tie_corpus():
    """Every grade vector appears twice or more, so every pick meets an exact tie."""
    vectors = [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4), (5, 5, 5, 5), (2, 3, 2, 3)]
    return make_corpus(
        [make_record(f"t-{copy}-{i}", grades, grades[::-1]) for i, grades in enumerate(vectors) for copy in "bac"]
    )


_LEVEL_SETS = sorted({levels for spec in TECHNIQUES.values() for _, levels in spec.calibration_groups})
_POSITIONS = ((1, 2), (1,), (2,))


@pytest.fixture(params=["synthetic_60_with_ties", "grade_ties"])
def oracle_corpus(request, corpus_60_with_ties):
    return corpus_60_with_ties if request.param == "synthetic_60_with_ties" else _grade_tie_corpus()


def _manifests(candidate, pool, levels):
    other = next(r.id for r in reversed(pool) if r.id != candidate.id)
    return [
        None,
        {},
        {levels[0]: candidate.id},  # the candidate itself: excluded
        {level: "missing-id" for level in levels},
        {levels[0]: other, levels[-1]: other},  # one id for two levels
        {level: r.id for level, r in zip(levels, pool)},
    ]


def test_baw_equals_reference_oracle(oracle_corpus):
    for candidate in oracle_corpus.records:
        for exclude_id in (candidate.id, None):
            for positions in _POSITIONS:
                args = (oracle_corpus, candidate.year, candidate.pack)
                got = select_best_average_worst(*args, exclude_id=exclude_id, positions=positions)
                assert got == _oracle_best_average_worst(*args, exclude_id=exclude_id, positions=positions)


_GRADES = st.tuples(*[st.integers(1, 5)] * 4)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(_GRADES, _GRADES), min_size=3, max_size=12))
@example(_EXACT_TIE_PACK)
def test_baw_equals_exact_oracle_on_random_packs(grades):
    corpus = _numbered_pack(grades)
    for exclude_id in (None, *(record.id for record in corpus.records)):
        if exclude_id is not None and len(grades) == 3:
            with pytest.raises(ValueError, match="at least 3"):
                select_best_average_worst(corpus, 2023, "pack-a", exclude_id=exclude_id)
            continue
        got = select_best_average_worst(corpus, 2023, "pack-a", exclude_id=exclude_id)
        assert got == _oracle_best_average_worst(corpus, 2023, "pack-a", exclude_id=exclude_id), exclude_id


def test_grade_exemplars_equal_reference_oracle(oracle_corpus):
    picks_seen = 0
    for candidate in oracle_corpus.records:
        pool = oracle_corpus.pool(candidate.year, candidate.pack)
        for levels in _LEVEL_SETS:
            for manifest in _manifests(candidate, pool, levels):
                for positions in _POSITIONS:
                    args = (oracle_corpus, candidate.year, candidate.pack, levels)
                    got = select_grade_exemplars(*args, exclude_id=candidate.id, manifest=manifest, positions=positions)
                    want = _oracle_grade_exemplars(
                        *args,
                        exclude_id=candidate.id,
                        manifest=manifest,
                        task_position=positions[0] if len(positions) == 1 else None,
                    )
                    assert [(level, r.id) for level, r in got] == [(level, r.id) for level, r in want]
                    assert candidate.id not in [r.id for _, r in got]
                    picks_seen += len(got)
    assert picks_seen > 0


def test_grade_exemplars_stop_when_the_pool_runs_out():
    corpus = make_corpus([make_record(f"s-{i}", (i,) * 4, (i,) * 4) for i in (1, 2, 3)])
    got = select_grade_exemplars(corpus, 2023, "pack-a", (1, 2, 3, 4, 5), exclude_id="s-2")
    want = _oracle_grade_exemplars(corpus, 2023, "pack-a", (1, 2, 3, 4, 5), exclude_id="s-2")
    assert [(level, r.id) for level, r in got] == [(level, r.id) for level, r in want] == [(1, "s-1"), (2, "s-3")]


def test_all_grades_context_equals_reference_oracle(oracle_corpus):
    mixed = ContextStrategy(MIXED_PER_TASK, task1=ContextStrategy(ALL_GRADES), task2=ContextStrategy(ALL_GRADES))
    for candidate in oracle_corpus.records:
        args = (oracle_corpus, candidate.year, candidate.pack, (1, 2, 3, 4, 5))

        def oracle_entries(positions):
            return tuple(
                _entry_for(record, position, None)
                for position in positions
                for _, record in _oracle_grade_exemplars(
                    *args, exclude_id=candidate.id, task_position=position if len(positions) == 1 else None
                )
            )

        both = build_context(oracle_corpus, None, candidate, ContextStrategy(ALL_GRADES))
        assert both.entries == oracle_entries((1, 2))
        per_task = build_context(oracle_corpus, None, candidate, mixed)
        assert per_task.entries == oracle_entries((1,)) + oracle_entries((2,))


# The index's integer path (count vectors packed into big-integer columns)
# against the float oracle. Every comparison below is exact.


def _table_corpus(vectors):
    """One record per vector, both task bodies mapped to that vector."""
    table = {f"text-{i:02d}": tuple(vector) for i, vector in enumerate(vectors)}
    records = [make_record(f"t-{i:02d}", (2,) * 4, (3,) * 4, body1=body, body2=body) for i, body in enumerate(table)]
    return make_corpus(records), table


def _table_scan(corpus, table, candidate, position):
    """The reference ranking for a table embedder: cosine_similarity."""
    query = table[candidate.task(position).body]
    scored = [
        (record.id, cosine_similarity(query, table[record.task(position).body]))
        for record in corpus.pool(candidate.year, candidate.pack)
        if record.id != candidate.id
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def _ranking(index, candidate, position):
    return [(record.id, similarity) for record, similarity in index.query(candidate, position)]


def _random_counts(seed, count, dim, high=4):
    rng = random.Random(seed)
    return [tuple(rng.randint(0, high) for _ in range(dim)) for _ in range(count)]


def test_integer_path_serves_every_fallback_query(corpus_60_with_ties):
    corpus = corpus_60_with_ties
    index = TaskTextIndex.build(corpus, FallbackEmbedder())
    assert index._pools and all(pool.columns and pool.counts for pool in index._pools.values())
    assert all(pool.vectors == () for pool in index._pools.values())  # no float copy
    for candidate in corpus.records:
        for position in (1, 2):
            assert _ranking(index, candidate, position) == _full_scan(corpus, candidate, position)


@pytest.mark.parametrize(
    "odd_vector",
    [(1, -1, 2, 0), (1.0, 0.5, 2.0, 0.0), (1.0, 3.0, 2.0, 0.0)],
    ids=["negative", "fractional", "whole-float"],
)
def test_pool_with_an_odd_vector_takes_the_float_path(odd_vector):
    vectors = _random_counts("float-path", 12, 4)
    vectors[5] = vectors[9]  # an exact tie
    corpus, table = _table_corpus(vectors + [odd_vector])
    index = TaskTextIndex.build(corpus, _TableEmbedder(table))
    pool = index._pools[(2023, "pack-a", 1)]
    assert pool.columns == () and pool.counts == ()
    for candidate in corpus.records:
        assert _ranking(index, candidate, 1) == _table_scan(corpus, table, candidate, 1)


def test_pool_with_squared_norms_past_2_53_takes_the_float_path():
    # (2**27 + 1)**2 + 2 rounds to another float when summed in floats than
    # when computed exactly, so only the float path matches the oracle.
    big = 2.0**27 + 1
    vectors = _random_counts("past-2-53", 6, 4) + [(big, 1.0, 0.0, 0.0), (big, 2.0, 0.0, 0.0)]
    corpus, table = _table_corpus(vectors)
    index = TaskTextIndex.build(corpus, _TableEmbedder(table))
    assert index._pools[(2023, "pack-a", 1)].columns == ()
    for candidate in corpus.records:
        assert _ranking(index, candidate, 1) == _table_scan(corpus, table, candidate, 1)


def test_int_pool_with_squared_norms_past_2_53_takes_the_integer_path():
    # The pair above as ints: ints are exact at any size, so the packed dot
    # products equal the oracle's int sums.
    big = 2**27 + 1
    vectors = _random_counts("past-2-53", 6, 4) + [(big, 1, 0, 0), (big, 2, 0, 0)]
    corpus, table = _table_corpus(vectors)
    index = TaskTextIndex.build(corpus, _TableEmbedder(table))
    pool = index._pools[(2023, "pack-a", 1)]
    assert pool.columns and pool.slot == 8
    assert big**2 + 4 > 2**53
    for candidate in corpus.records:
        assert _ranking(index, candidate, 1) == _table_scan(corpus, table, candidate, 1)


# Counts of 0-2 make many exact ties; counts up to 2**20 keep every squared
# norm, even of a doubled 8-dimensional vector, below 2**53, where whole
# floats sum exactly.
_DRAWN_COUNT = st.one_of(st.integers(0, 2), st.integers(0, 2**20))


@settings(deadline=None, max_examples=150)
@given(
    st.integers(1, 8).flatmap(lambda dim: st.lists(st.tuples(*[_DRAWN_COUNT] * dim).filter(any), min_size=2, max_size=8)),
    st.data(),
)
def test_int_pool_and_its_whole_float_copy_rank_alike(vectors, data):
    # Copies and doubled copies of drawn vectors: duplicates and exact ties.
    copies = data.draw(st.lists(st.tuples(st.sampled_from(vectors), st.sampled_from([1, 2])), min_size=1, max_size=4))
    vectors = vectors + [tuple(scale * count for count in vector) for vector, scale in copies]
    rankings = []
    for table_vectors, packed in ((vectors, True), ([tuple(map(float, vector)) for vector in vectors], False)):
        corpus, table = _table_corpus(table_vectors)
        index = TaskTextIndex.build(corpus, _TableEmbedder(table))
        assert bool(index._pools[(2023, "pack-a", 1)].columns) == packed
        ranking = [_ranking(index, candidate, 1) for candidate in corpus.records]
        assert ranking == [_table_scan(corpus, table, candidate, 1) for candidate in corpus.records]
        rankings.append(ranking)
    assert rankings[0] == rankings[1]


def test_integer_path_with_counts_past_a_32_bit_slot():
    vectors = _random_counts("big-counts", 16, 8)
    for i in (2, 7, 11):
        vectors[i] = (70_000,) + vectors[i][1:]
    vectors[4] = vectors[7]
    corpus, table = _table_corpus(vectors)
    index = TaskTextIndex.build(corpus, _TableEmbedder(table))
    pool = index._pools[(2023, "pack-a", 1)]
    assert pool.columns and 8 * pool.slot > 32
    assert 70_000**2 > 2**32
    for candidate in corpus.records:
        assert _ranking(index, candidate, 1) == _table_scan(corpus, table, candidate, 1)


def _squares_summing_to(total, dim):
    """Ints, padded with zeros to ``dim``, whose squares sum to ``total``."""
    parts = []
    while total:
        root = math.isqrt(total)
        parts.append(root)
        total -= root * root
    assert len(parts) <= dim
    return tuple(parts) + (0,) * (dim - len(parts))


@pytest.mark.parametrize(
    "largest_square, slot",
    [(255, 1), (256, 2), (65535, 2), (65536, 4), (2**32 - 1, 4), (2**32, 8)],
)
def test_integer_path_slot_is_the_narrowest_struct_width(largest_square, slot):
    # Two copies of the largest vector, mid-pool: their dot product with each
    # other and with themselves is the largest squared norm, so a slot too
    # narrow to hold it carries into a neighbour's slot.
    vectors = _random_counts(f"slot-{slot}", 12, 8)
    vectors[3] = vectors[8] = _squares_summing_to(largest_square, 8)
    corpus, table = _table_corpus(vectors)
    index = TaskTextIndex.build(corpus, _TableEmbedder(table))
    pool = index._pools[(2023, "pack-a", 1)]
    assert pool.columns and pool.slot == slot
    assert max(sum(x * x for x in vector) for vector in vectors) == largest_square
    for candidate in corpus.records:
        assert _ranking(index, candidate, 1) == _table_scan(corpus, table, candidate, 1)


def test_concurrent_queries_equal_the_serial_sweep(corpus_60_with_ties):
    corpus = corpus_60_with_ties
    index = TaskTextIndex.build(corpus, FallbackEmbedder())
    jobs = [(candidate, position) for candidate in corpus.records for position in (1, 2)]

    def sweep(job):
        candidate, position = job
        return _ranking(index, candidate, position)

    serial = [sweep(job) for job in jobs]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(sweep, job) for job in jobs]
            concurrent = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(switch_interval)
    assert concurrent == serial


# A query with a limit against the full ranking it cuts short.


def _assert_limits_keep_the_head(corpus, index, candidate, position):
    full = index.query(candidate, position)
    for k in range(1, len(corpus.pool(candidate.year, candidate.pack)) + 2):
        assert index.query(candidate, position, limit=k) == full[:k]


def test_query_limit_keeps_the_head_of_the_full_ranking(corpus_60_with_ties):
    corpus = corpus_60_with_ties
    index = TaskTextIndex.build(corpus, FallbackEmbedder())
    for candidate in corpus.records:
        for position in (1, 2):
            _assert_limits_keep_the_head(corpus, index, candidate, position)


def test_query_limit_on_a_float_path_pool():
    vectors = _random_counts("limit-float", 12, 4)
    vectors[5] = vectors[9]  # an exact tie
    corpus, table = _table_corpus(vectors + [(1.0, 0.5, 2.0, 0.0)])
    index = TaskTextIndex.build(corpus, _TableEmbedder(table))
    assert index._pools[(2023, "pack-a", 1)].columns == ()
    for candidate in corpus.records:
        _assert_limits_keep_the_head(corpus, index, candidate, 1)


def test_most_similar_warns_only_past_the_pool():
    corpus = make_corpus([make_record(f"w-{i}", (i,) * 4, (i,) * 4) for i in range(1, 5)])
    index = TaskTextIndex.build(corpus, FallbackEmbedder())
    candidate = corpus.get("w-2")
    assert select_most_similar(index, candidate, k=3).warnings == ()
    selection = select_most_similar(index, candidate, k=4)
    assert len(selection.entries) == 6
    assert selection.warnings == (
        "task 1: pool has only 3 texts, requested 4",
        "task 2: pool has only 3 texts, requested 4",
    )


# Every (positions, levels) group a technique asks for, and all five levels
# over both tasks.
_CALIBRATION_GROUPS = tuple(
    dict.fromkeys([group for plan in TECHNIQUES.values() for group in plan.calibration_groups] + [((1, 2), VALID_GRADES)])
)
_LEMMA_GRADES = st.tuples(*[st.integers(1, 3)] * 4)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.tuples(_LEMMA_GRADES, _LEMMA_GRADES), min_size=1, max_size=12),
    st.data(),
)
def test_a_candidate_outside_the_pack_wide_picks_gets_exactly_those_picks(grades, data):
    # No selection key depends on the candidate: pack means cover the full
    # pool and the manifest is per pack. So the picks made with no exclusion
    # are every candidate's picks but their own. Grades drawn from 1-3 make
    # many ties, which the id tie-break settles.
    corpus = make_corpus(
        [make_record(f"l-{i:02d}", task1, task2, body1="a", body2="b") for i, (task1, task2) in enumerate(grades)]
    )
    pool = corpus.pool(2023, "pack-a")
    ids = [record.id for record in pool]
    manifest = data.draw(st.none() | st.dictionaries(st.sampled_from(VALID_GRADES), st.sampled_from(ids + ["l-99"])))
    for positions, levels in _CALIBRATION_GROUPS:
        picks = select_grade_exemplars(corpus, 2023, "pack-a", levels, manifest=manifest, positions=positions)
        expected = [(level, record.id) for level, record in picks]
        for candidate in pool:
            if candidate.id not in {record.id for _, record in picks}:
                got = select_grade_exemplars(
                    corpus, 2023, "pack-a", levels, exclude_id=candidate.id, manifest=manifest, positions=positions
                )
                assert [(level, record.id) for level, record in got] == expected, (candidate.id, positions, levels)
    if len(pool) < 4:
        return
    for positions in ((1, 2), (1,), (2,)):
        shared = select_best_average_worst(corpus, 2023, "pack-a", positions=positions)
        for candidate in pool:
            if candidate.id not in {entry.exam_id for entry in shared.entries}:
                got = select_best_average_worst(corpus, 2023, "pack-a", exclude_id=candidate.id, positions=positions)
                assert got == shared, (candidate.id, positions)
