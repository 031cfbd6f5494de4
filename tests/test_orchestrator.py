from __future__ import annotations

import json
import logging
import time
from dataclasses import replace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from matura_grader import runner
from matura_grader.clients import ChatClient, ChatTransportError, MockChatClient, assessment_json
from matura_grader.corpus import Rubric
from matura_grader.grading import DIMENSIONS, FAIL, HALF_TO_BETTER, HALF_TO_WORSE, TASKS, VALID_GRADES, aggregate
from matura_grader.orchestrator import (
    ORDERINGS,
    _first_json_object,
    CalibrationItem,
    CalibrationUser,
    CandidateUser,
    RevealGold,
    build_few_shot_script,
    build_zero_shot,
    grade_candidate,
    ordering_sequence,
    parse_assessment,
)
from matura_grader.prompts import (
    build_system_prompt,
    render_calibration_message,
    render_reference_block,
    render_reveal_gold,
    template,
)
from matura_grader.retrieval import ContextSelection, _entry_for, select_best_average_worst

from conftest import make_corpus, make_record
from helpers import ScriptedChatClient


@pytest.fixture(scope="module")
def rubric(synthetic_dirs_30_module=None):
    # a small but complete rubric for the two pack text types
    types = ("Literary Interpretation", "Letter to the Editor")
    return {
        t: Rubric(
            f"Kurzbeschreibung {t}.",
            {dim: {g: f"{t}/{dim}/Note {g}: spezifische Anforderung." for g in (1, 2, 3, 4)} for dim in DIMENSIONS},
        )
        for t in types
    }


@pytest.fixture(scope="module")
def small_corpus():
    return make_corpus(
        [
            make_record("s-01", (1, 1, 1, 1), (1, 1, 1, 1)),
            make_record("s-02", (2, 2, 2, 2), (2, 2, 2, 2)),
            make_record("s-03", (3, 3, 3, 3), (3, 3, 3, 3)),
            make_record("s-04", (4, 4, 4, 4), (4, 4, 4, 4)),
            make_record("s-05", (5, 5, 5, 5), (5, 5, 5, 5)),
            make_record("s-06", (2, 3, 2, 3), (3, 2, 3, 2)),
        ]
    )


def test_system_prompt_contains_all_descriptors_verbatim(rubric):
    types = ("Literary Interpretation", "Letter to the Editor")
    prompt = build_system_prompt(rubric, types)
    for text_type in types:
        for dim in DIMENSIONS:
            for grade in (1, 2, 3, 4):
                assert rubric[text_type].descriptors[dim][grade] in prompt
    assert template("output_schema") in prompt
    assert "Note 5" in prompt  # failure semantics of grade 5


def test_system_prompt_deterministic(rubric):
    types = ("Literary Interpretation", "Letter to the Editor")
    assert build_system_prompt(rubric, types) == build_system_prompt(rubric, types)


def test_system_prompt_missing_rubric_names_type(rubric):
    with pytest.raises(KeyError, match="Commentary"):
        build_system_prompt(rubric, ("Literary Interpretation", "Commentary"))


def test_cot_adds_reasoning_instruction(rubric):
    types = ("Literary Interpretation", "Letter to the Editor")
    plain = build_system_prompt(rubric, types)
    cot = build_system_prompt(rubric, types, cot=True)
    assert plain in cot
    assert "Schritt für Schritt" in cot


def test_zero_shot_baseline_has_only_candidate_block(rubric, small_corpus):
    candidate = small_corpus.get("s-03")
    script = build_zero_shot(candidate, ContextSelection(), rubric)
    (turn,) = script.turns
    assert isinstance(turn, CandidateUser)
    assert candidate.task(1).body in turn.content
    assert candidate.task(2).body in turn.content
    assert "Referenztext" not in turn.content


def test_zero_shot_renders_references_with_gold(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    ctx = select_best_average_worst(small_corpus, 2023, "pack-a", exclude_id=candidate.id)
    script = build_zero_shot(candidate, ctx, rubric)
    (turn,) = script.turns
    assert turn.content.count("Referenztext R") == 6  # 3 references x 2 tasks
    for entry in ctx.entries:
        assert entry.body in turn.content
        for dim in DIMENSIONS:
            assert f": {entry.gold[dim]}" in turn.content


def test_zero_shot_never_leaks_candidate_gold(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    ctx = select_best_average_worst(small_corpus, 2023, "pack-a", exclude_id=candidate.id)
    script = build_zero_shot(candidate, ctx, rubric)
    leak1 = render_reference_block(_entry_for(candidate, 1, None), "R1", candidate.task(1).text_type)
    leak2 = render_reference_block(_entry_for(candidate, 2, None), "R2", candidate.task(2).text_type)
    for message in script.outbound_texts():
        assert leak1 not in message
        assert leak2 not in message
    assert candidate.id not in [e.exam_id for e in ctx.entries]


def test_zero_shot_token_budget_drops_from_end(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    ctx = select_best_average_worst(small_corpus, 2023, "pack-a", exclude_id=candidate.id)
    unlimited = build_zero_shot(candidate, ctx, rubric)
    (full_turn,) = unlimited.turns
    budget = (len(unlimited.system) + len(full_turn.content)) // 4 - 50
    script = build_zero_shot(candidate, ctx, rubric, token_budget=budget)
    assert script.dropped_context >= 1
    (turn,) = script.turns
    kept = ctx.entries[: len(ctx.entries) - script.dropped_context]
    dropped = ctx.entries[len(ctx.entries) - script.dropped_context :]
    for entry in kept:
        assert entry.body in turn.content
    for entry in dropped:
        assert entry.body not in turn.content
    assert candidate.task(1).body in turn.content  # the candidate is never dropped


def test_zero_shot_budgeted_message_is_the_kept_prefix_message(rubric, small_corpus, caplog):
    # Every budget from "drop nothing" down to 0 (which drops every entry)
    # yields, byte for byte, the unbudgeted message of the kept prefix.
    candidate = small_corpus.get("s-06")
    ctx = select_best_average_worst(small_corpus, 2023, "pack-a", exclude_id=candidate.id)
    unlimited = build_zero_shot(candidate, ctx, rubric)
    full = (len(unlimited.system) + len(unlimited.turns[0].content)) // 4
    no_context = build_zero_shot(candidate, ContextSelection(), rubric)
    bare_estimate = (len(no_context.system) + len(no_context.turns[0].content)) // 4
    caplog.set_level(logging.WARNING, logger="matura_grader.orchestrator")
    seen = set()
    for budget in range(full, -1, -25):
        caplog.clear()
        script = build_zero_shot(candidate, ctx, rubric, token_budget=budget)
        kept = ctx.entries[: len(ctx.entries) - script.dropped_context]
        expected = build_zero_shot(candidate, replace(ctx, entries=kept), rubric)
        assert script.turns == expected.turns, budget
        assert script.system == unlimited.system
        seen.add(script.dropped_context)
        warnings = [r.getMessage() for r in caplog.records]
        expected_warnings = []
        if script.dropped_context:
            expected_warnings.append(
                f"dropped {script.dropped_context} context text(s) for s-06 to fit the {budget}-token budget"
            )
        if budget < bare_estimate:
            expected_warnings.append(f"script for s-06 estimated at {bare_estimate} tokens exceeds budget {budget}")
        assert warnings == expected_warnings, budget
    assert {0, len(ctx.entries)} <= seen
    bare = build_zero_shot(candidate, ctx, rubric, token_budget=0).turns[0].content
    assert template("context_intro") not in bare
    assert bare == build_zero_shot(candidate, ContextSelection(), rubric).turns[0].content


def test_baseline_script_over_budget_warns_once(rubric, small_corpus, caplog):
    candidate = small_corpus.get("s-06")
    script = build_zero_shot(candidate, ContextSelection(), rubric)
    estimate = (len(script.system) + len(script.turns[0].content)) // 4
    caplog.set_level(logging.WARNING, logger="matura_grader.orchestrator")
    assert build_zero_shot(candidate, ContextSelection(), rubric, token_budget=estimate) == script
    assert caplog.records == []
    assert build_zero_shot(candidate, ContextSelection(), rubric, token_budget=estimate - 1) == script
    assert [r.getMessage() for r in caplog.records] == [
        f"script for s-06 estimated at {estimate} tokens exceeds budget {estimate - 1}"
    ]


def _items(corpus, levels, positions=(1, 2)):
    by_level = {1: "s-01", 2: "s-02", 3: "s-03", 4: "s-04", 5: "s-05"}
    return [CalibrationItem(corpus.get(by_level[g]), g, positions) for g in levels]


def test_ordering_sequences():
    assert ordering_sequence("base", {1, 3, 5}) == (1, 3, 5)
    assert ordering_sequence("inverted", {1, 3, 5}) == (5, 3, 1)
    assert ordering_sequence("mixed15243", {1, 2, 3, 4, 5}) == (1, 5, 2, 4, 3)
    assert ordering_sequence("mixed153", {1, 3, 5}) == (1, 5, 3)
    assert ordering_sequence("mixed15243", {1, 3, 5}) == (1, 5, 3)
    with pytest.raises(ValueError):
        ordering_sequence("zufällig", {1, 2})


def _ordering_sequence_oracle(scheme, levels):
    """The scheme-by-scheme branches that ``ORDERINGS`` replaced."""
    if scheme == "base":
        return tuple(sorted(levels))
    if scheme == "inverted":
        return tuple(sorted(levels, reverse=True))
    mixed = {"mixed15243": (1, 5, 2, 4, 3), "mixed153": (1, 5, 3)}
    if scheme in mixed:
        return tuple(g for g in mixed[scheme] if g in levels)
    raise ValueError(f"unknown ordering scheme {scheme!r}")


_LEVEL_SUBSETS = [
    {grade for bit, grade in enumerate(VALID_GRADES) if mask >> bit & 1} for mask in range(1, 2 ** len(VALID_GRADES))
]


@pytest.mark.parametrize("scheme", list(ORDERINGS))
def test_ordering_sequence_matches_the_branch_oracle_on_every_level_subset(scheme):
    assert len(_LEVEL_SUBSETS) == 31
    for levels in _LEVEL_SUBSETS:
        assert ordering_sequence(scheme, levels) == _ordering_sequence_oracle(scheme, levels)


def test_few_shot_base_order_and_turn_protocol(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    script = build_few_shot_script(_items(small_corpus, (1, 3, 5)), "base", candidate, rubric)
    calibration = [t for t in script.turns if isinstance(t, CalibrationUser)]
    reveals = [t for t in script.turns if isinstance(t, RevealGold)]
    assert [t.grade_level for t in calibration] == [1, 3, 5]
    assert len(reveals) == len(calibration) == 3
    # strict alternation, then exactly one terminal candidate turn
    for i in range(0, 6, 2):
        assert isinstance(script.turns[i], CalibrationUser)
        assert isinstance(script.turns[i + 1], RevealGold)
    assert isinstance(script.turns[-1], CandidateUser)
    assert sum(isinstance(t, CandidateUser) for t in script.turns) == 1


def test_few_shot_inverted_and_mixed_orders(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    inverted = build_few_shot_script(_items(small_corpus, (1, 3, 5)), "inverted", candidate, rubric)
    assert [t.grade_level for t in inverted.turns if isinstance(t, CalibrationUser)] == [5, 3, 1]
    mixed = build_few_shot_script(_items(small_corpus, (1, 2, 3, 4, 5)), "mixed15243", candidate, rubric)
    assert [t.grade_level for t in mixed.turns if isinstance(t, CalibrationUser)] == [1, 5, 2, 4, 3]


def test_few_shot_grouped_mixed_context(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    items = _items(small_corpus, (1, 3, 5), positions=(1,)) + _items(small_corpus, (1, 2, 3, 4, 5), positions=(2,))
    script = build_few_shot_script(items, "base", candidate, rubric)
    calibration = [t for t in script.turns if isinstance(t, CalibrationUser)]
    assert [t.positions for t in calibration] == [(1,)] * 3 + [(2,)] * 5
    assert [t.grade_level for t in calibration] == [1, 3, 5, 1, 2, 3, 4, 5]


def _rounds_oracle(calib, scheme):
    """The per-level rescan that the round list replaced: for each positions
    group, for each level of the scheme's sequence, every item at that level."""
    groups = {}
    for item in calib:
        groups.setdefault(item.positions, []).append(item)
    rounds = []
    for positions, items in groups.items():
        for level in ordering_sequence(scheme, {item.level for item in items}):
            for item in items:
                if item.level != level:
                    continue
                rounds.append((item.exam.id, item.level, positions))
    return rounds


@pytest.mark.parametrize("scheme", list(ORDERINGS))
def test_few_shot_rounds_match_the_rescan_oracle(rubric, small_corpus, scheme):
    candidate = small_corpus.get("s-06")
    for levels in _LEVEL_SUBSETS:
        # Levels listed from high to low, plus a second exam at the lowest
        # level, so the order is the scheme's and ties keep their listing.
        listed = _items(small_corpus, sorted(levels, reverse=True))
        listed.append(CalibrationItem(candidate, min(levels)))
        split = [replace(item, positions=((1,), (2,))[i % 2]) for i, item in enumerate(listed)]
        for calib in (listed, split):
            script = build_few_shot_script(calib, scheme, candidate, rubric)
            rounds = _rounds_oracle(calib, scheme)
            calibration = [t for t in script.turns if isinstance(t, CalibrationUser)]
            reveals = [t for t in script.turns if isinstance(t, RevealGold)]
            assert [(t.exam_id, t.grade_level, t.positions) for t in calibration] == rounds, (scheme, levels)
            for index, (exam_id, _, positions) in enumerate(rounds, start=1):
                exam = small_corpus.get(exam_id)
                assert calibration[index - 1].content == render_calibration_message(index, exam, positions)
                assert reveals[index - 1].content == render_reveal_gold(exam, positions)
            assert [type(t) for t in script.turns] == [CalibrationUser, RevealGold] * len(rounds) + [CandidateUser]


def test_few_shot_requires_calibration(rubric, small_corpus):
    with pytest.raises(ValueError):
        build_few_shot_script([], "base", small_corpus.get("s-06"), rubric)


def test_few_shot_reveals_reference_gold_not_candidate_gold(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    script = build_few_shot_script(_items(small_corpus, (1, 3, 5)), "base", candidate, rubric)
    reveals = [t for t in script.turns if isinstance(t, RevealGold)]
    assert "1" in reveals[0].content
    leak1 = render_reference_block(_entry_for(candidate, 1, None), "R1", candidate.task(1).text_type)
    for message in script.outbound_texts():
        assert leak1 not in message


def test_parse_assessment_accepts_schema_instance():
    raw = assessment_json({d: 2 for d in DIMENSIONS}, {d: 3 for d in DIMENSIONS}, feedback="Gut strukturiert.")
    assessment = parse_assessment(raw)
    assert assessment.valid
    assert assessment.task1["content"] == 2
    assert assessment.task2["style_expression"] == 3
    assert assessment.feedback["task1"] == "Gut strukturiert."


def test_parse_assessment_grade_out_of_range():
    raw = json.dumps(
        {
            "task1": {"content": 6, "structure": 2, "language_norms": 2, "style_expression": 2, "feedback": ""},
            "task2": {"content": 2, "structure": 2, "language_norms": 2, "style_expression": 2, "feedback": ""},
        }
    )
    assessment = parse_assessment(raw)
    assert not assessment.valid
    assert "grade out of range: task1.content" in assessment.failure_reason


def test_parse_assessment_tolerates_prose_and_fences():
    sheet = assessment_json({d: 1 for d in DIMENSIONS}, {d: 1 for d in DIMENSIONS})
    raw = f"Hier ist meine Bewertung:\n```json\n{sheet}\n```\nViel Erfolg!"
    assessment = parse_assessment(raw)
    assert assessment.valid


def test_parse_assessment_missing_task():
    assessment = parse_assessment('{"task1": {"content": 1, "structure": 1, "language_norms": 1, "style_expression": 1}}')
    assert not assessment.valid
    assert "missing task2" in assessment.failure_reason


def test_parse_assessment_non_integer_grade():
    raw = json.dumps(
        {
            "task1": {"content": 2.5, "structure": 2, "language_norms": 2, "style_expression": 2},
            "task2": {"content": 2, "structure": 2, "language_norms": 2, "style_expression": 2},
        }
    )
    assessment = parse_assessment(raw)
    assert not assessment.valid
    assert "grade not an integer: task1.content" in assessment.failure_reason


def test_parse_assessment_missing_grade():
    task1 = {d: 2 for d in DIMENSIONS if d != "content"}
    assessment = parse_assessment(json.dumps({"task1": task1, "task2": {d: 2 for d in DIMENSIONS}}))
    assert not assessment.valid
    assert "missing grade: task1.content" in assessment.failure_reason


def test_parse_assessment_feedback_must_be_string():
    raw = json.dumps(
        {
            "task1": {"content": 2, "structure": 2, "language_norms": 2, "style_expression": 2, "feedback": 7},
            "task2": {"content": 2, "structure": 2, "language_norms": 2, "style_expression": 2},
        }
    )
    assessment = parse_assessment(raw)
    assert not assessment.valid
    assert "feedback must be a string: task1.feedback" in assessment.failure_reason


def test_parse_assessment_no_json():
    assessment = parse_assessment("Leider kann ich das nicht bewerten.")
    assert not assessment.valid
    assert assessment.failure_reason == "no JSON object found"


_DRAFT = assessment_json({d: 2 for d in DIMENSIONS}, {d: 2 for d in DIMENSIONS})
_ANSWER = assessment_json({d: 4 for d in DIMENSIONS}, {d: 4 for d in DIMENSIONS})


@pytest.mark.parametrize("lead", ["", "  \n\t"], ids=["at_start", "after_whitespace"])
def test_parse_assessment_grades_the_answer_after_the_thinking_not_its_draft(lead):
    assessment = parse_assessment(f"{lead}<think>Entwurf: {_DRAFT}\nNein, strenger.</think>\n{_ANSWER}")
    assert assessment.valid
    assert assessment.task1 == assessment.task2 == {d: 4 for d in DIMENSIONS}


@pytest.mark.parametrize("lead", ["", "\n "], ids=["at_start", "after_whitespace"])
def test_parse_assessment_rejects_a_reply_that_ends_inside_its_thinking(lead):
    assessment = parse_assessment(f"{lead}<think>Entwurf: {_DRAFT}\nVielleicht doch")
    assert not assessment.valid
    assert assessment.failure_reason == "reply ends inside its thinking"


def test_parse_assessment_reads_a_quoted_closing_tag_in_the_answer_as_text():
    sheet = assessment_json({d: 4 for d in DIMENSIONS}, {d: 4 for d in DIMENSIONS}, feedback="kein </think> hier")
    assessment = parse_assessment(f"<think>{_DRAFT}</think>{sheet}")
    assert assessment.valid
    assert assessment.task1["content"] == 4
    assert assessment.feedback["task1"] == "kein </think> hier"


def test_parse_assessment_searches_from_the_start_a_reply_that_think_does_not_open():
    assessment = parse_assessment(f"Vorab. <think>{_DRAFT}</think> {_ANSWER}")
    assert assessment.valid
    assert assessment.task1 == {d: 2 for d in DIMENSIONS}


def test_grade_candidate_retries_a_reply_that_ends_inside_its_thinking(rubric, small_corpus):
    script = build_zero_shot(small_corpus.get("s-06"), ContextSelection(), rubric)
    unclosed = f"<think>{_DRAFT}"
    outcome = grade_candidate(ScriptedChatClient([unclosed, _ANSWER]), script, retries=1)
    assert outcome.valid
    assert outcome.attempts == 2
    assert outcome.assessment.task1 == {d: 4 for d in DIMENSIONS}
    assert [m["content"] for m in outcome.transcript if m["role"] == "assistant"] == [unclosed, _ANSWER]


def _first_json_object_by_slicing(raw: str) -> dict | None:
    """Reference extractor: decode a fresh copy of the text from every brace."""
    decoder = json.JSONDecoder()
    for start, char in enumerate(raw):
        if char != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(raw[start:])
        except (ValueError, RecursionError):
            continue
        if isinstance(obj, dict):
            return obj
    return None


_SHEET = assessment_json({d: 2 for d in DIMENSIONS}, {d: 6 for d in DIMENSIONS})
_JSONISH = st.sampled_from(
    [
        "{", "}", "[", "]", ":", ",", " ", "\n", '"', "\\", "```json\n", "```", "Bewertung:",
        '"task1"', '"task2"', '"content"', '"feedback"', "1", "2.5", "-", "null", "true", "NaN",
        "Infinity", "9" * 5000, _SHEET, _SHEET[:40], _SHEET[40:],
    ]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20,
)


@settings(deadline=None)
@given(
    st.one_of(
        st.text(),
        st.lists(_JSONISH, max_size=30).map("".join),
        st.tuples(st.text(), _JSON_VALUES.map(json.dumps), st.text()).map("".join),
    )
)
def test_parse_assessment_never_raises_and_extractor_matches_slicing(raw):
    assert repr(_first_json_object(raw)) == repr(_first_json_object_by_slicing(raw))
    parse_assessment(raw)


def _sheets(grades):
    """JSON grade sheets with every grade drawn from ``grades``."""
    task = st.fixed_dictionaries(
        {dim: grades for dim in DIMENSIONS}, optional={"feedback": st.text() | st.integers() | st.none()}
    )
    return st.fixed_dictionaries({name: task for name in TASKS}, optional={"note": _JSON_VALUES}).map(json.dumps)


_ANY_GRADE = st.sampled_from(VALID_GRADES) | st.integers(-1, 7) | st.booleans() | st.floats() | st.text(max_size=2)


@settings(deadline=None)
@example(assessment_json({d: 1 for d in DIMENSIONS}, {d: 5 for d in DIMENSIONS}))
@example(assessment_json({d: 5 for d in DIMENSIONS}, {d: 4 for d in DIMENSIONS}))
@given(
    st.one_of(
        st.text(),
        st.lists(_JSONISH, max_size=30).map("".join),
        st.tuples(st.text(), _sheets(st.sampled_from(VALID_GRADES)) | _sheets(_ANY_GRADE), st.text()).map("".join),
    )
)
def test_valid_assessment_always_aggregates(raw):
    assessment = parse_assessment(raw)
    event(f"valid={assessment.valid}")
    complete = all(
        isinstance(block, dict) and block.keys() == set(DIMENSIONS) and set(block.values()) <= set(VALID_GRADES)
        for block in (assessment.task1, assessment.task2)
    )
    # Only a non-string feedback fails a sheet whose two blocks hold every grade.
    assert assessment.valid or not complete or "feedback must be a string" in assessment.failure_reason
    assert complete or not assessment.valid
    if not assessment.valid:
        return
    for half in (HALF_TO_BETTER, HALF_TO_WORSE):
        outcome = aggregate({task: getattr(assessment, task) for task in TASKS}, half)
        assert outcome.final == FAIL or outcome.final in VALID_GRADES


@pytest.mark.parametrize(
    "raw",
    ['{"task1": ' + "1" * 5000 + "}", '{"a": ' * 5000],
    ids=["past_integer_digit_limit", "past_recursion_limit"],
)
def test_parse_assessment_skips_undecodable_candidates(raw):
    assessment = parse_assessment(raw + " " + _SHEET)
    assert assessment.task1 == {d: 2 for d in DIMENSIONS}
    assert assessment.failure_reason.startswith("grade out of range: task2.content")


def test_parse_assessment_rejects_a_long_unclosed_reply_quickly():
    raw = '{"a": ' * 6000  # 36 KB of objects that never close
    started = time.perf_counter()
    assessment = parse_assessment(raw)
    elapsed = time.perf_counter() - started
    assert assessment.failure_reason == "no JSON object found"
    assert elapsed < 0.25


def test_parse_assessment_finds_the_sheet_after_objects_closed_past_the_depth_cap():
    # 5000 nested objects that close again but whose innermost value is
    # missing: none decodes, and each nests past the cap, so the sweep rules
    # them out before the work cap is spent.
    assessment = parse_assessment('{"a": ' * 5000 + "}" * 5000 + " " + _SHEET)
    assert assessment.task1 == {d: 2 for d in DIMENSIONS}


@pytest.mark.parametrize(
    "raw, expected",
    [
        ('{ x {"a": "{"} {"b": 1}', {"a": "{"}),
        ('{ x {"a": "}"} {"b": 1}', {"a": "}"}),
        ('{ x {"a": "\\"{"} {"b": 1}', {"a": '"{'}),
        ('{ x {"a": "\\\\"} {"b": 1}', {"a": "\\"}),
    ],
    ids=["open_brace_in_string", "close_brace_in_string", "escaped_quote", "escaped_backslash"],
)
def test_first_json_object_reads_brackets_in_strings_after_a_failed_candidate(raw, expected):
    assert _first_json_object(raw) == expected == _first_json_object_by_slicing(raw)


def _nested(levels: int) -> str:
    return '{"a": ' * (levels - 1) + "{}" + "}" * (levels - 1)


def test_first_json_object_skips_an_object_nested_past_the_cap():
    assert _first_json_object(_nested(64)) == json.loads(_nested(64))
    # From the first brace the object nests 65 deep; from the second, 64.
    assert _first_json_object(_nested(65)) == json.loads(_nested(64))
    # Arrays count as levels too.
    too_deep = '{"a": ' + "[" * 63 + "{}" + "]" * 63 + "}"
    assert _first_json_object(too_deep) == {}
    deep = '{"a": ' + "[" * 62 + "{}" + "]" * 62 + "}"
    assert _first_json_object(deep) == json.loads(deep)


def test_parse_serialize_round_trip():
    raw = assessment_json({d: 4 for d in DIMENSIONS}, {d: 2 for d in DIMENSIONS}, feedback="Passt.")
    first = parse_assessment(raw)
    second = parse_assessment(assessment_json(first.task1, first.task2, feedback=first.feedback["task1"]))
    assert second.valid
    assert second.task1 == first.task1
    assert second.task2 == first.task2
    assert second.feedback == first.feedback


def test_grade_candidate_always_grade_mock(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    script = build_zero_shot(candidate, ContextSelection(), rubric)
    outcome = grade_candidate(MockChatClient("always_grade", grade=3), script)
    assert outcome.valid
    assert all(v == 3 for v in outcome.assessment.task1.values())
    assert runner._outcome_record(outcome, "better")["derived_final"] == 3
    assert outcome.attempts == 1


def test_grade_candidate_echo_gold_mock(rubric, small_corpus):
    candidate = small_corpus.get("s-02")
    script = build_zero_shot(candidate, ContextSelection(), rubric)
    outcome = grade_candidate(MockChatClient("echo_gold", corpus=small_corpus), script)
    assert outcome.valid
    assert outcome.assessment.task1 == candidate.gold.task1.as_dict()
    assert runner._outcome_record(outcome, "better")["derived_final"] == candidate.gold.final


def test_grade_candidate_echo_gold_on_failed_exam(rubric, small_corpus):
    candidate = small_corpus.get("s-05")
    script = build_zero_shot(candidate, ContextSelection(), rubric)
    outcome = grade_candidate(MockChatClient("echo_gold", corpus=small_corpus), script)
    assert outcome.valid
    assert runner._outcome_record(outcome, "better")["derived_final"] == FAIL


def test_grade_candidate_malformed_without_retries(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    script = build_zero_shot(candidate, ContextSelection(), rubric)
    outcome = grade_candidate(ScriptedChatClient(["kaputt"]), script, retries=0)
    assert not outcome.valid
    assert outcome.assessment.failure_reason == "no JSON object found"
    assert outcome.attempts == 1
    assert runner._outcome_record(outcome, "better")["derived_final"] is None


def test_grade_candidate_retry_reformats(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    script = build_zero_shot(candidate, ContextSelection(), rubric)
    good = assessment_json({d: 2 for d in DIMENSIONS}, {d: 2 for d in DIMENSIONS})
    outcome = grade_candidate(ScriptedChatClient(["kaputt", good]), script, retries=1)
    assert outcome.valid
    assert outcome.attempts == 2
    assert any("JSON-Schema" in m["content"] for m in outcome.transcript if m["role"] == "user")


def test_grade_candidate_runs_calibration_protocol(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    script = build_few_shot_script(_items(small_corpus, (1, 3, 5)), "base", candidate, rubric)
    client = MockChatClient("always_grade", grade=2)
    outcome = grade_candidate(client, script)
    assert outcome.valid
    assert len(outcome.guesses) == 3
    reveal_count = sum(
        1
        for m in outcome.transcript
        if m["role"] == "user" and m["content"].startswith("Die tatsächliche Bewertung")
    )
    assert reveal_count == 3
    # model turns: one per calibration round plus the final assessment
    assert sum(1 for m in outcome.transcript if m["role"] == "assistant") == 4


def test_grade_candidate_deterministic_with_mock(rubric, small_corpus):
    candidate = small_corpus.get("s-06")
    script = build_few_shot_script(_items(small_corpus, (1, 3, 5)), "base", candidate, rubric)
    client = MockChatClient("keyword_heuristic")
    first = grade_candidate(client, script)
    second = grade_candidate(client, script)
    assert first == second


class _DroppedAtCall(ChatClient):
    """Replays ``replies`` in order and raises a transport error at call ``failing``."""

    def __init__(self, replies, failing):
        self.replies = list(replies)
        self.failing = failing
        self.calls = 0

    def chat(self, messages, exam_id=None):
        self.calls += 1
        if self.calls == self.failing:
            raise ChatTransportError("chat request failed: verbindung abgebrochen")
        return self.replies[self.calls - 1]

    def identity(self):
        return "dropped"


@pytest.mark.parametrize(
    "failing, attempts, sent",
    [
        pytest.param(1, 0, 2, id="first-guess"),
        pytest.param(4, 1, 11, id="final-answer"),
        pytest.param(5, 2, 13, id="reformat"),
    ],
)
def test_grade_candidate_transport_error_keeps_the_conversation_so_far(rubric, small_corpus, failing, attempts, sent):
    candidate = small_corpus.get("s-06")
    script = build_few_shot_script(_items(small_corpus, (1, 3, 5)), "base", candidate, rubric)
    replies = ["Schätzung 1", "Schätzung 2", "Schätzung 3", "kaputt"]
    outcome = grade_candidate(_DroppedAtCall(replies, failing), script, retries=1)
    assert outcome.error == "chat request failed: verbindung abgebrochen"
    assert outcome.assessment is None
    assert runner._outcome_record(outcome, "better")["derived_final"] is None
    assert not outcome.valid
    assert outcome.attempts == attempts
    assert outcome.guesses == tuple(replies[: min(failing - 1, 3)])
    # The whole conversation: each round's guess before its reveal, then
    # the final answer and the reformat request.
    def user(kind):
        return [{"role": "user", "content": t.content} for t in script.turns if isinstance(t, kind)]

    said = [{"role": "assistant", "content": reply} for reply in replies]
    conversation = [{"role": "system", "content": script.system}]
    for round_turns in zip(user(CalibrationUser), said, user(RevealGold)):
        conversation += round_turns
    conversation += user(CandidateUser) + [said[3], {"role": "user", "content": template("reformat_instruction")}]
    assert outcome.transcript == tuple(conversation[:sent])


def test_written_final_grade_rounds_exact_halves_as_configured(rubric, small_corpus):
    # Every section averages (2, 3), so K1, K2 and K3 round to 2 or to 3 together.
    task = {"content": 2, "structure": 3, "language_norms": 3, "style_expression": 2}
    script = build_zero_shot(small_corpus.get("s-06"), ContextSelection(), rubric)
    valid = grade_candidate(ScriptedChatClient([assessment_json(task, task)]), script)
    invalid = grade_candidate(ScriptedChatClient(["kaputt"]), script)
    errored = grade_candidate(_DroppedAtCall([], failing=1), script)
    assert valid.valid and not invalid.valid and errored.error is not None
    assert runner._outcome_record(valid, HALF_TO_BETTER)["derived_final"] == 2
    assert runner._outcome_record(valid, HALF_TO_WORSE)["derived_final"] == 3
    for half in (HALF_TO_BETTER, HALF_TO_WORSE):
        assert runner._outcome_record(invalid, half)["derived_final"] is None
        assert runner._outcome_record(errored, half)["derived_final"] is None
