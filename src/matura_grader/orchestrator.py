"""Conversation building, turn driving and reply parsing.

This module stops at the model's grade sheet: ``grade_candidate`` drives the
turns and ``parse_assessment`` checks the reply, and a sheet is valid exactly
when it has no ``failure_reason``. Folding a valid sheet into section and
final grades (``grading.aggregate``) is left to the prediction writer and
the report reader in ``runner``.

Zero-shot scripts put reference texts (with their gold grades) and the
candidate's two tasks into a single user message. Few-shot scripts walk the
model through calibration rounds — guess the grades of a reference text,
receive the true grades — in a configurable grade order before the
candidate is presented. The candidate's own gold grades never enter any
outbound message. Within a run, identical guess requests of different
candidates share one chat call (``GuessTable``).
"""

from __future__ import annotations

import json
import logging
import re
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

from .clients import ChatClient, ChatTransportError
from .corpus import ExamRecord, Rubric
from .grading import DIMENSIONS, TASKS, VALID_GRADES
from .prompts import (
    build_system_prompt,
    render_calibration_message,
    render_candidate_block,
    render_context_blocks,
    render_reveal_gold,
    template,
)
from .retrieval import ContextSelection

logger = logging.getLogger(__name__)

# Presentation order of calibration grade levels, per scheme.
ORDERINGS: dict[str, tuple[int, ...]] = {
    "base": VALID_GRADES,
    "inverted": VALID_GRADES[::-1],
    "mixed15243": (1, 5, 2, 4, 3),
    "mixed153": (1, 5, 3),
}

CHARS_PER_TOKEN = 4


def ordering_sequence(scheme: str, levels: set[int]) -> tuple[int, ...]:
    """The grade sequence a scheme prescribes for the available levels."""
    if scheme not in ORDERINGS:
        raise ValueError(f"unknown ordering scheme {scheme!r}")
    return tuple(grade for grade in ORDERINGS[scheme] if grade in levels)


@dataclass(frozen=True)
class CalibrationUser:
    content: str
    exam_id: str
    grade_level: int
    positions: tuple[int, ...]


@dataclass(frozen=True)
class RevealGold:
    """The true grades of the round's reference text; the model's guess is
    requested just before this turn is sent."""

    content: str


@dataclass(frozen=True)
class CandidateUser:
    content: str


Turn = CalibrationUser | RevealGold | CandidateUser


@dataclass(frozen=True)
class ConversationScript:
    system: str
    turns: tuple[Turn, ...]
    candidate_id: str
    dropped_context: int = 0

    def outbound_texts(self) -> tuple[str, ...]:
        """Everything this script can send to the model (for leakage checks)."""
        return (self.system,) + tuple(turn.content for turn in self.turns)


@dataclass(frozen=True)
class CalibrationItem:
    """One calibration round: a reference exam shown at a grade level,
    covering both tasks or a single one."""

    exam: ExamRecord
    level: int
    positions: tuple[int, ...] = (1, 2)


def _estimated_tokens(*texts: str) -> int:
    return sum(len(t) for t in texts) // CHARS_PER_TOKEN


def _budgeted(script: ConversationScript, token_budget: int | None) -> ConversationScript:
    """The script as is, with one warning when its estimate exceeds the budget."""
    if token_budget is not None:
        estimate = _estimated_tokens(*script.outbound_texts())
        if estimate > token_budget:
            logger.warning(
                "script for %s estimated at %d tokens exceeds budget %d", script.candidate_id, estimate, token_budget
            )
    return script


def build_zero_shot(
    candidate: ExamRecord,
    ctx: ContextSelection,
    rubrics: dict[str, Rubric],
    token_budget: int | None = None,
) -> ConversationScript:
    """System prompt plus one user message: references, then the candidate.

    When the rendered script would exceed the token budget (estimated at 4
    characters per token), reference texts are dropped from the end of the
    context list until it fits; drops are logged and recorded. A script
    still over the budget is sent as is, with one warning.
    """
    system = build_system_prompt(rubrics, (candidate.task(1).text_type, candidate.task(2).text_type))
    blocks = render_context_blocks(ctx, candidate)
    candidate_block = render_candidate_block(candidate)

    def user_message() -> str:
        parts = ([template("context_intro")] + blocks) if blocks else []
        parts.append(candidate_block)
        return "\n\n".join(parts)

    content = user_message()
    if token_budget is not None:
        while blocks and _estimated_tokens(system, content) > token_budget:
            blocks.pop()
            content = user_message()
    dropped = len(ctx.entries) - len(blocks)
    if dropped:
        logger.warning(
            "dropped %d context text(s) for %s to fit the %d-token budget", dropped, candidate.id, token_budget
        )
    return _budgeted(ConversationScript(system, (CandidateUser(content),), candidate.id, dropped), token_budget)


def build_few_shot_script(
    calib: list[CalibrationItem],
    scheme: str,
    candidate: ExamRecord,
    rubrics: dict[str, Rubric],
    cot: bool = False,
    token_budget: int | None = None,
) -> ConversationScript:
    """Calibration rounds in scheme order, then the candidate.

    Items that cover different task subsets are grouped (all task-1 rounds
    before all task-2 rounds); each group follows the scheme's grade order.
    A script over the token budget is sent as is, with one warning.
    """
    if not calib:
        raise ValueError("few-shot script needs at least one calibration exam")
    system = build_system_prompt(rubrics, (candidate.task(1).text_type, candidate.task(2).text_type), cot=cot)

    groups: dict[tuple[int, ...], list[CalibrationItem]] = {}
    for item in calib:
        groups.setdefault(item.positions, []).append(item)
    rounds: list[CalibrationItem] = []
    for items in groups.values():
        place = {level: i for i, level in enumerate(ordering_sequence(scheme, {item.level for item in items}))}
        rounds += sorted((item for item in items if item.level in place), key=lambda item: place[item.level])

    turns: list[Turn] = []
    for index, item in enumerate(rounds, start=1):
        turns.append(
            CalibrationUser(
                content=render_calibration_message(index, item.exam, item.positions),
                exam_id=item.exam.id,
                grade_level=item.level,
                positions=item.positions,
            )
        )
        turns.append(RevealGold(render_reveal_gold(item.exam, item.positions)))
    turns.append(CandidateUser(render_candidate_block(candidate)))
    return _budgeted(ConversationScript(system, tuple(turns), candidate.id), token_budget)


@dataclass(frozen=True)
class ModelAssessment:
    task1: dict[str, int] | None
    task2: dict[str, int] | None
    feedback: dict[str, str] = field(default_factory=dict)
    failure_reason: str | None = None

    @property
    def valid(self) -> bool:
        return self.failure_reason is None


# Caps on the search for a reply's JSON object; see ``_first_json_object``.
_MAX_DEPTH = 64
_WORK_PER_CHAR = 32

# A bracket, or a JSON string (which may run unterminated to the end).
_BRACKET_OR_STRING = re.compile(r'[{}\[\]]|"(?:[^"\\]|\\.)*(?:"|\\?\Z)', re.DOTALL)


def _nests_within(value, levels: int) -> bool:
    """Whether a decoded JSON value nests at most ``levels`` objects and arrays deep."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return True
    return levels > 0 and all(_nests_within(child, levels - 1) for child in value)


def _sweep_brackets(raw: str, start: int, closes: dict[int, bool]) -> int:
    """Count brackets outside strings from the ``{`` at ``start`` until it
    closes, and record in ``closes`` for every opening bracket met on the
    way whether it closes within ``_MAX_DEPTH`` levels. Outside a string,
    every lexing that reaches a position reads the same brackets from there
    on, so each recorded bracket is decided as a sweep from it would decide
    it. Returns the number of characters swept."""
    stack: list[int] = []
    end = len(raw)
    for match in _BRACKET_OR_STRING.finditer(raw, start):
        token = match[0]
        if token in "{[":
            stack.append(match.start())
            if len(stack) > _MAX_DEPTH:
                closes[stack[-_MAX_DEPTH - 1]] = False
        elif token in "}]":
            closes.setdefault(stack.pop(), True)
            if not stack:
                end = match.end()
                break
    closes.update(dict.fromkeys(stack, False))
    return end - start


def _first_json_object(raw: str) -> dict | None:
    """The first JSON object that decodes from some ``{`` of ``raw`` and
    nests at most ``_MAX_DEPTH`` (64) objects and arrays deep.

    A candidate that does not decode is skipped, including one whose integer
    exceeds the interpreter's digit limit (a ``ValueError``) or whose
    nesting exceeds the recursion limit. The work per reply is capped:

    - after a candidate fails, one sweep over the brackets that follow it
      (``_sweep_brackets``) marks every ``{`` it meets that never closes, or
      closes only past ``_MAX_DEPTH`` levels; none of those is decoded. A
      reply of 6000 unclosed ``{"a": `` is then rejected after one failed
      decode and one sweep, not 6000 decodes;
    - once the failed or too deep decodes and the sweeps have examined
      ``_WORK_PER_CHAR`` (32) characters per character of the reply, the
      rest of the reply is not searched and no object is found.
    """
    decoder = json.JSONDecoder()
    closes: dict[int, bool] = {}
    budget = _WORK_PER_CHAR * len(raw)
    start = raw.find("{")
    while start != -1 and budget >= 0:
        if closes.get(start, True):
            try:
                obj, end = decoder.raw_decode(raw, start)
            except (ValueError, RecursionError) as exc:
                end = getattr(exc, "pos", len(raw))
            else:
                # Fewer brackets than levels cannot nest too deep.
                brackets = raw.count("{", start, end) + raw.count("[", start, end)
                if brackets <= _MAX_DEPTH or _nests_within(obj, _MAX_DEPTH):
                    return obj
            budget -= end - start
            if start not in closes:
                budget -= _sweep_brackets(raw, start, closes)
        start = raw.find("{", start + 1)
    return None


def parse_assessment(raw: str) -> ModelAssessment:
    """Extract and validate the grade sheet from a model response.

    Surrounding prose and code fences are tolerated: the first parseable
    JSON object wins. A reply that opens with ``<think>`` (after leading
    whitespace), as a reasoning model's can, is searched only after its
    first ``</think>``, so a sheet drafted while thinking is not the answer;
    if it never closes its thinking, it is invalid. Invalidity is recorded,
    not raised.
    """
    stripped = raw.lstrip()
    if stripped.startswith("<think>"):
        _, closed, raw = stripped.partition("</think>")
        if not closed:
            return ModelAssessment(None, None, failure_reason="reply ends inside its thinking")
    data = _first_json_object(raw)
    if data is None:
        return ModelAssessment(None, None, failure_reason="no JSON object found")

    violations: list[str] = []
    grades: dict[str, dict[str, int]] = {}
    feedback: dict[str, str] = {}
    for task in TASKS:
        block = data.get(task)
        if not isinstance(block, dict):
            violations.append(f"missing {task}")
            continue
        task_grades = {}
        for dim in DIMENSIONS:
            value = block.get(dim)
            if value is None:
                violations.append(f"missing grade: {task}.{dim}")
            elif not isinstance(value, int) or isinstance(value, bool):
                violations.append(f"grade not an integer: {task}.{dim}")
            elif value not in VALID_GRADES:
                violations.append(f"grade out of range: {task}.{dim}")
            else:
                task_grades[dim] = value
        note = block.get("feedback", "")
        if not isinstance(note, str):
            violations.append(f"feedback must be a string: {task}.feedback")
            note = ""
        grades[task] = task_grades
        feedback[task] = note

    if violations:
        return ModelAssessment(
            **{task: grades.get(task) for task in TASKS}, feedback=feedback, failure_reason="; ".join(violations)
        )
    return ModelAssessment(**grades, feedback=feedback)


@dataclass(frozen=True)
class GradeOutcome:
    exam_id: str
    assessment: ModelAssessment | None
    transcript: tuple[dict[str, str], ...]
    guesses: tuple[str, ...] = ()
    attempts: int = 0
    error: str | None = None

    @property
    def valid(self) -> bool:
        return self.error is None and self.assessment is not None and self.assessment.valid


class GuessTable:
    """The calibration guesses of one run: one chat call per distinct request.

    A client whose reply depends on the messages alone shares its guesses:
    a guess request is keyed by the request itself, its messages' roles and
    contents. A client that reads the exam id (``ChatClient.reads_exam_id``)
    is called directly and never enters the table. The first candidate to
    need a key sends the request. A candidate needing a key that is answered
    reuses the reply, and one needing a key in flight waits for it, so the
    number of calls does not depend on thread timing. A failed call is not
    shared: its candidate gets the error, and a candidate that waited for it
    asks again. The table holds one entry per distinct request, which stays
    flat in the number of candidates.
    """

    def __init__(self) -> None:
        self.reused = 0
        self._replies: dict[tuple[tuple[str, str], ...], Future] = {}
        self._lock = threading.Lock()

    def guess(self, client: ChatClient, messages: list[dict[str, str]], exam_id: str) -> str:
        """The reply to ``messages``, sent for the candidate ``exam_id``."""
        if client.reads_exam_id:
            return client.chat(messages, exam_id=exam_id)
        key = tuple((m["role"], m["content"]) for m in messages)
        with self._lock:
            pending = self._replies.get(key)
            owner = pending is None
            if owner:
                pending = self._replies[key] = Future()
        if not owner:
            reply = pending.result()
            if reply is None:  # the owner's call failed
                return self.guess(client, messages, exam_id)
            with self._lock:
                self.reused += 1
            return reply
        reply = None
        try:
            reply = client.chat(messages, exam_id=exam_id)
        finally:
            if reply is None:
                with self._lock:
                    del self._replies[key]
            pending.set_result(reply)
        return reply


def grade_candidate(
    client: ChatClient,
    script: ConversationScript,
    retries: int = 0,
    guess_table: GuessTable | None = None,
) -> GradeOutcome:
    """Drive one conversation through the client and parse the result.

    The model's guess is requested before each ``RevealGold`` turn, through
    ``guess_table`` (a fresh one by default), which shares it with every
    other candidate that sends the same messages unless the client reads
    exam ids. Each guess is recorded verbatim; an unparseable final answer
    is retried with a reformat instruction up to ``retries`` times and
    otherwise counted as invalid. Transport failures yield an errored
    outcome with the partial transcript.
    """
    if guess_table is None:
        guess_table = GuessTable()
    messages: list[dict[str, str]] = [{"role": "system", "content": script.system}]
    guesses: list[str] = []
    attempts = 0
    error: str | None = None

    def answer(reply: str) -> str:
        messages.append({"role": "assistant", "content": reply})
        return reply

    def call() -> str:
        return answer(client.chat(messages, exam_id=script.candidate_id))

    try:
        for turn in script.turns:
            if isinstance(turn, RevealGold):
                guesses.append(answer(guess_table.guess(client, messages, script.candidate_id)))
            messages.append({"role": "user", "content": turn.content})
        attempts = 1
        assessment = parse_assessment(call())
        while not assessment.valid and attempts <= retries:
            messages.append({"role": "user", "content": template("reformat_instruction")})
            attempts += 1
            assessment = parse_assessment(call())
    except ChatTransportError as exc:
        assessment, error = None, str(exc)

    return GradeOutcome(
        exam_id=script.candidate_id,
        assessment=assessment,
        transcript=tuple(messages),
        guesses=tuple(guesses),
        attempts=attempts,
        error=error,
    )
