"""Experiment engine: corpus in, graded outcomes and report artifacts out.

Resolves the configured technique into per-candidate context selections and
conversation scripts, drives the chat client over every exam (optionally in
parallel), and writes metrics, confusion matrices, per-candidate transcripts
and predictions into the output directory. The grading arithmetic lives
here, not in ``orchestrator``: the prediction writer folds each valid grade
sheet into its final grade, and the report is read back from the prediction
lines, both through ``grading.aggregate`` under ``grading.round_half``. With
mock clients the whole run is deterministic in (config, corpus, seed).
"""

from __future__ import annotations

import json
import logging
import os
import re
from collections import deque
from collections.abc import Callable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import TextIO

from .clients import ChatClient, HttpChatClient, MockChatClient, parse_policy
from .config import ConfigError, ExperimentConfig, TechniquePlan, config_hash, technique_plan
from .corpus import Corpus, ExamRecord, Rubric, RubricError, load_corpus, load_rubrics
from .grading import TASKS, VALID_GRADES, aggregate
from .metrics import EvaluationReport, Prediction, build_report
from .orchestrator import (
    CalibrationItem,
    ConversationScript,
    GradeOutcome,
    GuessTable,
    build_few_shot_script,
    build_zero_shot,
    grade_candidate,
)
from .reporting import emit_report
from .retrieval import (
    ContextSelection,
    FallbackEmbedder,
    RemoteEmbedder,
    TaskTextIndex,
    build_context,
    select_grade_exemplars,
)

logger = logging.getLogger(__name__)


def make_embedder(cfg: ExperimentConfig):
    if cfg.embedding_fallback:
        return FallbackEmbedder(cfg.embedding_dim)
    return RemoteEmbedder(cfg.embedding_base_url, cfg.embedding_model, timeout=cfg.timeout)


def make_client(cfg: ExperimentConfig, corpus: Corpus) -> ChatClient:
    if cfg.client_kind == "http":
        return HttpChatClient(
            cfg.client_base_url, cfg.client_model, temperature=cfg.temperature, seed=cfg.seed, timeout=cfg.timeout
        )
    policy, grade = parse_policy(cfg.client_policy)
    return MockChatClient(policy, grade=grade, corpus=corpus)


_MANIFEST_KEY = re.compile(r"([0-9]+)/(.+)", re.DOTALL)
_MANIFEST_LEVELS = {str(grade): grade for grade in VALID_GRADES}


def load_exemplar_manifest(path: str) -> dict[tuple[int, str], dict[int, str]]:
    """Curated exemplar ids: {"<year>/<pack>": {"1": id, ..., "5": id}}.

    Raises ConfigError naming the file and the key on a malformed manifest,
    and naming both keys when two keys name one pack, such as
    ``2023/pack-a`` and ``02023/pack-a`` or a key repeated verbatim."""
    if not path:
        return {}
    try:
        # Objects load as tuples of (key, value) pairs, so a repeated key is
        # kept, not dropped as a dict would.
        data = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=tuple)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: exemplar manifest is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: exemplar manifest is not valid JSON: {exc}") from None
    if not isinstance(data, tuple):
        raise ConfigError(f"{path}: exemplar manifest must be a JSON object, got {type(data).__name__}")
    manifest: dict[tuple[int, str], dict[int, str]] = {}
    keys: dict[tuple[int, str], str] = {}
    for key, levels in data:
        where = f"{path}: exemplar manifest key {key!r}"
        match = _MANIFEST_KEY.fullmatch(key)
        if match is None:
            raise ConfigError(f"{where} must be <year>/<pack>")
        if not isinstance(levels, tuple):
            raise ConfigError(f"{where}: entry must be an object, got {type(levels).__name__}")
        pack = (int(match[1]), match[2])
        if pack in keys:
            raise ConfigError(f"{path}: exemplar manifest keys {keys[pack]!r} and {key!r} name one pack")
        keys[pack] = key
        for level, exam_id in levels:
            if level not in _MANIFEST_LEVELS:
                raise ConfigError(f"{where}: level must be one of {', '.join(_MANIFEST_LEVELS)}, got {level!r}")
            if not isinstance(exam_id, str):
                raise ConfigError(f"{where}: id for level {level} must be a string, got {exam_id!r}")
        manifest[pack] = {_MANIFEST_LEVELS[level]: exam_id for level, exam_id in levels}
    return manifest


def warn_unused_manifest_entries(manifest: dict[tuple[int, str], dict[int, str]], corpus: Corpus) -> None:
    """Log a warning for each manifest key whose pack the corpus lacks and
    for each id that is not in its pack: selection never reads the first
    and falls back to the automatic pick for the second. An id in its pack
    falls back only when that exam is the candidate itself (leave-one-out),
    which is not warned about."""
    for (year, pack), levels in manifest.items():
        if not corpus.pool(year, pack):
            logger.warning("exemplar manifest: the corpus has no pack %d/%s; its entry is unused", year, pack)
            continue
        for exam_id in dict.fromkeys(levels.values()):
            record = corpus.by_id.get(exam_id)
            if record is None or (record.year, record.pack) != (year, pack):
                logger.warning(
                    "exemplar manifest %d/%s: %r is not in that pack; the automatic pick is used", year, pack, exam_id
                )


def calibration_items(
    corpus: Corpus,
    candidate: ExamRecord,
    plan: TechniquePlan,
    manifest: dict[tuple[int, str], dict[int, str]] | None = None,
) -> list[CalibrationItem]:
    pack_manifest = (manifest or {}).get((candidate.year, candidate.pack))
    items: list[CalibrationItem] = []
    for positions, levels in plan.calibration_groups:
        exemplars = select_grade_exemplars(
            corpus, candidate.year, candidate.pack, levels,
            exclude_id=candidate.id, manifest=pack_manifest, positions=positions,
        )
        items.extend(CalibrationItem(exam=record, level=level, positions=positions) for level, record in exemplars)
    return items


def build_candidate_script(inputs: RunInputs, candidate: ExamRecord) -> tuple[ConversationScript, ContextSelection | None]:
    """The script ``run`` sends for ``candidate``, and for a zero-shot
    technique the context selection it sends: the built selection less the
    references the token budget dropped. Each selection warning is logged
    with the candidate's id."""
    plan, rubrics, budget = inputs.plan, inputs.rubrics, inputs.cfg.token_budget
    if plan.zero_shot:
        selection = build_context(inputs.corpus, inputs.index, candidate, plan.strategy)
        for warning in selection.warnings:
            logger.warning("context for %s: %s", candidate.id, warning)
        script = build_zero_shot(candidate, selection, rubrics, token_budget=budget)
        return script, replace(selection, entries=selection.entries[: len(selection.entries) - script.dropped_context])
    items = calibration_items(inputs.corpus, candidate, plan, inputs.manifest)
    return build_few_shot_script(items, inputs.cfg.ordering, candidate, rubrics, cot=plan.cot, token_budget=budget), None


def _outcome_record(outcome: GradeOutcome, half: str) -> dict:
    """One prediction line: the parsed sheet as the model gave it and, for a
    valid outcome, its final grade folded under ``half``."""
    assessment = None
    if outcome.assessment is not None:
        assessment = {
            **{task: getattr(outcome.assessment, task) for task in TASKS},
            "feedback": outcome.assessment.feedback,
            "failure_reason": outcome.assessment.failure_reason,
        }
    return {
        "id": outcome.exam_id,
        "valid": outcome.valid,
        "error": outcome.error,
        "attempts": outcome.attempts,
        "assessment": assessment,
        "derived_final": aggregate(assessment, half).final if outcome.valid else None,
    }


@dataclass(frozen=True)
class RunInputs:
    """What a run reads before its first chat call, built once per run."""

    cfg: ExperimentConfig
    corpus: Corpus
    rubrics: dict[str, Rubric]
    manifest: dict[tuple[int, str], dict[int, str]]
    plan: TechniquePlan
    index: TaskTextIndex | None


def load_run_inputs(cfg: ExperimentConfig, embedder=None) -> RunInputs:
    """Load the manifest, corpus and rubrics of ``cfg``, warn about skipped
    exam files and unused manifest entries, and build the similarity index
    when the technique needs one (with ``embedder``, or the configured one,
    which is closed once the index is built).

    Raises RuntimeError when the corpus holds no usable exam, and
    RubricError naming the first exam and task, in corpus order, whose text
    type has no rubric. That check is the one place a missing rubric is
    caught: ``rubrics`` maps text type to ``Rubric``, and the prompt
    builders look each candidate's types up in it unchecked."""
    manifest = load_exemplar_manifest(cfg.exemplars_path)
    corpus = load_corpus(cfg.corpus_path, trust_stored_grades=cfg.trust_stored_grades, half=cfg.round_half)
    if not corpus.records:
        raise RuntimeError(f"no usable exams in {cfg.corpus_path}")
    for error in corpus.errors:
        logger.warning("corpus: skipped %s (%s)", error.file, error.reason)
    warn_unused_manifest_entries(manifest, corpus)
    rubrics = load_rubrics(cfg.rubric_path)
    for record in corpus.records:
        for number, task in enumerate(record.tasks, start=1):
            if task.text_type not in rubrics:
                raise RubricError(f"exam {record.id!r} task {number}: no rubric for text type {task.text_type!r}")
    plan = technique_plan(cfg)
    index = None
    if plan.needs_index:
        own = None if embedder else make_embedder(cfg)
        try:
            index = TaskTextIndex.build(corpus, embedder or own)
        finally:
            if isinstance(own, RemoteEmbedder):
                own.close()
    return RunInputs(cfg, corpus, rubrics, manifest, plan, index)


def run_experiment(cfg: ExperimentConfig, client: ChatClient | None = None, embedder=None) -> EvaluationReport:
    """Execute one technique over the whole corpus.

    ``client``/``embedder`` can be injected (tests, fixtures); otherwise they
    are built from the configuration. A failing candidate never aborts the
    run; it is recorded as errored. Identical calibration guess requests of
    different candidates share one chat call through the run's
    ``GuessTable``.

    Outcomes are consumed in candidate order as they are graded: each
    candidate's transcript and prediction line are written at once, and the
    outcome is then dropped. The prediction lines go to
    ``predictions.jsonl.partial``. Once every candidate is written, the
    report is read back from that file by ``rescore_predictions``, the
    reader ``metrics --pred`` uses, and the file becomes
    ``predictions.jsonl``. With ``runner.parallelism = 1`` candidates are
    graded in the calling thread, one at a time; above it, a pool grades at
    most ``2 * runner.parallelism`` candidates ahead of the writer. The
    client is closed when the run ends, however it ends.
    """
    inputs = load_run_inputs(cfg, embedder)
    if client is None:
        client = make_client(cfg, inputs.corpus)
    candidates = sorted(inputs.corpus.records, key=lambda r: r.id)
    guess_table = GuessTable()

    def grade_one(candidate: ExamRecord) -> GradeOutcome:
        try:
            script, _ = build_candidate_script(inputs, candidate=candidate)
            return grade_candidate(client, script, retries=cfg.retries, guess_table=guess_table)
        except Exception as exc:  # crash isolation: one candidate must not sink the run
            logger.exception("candidate %s failed", candidate.id)
            return GradeOutcome(candidate.id, None, transcript=(), error=f"internal: {exc}")

    out = Path(cfg.output_dir)
    with ExitStack() as stack:
        # Registered first, so it runs last: after the pool has shut down.
        stack.callback(client.close)
        if isinstance(client, HttpChatClient):
            client.preflight()
        started = datetime.now(timezone.utc)
        if cfg.parallelism == 1:
            graded = (grade_one(candidate) for candidate in candidates)
        else:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=cfg.parallelism))
            graded = _graded_ahead(pool, grade_one, candidates, 2 * cfg.parallelism)
        # Closed first on the way out, which cancels the candidates not yet started.
        stack.enter_context(closing(graded))
        predictions = None
        for outcome in graded:
            if predictions is None:
                (out / "transcripts").mkdir(parents=True, exist_ok=True)
                predictions = stack.enter_context(
                    (out / _PARTIAL_PREDICTIONS).open("w", encoding="utf-8", errors=_MODEL_TEXT_ERRORS)
                )
            _write_outcome(out, predictions, outcome, cfg.round_half)

    report = rescore_predictions(out / _PARTIAL_PREDICTIONS, inputs.corpus, inputs.plan.label, cfg.round_half)
    _write_artifacts(cfg, report, client, started, guess_table.reused)
    return report


def _graded_ahead(
    pool: ThreadPoolExecutor,
    grade_one: Callable[[ExamRecord], GradeOutcome],
    candidates: list[ExamRecord],
    window: int,
) -> Iterator[GradeOutcome]:
    """The outcome of each candidate in order, graded in ``pool`` with at
    most ``window`` submitted and not yet consumed. Closing the generator
    cancels the candidates not yet started."""
    pending: deque[Future] = deque()
    try:
        for candidate in candidates:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(grade_one, candidate))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


_PARTIAL_PREDICTIONS = "predictions.jsonl.partial"
# Model text may hold a lone surrogate (a reply's JSON can escape one), which
# UTF-8 cannot encode. Written as ``\udXXX``, it is the JSON escape of that
# code point, so ``json.loads`` reads back the same string.
_MODEL_TEXT_ERRORS = "backslashreplace"


def _write_outcome(out: Path, predictions: TextIO, outcome: GradeOutcome, half: str) -> None:
    """Append one candidate's prediction line, its final grade folded under
    ``half``, and write its transcript."""
    predictions.write(json.dumps(_outcome_record(outcome, half), ensure_ascii=False, sort_keys=True) + "\n")
    payload = {
        "exam_id": outcome.exam_id,
        "messages": list(outcome.transcript),
        "guesses": list(outcome.guesses),
        "attempts": outcome.attempts,
        "error": outcome.error,
    }
    (out / "transcripts" / f"{outcome.exam_id}.json").write_text(
        json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
        errors=_MODEL_TEXT_ERRORS,
    )


def _write_artifacts(
    cfg: ExperimentConfig,
    report: EvaluationReport,
    client: ChatClient,
    started: datetime,
    reused_guesses: int,
) -> None:
    """The run-level files: metrics and report, ``predictions.jsonl`` from
    its partial file, and ``run_meta.json``, which also records how many
    guesses were served from the run's ``GuessTable``."""
    out = Path(cfg.output_dir)
    digest = config_hash(cfg)
    emit_report(report, out, config_hash=digest)
    os.replace(out / _PARTIAL_PREDICTIONS, out / "predictions.jsonl")

    meta = {
        "technique": report.technique,
        "config_hash": digest,
        "config": dict(cfg.raw_items()),
        "client": client.identity(),
        "started": started.isoformat(),
        "finished": datetime.now(timezone.utc).isoformat(),
        "n": report.n,
        "invalid_count": report.invalid_count,
        "errored": list(report.errored),
        "reused_guesses": reused_guesses,
        "transcripts": "transcripts/",
    }
    (out / "run_meta.json").write_text(
        json.dumps(meta, ensure_ascii=False, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )


def rescore_predictions(
    predictions_path: str | Path, corpus: Corpus, technique: str = "rescored", half: str = "better"
) -> EvaluationReport:
    """The EvaluationReport of a predictions file: ``run`` builds its report
    from the file it has just written, and ``metrics --pred`` from a stored
    one, so both score a prediction line the same way. Every line must name
    an exam of ``corpus``, and a file with no line but blank ones is an
    error naming the file."""
    predictions: list[Prediction] = []
    first_lines: dict[str, int] = {}
    raw = Path(predictions_path).read_bytes()
    try:
        # Only "\n" ends a line: json.dumps(ensure_ascii=False) writes U+2028,
        # U+2029 and U+0085 raw inside strings, and splitlines breaks on them.
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        number = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{predictions_path}:{number}: not UTF-8 ({exc})") from None
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{predictions_path}:{number}"
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: not valid JSON ({exc})") from None
        if not isinstance(data, dict) or not isinstance(data.get("id"), str):
            raise ValueError(f"{where}: a prediction must be a JSON object with a string id")
        exam_id, error = data["id"], data.get("error")
        if exam_id not in corpus.by_id:
            raise ValueError(f"{where}: no exam {exam_id!r} in the gold corpus")
        first = first_lines.setdefault(exam_id, number)
        if first != number:
            raise ValueError(f"{where}: duplicate prediction for {exam_id!r} (first on line {first})")
        if not isinstance(data.get("valid"), bool) or not isinstance(error, (str, type(None))):
            raise ValueError(f"{where}: a prediction's valid must be true or false, and its error null or a string")
        grades = final = None
        block = data.get("assessment")
        if block is not None and not isinstance(block, dict):
            raise ValueError(f"{where}: assessment must be an object, got {type(block).__name__}")
        if data["valid"] and not error:
            if not all(isinstance((block or {}).get(task), dict) for task in TASKS):
                raise ValueError(f"{where}: a valid prediction needs objects as " + " and ".join(TASKS))
            grades = {task: block[task] for task in TASKS}
            try:
                final = aggregate(grades, half).final
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        if error is not None:  # an empty error string still marks the line errored
            grades = final = None
        predictions.append(Prediction(exam_id, error, grades, final))
    if not predictions:
        raise ValueError(f"{predictions_path}: holds no prediction line")
    return build_report(technique, predictions, corpus)
