"""Command line interface.

Subcommands: run, metrics, context, validate-corpus, make-synthetic.
Exit codes: 0 success, 1 validation errors, 2 fatal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .clients import ChatTransportError
from .config import ConfigError, ExperimentConfig, config_from_values, format_defaults, load_config
from .corpus import load_corpus, validate_record
from .orchestrator import CalibrationUser
from .prompts import grades_line
from .reporting import accuracy_table_row, emit_report, qwk_table_row
from .runner import build_candidate_script, load_run_inputs, rescore_predictions, run_experiment
from .synthetic import make_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_FATAL = 2


def _print_tables(report) -> None:
    """The QWK row, then the accuracy row, under the header of ``report.md``'s QWK table."""
    print("Technique & Grade & Task 1 dimensions & Task 2 dimensions")
    print(qwk_table_row(report))
    print(accuracy_table_row(report))


def _cmd_run(args) -> int:
    if args.print_defaults:
        print(format_defaults(), end="")
        return EXIT_OK
    if not args.config:
        print("run: --config is required (or use --print-defaults)", file=sys.stderr)
        return EXIT_FATAL
    cfg = load_config(args.config)
    report = run_experiment(cfg)
    print(f"technique: {report.technique}")
    print(f"graded: {report.n} valid, {report.invalid_count} invalid")
    _print_tables(report)
    print(f"artifacts written to {cfg.output_dir}")
    return EXIT_OK


def _run_config(pred: str) -> ExperimentConfig:
    """A config with the ``corpus.trust_stored_grades`` and
    ``grading.round_half`` of the run that wrote ``pred``, read from the
    ``run_meta.json`` beside it; the defaults without one."""
    meta = Path(pred).parent / "run_meta.json"
    if not meta.is_file():
        return config_from_values({})
    try:
        config = json.loads(meta.read_text(encoding="utf-8"))["config"]
        return config_from_values({key: config[key] for key in ("corpus.trust_stored_grades", "grading.round_half")})
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # AttributeError: a value that is not a string
        raise ValueError(f"{meta}: malformed run_meta.json ({exc!r})") from None


def _cmd_metrics(args) -> int:
    cfg = _run_config(args.pred)
    corpus = load_corpus(args.gold, trust_stored_grades=cfg.trust_stored_grades, half=cfg.round_half)
    if not corpus.records:
        print(f"no usable exams in {args.gold}", file=sys.stderr)
        return EXIT_VALIDATION
    report = rescore_predictions(args.pred, corpus, technique=args.technique, half=cfg.round_half)
    if args.out:
        emit_report(report, args.out)
        print(f"report written to {args.out}")
    print(f"graded: {report.n} valid, {report.invalid_count} invalid")
    _print_tables(report)
    return EXIT_OK


def _cmd_context(args) -> int:
    cfg = load_config(args.config)
    inputs = load_run_inputs(cfg)
    candidate = inputs.corpus.get(args.candidate)
    script, selection = build_candidate_script(inputs, candidate)

    print(f"candidate: {candidate.id} ({candidate.year}/{candidate.pack}), technique: {inputs.plan.label}")
    if selection is not None:
        if not selection.entries:
            print("context: (empty)")
        for entry in selection.entries:
            if entry.is_noise:
                print(f"  noise {entry.exam_id}: {len(entry.body.split())} random words")
                continue
            similarity = f", similarity {entry.similarity:.4f}" if entry.similarity is not None else ""
            print(
                f"  task {entry.task_position}: {entry.exam_id}"
                f" [{grades_line(entry.gold, entry.final_grade)}]{similarity}"
            )
        if selection.coverage:
            for position, counts in sorted(selection.coverage.items()):
                rendered = ", ".join(f"{grade}:{count}" for grade, count in sorted(counts.items()))
                print(f"  coverage task {position}: {rendered}")
    for turn in script.turns:
        if isinstance(turn, CalibrationUser):
            positions = ",".join(str(p) for p in turn.positions)
            print(f"  calibration level {turn.grade_level} (task {positions}): {turn.exam_id}")
    return EXIT_OK


def _cmd_validate_corpus(args) -> int:
    corpus = load_corpus(args.directory, trust_stored_grades=args.trust_stored_grades)
    for error in corpus.errors:
        print(f"error: {error.file}: {error.reason}")
    revalidated = sum(1 for record in corpus.records if not validate_record(record))
    print(f"{len(corpus.records)} records ok ({revalidated} consistent), {len(corpus.errors)} errors")
    return EXIT_OK if not corpus.errors else EXIT_VALIDATION


def _cmd_make_synthetic(args) -> int:
    exam_dir, rubric_dir = make_synthetic(args.out, n=args.n, seed=args.seed)
    print(f"wrote {args.n} exams to {exam_dir}")
    print(f"wrote rubrics to {rubric_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matura-grader",
        description="Grade two-text A-level German exams with a chat model and score the agreement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment over the corpus")
    run.add_argument("--config", help="experiment config file")
    run.add_argument("--print-defaults", action="store_true", help="print all config defaults and exit")
    run.set_defaults(handler=_cmd_run)

    metrics = sub.add_parser("metrics", help="re-score stored predictions against a gold corpus")
    metrics.add_argument("--pred", required=True, help="predictions.jsonl from a previous run")
    metrics.add_argument("--gold", required=True, help="gold corpus directory")
    metrics.add_argument("--out", help="optionally write full report files here")
    metrics.add_argument("--technique", default="rescored", help="row label for the report")
    metrics.set_defaults(handler=_cmd_metrics)

    context = sub.add_parser("context", help="print the context selection for one candidate")
    context.add_argument("--config", required=True)
    context.add_argument("--candidate", required=True, help="exam id")
    context.set_defaults(handler=_cmd_context)

    validate = sub.add_parser("validate-corpus", help="check every exam file in a directory")
    validate.add_argument("directory")
    validate.add_argument("--trust-stored-grades", action="store_true")
    validate.set_defaults(handler=_cmd_validate_corpus)

    synthetic = sub.add_parser("make-synthetic", help="generate a synthetic corpus with rubrics")
    synthetic.add_argument("--out", required=True)
    synthetic.add_argument("--n", type=int, default=25)
    synthetic.add_argument("--seed", type=int, default=0)
    synthetic.set_defaults(handler=_cmd_make_synthetic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FATAL if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (ConfigError, FileNotFoundError, KeyError, ValueError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc  # str() of a KeyError quotes it
        print(f"error: {message}", file=sys.stderr)
        return EXIT_FATAL
    except (ChatTransportError, RuntimeError, OSError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
