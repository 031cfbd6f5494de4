from __future__ import annotations

import gc
import hashlib
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matura_grader import runner
from matura_grader.cli import main
from matura_grader.clients import ChatClient, ChatTransportError, MockChatClient
from matura_grader.config import TECHNIQUES, config_from_values
from matura_grader.corpus import load_corpus, normalize_text
from matura_grader.grading import DIMENSIONS
from matura_grader.metrics import DIMENSION_KEYS, Prediction, build_report
from matura_grader.orchestrator import ORDERINGS, GradeOutcome
from matura_grader.prompts import (
    render_calibration_message,
    render_candidate_block,
    render_context_blocks,
    template,
)
from matura_grader.retrieval import EmbeddingError, FallbackEmbedder, TaskTextIndex
from matura_grader.runner import (
    RunInputs,
    build_candidate_script,
    calibration_items,
    load_run_inputs,
    run_experiment,
    technique_plan,
)
from matura_grader.synthetic import make_synthetic

from helpers import artifact_bytes


def _cfg(exam_dir, rubric_dir, out_dir, **overrides):
    values = {
        "corpus.path": str(exam_dir),
        "rubric.path": str(rubric_dir),
        "output.dir": str(out_dir),
    }
    values.update({k: str(v) for k, v in overrides.items()})
    return config_from_values(values)


def test_echo_gold_run_is_perfect(synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out", **{"client.policy": "echo_gold"})
    report = run_experiment(cfg)
    assert report.n == 25
    assert report.invalid_count == 0
    for key in DIMENSION_KEYS:
        assert report.dimensions[key].accuracy == 1.0
        assert report.dimensions[key].qwk == 1.0


def test_always_grade_three_run(synthetic_dirs_25, corpus_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(
        exam_dir, rubric_dir, tmp_path / "out",
        technique="rag_range", **{"technique.n": 1, "client.policy": "always_grade:3"},
    )
    report = run_experiment(cfg)
    share_of_threes = sum(1 for r in corpus_25.records if r.gold.final_as_grade() == 3) / len(corpus_25.records)
    final = report.dimensions["final"]
    assert final.accuracy == pytest.approx(share_of_threes)
    for i in range(5):
        for j in range(5):
            if j != 2:
                assert final.confusion[i][j] == 0


def test_range_context_covers_all_grades(synthetic_dirs_25, corpus_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out", technique="rag_range")
    plan = technique_plan(cfg)
    index = TaskTextIndex.build(corpus_25, FallbackEmbedder(cfg.embedding_dim))
    rubrics = __import__("matura_grader.corpus", fromlist=["load_rubrics"]).load_rubrics(rubric_dir)
    inputs = RunInputs(cfg, corpus_25, rubrics, {}, plan, index)
    for candidate in corpus_25.records[:8]:
        _, selection = build_candidate_script(inputs, candidate)
        for position, counts in selection.coverage.items():
            available = {
                r.gold.final_as_grade() for r in corpus_25.pool(candidate.year, candidate.pack)
                if r.id != candidate.id
            }
            for grade in available:
                assert counts[grade] == 1


def test_runs_are_byte_deterministic(synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    first = _cfg(exam_dir, rubric_dir, tmp_path / "one", **{"client.policy": "keyword_heuristic"})
    second = _cfg(exam_dir, rubric_dir, tmp_path / "two", **{"client.policy": "keyword_heuristic"})
    run_experiment(first)
    run_experiment(second)
    assert (tmp_path / "one" / "metrics.csv").read_bytes() == (tmp_path / "two" / "metrics.csv").read_bytes()
    assert (
        (tmp_path / "one" / "predictions.jsonl").read_bytes()
        == (tmp_path / "two" / "predictions.jsonl").read_bytes()
    )


def test_parallel_run_matches_serial(synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    serial = _cfg(exam_dir, rubric_dir, tmp_path / "serial", **{"client.policy": "echo_gold"})
    parallel = _cfg(
        exam_dir, rubric_dir, tmp_path / "parallel",
        **{"client.policy": "echo_gold", "runner.parallelism": 4},
    )
    run_experiment(serial)
    run_experiment(parallel)
    assert (tmp_path / "serial" / "metrics.csv").read_bytes() == (tmp_path / "parallel" / "metrics.csv").read_bytes()
    serial_files = artifact_bytes(tmp_path / "serial")
    assert len(serial_files) == 2 + 25
    assert artifact_bytes(tmp_path / "parallel") == serial_files
    for out in ("serial", "parallel"):
        assert not (tmp_path / out / "predictions.jsonl.partial").exists()


class _WatchingClient(MockChatClient):
    """Echoes gold, and on each candidate's first chat call records the
    calling thread and the transcripts already on disk."""

    def __init__(self, corpus, transcripts: Path):
        super().__init__("echo_gold", corpus=corpus)
        self.transcripts = transcripts
        self.first_calls: dict[str, tuple[int, list[str]]] = {}

    def chat(self, messages, exam_id=None):
        if exam_id not in self.first_calls:
            on_disk = sorted(p.stem for p in self.transcripts.glob("*.json"))
            self.first_calls[exam_id] = (threading.get_ident(), on_disk)
        return super().chat(messages, exam_id=exam_id)


def test_serial_run_grades_inline_and_writes_each_transcript_before_the_next_call(
    synthetic_dirs_25, corpus_25, tmp_path
):
    exam_dir, rubric_dir = synthetic_dirs_25
    out = tmp_path / "out"
    client = _WatchingClient(corpus_25, out / "transcripts")
    run_experiment(_cfg(exam_dir, rubric_dir, out, technique="few_best_worst"), client=client)
    ids = sorted(r.id for r in corpus_25.records)
    assert list(client.first_calls) == ids
    for k, exam_id in enumerate(ids):
        thread, on_disk = client.first_calls[exam_id]
        assert thread == threading.get_ident()
        assert on_disk == ids[:k]


def test_parallel_run_grades_at_most_twice_parallelism_ahead_of_the_writer(synthetic_dirs_25, corpus_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    out = tmp_path / "out"
    parallelism = 4
    client = _WatchingClient(corpus_25, out / "transcripts")
    cfg = _cfg(exam_dir, rubric_dir, out, technique="few_best_worst", **{"runner.parallelism": parallelism})
    run_experiment(cfg, client=client)
    ids = sorted(r.id for r in corpus_25.records)
    assert sorted(client.first_calls) == ids
    for k, exam_id in enumerate(ids):
        _, on_disk = client.first_calls[exam_id]
        assert len(on_disk) >= k - 2 * parallelism
        assert on_disk == ids[: len(on_disk)]


def test_build_report_receives_outcomes_without_transcripts(synthetic_dirs_25, tmp_path, monkeypatch):
    exam_dir, rubric_dir = synthetic_dirs_25
    received = []

    def capture(technique, outcomes, corpus):
        received.extend(outcomes)
        return build_report(technique, outcomes, corpus)

    monkeypatch.setattr(runner, "build_report", capture)
    out = tmp_path / "out"
    report = run_experiment(_cfg(exam_dir, rubric_dir, out, technique="few_best_worst"))
    assert report.n == 25 and len(received) == 25
    assert all(isinstance(p, Prediction) for p in received)
    assert all(p.error is None and p.grades is not None and p.final is not None for p in received)
    transcript = json.loads((out / "transcripts" / f"{received[0].exam_id}.json").read_text())
    assert len(transcript["guesses"]) == 3 and transcript["messages"]


@pytest.mark.parametrize("parallelism", [1, 3])
def test_a_run_holds_only_the_outcomes_in_flight(parallelism, synthetic_dirs_25, tmp_path, monkeypatch):
    exam_dir, rubric_dir = synthetic_dirs_25
    gc.collect()
    before = {id(o): o for o in gc.get_objects() if isinstance(o, GradeOutcome)}
    live = []
    write = runner._write_outcome

    def counting_write(*args):
        write(*args)
        gc.collect()
        live.append(sum(isinstance(o, GradeOutcome) and id(o) not in before for o in gc.get_objects()))

    monkeypatch.setattr(runner, "_write_outcome", counting_write)
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out", technique="few_mixed", **{"runner.parallelism": parallelism})
    report = run_experiment(cfg)
    assert report.n == 25 and len(live) == 25
    assert max(live) <= 2 * parallelism


class _InterruptedClient(MockChatClient):
    """Echoes gold until the candidate ``stop_id``, where it raises
    ``KeyboardInterrupt`` as a user's Ctrl-C would."""

    def __init__(self, corpus, stop_id):
        super().__init__("echo_gold", corpus=corpus)
        self.stop_id = stop_id

    def chat(self, messages, exam_id=None):
        if exam_id == self.stop_id:
            raise KeyboardInterrupt
        return super().chat(messages, exam_id=exam_id)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_interrupted_run_leaves_graded_transcripts_and_a_partial_file(
    parallelism, synthetic_dirs_25, corpus_25, tmp_path
):
    exam_dir, rubric_dir = synthetic_dirs_25
    ids = sorted(r.id for r in corpus_25.records)
    k = 7
    out = tmp_path / "out"
    cfg = _cfg(exam_dir, rubric_dir, out, **{"runner.parallelism": parallelism})
    with pytest.raises(KeyboardInterrupt):
        run_experiment(cfg, client=_InterruptedClient(corpus_25, ids[k]))
    assert sorted(p.stem for p in (out / "transcripts").iterdir()) == ids[:k]
    lines = (out / "predictions.jsonl.partial").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines] == ids[:k]
    assert not (out / "predictions.jsonl").exists()
    assert not (out / "metrics.csv").exists() and not (out / "run_meta.json").exists()

    run_experiment(cfg)  # a complete run publishes predictions.jsonl
    assert not (out / "predictions.jsonl.partial").exists()
    assert len((out / "predictions.jsonl").read_text(encoding="utf-8").splitlines()) == 25


# What a misbehaving endpoint can do to one candidate. The feedback faults
# hold characters that a line reader or a UTF-8 writer can trip over.
_FEEDBACK_FAULTS = {"u2028": "gut\u2028so", "u0085": "gut\u0085so", "surrogate": "gut\ud800so"}
_FAULTS = ("transport", "no_json", *_FEEDBACK_FAULTS)


class _FaultyClient(ChatClient):
    """Echoes gold, except for the exams ``faults`` maps to a fault: a
    transport error, a reply with no JSON, or feedback holding the text of
    ``_FEEDBACK_FAULTS``."""

    def __init__(self, corpus, faults: dict[str, str]):
        self.inner = MockChatClient("echo_gold", corpus=corpus)
        self.faults = faults

    def chat(self, messages, exam_id=None):
        fault = self.faults.get(exam_id)
        if fault == "transport":
            raise ChatTransportError("chat request failed: verbindung abgebrochen")
        if fault == "no_json":
            return "Leider kann ich das nicht bewerten."
        reply = self.inner.chat(messages, exam_id=exam_id)
        if fault in _FEEDBACK_FAULTS:
            sheet = json.loads(reply)
            sheet["task1"]["feedback"] = _FEEDBACK_FAULTS[fault]
            reply = json.dumps(sheet, ensure_ascii=False)
        return reply

    def identity(self):
        return "faulty"


def test_transport_failure_is_isolated(synthetic_dirs_25, corpus_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    broken = corpus_25.records[3].id
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out")
    report = run_experiment(cfg, client=_FaultyClient(corpus_25, {broken: "transport"}))
    assert report.errored == (broken,)
    assert report.n == 24
    assert report.invalid_count == 1
    transcript = json.loads((tmp_path / "out" / "transcripts" / f"{broken}.json").read_text())
    assert transcript["error"]


def test_a_run_over_ids_that_are_not_file_names_writes_only_inside_its_output_dir(tmp_path):
    exam_dir, rubric_dir = make_synthetic(tmp_path / "data", n=12, seed=3)
    for name, bad_id in (("exam-003.json", "../../escaped"), ("exam-004.json", "sub/exam-004")):
        data = json.loads((exam_dir / name).read_text(encoding="utf-8"))
        data["id"] = bad_id
        (exam_dir / name).write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "run" / "out"
    before = set(tmp_path.rglob("*"))
    report = run_experiment(_cfg(exam_dir, rubric_dir, out, **{"client.policy": "echo_gold"}))
    assert report.n == 10 and report.errored == ()
    assert {path for path in tmp_path.rglob("*") if out not in path.parents and path != out} == before | {out.parent}
    assert len(list((out / "transcripts").iterdir())) == 10
    assert (out / "metrics.csv").is_file() and (out / "predictions.jsonl").is_file()


def test_run_with_packs_too_small_for_best_average_worst_errors_every_candidate(tmp_path):
    # Four exams in two packs of two: leaving the candidate out leaves one
    # exam where best/average/worst needs three. The run still completes.
    exam_dir, rubric_dir = make_synthetic(tmp_path / "tiny", n=4, seed=1)
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out", technique="rag_best_avg_worst")
    report = run_experiment(cfg)
    ids = ("exam-001", "exam-002", "exam-003", "exam-004")
    assert (report.n, report.invalid_count, report.errored) == (0, 4, ids)
    packs = dict(zip(ids, [(2023, "pack-a"), (2024, "pack-b")] * 2))
    lines = (tmp_path / "out" / "predictions.jsonl").read_text(encoding="utf-8").splitlines()
    assert {json.loads(line)["id"]: json.loads(line)["error"] for line in lines} == {
        exam_id: f"internal: need at least 3 exams in pack {packs[exam_id]} besides {exam_id!r}, have 1 of 2"
        for exam_id in ids
    }
    metrics = (tmp_path / "out" / "metrics.csv").read_text(encoding="utf-8").splitlines()
    assert metrics[1] == "RAG-best-worst,final,,,,,0,4"


def test_cli_run_prints_the_table_header_that_metrics_prints(tmp_path, capsys):
    # With no valid candidate the QWK row and the accuracy row read alike.
    exam_dir, rubric_dir = make_synthetic(tmp_path / "tiny", n=4, seed=1)
    out = tmp_path / "out"
    config_file = tmp_path / "exp.conf"
    config_file.write_text(
        f"corpus.path = {exam_dir}\nrubric.path = {rubric_dir}\noutput.dir = {out}\ntechnique = rag_best_avg_worst\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_file)]) == 0
    run_lines = capsys.readouterr().out.splitlines()
    argv = ["metrics", "--pred", str(out / "predictions.jsonl"), "--gold", str(exam_dir)]
    assert main(argv + ["--technique", "RAG-best-worst"]) == 0
    table = capsys.readouterr().out.splitlines()[-3:]
    assert table[0] == "Technique & Grade & Task 1 dimensions & Task 2 dimensions"
    assert table[1] == table[2] == "RAG-best-worst & — & —/—/—/— & —/—/—/—"
    header = run_lines.index(table[0])
    assert run_lines[header : header + 3] == table


@pytest.fixture(scope="module")
def faults_run(tmp_path_factory):
    """A 12-exam corpus and its clean echo-gold ``baseline`` run."""
    exam_dir, rubric_dir = make_synthetic(tmp_path_factory.mktemp("faults"), n=12, seed=2)
    out = tmp_path_factory.mktemp("faults-clean")
    run_experiment(_cfg(exam_dir, rubric_dir, out))
    return exam_dir, rubric_dir, load_corpus(exam_dir), out


def _prediction_lines(out: Path) -> list[bytes]:
    data = (out / "predictions.jsonl").read_bytes()
    assert data.endswith(b"\n")
    return data[:-1].split(b"\n")


@settings(deadline=None, max_examples=20)
@example(schedule=["u2028", None, "surrogate", "transport", "u0085", "no_json"] + [None] * 6)
@given(schedule=st.lists(st.sampled_from((None, *_FAULTS)), min_size=12, max_size=12))
def test_a_run_under_faults_completes_and_keeps_every_other_candidate(faults_run, tmp_path_factory, schedule):
    exam_dir, rubric_dir, corpus, clean = faults_run
    ids = sorted(r.id for r in corpus.records)
    faults = {exam_id: fault for exam_id, fault in zip(ids, schedule) if fault is not None}
    clean_lines = _prediction_lines(clean)
    root = tmp_path_factory.mktemp("faulty")
    runs = {}
    for parallelism in (1, 4):
        out = root / f"p{parallelism}"
        cfg = _cfg(exam_dir, rubric_dir, out, **{"runner.parallelism": parallelism})
        report = run_experiment(cfg, client=_FaultyClient(corpus, faults))
        assert sorted(report.errored) == sorted(i for i, fault in faults.items() if fault == "transport")
        lines = _prediction_lines(out)
        assert len(lines) == len(ids)
        for exam_id, line, clean_line in zip(ids, lines, clean_lines):
            name = f"transcripts/{exam_id}.json"
            fault = faults.get(exam_id)
            if fault is None:
                assert line == clean_line
                assert (out / name).read_bytes() == (clean / name).read_bytes()
            elif fault in _FEEDBACK_FAULTS:
                assert json.loads(line)["assessment"]["feedback"]["task1"] == _FEEDBACK_FAULTS[fault]
                assert json.loads((out / name).read_bytes())["error"] is None
        argv = ["metrics", "--pred", str(out / "predictions.jsonl"), "--gold", str(exam_dir)]
        assert main(argv + ["--technique", report.technique, "--out", str(root / f"rescored{parallelism}")]) == 0
        assert (root / f"rescored{parallelism}" / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
        runs[parallelism] = artifact_bytes(out)
    assert runs[4] == runs[1]


def test_run_writes_transcripts_and_metadata(synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    out = tmp_path / "out"
    cfg = _cfg(exam_dir, rubric_dir, out, technique="few_best_worst")
    report = run_experiment(cfg)
    assert report.n == 25
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["technique"] == "Few-best-worst"
    assert len(meta["config_hash"]) == 64
    assert meta["client"] == "mock:echo_gold"
    transcripts = list((out / "transcripts").glob("*.json"))
    assert len(transcripts) == 25
    one = json.loads(transcripts[0].read_text())
    assert len(one["guesses"]) == 3  # three calibration rounds
    predictions = (out / "predictions.jsonl").read_text().splitlines()
    assert len(predictions) == 25


def test_few_mixed_calibration_grouping(synthetic_dirs_25, corpus_25):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(exam_dir, rubric_dir, "unused", technique="few_mixed")
    plan = technique_plan(cfg)
    candidate = corpus_25.records[0]
    items = calibration_items(corpus_25, candidate, plan)
    assert [(i.positions, i.level) for i in items] == [
        ((1,), 1), ((1,), 3), ((1,), 5),
        ((2,), 1), ((2,), 2), ((2,), 3), ((2,), 4), ((2,), 5),
    ]
    assert candidate.id not in [i.exam.id for i in items]


def test_exemplar_manifest_is_honored(synthetic_dirs_25, corpus_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    candidate = corpus_25.records[0]
    pool = corpus_25.pool(candidate.year, candidate.pack)
    fallback_pick = calibration_items(
        corpus_25, candidate, technique_plan(_cfg(exam_dir, rubric_dir, "unused", technique="few_best_worst"))
    )[0].exam.id
    # force a level-1 exemplar the fallback would not choose on its own
    wanted = next(
        r.id for r in pool if r.gold.final_as_grade() == 2 and r.id not in (candidate.id, fallback_pick)
    )
    manifest_path = tmp_path / "exemplars.json"
    manifest_path.write_text(
        json.dumps({f"{candidate.year}/{candidate.pack}": {"1": wanted}}), encoding="utf-8"
    )
    cfg = _cfg(
        exam_dir, rubric_dir, "unused", technique="few_best_worst",
        **{"corpus.exemplars": manifest_path},
    )
    from matura_grader.runner import load_exemplar_manifest

    plan = technique_plan(cfg)
    with_manifest = calibration_items(corpus_25, candidate, plan, load_exemplar_manifest(str(manifest_path)))
    without_manifest = calibration_items(corpus_25, candidate, plan)
    assert with_manifest[0].exam.id == wanted
    assert without_manifest[0].exam.id != wanted


def test_cli_make_synthetic_and_validate(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["make-synthetic", "--out", str(out), "--n", "12", "--seed", "3"]) == 0
    again = tmp_path / "gen2"
    assert main(["make-synthetic", "--out", str(again), "--n", "12", "--seed", "3"]) == 0
    files = sorted(p.name for p in (out / "exams").glob("*.json"))
    assert len(files) == 12
    assert (out / "exams" / files[0]).read_bytes() == (again / "exams" / files[0]).read_bytes()

    assert main(["validate-corpus", str(out / "exams")]) == 0
    captured = capsys.readouterr()
    assert "12 records ok" in captured.out

    bad = out / "exams" / "zz-bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["validate-corpus", str(out / "exams")]) == 1


def test_cli_run_and_metrics_roundtrip(synthetic_dirs_25, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_25
    out = tmp_path / "out"
    config_file = tmp_path / "exp.conf"
    config_file.write_text(
        "\n".join(
            [
                f"corpus.path = {exam_dir}",
                f"rubric.path = {rubric_dir}",
                f"output.dir = {out}",
                "technique = rag_best_avg_worst",
                "client.kind = mock",
                "client.policy = echo_gold",
            ]
        ),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_file)]) == 0
    captured = capsys.readouterr()
    assert "RAG-best-worst" in captured.out
    assert (out / "metrics.csv").exists()

    assert main(["metrics", "--pred", str(out / "predictions.jsonl"), "--gold", str(exam_dir)]) == 0
    captured = capsys.readouterr()
    assert "graded: 25 valid, 0 invalid" in captured.out
    assert "& 1.00 &" in captured.out


def test_cli_context_shows_baw_references(synthetic_dirs_25, corpus_25, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_25
    config_file = tmp_path / "ctx.conf"
    config_file.write_text(
        "\n".join(
            [
                f"corpus.path = {exam_dir}",
                f"rubric.path = {rubric_dir}",
                "technique = rag_best_avg_worst",
            ]
        ),
        encoding="utf-8",
    )
    candidate = corpus_25.records[0].id
    assert main(["context", "--config", str(config_file), "--candidate", candidate]) == 0
    captured = capsys.readouterr()
    reference_lines = [line for line in captured.out.splitlines() if line.strip().startswith("task ")]
    assert len(reference_lines) == 6  # 3 references x 2 tasks
    ids = {line.split(":")[1].split("[")[0].strip() for line in reference_lines}
    assert len(ids) == 3
    assert candidate not in ids
    assert "Inhalt" in captured.out  # grades are printed


def test_cli_print_defaults(capsys):
    assert main(["run", "--print-defaults"]) == 0
    captured = capsys.readouterr()
    assert "technique = baseline" in captured.out
    assert "client.kind = mock" in captured.out


def test_cli_unknown_flag_exits_2(capsys):
    assert main(["run", "--unbekannt"]) == 2


def test_cli_unknown_candidate_is_fatal(synthetic_dirs_25, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_25
    config_file = tmp_path / "ctx.conf"
    config_file.write_text(
        f"corpus.path = {exam_dir}\nrubric.path = {rubric_dir}\n", encoding="utf-8"
    )
    assert main(["context", "--config", str(config_file), "--candidate", "fehlt"]) == 2


def test_cli_unknown_candidate_error_line_is_unquoted(synthetic_dirs_25, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_25
    config_file = _context_config(tmp_path, exam_dir, rubric_dir)
    assert main(["context", "--config", str(config_file), "--candidate", "exam-999"]) == 2
    assert capsys.readouterr().err == "error: no exam with id 'exam-999'\n"


def test_importing_runner_loads_no_numpy():
    # A numpy import adds about 13 MiB of resident memory to every run, more
    # than the pure-Python similarity scan saves; keep it out of the pipeline.
    import matura_grader

    src = str(Path(matura_grader.__file__).resolve().parents[1])
    probe = "import sys, matura_grader.runner; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_importing_runner_loads_no_requests():
    # The clients post through http.client; requests and its dependencies add
    # about 7 MiB of resident memory and 100 ms of import time to every run.
    # Only what the import adds counts: a site hook may load certifi first.
    import matura_grader

    src = str(Path(matura_grader.__file__).resolve().parents[1])
    banned = ("requests", "urllib3", "charset_normalizer", "idna", "certifi")
    probe = (
        "import sys; before = set(sys.modules); import matura_grader.runner; "
        f"print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in {banned!r}))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# sha256 of the `context` output per (technique, candidate) on
# make_synthetic(n=25, seed=5) with default options, recorded before the
# grade-keyed pickers went through one routine.
CONTEXT_SHA256 = {
    ("baseline", "exam-001"): "a419fa29574d31bcfd42fa0c14ac8056038e102378bdb25c3127426c65707ae5",
    ("baseline", "exam-012"): "a6b457c4666099156177b461605e969a31ff92dac64092ac4f0495a291f22aea",
    ("baseline", "exam-025"): "218aaf4fa26cfbe2dfff34fb0b9ba828c26f1d60b3368d4adb88d119782c4a94",
    ("rag_best_avg_worst", "exam-001"): "aa01b157a48a9d8bdb265b4bc3c3abe64711dca633dd3d97a704b0e35cde591d",
    ("rag_best_avg_worst", "exam-012"): "40ee04739a6457acaeca1348e78fe11cf79107a670b4a9c3b09f5dc9b9d1dacc",
    ("rag_best_avg_worst", "exam-025"): "4a7789881a8d16c8119616d2e511cf1b11ba25b98861a18a8fbc10b9a0e5fa81",
    ("rag_most_similar", "exam-001"): "77aae4b07122e74f7eb51376ea14c46df8acdf3769acb7f98c202383b22a9a17",
    ("rag_most_similar", "exam-012"): "0794f4a13a487560e8f6013d9057d23c94ac89087522458ba5d25e36a81c5743",
    ("rag_most_similar", "exam-025"): "e53d896594f38b255e419b01770514eef9f0df944f46537a6c9ce49cee99c8f9",
    ("rag_range", "exam-001"): "532fe40c2b8eb014c6def827edff86d4deb5e4420b093cbdcbc5784a0950c1cc",
    ("rag_range", "exam-012"): "989553edef180dbad33a20a6c87dc0ee0848aef57bf383bfcfa66e18d85d4f74",
    ("rag_range", "exam-025"): "a165db816a047ade896a92f47ce36f703e54f1c3c112eb632a96923407e7a6ac",
    ("few_all_grades", "exam-001"): "f5d8a9f367880842adee01f9c0e825a6a69747ef1855ad662d37cd1ae4352859",
    ("few_all_grades", "exam-012"): "68812fdd33ef7504d650601567ad5a7023725c6fc9c5a93f19f52862a4de02da",
    ("few_all_grades", "exam-025"): "bde4afda523b58a1205fb15a4fe58fc5a7765e119686f6dcd715cece94b38970",
    ("few_best_worst", "exam-001"): "6a71310d44ae6cf60e7d2bc5a9eaab7d7c28b5a2837854f79417d5c15c52ba31",
    ("few_best_worst", "exam-012"): "7547a3af88b93747633052fc70b7d9fdd7202713e7b0badd2fb63f67828ade48",
    ("few_best_worst", "exam-025"): "17c5642936c28ce1416eafe9215760d7a0f9839e4b5681062a29a2f16b6c5696",
    ("few_mixed", "exam-001"): "2af9850e0b65ba5e6546f700388cae2a8f51b1d1c2715686001d8618b936d430",
    ("few_mixed", "exam-012"): "e87001b1c1676a41d32c12d1fda46b82bc0824e978f2878851cbaa8d7391c5a0",
    ("few_mixed", "exam-025"): "4b087efedcfe6cf1104305d0e425c75398529d332bdb775d86bb6f0a9bca14e0",
    ("cot_best_worst", "exam-001"): "7094c44d3695c4c0307843d0a06557d4145385f91c09f51b446f41f5328bef92",
    ("cot_best_worst", "exam-012"): "a89bed89e2287ca663a5c35ae8daf1cee1a869f881e1358b6a2060f01309d7f0",
    ("cot_best_worst", "exam-025"): "ff1f11d5163ba9501acbb11dc348c581c11eb95e234c4402aa52d00d351efc31",
}


@pytest.mark.parametrize("technique,candidate", sorted(CONTEXT_SHA256))
def test_cli_context_output_is_pinned(technique, candidate, synthetic_dirs_25, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_25
    config_file = tmp_path / "ctx.conf"
    config_file.write_text(
        f"corpus.path = {exam_dir}\nrubric.path = {rubric_dir}\ntechnique = {technique}\n", encoding="utf-8"
    )
    assert main(["context", "--config", str(config_file), "--candidate", candidate]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONTEXT_SHA256[(technique, candidate)], out


_CALIBRATION_LINE = re.compile(r"  calibration level [1-5] \(task ([0-9,]+)\): (.+)")
_REFERENCE_LINE = re.compile(r"  task ([12]): (\S+) \[")
_SENT_REFERENCE = re.compile(r"^Referenztext R[0-9]+ \(Klausur ([^,]+), Aufgabe ([12]),", re.MULTILINE)


def _context_and_messages(tmp_path, synthetic_dirs_25, capsys, candidate, **options) -> tuple[str, list[dict]]:
    """The `context` output for ``candidate`` and the messages of its
    transcript from a `run` of the same config."""
    exam_dir, rubric_dir = synthetic_dirs_25
    values = {
        "corpus.path": exam_dir, "rubric.path": rubric_dir, "output.dir": tmp_path / "out",
        "client.policy": "echo_gold", **options,
    }
    config_file = tmp_path / "exp.conf"
    config_file.write_text("".join(f"{key} = {value}\n" for key, value in values.items()), encoding="utf-8")
    assert main(["context", "--config", str(config_file), "--candidate", candidate]) == 0
    out = capsys.readouterr().out
    assert main(["run", "--config", str(config_file)]) == 0
    transcript = tmp_path / "out" / "transcripts" / f"{candidate}.json"
    return out, json.loads(transcript.read_text(encoding="utf-8"))["messages"]


@pytest.mark.parametrize("ordering", sorted(ORDERINGS))
@pytest.mark.parametrize("technique", [name for name, plan in TECHNIQUES.items() if not plan.zero_shot])
def test_cli_context_lists_the_calibration_rounds_the_run_sends(
    technique, ordering, synthetic_dirs_25, corpus_25, tmp_path, capsys
):
    out, messages = _context_and_messages(
        tmp_path, synthetic_dirs_25, capsys, "exam-003", technique=technique, ordering=ordering
    )
    shown = [(tuple(map(int, positions.split(","))), exam_id) for positions, exam_id in _CALIBRATION_LINE.findall(out)]
    # The system prompt, a calibration message, a guess and a reveal per
    # round, then the candidate and the answer.
    assert shown and len(messages) == 3 * len(shown) + 3
    for index, ((positions, exam_id), message) in enumerate(zip(shown, messages[1:-2:3]), start=1):
        assert message == {
            "role": "user",
            "content": render_calibration_message(index, corpus_25.get(exam_id), positions),
        }


def test_cli_context_lists_the_references_a_token_budget_keeps(synthetic_dirs_25, tmp_path, capsys):
    out, messages = _context_and_messages(
        tmp_path, synthetic_dirs_25, capsys, "exam-003",
        technique="rag_most_similar", **{"technique.k": 3, "runner.token_budget": 4000},
    )
    shown = [(exam_id, int(position)) for position, exam_id in _REFERENCE_LINE.findall(out)]
    sent = [(exam_id, int(position)) for exam_id, position in _SENT_REFERENCE.findall(messages[1]["content"])]
    assert 0 < len(sent) < 6  # the budget drops some of the 3 references per task
    assert shown == sent


@pytest.fixture(scope="module")
def synthetic_dirs_20_seed7(tmp_path_factory):
    return make_synthetic(tmp_path_factory.mktemp("corpus20"), n=20, seed=7)


_LISTED_FINAL = re.compile(r"^  task ([12]): \S+ \[.*\(Gesamtnote der Klausur: ([1-5])\)\]", re.MULTILINE)


def test_cli_context_coverage_counts_the_references_a_token_budget_keeps(synthetic_dirs_20_seed7, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_20_seed7
    config_file = _context_config(tmp_path, exam_dir, rubric_dir, technique="rag_range")
    with config_file.open("a", encoding="utf-8") as handle:
        handle.write("runner.token_budget = 4500\n")
    assert main(["context", "--config", str(config_file), "--candidate", "exam-003"]) == 0
    out = capsys.readouterr().out
    listed = Counter((int(position), int(grade)) for position, grade in _LISTED_FINAL.findall(out))
    coverage = [line for line in out.splitlines() if line.startswith("  coverage task ")]
    assert coverage == [
        f"  coverage task {position}: " + ", ".join(f"{grade}:{listed[position, grade]}" for grade in range(1, 6))
        for position in (1, 2)
    ]
    # The budget keeps 3 of the 10 references, all for task 1.
    assert coverage == ["  coverage task 1: 1:1, 2:1, 3:0, 4:0, 5:1", "  coverage task 2: 1:0, 2:0, 3:0, 4:0, 5:0"]


@pytest.mark.parametrize("technique", ["rag_most_similar", "rag_range"])
def test_candidate_script_selection_renders_to_the_references_it_sends(
    technique, synthetic_dirs_25, corpus_25, rubrics_25, tmp_path
):
    # Every budget from "drop nothing" down to 1 (which leaves the bare
    # candidate message): the returned selection renders to exactly the
    # reference blocks of the script's user message.
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out", technique=technique, **{"technique.k": 3})
    plan = technique_plan(cfg)
    index = TaskTextIndex.build(corpus_25, FallbackEmbedder(cfg.embedding_dim))
    candidate = corpus_25.get("exam-003")
    inputs = RunInputs(cfg, corpus_25, rubrics_25, {}, plan, index)
    unlimited, built = build_candidate_script(inputs, candidate)
    assert unlimited.dropped_context == 0
    full = (len(unlimited.system) + len(unlimited.turns[0].content)) // 4
    seen = set()
    for budget in range(full, 0, -25):
        script, selection = build_candidate_script(replace(inputs, cfg=replace(cfg, token_budget=budget)), candidate)
        blocks = render_context_blocks(selection, candidate)
        assert script.turns[0].content == "\n\n".join(
            ([template("context_intro"), *blocks] if blocks else []) + [render_candidate_block(candidate)]
        ), budget
        assert len(selection.entries) == len(built.entries) - script.dropped_context
        seen.add(len(selection.entries))
        if technique == "rag_range":
            sent = Counter((entry.task_position, entry.final_grade) for entry in selection.entries)
            assert selection.coverage == {
                position: {grade: sent[position, grade] for grade in range(1, 6)} for position in (1, 2)
            }, budget
    assert seen == set(range(len(built.entries) + 1))


def test_run_logs_each_candidates_selection_warnings(synthetic_dirs_25, corpus_25, tmp_path, caplog):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out", technique="rag_most_similar", **{"technique.k": 30})
    caplog.set_level(logging.WARNING, logger="matura_grader.runner")
    run_experiment(cfg)
    expected = [
        f"context for {record.id}: task {position}: pool has only"
        f" {len(corpus_25.pool(record.year, record.pack)) - 1} texts, requested 30"
        for record in sorted(corpus_25.records, key=lambda r: r.id)
        for position in (1, 2)
    ]
    assert [r.getMessage() for r in caplog.records if r.name == "matura_grader.runner"] == expected


def _manifest_config(tmp_path, synthetic_dirs_25, manifest) -> tuple[Path, Path]:
    exam_dir, rubric_dir = synthetic_dirs_25
    manifest_path = tmp_path / "exemplars.json"
    # A string or bytes are written as they are: a manifest that is not JSON
    # or not UTF-8.
    if isinstance(manifest, bytes):
        manifest_path.write_bytes(manifest)
    else:
        manifest_path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest), encoding="utf-8")
    config_file = tmp_path / "exp.conf"
    config_file.write_text(
        f"corpus.path = {exam_dir}\nrubric.path = {rubric_dir}\noutput.dir = {tmp_path / 'out'}\n"
        f"technique = few_best_worst\ncorpus.exemplars = {manifest_path}\n",
        encoding="utf-8",
    )
    return config_file, manifest_path


@pytest.mark.parametrize(
    "manifest,named",
    [
        ([["2023/pack-a", {"1": "exam-001"}]], "must be a JSON object"),
        ({"pack-a": {"1": "exam-001"}}, "'pack-a'"),
        ({"x/pack-a": {"1": "exam-001"}}, "'x/pack-a'"),
        ({"2023/": {"1": "exam-001"}}, "'2023/'"),
        ({"2023/pack-a": [1, 2]}, "'2023/pack-a'"),
        ({"2023/pack-a": {"9": "x"}}, "'9'"),
        ({"2023/pack-a": {"best": "x"}}, "'best'"),
        ({"2023/pack-a": {"1": 7}}, "'2023/pack-a'"),
        ('{"2023/pack-a": {"1": "exam-001"}', "not valid JSON"),
        (b'\xff\xfe{"2023/pack-a": {"1": "exam-001"}}', "exemplar manifest is not UTF-8"),
        # One pack named twice: the later key would replace the earlier.
        (
            {"2023/pack-a": {"1": "exam-001"}, "02023/pack-a": {"1": "exam-003"}},
            "exemplar manifest keys '2023/pack-a' and '02023/pack-a' name one pack",
        ),
        (
            '{"2023/pack-a": {"1": "exam-001"}, "2023/pack-a": {"1": "exam-003"}}',
            "exemplar manifest keys '2023/pack-a' and '2023/pack-a' name one pack",
        ),
    ],
)
def test_cli_context_rejects_malformed_exemplar_manifest(manifest, named, synthetic_dirs_25, tmp_path, capsys):
    config_file, manifest_path = _manifest_config(tmp_path, synthetic_dirs_25, manifest)
    assert main(["context", "--config", str(config_file), "--candidate", "exam-001"]) == 2
    err = capsys.readouterr().err
    assert str(manifest_path) in err and named in err, err


def test_cli_run_rejects_malformed_exemplar_manifest(synthetic_dirs_25, tmp_path, capsys):
    config_file, manifest_path = _manifest_config(tmp_path, synthetic_dirs_25, {"2023/pack-a": [1, 2]})
    assert main(["run", "--config", str(config_file)]) == 2
    assert str(manifest_path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["run"], ["context", "--candidate", "exam-007"]], ids=["run", "context"])
def test_cli_fails_at_set_up_on_a_text_type_without_a_rubric(command, synthetic_dirs_25, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_25
    rubrics = tmp_path / "rubrics"
    shutil.copytree(rubric_dir, rubrics)
    (rubrics / "rubric_01.json").unlink()  # Commentary
    config_file = tmp_path / "exp.conf"
    config_file.write_text(
        f"corpus.path = {exam_dir}\nrubric.path = {rubrics}\ntechnique = few_best_worst\n"
        f"client.policy = echo_gold\noutput.dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main([command[0], "--config", str(config_file), *command[1:]]) == 2
    assert capsys.readouterr().err == "error: exam 'exam-002' task 2: no rubric for text type 'Commentary'\n"
    assert not (tmp_path / "out").exists()


_ALL_THREES = {task: dict.fromkeys(DIMENSIONS, 3) for task in ("task1", "task2")}


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '"exam-001"',
        "{not json",
        '{"valid": true, "assessment": {"task1": null}}',
        '{"id": "exam-002", "valid": true, "assessment": {"task1": null}}',
        '{"id": "exam-002", "valid": true, "assessment": [1, 2]}',
        '{"id": "exam-002", "valid": true, "assessment": {"task1": {"content": 1}, "task2": {}}}',
        # A valid line must hold its grade sheet.
        '{"id": "exam-002", "valid": true, "error": null, "assessment": null}',
        '{"id": "exam-002", "valid": true, "error": null, "assessment": {}}',
        '{"id": "exam-002", "valid": true, "error": null, "assessment": []}',
        '{"id": "exam-002", "valid": true, "error": null, "assessment": 0}',
        b'{"id": "exam-002", "valid": false, "error": "\xff\xfe"}',
        # An assessment that rescores as valid once valid reads as true.
        json.dumps({"id": "exam-002", "valid": "false", "assessment": _ALL_THREES}),
        json.dumps({"id": "exam-002", "valid": 1, "assessment": _ALL_THREES}),
        '{"id": "exam-002", "assessment": null}',
        '{"id": "exam-002", "valid": false, "error": 1, "assessment": null}',
        '{"id": "exam-002", "valid": false, "error": ["timeout"], "assessment": null}',
        # An exam the gold corpus lacks, in a valid and in an invalid line.
        json.dumps({"id": "exam-999", "valid": True, "error": None, "assessment": _ALL_THREES}),
        '{"id": "exam-999", "valid": false, "error": "timeout", "assessment": null}',
    ],
)
def test_cli_metrics_rejects_malformed_prediction_line(line, synthetic_dirs_25, corpus_25, tmp_path, capsys):
    exam_dir, _ = synthetic_dirs_25
    gold = corpus_25.get("exam-001").gold
    assessment = {"task1": gold.task1.as_dict(), "task2": gold.task2.as_dict()}
    good = {"id": "exam-001", "valid": True, "assessment": assessment}
    pred = tmp_path / "predictions.jsonl"
    # A bytes line is written as it is: a line that is not UTF-8.
    payload = line if isinstance(line, bytes) else line.encode("utf-8")
    pred.write_bytes(json.dumps(good).encode("utf-8") + b"\n" + payload + b"\n")
    assert main(["metrics", "--pred", str(pred), "--gold", str(exam_dir)]) == 2
    err = capsys.readouterr().err
    assert f"{pred}:2: " in err, err


def test_cli_metrics_rejects_duplicate_prediction_id(synthetic_dirs_25, corpus_25, tmp_path, capsys):
    exam_dir, _ = synthetic_dirs_25
    gold = corpus_25.get("exam-001").gold
    assessment = {"task1": gold.task1.as_dict(), "task2": gold.task2.as_dict()}
    line = json.dumps({"id": "exam-001", "valid": True, "assessment": assessment})
    other = json.dumps({"id": "exam-002", "valid": False, "assessment": None})
    pred = tmp_path / "predictions.jsonl"
    pred.write_text("\n".join([line, other, line, line]) + "\n", encoding="utf-8")
    assert main(["metrics", "--pred", str(pred), "--gold", str(exam_dir)]) == 2
    err = capsys.readouterr().err
    assert f"{pred}:3: duplicate prediction for 'exam-001' (first on line 1)" in err, err


@pytest.mark.parametrize("content", [b"", b"\n  \n"], ids=["empty", "blank_lines"])
def test_cli_metrics_names_a_predictions_file_without_a_line(content, synthetic_dirs_25, tmp_path, capsys):
    exam_dir, _ = synthetic_dirs_25
    pred = tmp_path / "predictions.jsonl"
    pred.write_bytes(content)
    assert main(["metrics", "--pred", str(pred), "--gold", str(exam_dir)]) == 2
    err = capsys.readouterr().err
    assert f"{pred}: holds no prediction line" in err, err


@pytest.fixture(scope="module")
def synthetic_dirs_40(tmp_path_factory):
    return make_synthetic(tmp_path_factory.mktemp("corpus40"), n=40, seed=3)


def _run_then_rescore(exam_dir, rubric_dir, tmp_path, *settings) -> tuple[int, Path]:
    """Run ``baseline`` with echo-gold answers and ``settings``, then
    re-score its predictions with ``metrics``; the exit code and run dir."""
    out = tmp_path / "out"
    config_file = tmp_path / "exp.conf"
    config_file.write_text(
        "\n".join(
            [f"corpus.path = {exam_dir}", f"rubric.path = {rubric_dir}", f"output.dir = {out}"]
            + ["technique = baseline", "client.policy = echo_gold", *settings]
        ),
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config_file)]) == 0
    argv = ["metrics", "--pred", str(out / "predictions.jsonl"), "--gold", str(exam_dir)]
    return main(argv + ["--technique", "baseline", "--out", str(tmp_path / "rescored")]), out


def test_cli_metrics_rescores_with_the_runs_rounding(synthetic_dirs_40, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_40
    code, out = _run_then_rescore(
        exam_dir, rubric_dir, tmp_path, "grading.round_half = worse", "corpus.trust_stored_grades = true"
    )
    assert code == 0, capsys.readouterr().err
    assert ",0.993443," in (out / "metrics.csv").read_text(encoding="utf-8")
    assert (tmp_path / "rescored" / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


def test_cli_metrics_loads_the_gold_corpus_as_the_run_did(synthetic_dirs_40, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_40
    copied = tmp_path / "exams"
    shutil.copytree(exam_dir, copied)
    exam = copied / "exam-001.json"
    data = json.loads(exam.read_text(encoding="utf-8"))
    data["gold"]["final"] = 2 if data["gold"]["final"] != 2 else 3
    exam.write_text(json.dumps(data), encoding="utf-8")
    code, out = _run_then_rescore(copied, rubric_dir, tmp_path, "corpus.trust_stored_grades = true")
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "rescored" / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


@pytest.mark.parametrize(
    "meta",
    ["{not json", "[]", '{"config": []}', '{"config": {"grading.round_half": "worse"}}',
     '{"config": {"grading.round_half": "sometimes", "corpus.trust_stored_grades": "false"}}',
     '{"config": {"grading.round_half": "worse", "corpus.trust_stored_grades": true}}'],
)
def test_cli_metrics_rejects_a_malformed_run_meta(meta, synthetic_dirs_25, tmp_path, capsys):
    exam_dir, _ = synthetic_dirs_25
    pred = tmp_path / "predictions.jsonl"
    pred.write_text("", encoding="utf-8")
    (tmp_path / "run_meta.json").write_text(meta, encoding="utf-8")
    assert main(["metrics", "--pred", str(pred), "--gold", str(exam_dir)]) == 2
    assert f"{tmp_path / 'run_meta.json'}: malformed run_meta.json" in capsys.readouterr().err


# Every entry falls back to the automatic pick: a pack the corpus lacks, an
# unknown id, an id of another pack, and exam-001 itself, which is in its pack
# and is only skipped (without a warning) when it is the candidate.
_UNUSED_MANIFEST = {
    "2023/pack-a": {"1": "no-such-exam", "3": "exam-002", "5": "exam-001"},
    "1999/none": {"1": "exam-001"},
}
_UNUSED_MANIFEST_WARNINGS = [
    "exemplar manifest 2023/pack-a: 'no-such-exam' is not in that pack; the automatic pick is used",
    "exemplar manifest 2023/pack-a: 'exam-002' is not in that pack; the automatic pick is used",
    "exemplar manifest: the corpus has no pack 1999/none; its entry is unused",
]


def _manifest_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "matura_grader.runner" and r.levelname == "WARNING"]


def test_cli_context_warns_about_unused_manifest_entries(synthetic_dirs_25, tmp_path, capsys, caplog):
    config_file, _ = _manifest_config(tmp_path, synthetic_dirs_25, _UNUSED_MANIFEST)
    caplog.set_level(logging.WARNING, logger="matura_grader.runner")
    assert main(["context", "--config", str(config_file), "--candidate", "exam-001"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONTEXT_SHA256[("few_best_worst", "exam-001")], out
    assert _manifest_warnings(caplog) == _UNUSED_MANIFEST_WARNINGS


def test_cli_run_warns_about_unused_manifest_entries(synthetic_dirs_25, tmp_path, caplog):
    exam_dir, rubric_dir = synthetic_dirs_25
    plain = tmp_path / "plain.conf"
    plain.write_text(
        f"corpus.path = {exam_dir}\nrubric.path = {rubric_dir}\noutput.dir = {tmp_path / 'plain'}\n"
        "technique = few_best_worst\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(plain)]) == 0
    config_file, _ = _manifest_config(tmp_path, synthetic_dirs_25, _UNUSED_MANIFEST)
    caplog.set_level(logging.WARNING, logger="matura_grader.runner")
    assert main(["run", "--config", str(config_file)]) == 0
    assert _manifest_warnings(caplog) == _UNUSED_MANIFEST_WARNINGS
    for name in ("metrics.csv", "predictions.jsonl", "transcripts/exam-001.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name


def _context_config(tmp_path, exam_dir, rubric_dir, technique="baseline") -> Path:
    config_file = tmp_path / "ctx.conf"
    config_file.write_text(
        f"corpus.path = {exam_dir}\nrubric.path = {rubric_dir}\ntechnique = {technique}\n", encoding="utf-8"
    )
    return config_file


def test_cli_context_logs_skipped_exam_files(synthetic_dirs_25, tmp_path, capsys, caplog):
    exam_dir, rubric_dir = synthetic_dirs_25
    copied = tmp_path / "exams"
    shutil.copytree(exam_dir, copied)
    (copied / "broken.json").write_text("{not json", encoding="utf-8")
    config_file = _context_config(tmp_path, copied, rubric_dir)
    caplog.set_level(logging.WARNING, logger="matura_grader.runner")
    assert main(["context", "--config", str(config_file), "--candidate", "exam-001"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONTEXT_SHA256[("baseline", "exam-001")], out
    skipped = [message for message in _manifest_warnings(caplog) if message.startswith("corpus: skipped ")]
    assert len(skipped) == 1 and "broken.json" in skipped[0], skipped


def test_cli_an_exam_whose_text_types_differ_from_its_packs_is_refused(tmp_path, capsys):
    exam_dir, rubric_dir = make_synthetic(tmp_path / "data", n=12, seed=3)
    edited = exam_dir / "exam-003.json"  # pack 2023/pack-a, fixed by exam-001
    data = json.loads(edited.read_text(encoding="utf-8"))
    data["tasks"][0]["text_type"] = "Commentary"
    edited.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")

    assert main(["validate-corpus", str(exam_dir)]) == 1
    assert capsys.readouterr().out.startswith(
        "error: exam-003.json: text types ('Commentary', 'Letter to the Editor')"
        " differ from those of 'exam-001' in pack 2023/pack-a\n"
    )
    config_file = _context_config(tmp_path, exam_dir, rubric_dir, "rag_most_similar")
    with config_file.open("a", encoding="utf-8") as handle:
        handle.write("technique.k = 5\n")
    assert main(["context", "--config", str(config_file), "--candidate", "exam-001"]) == 0
    out = capsys.readouterr().out
    assert "  task 1: exam-005 " in out
    assert "exam-003" not in out


@pytest.mark.parametrize("command", ["run", "context"])
def test_cli_empty_corpus_is_fatal(command, synthetic_dirs_25, tmp_path, capsys):
    _, rubric_dir = synthetic_dirs_25
    empty = tmp_path / "empty"
    empty.mkdir()
    config_file = _context_config(tmp_path, empty, rubric_dir)
    argv = [command, "--config", str(config_file)] + (["--candidate", "exam-001"] if command == "context" else [])
    assert main(argv) == 2
    assert f"no usable exams in {empty}" in capsys.readouterr().err


def test_cli_run_rejects_an_empty_output_dir(synthetic_dirs_25, tmp_path, monkeypatch, capsys):
    # An empty output.dir would write the run's artifacts into the working
    # directory.
    exam_dir, rubric_dir = synthetic_dirs_25
    config_file = _context_config(tmp_path, exam_dir, rubric_dir)
    with config_file.open("a", encoding="utf-8") as handle:
        handle.write("output.dir =\n")
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["run", "--config", str(config_file)]) == 2
    assert capsys.readouterr().err == f"error: {config_file}: output.dir must not be empty\n"
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize(
    "command,code,message",
    [
        ("run", 2, "run: --config is required (or use --print-defaults)"),
        ("metrics", 1, "no usable exams in {empty}"),
    ],
)
def test_cli_exit_code_without_usable_input(command, code, message, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "broken.json").write_text("{not json", encoding="utf-8")
    pred = tmp_path / "predictions.jsonl"
    pred.write_text(json.dumps({"id": "exam-001", "valid": False, "error": "timeout", "assessment": None}) + "\n")
    argv = ["run"] if command == "run" else ["metrics", "--pred", str(pred), "--gold", str(empty)]
    assert main(argv) == code
    assert message.format(empty=empty) in capsys.readouterr().err


class _CountingEmbedder(FallbackEmbedder):
    """Records every text it is asked to embed."""

    def __init__(self, dim):
        super().__init__(dim)
        self.texts = []

    def embed(self, text):
        self.texts.append(text)
        return super().embed(text)


@pytest.mark.parametrize("technique,builds_index", [("rag_most_similar", True), ("few_best_worst", False)])
def test_load_run_inputs_embeds_only_for_an_index(technique, builds_index, synthetic_dirs_25, corpus_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out", technique=technique)
    embedder = _CountingEmbedder(cfg.embedding_dim)
    inputs = load_run_inputs(cfg, embedder)
    assert inputs.cfg is cfg
    assert inputs.plan == technique_plan(cfg)
    if builds_index:
        assert len(embedder.texts) == 2 * len(corpus_25.records)
        assert inputs.index is not None
    else:
        assert len(embedder.texts) == 0
        assert inputs.index is None


class _OddVectorEmbedder(FallbackEmbedder):
    """The fallback embedder, except that one text gets ``vector``."""

    def __init__(self, dim, text, vector):
        super().__init__(dim)
        self.text, self.vector = text, vector

    def embed(self, text):
        return self.vector if text == self.text else super().embed(text)


class _NoChatClient(ChatClient):
    def chat(self, messages, exam_id=None):
        raise AssertionError("a run whose index failed made a chat call")

    def identity(self):
        return "no-chat"


@pytest.mark.parametrize(
    "vector, reason",
    [
        ((0.0,) * 128, "embedding has zero norm, so its cosine similarity is undefined"),
        ((1.0,) * 127, "embedding has 127 dimensions, the index's first has 128"),
    ],
    ids=["zero", "shorter"],
)
def test_a_run_with_an_unrankable_embedding_stops_at_set_up(vector, reason, synthetic_dirs_25, corpus_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    out = tmp_path / "out"
    cfg = _cfg(exam_dir, rubric_dir, out, technique="rag_most_similar")
    embedder = _OddVectorEmbedder(cfg.embedding_dim, corpus_25.get("exam-004").task(2).body, vector)
    with pytest.raises(EmbeddingError, match=f"^exam 'exam-004' task 2: {re.escape(reason)}$") as failed:
        run_experiment(cfg, client=_NoChatClient(), embedder=embedder)
    assert failed.traceback[-1].name == "build"
    assert "load_run_inputs" in [entry.name for entry in failed.traceback]
    assert not out.exists()


def test_cli_context_unknown_candidate_with_an_index_is_fatal(synthetic_dirs_25, tmp_path, capsys):
    exam_dir, rubric_dir = synthetic_dirs_25
    config_file = _context_config(tmp_path, exam_dir, rubric_dir, technique="rag_most_similar")
    assert main(["context", "--config", str(config_file), "--candidate", "fehlt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no exam with id 'fehlt'" in captured.err


def _raw_body(body: str) -> str:
    """``body`` as a file may hold it: CRLF line breaks, control characters,
    a soft hyphen break inside a word and runs of whitespace."""
    words = body.split()
    words[1] = words[1][:1] + "-\n" + words[1][1:]
    return "\x00 " + " \t\r\n  ".join(words[:6]) + "\r\n\r\n\r\n\x07" + "   ".join(words[6:]) + "\x1b\x85 "


@pytest.mark.parametrize("technique", ["rag_most_similar", "rag_range"])
def test_embedder_receives_only_loaded_bodies(technique, synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    raw_dir = tmp_path / "exams"
    raw_dir.mkdir()
    for exam in sorted(Path(exam_dir).glob("*.json")):
        data = json.loads(exam.read_text(encoding="utf-8"))
        for task in data["tasks"]:
            task["body"] = _raw_body(task["body"])
            assert normalize_text(task["body"]) != task["body"]
        (raw_dir / exam.name).write_text(json.dumps(data), encoding="utf-8")
    cfg = _cfg(raw_dir, rubric_dir, tmp_path / "out", technique=technique)
    embedder = _CountingEmbedder(cfg.embedding_dim)
    inputs = load_run_inputs(cfg, embedder)
    assert len(embedder.texts) == 2 * len(inputs.corpus.records) == 50
    for text in embedder.texts:
        assert normalize_text(text) == text
