from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from matura_grader.cli import main
from matura_grader.clients import ChatClient, ChatTransportError, MockChatClient
from matura_grader.config import config_from_values
from matura_grader.metrics import DIMENSION_KEYS
from matura_grader.retrieval import FallbackEmbedder, TaskTextIndex
from matura_grader.runner import (
    build_candidate_script,
    calibration_items,
    run_experiment,
    technique_plan,
)


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
    share_of_threes = sum(1 for r in corpus_25.records if r.gold.final_as_grade() == 3) / len(corpus_25)
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
    for candidate in corpus_25.records[:8]:
        _, selection, _ = build_candidate_script(cfg, corpus_25, index, rubrics, candidate, plan)
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


class _FlakyClient(ChatClient):
    """Echoes gold except for one exam, where transport always fails."""

    def __init__(self, corpus, broken_id):
        self.inner = MockChatClient("echo_gold", corpus=corpus)
        self.broken_id = broken_id

    def chat(self, messages, exam_id=None):
        if exam_id == self.broken_id:
            raise ChatTransportError("chat request failed: verbindung abgebrochen")
        return self.inner.chat(messages, exam_id=exam_id)

    def identity(self):
        return "flaky"


def test_transport_failure_is_isolated(synthetic_dirs_25, corpus_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    broken = corpus_25.records[3].id
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out")
    report = run_experiment(cfg, client=_FlakyClient(corpus_25, broken))
    assert report.errored == (broken,)
    assert report.n == 24
    assert report.invalid_count == 1
    transcript = json.loads((tmp_path / "out" / "transcripts" / f"{broken}.json").read_text())
    assert transcript["error"]


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
