"""Self-test of the benchmark: every workload once at a tiny n.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402

TINY_N = 12
SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module", autouse=True)
def environment():
    harness.prepare_environment()


def _units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    measurement = harness.measure(name, SEED, 0.0, trace=False, n=TINY_N)
    result = measurement.result

    assert measurement.problems == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2 * TINY_N
    assert {key: value["unit"] for key, value in result["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(value["value"] > 0 for value in result["metrics"].values())
    assert result["metrics"]["chat_calls_per_exam"]["value"] == harness.WORKLOADS[name].chat_calls_per_exam


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_reports_every_layer_and_accounts_for_its_wall_time(name):
    measurement = harness.measure(name, SEED, 0.0, trace=True, n=TINY_N)

    assert measurement.problems == []
    assert {key: value["unit"] for key, value in measurement.result["metrics"].items()} == _units(SPEC["per_layer"])
    traced = [rep for rep in measurement.reps if rep.traced]
    assert len(traced) >= 2
    for rep in traced:
        spans = rep.tracer.spans
        assert {span.layer for span in spans} == set(harness.LAYERS)
        root = next(span for span in spans if span.parent is None)
        selfs = tracing.self_times(spans)
        top_level = [span for span in spans if span.parent is root]
        assert sum(span.duration for span in top_level) + selfs[id(root)] == pytest.approx(root.duration, rel=1e-9)

        metrics = harness.layer_metrics(rep, TINY_N)
        assert metrics["trace.wall_s"] == root.duration
        if harness.WORKLOADS[name].parallelism == 1:
            layer_self = sum(metrics[f"{layer}.self_s"] for layer in harness.LAYERS)
            assert layer_self + metrics["trace.unattributed_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
        for span in spans:
            if span.name == "clients.chat":
                assert span.exam_id is not None
        assert metrics["clients.chat_calls"] == TINY_N * harness.WORKLOADS[name].chat_calls_per_exam


def test_tampered_predictions_fail_the_output_check():
    workload = harness.WORKLOADS["stub_fewmixed_n20"]
    with harness.prepared(workload, SEED, TINY_N) as inputs:
        rep = harness.run_rep(inputs, traced=False)
        assert rep.problems == []
        predictions = inputs.out_dir / "predictions.jsonl"
        lines = predictions.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        row["assessment"]["task1"]["content"] = row["assessment"]["task1"]["content"] % 5 + 1
        lines[0] = json.dumps(row, ensure_ascii=False, sort_keys=True)
        predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert harness.output_digest(inputs.out_dir) != rep.digest
        assert harness.check_outputs(inputs.out_dir, inputs.corpus) == [
            f"prediction for {row['id']} differs from its gold sheet"
        ]


def test_digest_mismatch_across_repetitions_is_a_problem():
    workload = harness.WORKLOADS["mock_similar_n300"]
    with harness.prepared(workload, SEED, TINY_N) as inputs:
        reps = [harness.run_rep(inputs, traced=False) for _ in range(2)]
    assert harness.consistency_problems(reps, workload.name, SEED, TINY_N) == []
    reps[1].digest = "0" * 64
    assert harness.consistency_problems(reps, workload.name, SEED, TINY_N) == [
        "outputs differ between repetitions"
    ]


def test_fails_without_the_pipeline_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        SPEC["command"] + ["--workload", "mock_similar_n300", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
