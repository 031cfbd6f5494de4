"""Byte-level pins of the run outputs.

The values were recorded before config keys and techniques were collapsed
into single tables; any refactor of configuration, technique planning or
reporting must keep them exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from matura_grader.config import config_from_values, config_hash, format_defaults
from matura_grader.runner import run_experiment

DEFAULTS_HASH = "c0149c8e295153315aa7ed15f9e4258039fd7d1d097a5031ba1767bf50b4a5fa"
FORMAT_DEFAULTS_SHA256 = "6d9962081dc65b067a94550a683e6e509e6a072c5133f92be029ee7efc5e7a9f"

# technique -> (config_hash of {"technique": t}, sha256 of the echo_gold run's
# metrics.csv, predictions.jsonl and transcripts/* on make_synthetic(n=25, seed=5))
PINNED = {
    "baseline": (
        "c0149c8e295153315aa7ed15f9e4258039fd7d1d097a5031ba1767bf50b4a5fa",
        "f3a2290e8e4ca750a96cb1ed896d6693d6b00cbe5bac8859dda7b886e97a6dac",
    ),
    "rag_best_avg_worst": (
        "48eafa44ac38ad447c03b8de644f4d594721e3f68ff7a20e297163a5b8b2e593",
        "d3cc3ef22d614324bfc3fd2a6334f4c8f4c0ef8a22aa59e2c4da68acc6c9aa49",
    ),
    "rag_most_similar": (
        "1d750e51bd74407744746209b0d463a56b75d8b062e4d563af0746285579ca18",
        "92fe19fbea369b78f96ecee175f2c461072110b1fb2b74a62a5cb82a2ae90299",
    ),
    "rag_range": (
        "ec8eb8869c4c6ba8eb6fa4c6a33343ebb57ac60b946c30ee69ceb220755826dd",
        "7df82c33827b37c30c26e2ee15dd4047dfcc58b844ecd6b35c07bf65189eedae",
    ),
    "few_all_grades": (
        "b620a538912ad30705cdab1124c90f87c5bef3e716aaea7022cbe60cdcba9c7c",
        "26bd0cc374f121cc9d6c415e764785f28f8cac3e1c619028cd409334382f6149",
    ),
    "few_best_worst": (
        "75ebe5ef092b33d226d55174aa2b85c8964853b0aa1d213de27a9a749bbaef5e",
        "088e15d664b73dfad99db69f61db0357f0eec4af29ea8e04464ec45119991ca7",
    ),
    "few_mixed": (
        "6f045ad8ada2aa68ce7581b59c7306016f004e5a6d9bb05175408420055b4536",
        "e75d6d2c6c5b56d850ff89a5729c058ee8284102c7f3ef6e94acc7dc60203ea2",
    ),
    "cot_best_worst": (
        "0a33bd01493504e144a60bf7a077953fd3606da2b442def24264b46356c5814c",
        "41d9ae4fdecf6cc0881a9e88a35576815b6a4fc447aa9f55fd9673121a875a07",
    ),
}


def _artifact_digest(out_dir) -> str:
    digest = hashlib.sha256()
    files = [out_dir / "metrics.csv", out_dir / "predictions.jsonl"] + sorted((out_dir / "transcripts").iterdir())
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def test_defaults_hash_is_pinned():
    assert config_hash(config_from_values({})) == DEFAULTS_HASH


def test_format_defaults_is_pinned():
    assert hashlib.sha256(format_defaults().encode("utf-8")).hexdigest() == FORMAT_DEFAULTS_SHA256


@pytest.mark.parametrize(
    "values,expected",
    [
        ({"technique": "rag_most_similar", "technique.k": "3"},
         "e2abcd21927d10638887e4e0cc8185204be1af872ffe7499d54c4bfcc11ddbac"),
        ({"technique": "rag_range", "technique.n": "2"},
         "b670de51b89eb8ed1c4dcc3420014581b29a5cb07a5ad3883aa92db75441c2fe"),
        ({"client.temperature": "0.1", "client.timeout": "30", "embedding.fallback": "no",
          "corpus.trust_stored_grades": "YES"},
         "772815458a9c36f1846a26c22093da86bc9026d9225edd955d4a7f60375c3eeb"),
    ],
)
def test_non_default_values_hash_is_pinned(values, expected):
    assert config_hash(config_from_values(values)) == expected


@pytest.mark.parametrize("technique", sorted(PINNED))
def test_technique_config_hash_is_pinned(technique):
    assert config_hash(config_from_values({"technique": technique})) == PINNED[technique][0]


@pytest.mark.parametrize("technique", sorted(PINNED))
def test_technique_artifacts_are_pinned(technique, synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = config_from_values(
        {
            "technique": technique,
            "corpus.path": str(exam_dir),
            "rubric.path": str(rubric_dir),
            "output.dir": str(tmp_path / "out"),
        }
    )
    run_experiment(cfg)
    assert _artifact_digest(tmp_path / "out") == PINNED[technique][1]
