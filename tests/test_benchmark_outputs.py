"""The benchmark's recorded output digests, checked by the suite.

``perfbench/digests.json`` records, per workload and seed, the sha256 of the
artifacts a run writes. A change that makes a workload faster must leave
those bytes as they are. This test runs each workload twice at its full
size on seed 3, as ``perfbench/run.py --seed 3`` does, and needs the digest
to match and the chat calls to repeat. The chat calls may fall below the
protocol's figure (shared guesses make fewer) but never exceed it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_a_workload_writes_its_recorded_outputs_and_repeats_its_calls(name, monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1,localhost")
    workload = harness.WORKLOADS[name]
    assert harness.recorded_digest(name, SEED) is not None
    with harness.prepared(workload, SEED, workload.n) as inputs:
        reps = [harness.run_rep(inputs, traced=False) for _ in range(2)]
    assert harness.consistency_problems(reps, name, SEED, workload.n) == []
    assert [rep.failed for rep in reps] == [0, 0]
    assert 0 < reps[0].chat_calls <= workload.n * workload.chat_calls_per_exam
