"""Test-only fakes and views over the pipeline's types.

None of these is reached by a CLI command, so they live with the tests.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import asdict
from pathlib import Path

from matura_grader.clients import ChatClient
from matura_grader.corpus import Corpus, ExamRecord
from matura_grader.retrieval import ContextSelection


class ScriptedChatClient(ChatClient):
    """Replays a fixed sequence of responses; repeats the last one when
    exhausted. Thread-safe so parallel runs stay well-defined."""

    def __init__(self, responses: list[str]):
        if not responses:
            raise ValueError("need at least one scripted response")
        self._responses = deque(responses)
        self._last = responses[-1]
        self._lock = threading.Lock()

    def chat(self, messages: list[dict[str, str]], exam_id: str | None = None) -> str:
        with self._lock:
            if self._responses:
                self._last = self._responses.popleft()
            return self._last

    def identity(self) -> str:
        return "scripted"


def cosine_similarity(a, b) -> float:
    """Cosine of two equal-length vectors; errors on zero norm. The scalar
    oracle every similarity of ``retrieval.TaskTextIndex`` is compared with."""
    va, vb = tuple(a), tuple(b)
    if len(va) != len(vb):
        raise ValueError(f"vector length mismatch: {len(va)} vs {len(vb)}")
    dot = sum(x * y for x, y in zip(va, vb))
    norm_a = math.sqrt(sum(x * x for x in va))
    norm_b = math.sqrt(sum(y * y for y in vb))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    return dot / (norm_a * norm_b)


def corpus_to_json(corpus: Corpus) -> str:
    """Canonical serialization; byte-stable across reloads of one directory."""
    payload = [_record_to_dict(r) for r in corpus.records]
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1)


def _record_to_dict(r: ExamRecord) -> dict:
    return {
        "id": r.id,
        "year": r.year,
        "pack": r.pack,
        "tasks": [{"text_type": t.text_type, "body": t.body} for t in r.tasks],
        # asdict keeps TaskGrades as tuples; the task grades are written as objects
        "gold": {**asdict(r.gold), **r.gold.sub_dimensions()},
    }


def reference_ids(selection: ContextSelection) -> tuple[str, ...]:
    """The ids of the selection's reference exams, noise left out, in order
    of first appearance."""
    seen: list[str] = []
    for entry in selection.entries:
        if not entry.is_noise and entry.exam_id not in seen:
            seen.append(entry.exam_id)
    return tuple(seen)


def artifact_bytes(out: Path) -> dict[str, bytes]:
    """A run's deterministic artifacts: metrics, predictions and transcripts."""
    files = [out / "metrics.csv", out / "predictions.jsonl", *sorted((out / "transcripts").iterdir())]
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in files}
