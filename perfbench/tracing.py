"""Span tracing of one pipeline run, applied from outside the package.

``instrument(tracer, ...)`` replaces, for the duration of a ``with`` block,
the names ``matura_grader.runner`` imports (and the prompt, parsing and
grading names ``orchestrator`` imports) with wrappers that record a span per
call: name, layer, start, end, parent span and exam id. The injected client
and embedder are wrapped per instance. ``cosine_similarity`` and
``Corpus.pool`` are only counted: they run hundreds of thousands of times.
Spans stay in memory; nothing is written while the run is timed.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from matura_grader import corpus, orchestrator, retrieval, runner


class Span:
    __slots__ = ("name", "layer", "parent", "exam_id", "start", "end", "failed")

    def __init__(self, name: str, layer: str, parent: "Span | None", exam_id: str | None):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.exam_id = exam_id
        self.start = 0.0
        self.end = 0.0
        self.failed = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.results: defaultdict[str, list] = defaultdict(list)
        # Parent of spans opened on a thread with no open span of its own
        # (the grading pool's workers).
        self.orphan_parent: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, exam_id: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.orphan_parent
        if exam_id is None and parent is not None:
            exam_id = parent.exam_id
        span = Span(name, layer, parent, exam_id)
        stack.append(span)
        span.start = perf_counter()
        return span

    def end(self, span: Span, failed: bool = False) -> None:
        span.end = perf_counter()
        span.failed = failed
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name: str, layer: str, exam_of=None, keep: bool = False):
        """``fn`` with a span per call; ``keep`` stores each result under ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name, layer, exam_of(args, kwargs) if exam_of else None)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.end(span, failed=True)
                raise
            self.end(span)
            if keep:
                self.results[name].append(result)
            return result

        return traced

    def counted(self, fn, name: str):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


def _candidate_id(args, kwargs) -> str:
    return (kwargs["candidate"] if "candidate" in kwargs else args[4]).id


def _script_id(args, kwargs) -> str:
    return (kwargs["script"] if "script" in kwargs else args[1]).candidate_id


# (module, attribute, layer, exam id getter, keep results)
_SPANS = (
    (runner, "load_corpus", "corpus", None, False),
    (runner, "load_rubrics", "corpus", None, False),
    (runner, "build_candidate_script", "runner", _candidate_id, False),
    (runner, "calibration_items", "runner", None, False),
    (runner, "build_context", "retrieval", None, False),
    (runner, "select_grade_exemplars", "retrieval", None, False),
    (runner, "build_zero_shot", "orchestrator", None, True),
    (runner, "build_few_shot_script", "orchestrator", None, True),
    (runner, "grade_candidate", "orchestrator", _script_id, True),
    (runner, "build_report", "metrics", None, False),
    (runner, "emit_report", "reporting", None, False),
    (runner, "_write_artifacts", "runner", None, False),
    (orchestrator, "parse_assessment", "orchestrator", None, False),
    (orchestrator, "aggregate", "grading", None, False),
    (orchestrator, "build_system_prompt", "prompts", None, False),
    (orchestrator, "context_intro", "prompts", None, False),
    (orchestrator, "reformat_instruction", "prompts", None, False),
    (orchestrator, "render_calibration_message", "prompts", None, False),
    (orchestrator, "render_candidate_block", "prompts", None, False),
    (orchestrator, "render_context_blocks", "prompts", None, False),
    (orchestrator, "render_reveal_gold", "prompts", None, False),
)

_COUNTS = (
    (retrieval, "cosine_similarity", "retrieval.similarity_evals"),
    (corpus.Corpus, "pool", "corpus.pool_calls"),
)


def span_name(fn, attribute: str) -> str:
    """``runner.X`` spans are named after the module that defines X."""
    return f"{fn.__module__.rpartition('.')[2]}.{attribute.lstrip('_')}"


def _traced_index(tracer: Tracer, index_cls):
    class TracedIndex(index_cls):
        build = classmethod(tracer.wrap(index_cls.build.__func__, "retrieval.index_build", "retrieval"))

    return TracedIndex


def _traced_pool(tracer: Tracer, pool_cls):
    """The grading pool as one span; its workers' spans hang below it."""

    class TracedPool(pool_cls):
        def __enter__(self):
            self._span = tracer.begin("runner.grade_pool", "runner")
            tracer.orphan_parent = self._span
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.orphan_parent = None
                tracer.end(self._span)

    return TracedPool


@contextmanager
def instrument(tracer: Tracer, client, embedder):
    """Trace every layer of ``run_experiment`` while the block runs. Names a
    later version of the pipeline no longer has are left out."""
    saved: list[tuple[object, str, object]] = []

    def replace(owner, attribute: str, make) -> None:
        if attribute in vars(owner):
            saved.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, make(getattr(owner, attribute)))

    try:
        for owner, attribute, layer, exam_of, keep in _SPANS:
            replace(owner, attribute, lambda fn: tracer.wrap(fn, span_name(fn, attribute), layer, exam_of, keep))
        for owner, attribute, name in _COUNTS:
            replace(owner, attribute, lambda fn: tracer.counted(fn, name))
        replace(runner, "TaskTextIndex", lambda cls: _traced_index(tracer, cls))
        replace(runner, "ThreadPoolExecutor", lambda cls: _traced_pool(tracer, cls))

        client.chat = tracer.wrap(client.chat, "clients.chat", "clients")
        if hasattr(client, "preflight"):
            client.preflight = tracer.wrap(client.preflight, "clients.preflight", "clients")
        embedder.embed = tracer.wrap(embedder.embed, "retrieval.embed", "retrieval")
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
        for instance, attribute in ((client, "chat"), (client, "preflight"), (embedder, "embed")):
            vars(instance).pop(attribute, None)


def union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span (keyed by ``id``): duration minus the part of its interval
    that its children's spans cover."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {id(span): span.duration - union_length(children.get(id(span), [])) for span in spans}
