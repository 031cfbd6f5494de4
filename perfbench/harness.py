"""Workloads, timed repetitions, output checks and metrics of the benchmark.

A repetition is one call of ``matura_grader.runner.run_experiment`` with an
injected client and embedder, on a synthetic corpus generated from the seed
before anything is timed. Repetitions run until the measuring time is used
up (at least two), after one warm-up repetition that is checked but not
reported; every metric is the median over repetitions. Every repetition's
outputs are checked. Names and units of the printed metrics come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

from matura_grader import runner
from matura_grader.clients import ECHO_GOLD, HttpChatClient, MockChatClient
from matura_grader.config import ExperimentConfig, config_from_values
from matura_grader.corpus import Corpus, load_corpus
from matura_grader.grading import FAIL
from matura_grader.synthetic import make_synthetic

from stub import PathStats, StubServer, chat_table
from tracing import Tracer, instrument, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench_work"
DIGESTS_PATH = BENCH_DIR / "digests.json"

CHAT_DELAY_S = 0.025
CHARS_PER_TOKEN = 4
SETUP_SAMPLES = 9  # set-up is timed this often per measurement, by set-up probes where runs fall short
LAYERS = ("corpus", "retrieval", "orchestrator", "prompts", "clients", "grading", "metrics", "reporting", "runner")
SELECTION_SPANS = ("retrieval.build_context", "retrieval.select_grade_exemplars")
CANDIDATE_SPANS = ("runner.build_candidate_script", "orchestrator.grade_candidate")


@dataclass(frozen=True)
class Workload:
    name: str
    technique: str
    n: int
    parallelism: int
    chat_calls_per_exam: int  # what the technique's protocol makes
    stub_chat: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mock_similar_n300", "rag_most_similar", 300, 1, 1),
        Workload("stub_fewmixed_n20", "few_mixed", 20, 2, 9, stub_chat=True),
    )
}


class SetupReached(BaseException):
    """Ends a set-up probe at its first chat request. A BaseException, so
    the runner's per-candidate crash isolation lets it through."""


class Ledger:
    """What the injected client saw: when its first call started, the number
    of calls and the characters of every message sent."""

    def __init__(self, probe: bool = False):
        self.probe = probe
        self.first_call: float | None = None
        self.calls = 0
        self.prompt_chars = 0
        self._lock = threading.Lock()


class _LedgerMixin:
    ledger: Ledger

    def chat(self, messages, exam_id=None):
        now = time.perf_counter()
        chars = sum(len(m["content"]) for m in messages)
        with self.ledger._lock:
            if self.ledger.first_call is None:
                self.ledger.first_call = now
            self.ledger.calls += 1
            self.ledger.prompt_chars += chars
        if self.ledger.probe:
            raise SetupReached
        return super().chat(messages, exam_id=exam_id)


class LedgerMockClient(_LedgerMixin, MockChatClient):
    pass


class LedgerHttpClient(_LedgerMixin, HttpChatClient):
    """Still an ``HttpChatClient``, so ``run_experiment`` runs its preflight."""


def make_client(cfg: ExperimentConfig, corpus: Corpus, probe: bool = False):
    if cfg.client_kind == "http":
        client = LedgerHttpClient(
            cfg.client_base_url, cfg.client_model, temperature=cfg.temperature, seed=cfg.seed, timeout=cfg.timeout
        )
    else:
        client = LedgerMockClient(ECHO_GOLD, corpus=corpus)
    client.ledger = Ledger(probe)
    return client


def make_config(workload: Workload, exam_dir: Path, rubric_dir: Path, out_dir: Path, url: str = "") -> ExperimentConfig:
    values = {
        "corpus.path": str(exam_dir),
        "rubric.path": str(rubric_dir),
        "technique": workload.technique,
        "technique.k": "3",
        "client.policy": ECHO_GOLD,
        "runner.parallelism": str(workload.parallelism),
        "output.dir": str(out_dir),
    }
    if workload.stub_chat:
        values.update({"client.kind": "http", "client.base_url": url, "client.model": "stub-chat"})
    return config_from_values(values)


def output_digest(out_dir: Path) -> str:
    """sha256 over metrics.csv, predictions.jsonl and transcripts/*; report.md
    and run_meta.json carry timestamps and the stub's port and stay out."""
    digest = hashlib.sha256()
    files = [out_dir / "metrics.csv", out_dir / "predictions.jsonl"] + sorted((out_dir / "transcripts").iterdir())
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def check_outputs(out_dir: Path, corpus: Corpus) -> list[str]:
    """Echo-gold artifacts: no exam failed, final-grade QWK is 1 and every
    prediction equals the candidate's gold sheet."""
    problems = []
    with (out_dir / "metrics.csv").open(encoding="utf-8", newline="") as handle:
        rows = {row["dimension"]: row for row in csv.DictReader(handle)}
    if rows["final"]["qwk"] != "1.000000":
        problems.append(f"final-grade QWK is {rows['final']['qwk']}, expected 1.000000")
    if rows["final"]["invalid"] != "0":
        problems.append(f"{rows['final']['invalid']} exams errored or invalid")
    ids = []
    for line in (out_dir / "predictions.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        ids.append(row["id"])
        record = corpus.by_id.get(row["id"])
        if record is None:
            problems.append(f"prediction for unknown exam {row['id']}")
            continue
        gold_final = record.gold.final if record.gold.final == FAIL else int(record.gold.final)
        assessment = row["assessment"] or {}
        if not (
            row["valid"]
            and row["error"] is None
            and row["derived_final"] == gold_final
            and assessment.get("task1") == record.gold.task1.as_dict()
            and assessment.get("task2") == record.gold.task2.as_dict()
        ):
            problems.append(f"prediction for {row['id']} differs from its gold sheet")
    if ids != sorted(r.id for r in corpus.records):
        problems.append("predictions.jsonl does not hold each exam once, in id order")
    return problems


def recorded_digest(workload: str, seed: int) -> str | None:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


@dataclass
class Rep:
    traced: bool
    wall_s: float
    cpu_s: float
    setup_s: float
    chat_calls: int
    prompt_chars: int
    failed: int
    digest: str
    problems: list[str]
    tracer: Tracer | None = None
    stub_stats: dict[str, PathStats] = field(default_factory=dict)
    artifact_bytes: int = 0


@dataclass
class Inputs:
    workload: Workload
    exam_dir: Path
    rubric_dir: Path
    corpus: Corpus
    out_dir: Path
    stub: StubServer | None = None


def _fresh_run(inputs: Inputs, probe: bool = False):
    shutil.rmtree(inputs.out_dir, ignore_errors=True)
    cfg = make_config(
        inputs.workload, inputs.exam_dir, inputs.rubric_dir, inputs.out_dir, inputs.stub.url if inputs.stub else ""
    )
    return cfg, make_client(cfg, inputs.corpus, probe), runner.make_embedder(cfg)


def run_setup_probe(inputs: Inputs) -> float:
    """Set-up time of a run that stops at its first chat request."""
    cfg, client, embedder = _fresh_run(inputs, probe=True)
    gc.collect()
    started = time.perf_counter()
    try:
        runner.run_experiment(cfg, client=client, embedder=embedder)
    except SetupReached:
        pass
    if client.ledger.first_call is None:
        raise RuntimeError("set-up probe made no chat request")
    return client.ledger.first_call - started


def run_rep(inputs: Inputs, traced: bool) -> Rep:
    """One timed ``run_experiment``; outputs are checked after the clock stops."""
    cfg, client, embedder = _fresh_run(inputs)
    if inputs.stub:
        inputs.stub.reset_stats()
    tracer = Tracer() if traced else None
    gc.collect()
    with ExitStack() as stack:
        experiment = runner.run_experiment
        if tracer:
            stack.enter_context(instrument(tracer, client, embedder))
            experiment = tracer.wrap(experiment, "runner.run_experiment", "runner")
        started = time.perf_counter()
        cpu_started = time.process_time()
        report = experiment(cfg, client=client, embedder=embedder)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
    ledger = client.ledger
    problems = check_outputs(inputs.out_dir, inputs.corpus)
    if ledger.first_call is None:
        problems.append("no chat call was made")
    return Rep(
        traced=traced,
        wall_s=wall,
        cpu_s=cpu,
        setup_s=(ledger.first_call or time.perf_counter()) - started,
        chat_calls=ledger.calls,
        prompt_chars=ledger.prompt_chars,
        failed=report.invalid_count,
        digest=output_digest(inputs.out_dir),
        problems=problems,
        tracer=tracer,
        stub_stats=dict(inputs.stub.stats) if inputs.stub else {},
        artifact_bytes=sum(p.stat().st_size for p in inputs.out_dir.rglob("*") if p.is_file()),
    )


def _schedule(trace: bool):
    """Untraced runs alternate with traced ones in a traced measurement; two
    traced repetitions at least, so their exact counts can be compared."""
    yield from (False, True, True) if trace else (False, False)
    while True:
        yield from (False, True) if trace else (False,)


def run_reps(inputs: Inputs, seconds: float, trace: bool) -> tuple[Rep, list[Rep], list[float]]:
    """A warm-up repetition, then timed repetitions until ``seconds`` are
    used up, and the set-up times of the timed ones. The warm-up lets lazy
    imports and caches fill; its outputs are checked, its times dropped."""
    started = time.perf_counter()
    warmup = run_rep(inputs, traced=False)
    reps: list[Rep] = []
    durations: list[float] = []
    minimum = 3 if trace else 2
    for traced in _schedule(trace):
        elapsed = time.perf_counter() - started
        if len(reps) >= minimum and elapsed + statistics.median(durations) > seconds:
            break
        rep_started = time.perf_counter()
        reps.append(run_rep(inputs, traced))
        durations.append(time.perf_counter() - rep_started)
    setups = [rep.setup_s for rep in reps]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_setup_probe(inputs))
    return warmup, reps, setups


def consistency_problems(reps: list[Rep], workload: str, seed: int, n: int) -> list[str]:
    """Outputs and exact counts must repeat across repetitions, and the
    digest must equal the one recorded for this workload and seed."""
    problems = [problem for rep in reps for problem in rep.problems]
    if len({rep.digest for rep in reps}) > 1:
        problems.append("outputs differ between repetitions")
    if len({(rep.chat_calls, rep.prompt_chars) for rep in reps}) > 1:
        problems.append("chat calls or prompt characters differ between repetitions")
    traced = [rep.tracer for rep in reps if rep.traced]
    if len({(len(t.named("retrieval.embed")), t.counts["retrieval.similarity_evals"]) for t in traced}) > 1:
        problems.append("embed calls or similarity evaluations differ between repetitions")
    expected = recorded_digest(workload, seed) if n == WORKLOADS[workload].n else None
    if expected is not None and reps[0].digest != expected:
        problems.append(f"output digest {reps[0].digest} differs from the recorded {expected}")
    return problems


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(reps: list[Rep], setups: list[float], n: int) -> dict[str, float]:
    first = reps[0]
    attempted = n * len(reps)
    return {
        "exams_per_s": median(n / rep.wall_s for rep in reps),
        "setup_s": median(setups),
        "cpu_s": median(rep.cpu_s for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "chat_calls_per_exam": first.chat_calls / n,
        "prompt_tokens_per_exam": first.prompt_chars / CHARS_PER_TOKEN / n,
        "completed_share": (attempted - sum(rep.failed for rep in reps)) / attempted,
    }


def _request_bytes(transcript) -> list[int]:
    """JSON bytes of the messages array of each chat request in a transcript:
    a request holds every message before the reply it got."""
    sizes = []
    total = 0
    for count, message in enumerate(transcript):
        if message["role"] == "assistant":
            sizes.append(2 + total + 2 * (count - 1))  # "[" + ", ".join(...) + "]"
        total += len(json.dumps(message).encode("utf-8"))
    return sizes


def layer_metrics(rep: Rep, n: int) -> dict[str, float]:
    """Per-layer figures of one traced repetition."""
    tracer = rep.tracer
    spans = tracer.spans
    selfs = self_times(spans)
    root = next(span for span in spans if span.name == "runner.run_experiment")

    def durations(*names: str) -> list[float]:
        return [span.duration for span in spans if span.name in names]

    chat = tracer.named("clients.chat")
    chat_ms = [1000 * span.duration for span in chat]
    embeds = tracer.named("retrieval.embed")
    select_per_exam: defaultdict[str, float] = defaultdict(float)
    for span in spans:
        if span.name in SELECTION_SPANS:
            select_per_exam[span.exam_id] += span.duration
    select_ms = [1000 * seconds for seconds in select_per_exam.values()]
    scripts = tracer.results["orchestrator.build_zero_shot"] + tracer.results["orchestrator.build_few_shot_script"]
    outcomes = tracer.results["orchestrator.grade_candidate"]
    request_bytes = [size for outcome in outcomes for size in _request_bytes(outcome.transcript)]
    candidate_spans = [span for span in spans if span.name in CANDIDATE_SPANS]
    grading_wall = max(s.end for s in candidate_spans) - min(s.start for s in candidate_spans)
    stub_chat = rep.stub_stats.get("/api/chat", PathStats())
    stub_handler_ms = [1000 * s for s in stub_chat.handler_s]

    metrics = {
        "corpus.load_s": sum(durations("corpus.load_corpus", "corpus.load_rubrics")),
        "corpus.pool_calls": tracer.counts["corpus.pool_calls"],
        "retrieval.index_build_s": sum(durations("retrieval.index_build")),
        "retrieval.embed_calls": len(embeds),
        "retrieval.embed_ms_p50": median(1000 * span.duration for span in embeds),
        "retrieval.embed_failed": sum(span.failed for span in embeds),
        "retrieval.select_s": sum(durations(*SELECTION_SPANS)),
        "retrieval.select_ms_p50": median(select_ms),
        "retrieval.select_ms_p99": percentile(select_ms, 0.99),
        "retrieval.similarity_evals": tracer.counts["retrieval.similarity_evals"],
        "orchestrator.render_s": sum(durations("orchestrator.build_zero_shot", "orchestrator.build_few_shot_script")),
        "orchestrator.script_chars_per_exam": sum(len(t) for s in scripts for t in s.outbound_texts()) / n,
        "orchestrator.dropped_context": sum(script.dropped_context for script in scripts),
        "orchestrator.drive_self_s": sum(selfs[id(s)] for s in tracer.named("orchestrator.grade_candidate")),
        "orchestrator.parse_s": sum(durations("orchestrator.parse_assessment")),
        "orchestrator.invalid": sum(not outcome.valid for outcome in outcomes),
        "orchestrator.reformat_attempts": sum(max(0, outcome.attempts - 1) for outcome in outcomes),
        "clients.chat_calls": len(chat),
        "clients.chat_busy_s": sum(span.duration for span in chat),
        "clients.chat_ms_p50": median(chat_ms),
        "clients.chat_ms_p99": percentile(chat_ms, 0.99),
        "clients.chat_errors": sum(span.failed for span in chat),
        "clients.request_bytes_per_call": sum(request_bytes) / max(1, len(request_bytes)),
        "clients.transport_overhead_ms_p50": median(chat_ms) - median(stub_handler_ms),
        "clients.inflight_mean": sum(span.duration for span in chat) / grading_wall,
        "metrics.build_report_s": sum(durations("metrics.build_report")),
        "reporting.emit_s": sum(durations("reporting.emit_report")),
        "runner.write_artifacts_s": sum(durations("runner.write_artifacts")),
        "runner.artifact_bytes": rep.artifact_bytes,
        "stub.requests": sum(stats.requests for stats in rep.stub_stats.values()),
        "stub.handler_ms_p50": median(stub_handler_ms),
        "trace.wall_s": root.duration,
        "trace.unattributed_s": selfs[id(root)],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(selfs[id(s)] for s in spans if s.layer == layer and s is not root)
    return metrics


def traced_metrics(reps: list[Rep], n: int) -> dict[str, float]:
    per_rep = [layer_metrics(rep, n) for rep in reps if rep.traced]
    metrics = {name: median(m[name] for m in per_rep) for name in per_rep[0]}
    untraced = median(n / rep.wall_s for rep in reps if not rep.traced)
    traced = median(n / rep.wall_s for rep in reps if rep.traced)
    metrics["trace.exams_per_s_untraced"] = untraced
    metrics["trace.exams_per_s_traced"] = traced
    metrics["trace.overhead_share"] = untraced / traced - 1
    return metrics


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@dataclass
class Measurement:
    result: dict  # the printed object: correct, attempted, failed, metrics
    problems: list[str]
    digest: str
    reps: list[Rep]


@contextmanager
def prepared(workload: Workload, seed: int, n: int):
    """The inputs of one workload and seed, generated before anything is
    timed, with the stub server running when the workload needs it."""
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        exam_dir, rubric_dir = make_synthetic(work / "corpus", n, seed)
        corpus = load_corpus(exam_dir)
        inputs = Inputs(workload, exam_dir, rubric_dir, corpus, work / "out")
        if not workload.stub_chat:
            yield inputs
            return
        with StubServer(chat_table(corpus), CHAT_DELAY_S) as inputs.stub:
            yield inputs
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):
            WORK_DIR.rmdir()  # another measurement may still use it


def measure(workload_name: str, seed: int, seconds: float, trace: bool, n: int | None = None) -> Measurement:
    """Measure one workload on the corpus of one seed."""
    workload = WORKLOADS[workload_name]
    n = n or workload.n
    spec = benchmark_spec()
    with prepared(workload, seed, n) as inputs:
        warmup, reps, setups = run_reps(inputs, seconds, trace)

    problems = consistency_problems([warmup] + reps, workload_name, seed, n)
    computed = traced_metrics(reps, n) if trace else end_to_end_metrics(reps, setups, n)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": n * (1 + len(reps)),
        "failed": warmup.failed + sum(rep.failed for rep in reps),
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return Measurement(result, problems, reps[0].digest, reps)


def prepare_environment() -> None:
    """Requests to the stub must not go through a proxy, and ``requests``
    must not read a netrc file outside the checkout."""
    os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ["NETRC"] = str(WORK_DIR / "no-netrc")
