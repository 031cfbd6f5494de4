"""Identical calibration guess requests of one run share one chat call.

A client whose reply depends only on the messages (``reads_exam_id`` false)
is asked each distinct guess request once per run; a client that reads exam
ids shares nothing. Either way a run writes the same bytes, at any
parallelism.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from matura_grader import runner
from matura_grader.clients import ChatClient, ChatTransportError, HttpChatClient, MockChatClient, parse_policy
from matura_grader.config import config_from_values
from matura_grader.orchestrator import GuessTable, RevealGold, build_few_shot_script, grade_candidate
from matura_grader.runner import (
    build_candidate_script,
    calibration_items,
    load_run_inputs,
    run_experiment,
    technique_plan,
)

from helpers import artifact_bytes


class _Counting(MockChatClient):
    """A mock that counts its calls, and fails the first request whose
    messages equal ``fail_once``. It shares guesses as the mock does."""

    def __init__(self, policy: str, fail_once: list[dict[str, str]] | None = None):
        super().__init__(*parse_policy(policy))
        self.calls = 0
        self.fail_once = fail_once
        self._lock = threading.Lock()

    def chat(self, messages, exam_id=None):
        with self._lock:
            self.calls += 1
            fail = messages == self.fail_once
            if fail:
                self.fail_once = None
        if fail:
            raise ChatTransportError("chat request failed: verbindung abgebrochen")
        return super().chat(messages, exam_id=exam_id)


class _ReadsExamIds(ChatClient):
    """``inner`` as a plain ``ChatClient``: it may read exam ids, so a run
    shares none of its guesses."""

    def __init__(self, inner: ChatClient):
        self.inner = inner

    def chat(self, messages, exam_id=None):
        return self.inner.chat(messages, exam_id=exam_id)

    def identity(self):
        return self.inner.identity()


def _cfg(exam_dir, rubric_dir, out, technique: str, parallelism: int):
    return config_from_values(
        {
            "corpus.path": str(exam_dir),
            "rubric.path": str(rubric_dir),
            "output.dir": str(out),
            "technique": technique,
            "runner.parallelism": str(parallelism),
        }
    )


def _reused(out) -> int:
    return json.loads((out / "run_meta.json").read_text(encoding="utf-8"))["reused_guesses"]


@pytest.mark.parametrize("policy", ["keyword_heuristic", "always_grade:2"])
@pytest.mark.parametrize("technique", ["few_mixed", "few_all_grades", "cot_best_worst"])
def test_shared_guesses_leave_every_artifact_as_it_is(technique, policy, synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    runs = {}
    for shares in (False, True):
        for parallelism in (1, 4):
            out = tmp_path / f"{'shared' if shares else 'wrapped'}{parallelism}"
            client = _Counting(policy)
            run_experiment(
                _cfg(exam_dir, rubric_dir, out, technique, parallelism),
                client=client if shares else _ReadsExamIds(client),
            )
            assert (_reused(out) > 0) == shares
            runs[shares, parallelism] = artifact_bytes(out)
    assert len(runs[False, 1]) == 2 + 25
    assert runs[True, 1] == runs[True, 4] == runs[False, 4] == runs[False, 1]


def _guess_prefixes(cfg) -> tuple[int, set[tuple[str, ...]]]:
    """The number of candidates, and the distinct text before each guess of
    their scripts. With replies that depend only on the messages, that text
    fixes the whole guess request."""
    inputs = load_run_inputs(cfg)
    scripts = [build_candidate_script(inputs, candidate=candidate)[0] for candidate in inputs.corpus.records]
    prefixes = {
        (script.system, *(turn.content for turn in script.turns[:i]))
        for script in scripts
        for i, turn in enumerate(script.turns)
        if isinstance(turn, RevealGold)
    }
    return len(scripts), prefixes


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_run_sends_each_distinct_guess_request_once(parallelism, synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "shared", "few_mixed", parallelism)
    n, prefixes = _guess_prefixes(cfg)

    wrapped = _Counting("keyword_heuristic")
    run_experiment(replace(cfg, output_dir=str(tmp_path / "wrapped")), client=_ReadsExamIds(wrapped))
    assert wrapped.calls == 9 * n
    assert _reused(tmp_path / "wrapped") == 0

    shared = _Counting("keyword_heuristic")
    run_experiment(cfg, client=shared)
    assert shared.calls == n + len(prefixes) < 9 * n
    assert _reused(tmp_path / "shared") == 8 * n - len(prefixes)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_run_table_holds_one_entry_per_distinct_guess_request(parallelism, synthetic_dirs_25, tmp_path, monkeypatch):
    exam_dir, rubric_dir = synthetic_dirs_25
    cfg = _cfg(exam_dir, rubric_dir, tmp_path / "out", "few_mixed", parallelism)
    _, prefixes = _guess_prefixes(cfg)
    tables: list[GuessTable] = []

    def recording_table() -> GuessTable:
        tables.append(GuessTable())
        return tables[-1]

    monkeypatch.setattr(runner, "GuessTable", recording_table)
    run_experiment(cfg, client=_Counting("keyword_heuristic"))
    (table,) = tables
    assert len(table._replies) == len(prefixes)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_failed_shared_guess_errors_only_the_candidate_that_sent_it(parallelism, synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    clean_out, out = tmp_path / "clean", tmp_path / "faulty"
    run_experiment(_cfg(exam_dir, rubric_dir, clean_out, "few_mixed", 1), client=_Counting("keyword_heuristic"))

    # The first guess request that most candidates send.
    cfg = _cfg(exam_dir, rubric_dir, out, "few_mixed", parallelism)
    inputs = load_run_inputs(cfg)
    first_request = {}
    for candidate in sorted(inputs.corpus.records, key=lambda r: r.id):
        script, _ = build_candidate_script(inputs, candidate=candidate)
        first_request[candidate.id] = (script.system, script.turns[0].content)
    (shared_request, count), = Counter(first_request.values()).most_common(1)
    senders = [exam_id for exam_id, request in first_request.items() if request == shared_request]
    assert count == len(senders) > 1
    system, calibration = shared_request
    target = [{"role": "system", "content": system}, {"role": "user", "content": calibration}]

    faulty = _Counting("keyword_heuristic", fail_once=target)
    report = run_experiment(cfg, client=faulty)
    (errored,) = report.errored
    assert errored in senders
    if parallelism == 1:
        assert errored == senders[0]
    # The failed call, then each distinct request of the other candidates once.
    requests = set()
    for path in (out / "transcripts").iterdir():
        messages = json.loads(path.read_text(encoding="utf-8"))["messages"]
        requests.update(json.dumps(messages[:i]) for i, m in enumerate(messages) if m["role"] == "assistant")
    assert faulty.calls == 1 + len(requests)

    transcript = json.loads((out / "transcripts" / f"{errored}.json").read_text(encoding="utf-8"))
    assert transcript["error"] == "chat request failed: verbindung abgebrochen"
    assert transcript["messages"] == target and transcript["guesses"] == []
    clean_files, files = artifact_bytes(clean_out), artifact_bytes(out)
    for name in files:
        if name.startswith("transcripts/") and name != f"transcripts/{errored}.json":
            assert files[name] == clean_files[name], name
    clean_lines = clean_files["predictions.jsonl"].splitlines()
    lines = files["predictions.jsonl"].splitlines()
    assert [line for line in lines if json.loads(line)["id"] != errored] == [
        line for line in clean_lines if json.loads(line)["id"] != errored
    ]


class _Echo(ChatClient):
    """Replies with the last message's text after ``delay`` seconds, counting
    calls per text; the reply depends only on the messages."""

    reads_exam_id = False

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls: Counter[str] = Counter()
        self._lock = threading.Lock()

    def chat(self, messages, exam_id=None):
        text = messages[-1]["content"]
        with self._lock:
            self.calls[text] += 1
        time.sleep(self.delay)
        return f"re: {text}"

    def identity(self):
        return "echo"


def test_guess_table_calls_each_key_once_under_contention():
    # More threads than cores, a short switch interval, and every thread
    # asking for each new key at about the same time, so that two threads
    # both taking a key as theirs would show as a second call.
    client = _Echo(delay=0.001)
    table = GuessTable()
    requests = [[{"role": "user", "content": str(k)}] for k in range(100)]
    threads_n = 16
    replies: list[tuple[int, str]] = []
    lock = threading.Lock()

    def worker(exam_id: str) -> None:
        for k, messages in enumerate(requests):
            reply = table.guess(client, messages, exam_id)
            with lock:
                replies.append((k, reply))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(f"exam-{i}",)) for i in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(replies) == threads_n * len(requests)
    assert all(reply == f"re: {k}" for k, reply in replies)
    assert client.calls == {str(k): 1 for k in range(len(requests))}
    assert table.reused == (threads_n - 1) * len(requests)


def test_a_candidate_waiting_on_a_failed_guess_sends_it_itself():
    started, release = threading.Event(), threading.Event()

    class _FirstCallFails(_Echo):
        def chat(self, messages, exam_id=None):
            with self._lock:
                first = not self.calls
            if first:
                super().chat(messages, exam_id)
                started.set()
                release.wait(10)
                raise ChatTransportError("chat request failed: verbindung abgebrochen")
            return super().chat(messages, exam_id)

    client = _FirstCallFails()
    table = GuessTable()
    messages = [{"role": "user", "content": "Schätze."}]
    results: dict[str, object] = {}

    def ask(exam_id: str) -> None:
        try:
            results[exam_id] = table.guess(client, messages, exam_id)
        except ChatTransportError as exc:
            results[exam_id] = exc

    owner = threading.Thread(target=ask, args=("exam-a",))
    owner.start()
    assert started.wait(10)
    waiter = threading.Thread(target=ask, args=("exam-b",))
    waiter.start()
    # The waiter now waits on the owner's call, or has not asked yet; either
    # way it must send the request itself once the owner's call fails.
    time.sleep(0.05)
    release.set()
    for thread in (owner, waiter):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert isinstance(results["exam-a"], ChatTransportError)
    assert results["exam-b"] == "re: Schätze."
    assert client.calls == {"Schätze.": 2} and table.reused == 0
    assert table.guess(client, messages, "exam-c") == "re: Schätze."
    assert client.calls == {"Schätze.": 2} and table.reused == 1


def test_only_a_client_whose_replies_depend_on_the_messages_alone_shares():
    reader = _ReadsExamIds(_Echo())
    assert reader.reads_exam_id and MockChatClient("echo_gold", corpus=object()).reads_exam_id
    assert not HttpChatClient("http://127.0.0.1:9", model="m").reads_exam_id
    assert not MockChatClient("keyword_heuristic").reads_exam_id
    assert not MockChatClient("always_grade", grade=2).reads_exam_id
    # A client that reads exam ids is called once per request and never enters the table.
    table = GuessTable()
    messages = [{"role": "user", "content": "Schätze."}]
    for exam_id in ("exam-a", "exam-b", "exam-a"):
        assert table.guess(reader, messages, exam_id) == "re: Schätze."
    assert reader.inner.calls == {"Schätze.": 3}
    assert table._replies == {} and table.reused == 0
    # The same contents under another role are another request.
    echo = _Echo()
    for role in ("user", "assistant", "user"):
        assert table.guess(echo, [{"role": role, "content": "Schätze."}], "exam-a") == "re: Schätze."
    assert echo.calls == {"Schätze.": 2} and table.reused == 1


def test_a_table_keeps_no_guess_of_a_client_that_reads_exam_ids(corpus_25, rubrics_25):
    # Its requests are sent directly, so the table never grows with n.
    cfg = config_from_values({"technique": "few_mixed"})
    client = _ReadsExamIds(_Echo())
    table = GuessTable()
    for candidate in corpus_25.records[:3]:
        items = calibration_items(corpus_25, candidate, technique_plan(cfg))
        script = build_few_shot_script(items, cfg.ordering, candidate, rubrics_25)
        assert len(grade_candidate(client, script, guess_table=table).guesses) == 8
    assert table._replies == {} and table.reused == 0
    assert sum(client.inner.calls.values()) == 3 * 9


class _Digest(_Echo):
    """Replies with a digest of every message, so a reply shared between
    requests that differ anywhere is a wrong reply."""

    def chat(self, messages, exam_id=None):
        super().chat(messages, exam_id)
        return hashlib.sha256(json.dumps(messages).encode("utf-8")).hexdigest()


def test_guess_requests_that_differ_in_any_message_share_nothing(corpus_25, rubrics_25):
    cfg = config_from_values({"technique": "few_mixed"})
    candidate = corpus_25.records[0]
    items = calibration_items(corpus_25, candidate, technique_plan(cfg))
    script = build_few_shot_script(items, cfg.ordering, candidate, rubrics_25)
    turns = list(script.turns)
    first_reveal = next(i for i, turn in enumerate(turns) if isinstance(turn, RevealGold))
    turns[first_reveal] = RevealGold(turns[first_reveal].content + " ")
    variants = [script, replace(script, system=script.system + " "), replace(script, turns=tuple(turns))]
    client = _Digest()
    table = GuessTable()
    for variant in variants:
        alone = grade_candidate(client, variant)
        assert grade_candidate(client, variant, guess_table=table).guesses == alone.guesses
    # Only the last variant's first guess, asked before the changed reveal, is the same request.
    assert table.reused == 1
