"""Kept-alive chat connections, on servers shaped like the benchmark's stub:
HTTP/1.1 handlers on a ``ThreadingHTTPServer`` whose ``server_close()``
joins every handler thread, so it returns only once the client has closed
each of its connections."""

from __future__ import annotations

import base64
import gc
import json
import socket
import threading
import time
import warnings
from contextlib import contextmanager
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from matura_grader.clients import ChatTransportError, HttpChatClient, assessment_json
from matura_grader.config import config_from_values
from matura_grader.grading import DIMENSIONS
from matura_grader.retrieval import RemoteEmbedder
from matura_grader.runner import load_run_inputs, run_experiment

CLOSE_WITHIN_S = 5.0
HI = [{"role": "user", "content": "hi"}]
GRADES = dict.fromkeys(DIMENSIONS, 3)
SHEET = json.dumps({"message": {"role": "assistant", "content": assessment_json(GRADES, GRADES)}})


def _reply(content: str) -> bytes:
    return json.dumps({"message": {"role": "assistant", "content": content}, "embeddings": [[1.0]]}).encode("utf-8")


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins every handler thread, as the stub's does

    def __init__(self, answer, handler: type[BaseHTTPRequestHandler]):
        super().__init__(("127.0.0.1", 0), handler)
        self.answer = answer  # answer(handler, number) writes the reply to the number-th POST, from 0
        self.lock = threading.Lock()
        self.requests: list[tuple[str, Message]] = []  # request line, headers
        self.posts = 0
        self.connections: set[tuple[str, int]] = set()  # client address of each request
        self.release = threading.Event()

    def handle_error(self, request, client_address):
        pass  # a reply to a client that gave up fails to send; that is expected


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # bounds a leaked connection's wait, so a failing test cannot hang the suite

    def log_message(self, *args):
        pass

    def _record(self) -> int:
        server = self.server
        with server.lock:
            server.requests.append((self.requestline, self.headers))
            server.connections.add(self.client_address)
            if self.command != "POST":
                return -1
            server.posts += 1
            return server.posts - 1

    def do_GET(self):
        self._record()
        self.send(200, b"ok")

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.answer(self, self._record())

    def do_CONNECT(self):
        self._record()
        self.send_error(501)  # opens no tunnel

    def send(self, status: int, data: bytes) -> None:
        """Headers and body in two writes, without TCP_NODELAY."""
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def _numbered(handler: _Handler, number: int) -> None:
    handler.send(200, _reply(f"antwort-{number}"))


def _sheet(handler: _Handler, number: int) -> None:
    handler.send(200, SHEET.encode("utf-8"))


def _closes_within(server: _Server, seconds: float) -> bool:
    """Stop serving, then whether ``server_close()``, which joins every
    handler thread, returns within ``seconds``."""
    server.shutdown()
    closer = threading.Thread(target=server.server_close, daemon=True)
    closer.start()
    closer.join(seconds)
    return not closer.is_alive()


@contextmanager
def _no_socket_left_to_the_collector():
    """Fails when a socket opened inside is closed only by the garbage
    collector, which warns about it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.fixture()
def serve():
    """``serve(answer)`` starts a server and returns it with its URL; the
    test closes it through ``_closes_within``, else the fixture does."""
    started = []

    def start(answer=_numbered, handler=_Handler):
        server = _Server(answer, handler)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        started.append((server, thread))
        return server, f"http://127.0.0.1:{server.server_port}"

    yield start
    for server, thread in started:
        server.release.set()
        assert _closes_within(server, CLOSE_WITHIN_S)
        thread.join(timeout=5)
        assert not thread.is_alive()


def _fault(kind: str):
    """An answer whose first reply fails as ``kind`` and whose later ones are numbered."""

    def answer(handler: _Handler, number: int) -> None:
        if number:
            _numbered(handler, number)
        elif kind == "status":
            handler.send(500, b'{"error": "kaputt"}')
        elif kind == "malformed":
            handler.send(200, b'{"message": ')
        elif kind == "short":
            handler.send_response(200)
            handler.send_header("Content-Length", "64")
            handler.end_headers()
            handler.wfile.write(_reply("abgeschnitten")[:13])
            handler.close_connection = True
        else:  # slow: the reply comes after the client has given up
            handler.server.release.wait(0.6)
            _numbered(handler, number)

    return answer


@pytest.mark.parametrize(
    "kind, message",
    [
        ("status", "returned 500$"),
        ("malformed", "malformed body"),
        ("short", "endpoint unreachable"),
        ("slow", "endpoint unreachable"),
    ],
)
def test_a_failed_request_leaves_nothing_for_the_next(serve, kind, message):
    server, url = serve(_fault(kind))
    client = HttpChatClient(url, model="m", timeout=0.3)
    with pytest.raises(ChatTransportError, match=message):
        client.chat(HI)
    assert client.chat(HI) == "antwort-1"
    client.close()
    assert server.posts == 2
    assert _closes_within(server, CLOSE_WITHIN_S)


def _closes_after_each_reply(handler: _Handler, number: int) -> None:
    """Closes the connection after the reply without saying so."""
    _numbered(handler, number)
    handler.close_connection = True


def test_a_connection_the_server_closed_is_retried_once_on_a_new_one(serve):
    server, url = serve(_closes_after_each_reply)
    client = HttpChatClient(url, model="m")
    assert [client.chat(HI) for _ in range(5)] == [f"antwort-{i}" for i in range(5)]
    embedder = RemoteEmbedder(url, model="e")
    assert [embedder.embed("text") for _ in range(3)] == [(1.0,)] * 3
    client.close()
    embedder.close()
    assert server.posts == 8  # each request seen once
    assert _closes_within(server, CLOSE_WITHIN_S)


class _Stop(BaseException):
    """Ends a run from inside a chat call, past the runner's crash isolation."""


class _StoppingClient(HttpChatClient):
    def __init__(self, *args, stop_at: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.stop_at = stop_at
        self.calls = 0
        self.lock = threading.Lock()

    def chat(self, messages, exam_id=None):
        with self.lock:
            self.calls += 1
            stop = self.calls >= self.stop_at
        if stop:
            raise _Stop
        return super().chat(messages, exam_id=exam_id)


def _config(dirs, out, url: str, parallelism: int):
    exam_dir, rubric_dir = dirs
    values = {"corpus.path": exam_dir, "rubric.path": rubric_dir, "output.dir": out, "technique": "few_mixed"}
    values.update({"client.kind": "http", "client.base_url": url, "client.model": "m", "runner.parallelism": parallelism})
    return config_from_values({key: str(value) for key, value in values.items()})


@pytest.mark.parametrize("parallelism", [1, 4])
def test_a_run_uses_a_connection_per_thread_and_closes_them_all(serve, synthetic_dirs_25, tmp_path, parallelism):
    server, url = serve(_sheet)
    with _no_socket_left_to_the_collector():
        report = run_experiment(_config(synthetic_dirs_25, tmp_path / "out", url, parallelism))
    assert report.invalid_count == 0
    assert server.posts > 25
    assert len(server.connections) <= parallelism + 1  # the preflight's, then one per grading thread
    assert _closes_within(server, CLOSE_WITHIN_S)


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("stop_at", [1, 12])
def test_a_run_ended_by_a_base_exception_closes_its_connections(serve, synthetic_dirs_25, tmp_path, parallelism, stop_at):
    server, url = serve(_sheet)
    cfg = _config(synthetic_dirs_25, tmp_path / "out", url, parallelism)
    client = _StoppingClient(url, "m", stop_at=stop_at)
    with pytest.raises(_Stop):
        run_experiment(cfg, client=client)
    assert server.posts == stop_at - 1
    assert _closes_within(server, CLOSE_WITHIN_S)


def test_the_embedder_a_run_builds_is_closed_with_its_index(serve, synthetic_dirs_25, tmp_path):
    server, url = serve()
    values = {"corpus.path": synthetic_dirs_25[0], "rubric.path": synthetic_dirs_25[1], "output.dir": tmp_path}
    values.update({"technique": "rag_most_similar", "embedding.fallback": "false", "embedding.base_url": url})
    with _no_socket_left_to_the_collector():
        inputs = load_run_inputs(config_from_values({key: str(value) for key, value in values.items()}))
    assert inputs.index is not None
    assert server.posts == 25 * 2
    assert len(server.connections) == 1
    assert _closes_within(server, CLOSE_WITHIN_S)


class _ClosingGetHandler(_Handler):
    def do_GET(self):
        self._record()
        self.close_connection = True  # close before the status line


def test_a_run_whose_preflight_fails_closes_its_connections(serve, synthetic_dirs_25, tmp_path):
    server, url = serve(_sheet, _ClosingGetHandler)
    with pytest.raises(ChatTransportError, match=f"chat endpoint unreachable: {url}"):
        run_experiment(_config(synthetic_dirs_25, tmp_path / "out", url, 4))
    assert [line for line, _ in server.requests] == ["GET / HTTP/1.1"]
    assert _closes_within(server, CLOSE_WITHIN_S)


@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="needs TCP_QUICKACK")
def test_sequential_chats_do_not_wait_for_a_delayed_ack(serve):
    server, url = serve()
    client = HttpChatClient(url, model="m")
    client.chat(HI)  # connect outside the clock
    started = time.perf_counter()
    for _ in range(20):
        client.chat(HI)
    elapsed = time.perf_counter() - started
    client.close()
    assert len(server.connections) == 1
    # A delayed ACK would hold each reply's body back about 40 ms: 0.8 s in all.
    assert elapsed < 0.4
    assert _closes_within(server, CLOSE_WITHIN_S)


def test_without_tcp_quickack_every_request_asks_to_close(serve, monkeypatch):
    monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)
    server, url = serve()
    client = HttpChatClient(url, model="m")
    client.preflight()
    assert [client.chat(HI) for _ in range(3)] == ["antwort-0", "antwort-1", "antwort-2"]
    RemoteEmbedder(url, model="e").embed("text")
    assert [headers["Connection"] for _, headers in server.requests] == ["close"] * 5
    assert len(server.connections) == 5
    assert _closes_within(server, CLOSE_WITHIN_S)


@pytest.fixture()
def proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_an_http_proxy_gets_the_absolute_target_unless_no_proxy_covers_the_host(serve, proxy_env):
    proxy, proxy_url = serve()
    origin, origin_url = serve()
    proxy_env.setenv("http_proxy", proxy_url.replace("//", "//nutzer:geheim%21@"))
    client = HttpChatClient("http://chat.invalid:11434", model="m")
    assert client.chat(HI) == "antwort-0"
    client.close()
    [(line, headers)] = proxy.requests
    assert line == "POST http://chat.invalid:11434/api/chat HTTP/1.1"
    assert headers["Host"] == "chat.invalid:11434"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"nutzer:geheim!").decode("ascii")

    proxy_env.setenv("no_proxy", "127.0.0.1")
    direct = HttpChatClient(origin_url, model="m")
    assert direct.chat(HI) == "antwort-0"
    direct.close()
    assert len(proxy.requests) == 1
    assert [line for line, _ in origin.requests] == ["POST /api/chat HTTP/1.1"]


def test_an_https_endpoint_is_tunnelled_through_its_proxy(serve, proxy_env):
    proxy, proxy_url = serve()
    proxy_env.setenv("https_proxy", proxy_url)
    client = HttpChatClient("https://chat.invalid:11434", model="m")
    with pytest.raises(ChatTransportError, match="chat endpoint unreachable: https://chat.invalid:11434/api/chat"):
        client.chat(HI)  # the recording proxy does not open tunnels
    client.close()
    [(line, _)] = proxy.requests
    assert line.startswith("CONNECT chat.invalid:11434 HTTP/1.")  # 1.0 before Python 3.12
