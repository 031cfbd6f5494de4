from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from matura_grader.cli import main
from matura_grader.clients import ChatTransportError, HttpChatClient
from matura_grader.config import config_from_values
from matura_grader.retrieval import EmbeddingError, RemoteEmbedder
from matura_grader.runner import run_experiment


class _Handler(BaseHTTPRequestHandler):
    server_version = "stub"
    requests_seen: list[tuple[str, dict]] = []
    fail_with: int | None = None
    body_override: bytes | None = None  # sent as-is with status 200

    @staticmethod
    def embedding(text: str) -> list[float]:
        return [1.0, 2.0, float(len(text))]

    def log_message(self, *args):
        pass

    def do_GET(self):
        self.send_response(200)
        self.end_headers()
        self.wfile.write(b"ok")

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).requests_seen.append((self.path, payload))
        if self.fail_with is not None:
            self.send_response(self.fail_with)
            self.end_headers()
            return
        if self.body_override is not None:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(self.body_override)))
            self.end_headers()
            self.wfile.write(self.body_override)
            return
        if self.path == "/api/chat":
            body = {"message": {"role": "assistant", "content": f"antwort-{len(payload['messages'])}"}}
        elif self.path == "/api/embed":
            body = {"embeddings": [self.embedding(payload["input"])]}
        else:
            self.send_response(404)
            self.end_headers()
            return
        data = json.dumps(body).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture()
def stub_server():
    _Handler.requests_seen = []
    _Handler.fail_with = None
    _Handler.body_override = None
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_chat_client_protocol(stub_server):
    client = HttpChatClient(stub_server, model="testmodell", temperature=0.25, seed=11)
    client.preflight()
    messages = [
        {"role": "system", "content": "Du bist Prüferin."},
        {"role": "user", "content": "Bewerte."},
    ]
    reply = client.chat(messages)
    assert reply == "antwort-2"

    path, payload = _Handler.requests_seen[-1]
    assert path == "/api/chat"
    assert payload["model"] == "testmodell"
    assert payload["stream"] is False
    assert payload["options"] == {"temperature": 0.25, "seed": 11}
    assert payload["messages"] == messages


def test_a_few_shot_run_posts_each_distinct_request_once(stub_server, synthetic_dirs_25, tmp_path):
    exam_dir, rubric_dir = synthetic_dirs_25
    out = tmp_path / "out"
    values = {"corpus.path": exam_dir, "rubric.path": rubric_dir, "output.dir": out, "technique": "few_mixed"}
    values.update({"client.kind": "http", "client.base_url": stub_server, "client.model": "m", "runner.parallelism": 2})
    run_experiment(config_from_values({key: str(value) for key, value in values.items()}))

    posted = [json.dumps(payload["messages"], sort_keys=True) for path, payload in _Handler.requests_seen if path == "/api/chat"]
    # Every request a transcript records: the messages before each reply.
    requests = set()
    for transcript in (out / "transcripts").iterdir():
        messages = json.loads(transcript.read_text(encoding="utf-8"))["messages"]
        requests.update(json.dumps(messages[:i], sort_keys=True) for i, m in enumerate(messages) if m["role"] == "assistant")
    assert sorted(posted) == sorted(requests)
    assert len(posted) < 25 * 9
    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    assert meta["reused_guesses"] == 25 * 9 - len(posted)


@pytest.mark.parametrize("command", ["run", "context"])
def test_a_zero_remote_embedding_fails_at_set_up(
    command, stub_server, synthetic_dirs_25, corpus_25, tmp_path, capsys, monkeypatch
):
    exam_dir, rubric_dir = synthetic_dirs_25
    zero_for = corpus_25.get("exam-004").task(2).body
    monkeypatch.setattr(_Handler, "embedding", staticmethod(lambda text: [0.0, 0.0] if text == zero_for else [1.0, 2.0]))
    out = tmp_path / "out"
    config_file = tmp_path / "remote.conf"
    config_file.write_text(
        f"corpus.path = {exam_dir}\nrubric.path = {rubric_dir}\noutput.dir = {out}\ntechnique = rag_most_similar\n"
        f"client.kind = http\nclient.base_url = {stub_server}\nclient.model = m\n"
        f"embedding.fallback = false\nembedding.base_url = {stub_server}\nembedding.model = e\n",
        encoding="utf-8",
    )
    argv = [command, "--config", str(config_file)] + (["--candidate", "exam-007"] if command == "context" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "fatal: exam 'exam-004' task 2: embedding has zero norm, so its cosine similarity is undefined" in err.splitlines()
    assert {path for path, _ in _Handler.requests_seen} == {"/api/embed"}
    assert not out.exists()


def test_chat_client_error_status(stub_server):
    _Handler.fail_with = 500
    client = HttpChatClient(stub_server, model="m")
    with pytest.raises(ChatTransportError, match="returned 500"):
        client.chat([{"role": "user", "content": "hi"}])


@pytest.mark.parametrize(
    "body",
    [
        b'{"message": {"role": "assistant", "content": "abgeschn',  # truncated JSON
        b'{"message": {"role": "assistant"}}',  # missing key
        b'{"reply": "hallo"}',  # missing key
        b'["message"]',  # wrong top-level type
        b'{"message": {"role": "assistant", "content": 7}}',  # non-string content
        b'{"message": {"role": "assistant", "content": null}}',  # non-string content
    ],
)
def test_chat_client_malformed_body(stub_server, body):
    _Handler.body_override = body
    client = HttpChatClient(stub_server, model="m")
    with pytest.raises(ChatTransportError, match="malformed body"):
        client.chat([{"role": "user", "content": "hi"}])


def test_chat_client_unreachable():
    client = HttpChatClient("http://127.0.0.1:9", model="m", timeout=0.2)
    with pytest.raises(ChatTransportError, match="127.0.0.1:9"):
        client.chat([{"role": "user", "content": "hi"}])
    with pytest.raises(ChatTransportError):
        client.preflight()


def test_remote_embedder_protocol(stub_server):
    embedder = RemoteEmbedder(stub_server, model="einbettung")
    assert embedder.embed("ein kurzer text") == (1.0, 2.0, float(len("ein kurzer text")))

    path, payload = _Handler.requests_seen[-1]
    assert path == "/api/embed"
    assert payload == {"model": "einbettung", "input": "ein kurzer text"}


def test_remote_embedder_sends_the_text_verbatim(stub_server):
    text = "ein   text\r\nmit \x07 läng-\nsten  wörtern "
    RemoteEmbedder(stub_server, model="einbettung").embed(text)
    _, payload = _Handler.requests_seen[-1]
    assert payload["input"] == text


@pytest.mark.parametrize("text", ["", " ", "\n\n\t\u3000"])
def test_remote_embedder_refuses_blank_text_unsent(stub_server, text):
    with pytest.raises(EmbeddingError, match="cannot embed empty text"):
        RemoteEmbedder(stub_server, model="einbettung").embed(text)
    assert _Handler.requests_seen == []


def test_remote_embedder_error_status(stub_server):
    _Handler.fail_with = 503
    embedder = RemoteEmbedder(stub_server, model="e")
    with pytest.raises(EmbeddingError, match="returned 503"):
        embedder.embed("text")


def test_remote_embedder_unreachable():
    embedder = RemoteEmbedder("http://127.0.0.1:9", model="e", timeout=0.2)
    with pytest.raises(EmbeddingError, match="unreachable"):
        embedder.embed("text")


@pytest.mark.parametrize(
    "body",
    [
        b'{"embeddings": [[1.0, 2.',  # truncated JSON
        b'{"embedding": [1.0, 2.0]}',  # missing key
        b'{"embeddings": []}',  # no vector
        b'{"embeddings": [["a", "b"]]}',  # non-numeric values
        b'{"embeddings": [null]}',  # wrong type
        b'{"embeddings": [[]]}',  # empty vector
        b'{"embeddings": [[1.0, NaN]]}',  # non-finite value
        b'null',  # wrong top-level type
    ],
)
def test_remote_embedder_malformed_body(stub_server, body):
    _Handler.body_override = body
    embedder = RemoteEmbedder(stub_server, model="e")
    with pytest.raises(EmbeddingError, match="malformed body"):
        embedder.embed("text")


class _FaultServer(HTTPServer):
    """Answers every POST the same way: ``fault`` names how."""

    def __init__(self, fault: str, status: int):
        super().__init__(("127.0.0.1", 0), _FaultHandler)
        self.fault = fault
        self.status = status
        self.seen: list[tuple[str, str | None, bytes]] = []  # path, Content-Type, raw body
        self.release = threading.Event()


class _FaultHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        self.send_response(self.server.status)
        self.end_headers()

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers.get("Content-Type"), raw))
        fault = self.server.fault
        if fault == "slow":
            self.server.release.wait(10)  # the client gives up first; send nothing
        elif fault == "close":
            pass  # close before the status line
        elif fault == "short":
            self.send_response(200)
            self.send_header("Content-Length", "64")
            self.end_headers()
            self.wfile.write(b'{"message": {')
        elif fault == "status":
            self.send_response(self.server.status)
            self.end_headers()
        else:  # one reply that both clients accept
            data = b'{"message": {"role": "assistant", "content": "gut"}, "embeddings": [[1.0]]}'
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)


@pytest.fixture()
def fault_server():
    started = []

    def start(fault: str, status: int = 200):
        server = _FaultServer(fault, status)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        started.append((server, thread))
        return server, f"http://127.0.0.1:{server.server_port}"

    yield start
    for server, thread in started:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def _chat(base_url: str, timeout: float = 5.0) -> None:
    HttpChatClient(base_url, model="m", timeout=timeout).chat([{"role": "user", "content": "hi"}])


def _embed(base_url: str, timeout: float = 5.0) -> None:
    RemoteEmbedder(base_url, model="e", timeout=timeout).embed("text")


CALLERS = [pytest.param(_chat, ChatTransportError, id="chat"), pytest.param(_embed, EmbeddingError, id="embed")]


@pytest.mark.parametrize("call, error", CALLERS)
@pytest.mark.parametrize("fault", ["slow", "close", "short"])
def test_transport_fault_raises_the_callers_error(fault_server, call, error, fault):
    _, url = fault_server(fault)
    with pytest.raises(error, match=f"endpoint unreachable: {url}/api/"):
        call(url, timeout=0.2)


@pytest.mark.parametrize("call, error", CALLERS)
@pytest.mark.parametrize("status", [307, 404])
def test_transport_status_raises_the_callers_error(fault_server, call, error, status):
    _, url = fault_server("status", status)
    with pytest.raises(error, match=f"returned {status}$"):
        call(url)


@pytest.mark.parametrize("call, error", CALLERS)
@pytest.mark.parametrize("base_url", ["chat-host", "localhost:11434", "ftp://127.0.0.1:9"])
def test_non_http_url_raises_the_callers_error(call, error, base_url):
    with pytest.raises(error, match="endpoint unreachable"):
        call(base_url)


def test_file_url_is_refused_unread(tmp_path):
    (tmp_path / "api").mkdir()
    (tmp_path / "api" / "chat").write_text('{"message": {"role": "assistant", "content": "gelesen"}}')
    (tmp_path / "api" / "embed").write_text('{"embeddings": [[1.0]]}')
    for call, error in ((_chat, ChatTransportError), (_embed, EmbeddingError)):
        with pytest.raises(error, match="endpoint unreachable"):
            call(tmp_path.as_uri())
    with pytest.raises(ChatTransportError, match="endpoint unreachable"):
        HttpChatClient((tmp_path / "api" / "chat").as_uri(), model="m").preflight()


def test_request_body_on_the_wire(fault_server):
    server, url = fault_server("answer")
    messages = [
        {"role": "system", "content": "Du bist Prüferin."},
        {"role": "user", "content": "Bewerte: Die Größe der Übung ärgert Jörg über die Maßen."},
    ]
    assert HttpChatClient(url, model="modell", temperature=0.25, seed=11).chat(messages) == "gut"
    assert RemoteEmbedder(url, model="einbettung").embed("Straße über Öl") == (1.0,)

    chat_payload = {"model": "modell", "messages": messages, "stream": False, "options": {"temperature": 0.25, "seed": 11}}
    embed_payload = {"model": "einbettung", "input": "Straße über Öl"}
    assert server.seen == [
        ("/api/chat", "application/json", json.dumps(chat_payload, allow_nan=False).encode("utf-8")),
        ("/api/embed", "application/json", json.dumps(embed_payload, allow_nan=False).encode("utf-8")),
    ]


@pytest.mark.parametrize("status", [404, 500])
def test_preflight_accepts_any_status(fault_server, status):
    _, url = fault_server("status", status)
    HttpChatClient(url, model="m").preflight()


@pytest.mark.parametrize("call, error", CALLERS)
@pytest.mark.parametrize("fault", ["slow", "close"])
def test_a_fault_on_a_new_connection_is_not_retried(fault_server, call, error, fault):
    server, url = fault_server(fault)
    with pytest.raises(error, match="endpoint unreachable"):
        call(url, timeout=0.2)
    assert [path for path, _, _ in server.seen] == [f"/api/{call.__name__[1:]}"]
