from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from matura_grader.clients import ChatTransportError, HttpChatClient
from matura_grader.retrieval import EmbeddingError, RemoteEmbedder


class _Handler(BaseHTTPRequestHandler):
    server_version = "stub"
    requests_seen: list[tuple[str, dict]] = []
    fail_with: int | None = None
    body_override: bytes | None = None  # sent as-is with status 200

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
            body = {"embeddings": [[1.0, 2.0, float(len(payload["input"]))]]}
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
    vector = embedder.embed("ein kurzer text")
    assert vector.source == "remote_model"
    assert vector.values == (1.0, 2.0, float(len("ein kurzer text")))

    path, payload = _Handler.requests_seen[-1]
    assert path == "/api/embed"
    assert payload == {"model": "einbettung", "input": "ein kurzer text"}


def test_remote_embedder_normalizes_before_sending(stub_server):
    embedder = RemoteEmbedder(stub_server, model="einbettung")
    embedder.embed("ein   text\nmit   läng-\nsten  wörtern")
    _, payload = _Handler.requests_seen[-1]
    assert payload["input"] == "ein text mit längsten wörtern"


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
