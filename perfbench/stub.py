"""In-process stand-in for a local inference server, with a fixed latency.

Serves ``GET /`` (preflight) and ``POST /api/chat`` on 127.0.0.1 from a
threading HTTP server that shares the interpreter with the pipeline under
test. Every reply is looked up in a table built before timing starts, so a
request costs one JSON parse, one dict lookup and the fixed sleep, and never
a scan of the corpus. A chat reply is the gold sheet of the
exam whose text ends the last user message, keyed by the last ``TAIL_CHARS``
characters of that message. For a calibration turn that is the reference
exam, for the final turn the candidate (echo-gold).

The server counts requests, request bytes and handler time per path.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from matura_grader.clients import assessment_json
from matura_grader.corpus import Corpus
from matura_grader.prompts import render_calibration_message, render_candidate_block

TAIL_CHARS = 200
CALIBRATION_POSITIONS = ((1, 2), (1,), (2,))


def chat_table(corpus: Corpus) -> dict[str, bytes]:
    """Reply body per message tail: every message that can end a chat
    request (candidate block, calibration turn) maps to its exam's sheet."""
    table: dict[str, bytes] = {}
    owner: dict[str, str] = {}
    for record in corpus.records:
        sheet = assessment_json(record.gold.task1.as_dict(), record.gold.task2.as_dict())
        reply = json.dumps({"message": {"role": "assistant", "content": sheet}}).encode("utf-8")
        texts = [render_candidate_block(record)]
        texts += [render_calibration_message(1, record, positions) for positions in CALIBRATION_POSITIONS]
        for text in texts:
            key = text[-TAIL_CHARS:]
            if owner.setdefault(key, record.id) != record.id:
                raise ValueError(f"message tail shared by {owner[key]} and {record.id}")
            table[key] = reply
    return table


class PathStats:
    def __init__(self):
        self.requests = 0
        self.request_bytes = 0
        self.handler_s: list[float] = []


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "_Server"

    def log_message(self, *args):
        pass

    def do_GET(self):
        started = time.perf_counter()
        self._send(200, b"ok")
        self.server.stub.record(self.path, 0, time.perf_counter() - started)

    def do_POST(self):
        started = time.perf_counter()
        stub = self.server.stub
        body = self.rfile.read(int(self.headers["Content-Length"]))
        reply = None
        if self.path == "/api/chat":
            messages = json.loads(body)["messages"]
            last_user = next((m["content"] for m in reversed(messages) if m["role"] == "user"), "")
            reply = stub.chat_replies.get(last_user[-TAIL_CHARS:])
            time.sleep(stub.chat_delay_s)
        if reply is None:
            self._send(404, b"{}")
        else:
            self._send(200, reply)
        stub.record(self.path, len(body), time.perf_counter() - started)

    def _send(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins every handler thread
    stub: "StubServer"


class StubServer:
    """``with StubServer(chat_table(corpus), 0.025) as stub: stub.url``"""

    def __init__(self, chat_replies: dict[str, bytes], chat_delay_s: float):
        self.chat_replies = chat_replies
        self.chat_delay_s = chat_delay_s
        self.stats: dict[str, PathStats] = {}
        self._lock = threading.Lock()
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_port}"

    def record(self, path: str, nbytes: int, handler_s: float) -> None:
        with self._lock:
            stats = self.stats.setdefault(path, PathStats())
            stats.requests += 1
            stats.request_bytes += nbytes
            stats.handler_s.append(handler_s)

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = {}

    def __enter__(self) -> "StubServer":
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, name="stub-server")
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
