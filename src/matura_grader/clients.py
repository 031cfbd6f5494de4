"""Chat-completion clients and their HTTP transport.

``HttpChatClient`` speaks the ``POST {base_url}/api/chat`` protocol of
common local inference servers. The mock clients make the whole grading
pipeline runnable and deterministic offline; ``exam_id`` is passed along
with each conversation so the echo_gold policy can look up the right gold
sheet without the grades ever entering a prompt.

``Connections`` is the one HTTP path, shared by the chat client and the
remote embedder: ``http.client`` connections kept open between requests, one
per thread and origin, until ``close``. A run closes its client when it
ends, and a server that joins its handler threads on shutdown waits for
that.
"""

from __future__ import annotations

import base64
import http.client
import json
import re
import socket
import threading
import urllib.request
from urllib.parse import SplitResult, unquote, urlsplit

from .corpus import Corpus
from .grading import DIMENSIONS, TASKS, VALID_GRADES


class ChatTransportError(RuntimeError):
    pass


# What a failed request can raise short of an HTTP status: a refused
# connection, a timeout and a reset connection are OSErrors, a reply cut off
# mid-way is an HTTPException, and a URL without a scheme or with a non-HTTP
# one is a ValueError.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)

# What a kept-alive connection that the server has closed raises before a
# status line is read; http.client.RemoteDisconnected is a ConnectionResetError.
_STALE = (ConnectionResetError, BrokenPipeError)


def _connect(parts: SplitResult, timeout: float) -> tuple[http.client.HTTPConnection, dict[str, str] | None]:
    """A new, not yet connected connection to the origin of ``parts``, routed
    through the ``http_proxy``/``https_proxy`` of the environment unless
    ``no_proxy`` covers the host. Also returns the headers each request on
    it adds when it goes through an http proxy, which takes the target in
    absolute form; ``None`` for a direct connection or an https tunnel."""
    https = parts.scheme == "https"
    cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy is None or urllib.request.proxy_bypass(parts.netloc):
        return cls(parts.hostname, parts.port, timeout=timeout), None
    proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    headers = {}
    if proxy_parts.username is not None:
        credentials = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii")
    conn = cls(proxy_parts.hostname, proxy_parts.port, timeout=timeout)
    if https:
        conn.set_tunnel(parts.hostname, parts.port, headers)
        return conn, None
    return conn, headers


class Connections:
    """HTTP/1.1 connections, one per thread and origin, kept open between
    requests until ``close``.

    After a request is sent its socket is set to ``TCP_QUICKACK``, so the
    first segment of the reply is acknowledged at once. A server that writes
    headers and body in two writes without ``TCP_NODELAY``, as Python's
    ``http.server`` does, would otherwise hold the body back until the
    client's delayed ACK, about 40 ms later on Linux. Where ``socket`` has
    no ``TCP_QUICKACK``, every request asks for ``Connection: close`` and
    gets a connection of its own.

    A request that fails closes its connection, so no later request can
    read what is left of an earlier reply. A request is sent again, once and
    on a new connection, only when a reused connection was closed by the
    server before a status line came back."""

    def __init__(self):
        self._lock = threading.Lock()
        self._open: dict[tuple[int, str, str], tuple[http.client.HTTPConnection, dict[str, str] | None]] = {}

    def request(self, method: str, url: str, body: bytes | None, timeout: float) -> tuple[int, bytes]:
        """Send one request to an http(s) ``url`` and return the status and
        the whole body of the reply; any status is returned, none followed."""
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"unsupported URL scheme {parts.scheme!r}")
        if not parts.hostname:
            raise ValueError(f"no host in {url!r}")
        key = (threading.get_ident(), parts.scheme, parts.netloc)
        with self._lock:
            route = self._open.get(key)
        if route is None:
            route = _connect(parts, timeout)
            with self._lock:
                self._open[key] = route
        conn, proxy_headers = route
        quickack = getattr(socket, "TCP_QUICKACK", None)
        headers = {"User-Agent": "matura-grader"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if quickack is None:
            headers["Connection"] = "close"
        if proxy_headers is None:
            target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        else:
            target = url
            headers.update(proxy_headers)
        conn.timeout = timeout
        while True:
            reused, response = conn.sock is not None, None
            try:
                if reused:
                    conn.sock.settimeout(timeout)
                conn.request(method, target, body, headers)
                if quickack is not None:
                    conn.sock.setsockopt(socket.IPPROTO_TCP, quickack, 1)
                response = conn.getresponse()
                raw = response.read()
                break
            except BaseException as exc:
                conn.close()
                # Only a reused connection that the server closed before a
                # status line is retried. The retry runs on a new connection,
                # so it is never retried itself.
                if not (reused and response is None and isinstance(exc, _STALE)):
                    raise
        if quickack is None:
            conn.close()
        return response.status, raw

    def post_json(self, endpoint: str, payload: dict, timeout: float, error: type[Exception], what: str):
        """POST ``payload`` to ``endpoint`` and return the decoded JSON reply.

        An unreachable endpoint, a non-200 status and a body that is not JSON
        raise ``error``; checking the reply's schema is left to the caller."""
        try:
            data = json.dumps(payload, allow_nan=False).encode("utf-8")
            status, raw = self.request("POST", endpoint, data, timeout)
        except _TRANSPORT_ERRORS as exc:
            raise error(f"{what} endpoint unreachable: {endpoint} ({exc})") from exc
        if status != 200:
            raise error(f"{what} endpoint error: {endpoint} returned {status}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise error(f"{what} endpoint returned a malformed body: {endpoint} ({exc!r})") from exc

    def close(self) -> None:
        """Close every connection; a later request opens a new one."""
        with self._lock:
            routes, self._open = list(self._open.values()), {}
        for conn, _ in routes:
            conn.close()


class ChatClient:
    """Interface: ``chat(messages, exam_id=None) -> str`` (assistant text).

    ``reads_exam_id`` says whether a reply may depend on ``exam_id`` and not
    only on the messages. A run shares one reply among identical calibration
    guess requests of different candidates only when it is false, so the
    default is true."""

    reads_exam_id = True

    def chat(self, messages: list[dict[str, str]], exam_id: str | None = None) -> str:
        raise NotImplementedError

    def identity(self) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the client holds open; it stays usable."""


class HttpChatClient(ChatClient):
    # A request carries the messages, the model and a fixed seed, and no exam id.
    reads_exam_id = False

    def __init__(
        self,
        base_url: str,
        model: str,
        temperature: float = 0.0,
        seed: int = 0,
        timeout: float = 120.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.temperature = temperature
        self.seed = seed
        self.timeout = timeout
        self._connections = Connections()

    def preflight(self) -> None:
        """Fail fast when the server is not reachable at all; any status
        means it is there."""
        try:
            self._connections.request("GET", self.base_url, None, min(self.timeout, 10.0))
        except _TRANSPORT_ERRORS as exc:
            raise ChatTransportError(f"chat endpoint unreachable: {self.base_url} ({exc})") from exc

    def chat(self, messages: list[dict[str, str]], exam_id: str | None = None) -> str:
        payload = {
            "model": self.model,
            "messages": messages,
            "stream": False,
            "options": {"temperature": self.temperature, "seed": self.seed},
        }
        endpoint = f"{self.base_url}/api/chat"
        body = self._connections.post_json(endpoint, payload, self.timeout, ChatTransportError, "chat")
        try:
            content = body["message"]["content"]
        except (KeyError, TypeError) as exc:
            raise ChatTransportError(f"chat endpoint returned a malformed body: {endpoint} ({exc!r})") from exc
        if not isinstance(content, str):
            raise ChatTransportError(
                f"chat endpoint returned a malformed body: {endpoint} (content is {type(content).__name__})"
            )
        return content

    def identity(self) -> str:
        return f"http:{self.base_url}:{self.model}"

    def close(self) -> None:
        self._connections.close()


def assessment_json(task1: dict[str, int], task2: dict[str, int], feedback: str = "Automatische Testbewertung.") -> str:
    """A well-formed grade sheet in the required output schema."""
    sheet = {
        task: {**{dim: grades[dim] for dim in DIMENSIONS}, "feedback": feedback}
        for task, grades in zip(TASKS, (task1, task2))
    }
    return json.dumps(sheet, ensure_ascii=False)


# Connectives whose presence the keyword policy rewards.
_KEYWORDS = (
    "jedoch",
    "außerdem",
    "dennoch",
    "zudem",
    "allerdings",
    "folglich",
    "einerseits",
    "andererseits",
    "beispielsweise",
    "zusammenfassend",
)

ALWAYS_GRADE = "always_grade"
ECHO_GOLD = "echo_gold"
KEYWORD_HEURISTIC = "keyword_heuristic"
MOCK_POLICIES = (ALWAYS_GRADE, ECHO_GOLD, KEYWORD_HEURISTIC)


def parse_policy(text: str) -> tuple[str, int]:
    """A mock policy spec as (policy, grade): ``echo_gold``,
    ``keyword_heuristic``, ``always_grade`` (grade 3) or ``always_grade:<1-5>``."""
    policy, colon, grade = text.partition(":")
    grade_ok = not colon or (policy == ALWAYS_GRADE and grade in {str(g) for g in VALID_GRADES})
    if policy not in MOCK_POLICIES or not grade_ok:
        raise ValueError(
            f"malformed mock policy {text!r}; expected {ECHO_GOLD}, {KEYWORD_HEURISTIC}, "
            f"{ALWAYS_GRADE} or {ALWAYS_GRADE}:<1-5>"
        )
    return policy, int(grade) if colon else 3


class MockChatClient(ChatClient):
    """Deterministic offline stand-in for a chat model.

    Policies:
      always_grade(g)   every dimension of every exam gets grade g
      echo_gold         returns the candidate's gold sheet (needs a corpus)
      keyword_heuristic grades by counting connective keywords in the last
                        user message
    """

    def __init__(self, policy: str, grade: int = 3, corpus: Corpus | None = None):
        if policy not in MOCK_POLICIES:
            raise ValueError(f"unknown mock policy {policy!r}")
        if policy == ALWAYS_GRADE and grade not in VALID_GRADES:
            raise ValueError(f"always_grade needs a grade in 1..5, got {grade}")
        if policy == ECHO_GOLD and corpus is None:
            raise ValueError("echo_gold needs a corpus to look gold grades up in")
        self.policy = policy
        self.grade = grade
        self.corpus = corpus

    @property
    def reads_exam_id(self) -> bool:
        return self.policy == ECHO_GOLD

    def chat(self, messages: list[dict[str, str]], exam_id: str | None = None) -> str:
        if self.policy == ALWAYS_GRADE:
            uniform = {dim: self.grade for dim in DIMENSIONS}
            return assessment_json(uniform, uniform)
        if self.policy == ECHO_GOLD:
            if exam_id is None:
                raise ValueError("echo_gold needs the exam id of the conversation")
            record = self.corpus.get(exam_id)
            return assessment_json(*record.gold.sub_dimensions().values())
        last_user = next((m["content"] for m in reversed(messages) if m["role"] == "user"), "")
        words = set(re.findall(r"\w+", last_user.lower()))
        hits = sum(1 for keyword in _KEYWORDS if keyword in words)
        grade = max(1, min(5, 5 - hits))
        uniform = {dim: grade for dim in DIMENSIONS}
        return assessment_json(uniform, uniform)

    def identity(self) -> str:
        if self.policy == ALWAYS_GRADE:
            return f"mock:always_grade:{self.grade}"
        return f"mock:{self.policy}"

