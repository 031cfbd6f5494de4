"""Chat-completion clients.

``HttpChatClient`` speaks the ``POST {base_url}/api/chat`` protocol of
common local inference servers. The mock clients make the whole grading
pipeline runnable and deterministic offline; ``exam_id`` is passed along
with each conversation so the echo_gold policy can look up the right gold
sheet without the grades ever entering a prompt.
"""

from __future__ import annotations

import http.client
import json
import re
import urllib.error
import urllib.request

from .corpus import Corpus
from .grading import DIMENSIONS, TASKS, VALID_GRADES


class ChatTransportError(RuntimeError):
    pass


# What a failed request can raise short of an HTTP status: URLError, a
# timeout and a reset connection are OSErrors, a reply cut off mid-way is an
# HTTPException, and a URL without a scheme or with a non-HTTP one is a
# ValueError.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)


def _open(url: str, data: bytes | None, timeout: float):
    """Send one request to an http(s) ``url`` and return the open response.

    urllib asks for ``Connection: close``, so each request gets a connection
    of its own; non-2xx statuses raise ``urllib.error.HTTPError``."""
    headers = {} if data is None else {"Content-Type": "application/json"}
    request = urllib.request.Request(url, data, headers)
    if request.type not in ("http", "https"):
        raise ValueError(f"unsupported URL scheme {request.type!r}")
    return urllib.request.urlopen(request, timeout=timeout)


def post_json(endpoint: str, payload: dict, timeout: float, error: type[Exception], what: str):
    """POST ``payload`` to ``endpoint`` and return the decoded JSON reply.

    An unreachable endpoint, a non-200 status and a body that is not JSON
    raise ``error``; checking the reply's schema is left to the caller."""
    try:
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        with _open(endpoint, data, timeout) as response:
            status, raw = response.status, response.read()
    except urllib.error.HTTPError as exc:
        exc.close()
        status = exc.code
    except _TRANSPORT_ERRORS as exc:
        raise error(f"{what} endpoint unreachable: {endpoint} ({exc})") from exc
    if status != 200:
        raise error(f"{what} endpoint error: {endpoint} returned {status}")
    try:
        return json.loads(raw)
    except ValueError as exc:
        raise error(f"{what} endpoint returned a malformed body: {endpoint} ({exc!r})") from exc


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

    def preflight(self) -> None:
        """Fail fast when the server is not reachable at all."""
        try:
            with _open(self.base_url, None, min(self.timeout, 10.0)):
                pass
        except urllib.error.HTTPError as exc:
            exc.close()  # any status means the server is there
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
        body = post_json(endpoint, payload, self.timeout, ChatTransportError, "chat")
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

