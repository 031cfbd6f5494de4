"""Every function in ``src/matura_grader`` is reached by a CLI command,
except those on a short, commented list.

A fresh interpreter sets a profile hook, for its own thread and for the
threads it starts, before it imports the package, so calls made at import
count too. It then runs these through ``cli.main`` on a small synthetic
corpus with the mock client: ``make-synthetic``, ``validate-corpus``, ``run
--print-defaults``, and ``run``, ``context`` and ``metrics`` for every
technique at parallelism 1 and 3 with one noise document. Code that only
tests reach belongs under ``tests/``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import matura_grader

PACKAGE = Path(matura_grader.__file__).resolve().parent

# Never entered by the mock CLI, each for a reason.
ALLOWED_UNREACHED = {
    # The chat client interface; every client overrides both.
    "clients.ChatClient.chat",
    "clients.ChatClient.identity",
    # The HTTP chat and embedding paths, reached only against a real server.
    "clients._connect",
    "clients.Connections.__init__",
    "clients.Connections.request",
    "clients.Connections.post_json",
    "clients.Connections.close",
    "clients.HttpChatClient.__init__",
    "clients.HttpChatClient.preflight",
    "clients.HttpChatClient.chat",
    "clients.HttpChatClient.identity",
    "clients.HttpChatClient.close",
    "retrieval.RemoteEmbedder.__init__",
    "retrieval.RemoteEmbedder.embed",
    "retrieval.RemoteEmbedder.close",
    # The malformed-reply helpers, reached only when a reply breaks the
    # schema: the mock replies are always well-formed.
    "orchestrator._sweep_brackets",
    "orchestrator._nests_within",
}

# Runs in the fresh interpreter; argv[1] is its working directory. Prints
# as JSON each command's exit code, each run's errored ids, and the (file,
# first line, name) of every function entered.
_TRACED_COMMANDS = """
import json, sys, threading
from pathlib import Path

entered = set()

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

threading.setprofile(hook)
sys.setprofile(hook)

from matura_grader.cli import main
from matura_grader.config import TECHNIQUES

root = Path(sys.argv[1])
data = root / "data"
errored = []
codes = [main(["make-synthetic", "--out", str(data), "--n", "20", "--seed", "7"])]
exams, rubrics = data / "exams", data / "rubrics"
codes.append(main(["validate-corpus", str(exams)]))
codes.append(main(["run", "--print-defaults"]))
for technique in TECHNIQUES:
    for parallelism in (1, 3):
        out = root / f"{technique}-{parallelism}"
        config = root / f"{technique}-{parallelism}.conf"
        config.write_text(
            f"corpus.path = {exams}\\nrubric.path = {rubrics}\\noutput.dir = {out}\\n"
            f"technique = {technique}\\nclient.kind = mock\\nclient.policy = echo_gold\\n"
            f"noise.count = 1\\nrunner.parallelism = {parallelism}\\n",
            encoding="utf-8",
        )
        codes.append(main(["run", "--config", str(config)]))
        codes.append(main(["context", "--config", str(config), "--candidate", "exam-003"]))
        codes.append(main(["metrics", "--pred", str(out / "predictions.jsonl"), "--gold", str(exams)]))
        errored += json.loads((out / "run_meta.json").read_text(encoding="utf-8"))["errored"]

sys.setprofile(None)
threading.setprofile(None)
print(json.dumps({"codes": codes, "errored": errored, "entered": sorted(entered)}))
"""


def _functions(code: types.CodeType, prefix: str) -> dict[tuple[str, int, str], str]:
    """Every named function compiled into ``code``, keyed as a frame's code
    is, by (file, first line, name), with its dotted name."""
    found = {}
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
            continue
        name = f"{prefix}.{const.co_name}"
        if const.co_flags & 0x1:  # CO_OPTIMIZED: a function body, not a class body
            found[(const.co_filename, const.co_firstlineno, const.co_name)] = name
        found.update(_functions(const, name))
    return found


def test_every_function_in_src_is_reached_by_a_command(tmp_path):
    functions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        functions.update(_functions(code, path.stem))
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, "-c", _TRACED_COMMANDS, str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    traced = json.loads(result.stdout.splitlines()[-1])
    assert set(traced["codes"]) == {0} and traced["errored"] == []
    entered = set(map(tuple, traced["entered"]))
    assert {name for key, name in functions.items() if key not in entered} == ALLOWED_UNREACHED
