"""Record the output digest of workloads for more seeds.

    python3 perfbench/record_digests.py --seeds 0-19 [--workload NAME ...]

Runs each workload once per seed, untimed, checks its outputs and stores the
digest of metrics.csv, predictions.jsonl and transcripts/* in digests.json.
A seed whose recorded digest differs from the new one is an error: outputs
of the pipeline must not change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="a seed or a range such as 0-19")
    parser.add_argument("--workload", action="append", choices=sorted(harness.WORKLOADS))
    args = parser.parse_args(argv)

    harness.prepare_environment()
    digests = json.loads(harness.DIGESTS_PATH.read_text(encoding="utf-8"))
    status = 0
    for name in args.workload or harness.WORKLOADS:
        workload = harness.WORKLOADS[name]
        for seed in args.seeds:
            with harness.prepared(workload, seed, workload.n) as inputs:
                rep = harness.run_rep(inputs, traced=False)
            if rep.problems:
                for problem in rep.problems:
                    print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                status = 1
                continue
            known = digests.setdefault(name, {}).setdefault(str(seed), rep.digest)
            if known != rep.digest:
                print(f"{name} seed {seed}: digest {rep.digest} differs from the recorded {known}", file=sys.stderr)
                status = 1
            print(f"{name} seed {seed}: {rep.digest}")
            harness.DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
