"""Pipeline benchmark of matura-grader.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates a synthetic corpus from the seed, runs
``matura_grader.runner.run_experiment`` on it repeatedly for about S seconds,
checks every run's outputs and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones from a traced run. Exits 1 when an
output check fails, 2 when the pipeline source is missing.

Run from the repository root; the pipeline is imported from ``src/`` next to
this directory. The workloads are listed in BENCHMARK.json and harness.py.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matura_grader" / "__init__.py").is_file():
        print(f"perfbench: pipeline source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(harness.WORKLOADS)}")

    harness.prepare_environment()
    measurement = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in measurement.problems:
        print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    walls = ", ".join(f"{rep.wall_s:.3f}{'T' if rep.traced else ''}" for rep in measurement.reps)
    print(f"perfbench: {args.workload} seed {args.seed}: runs of {walls} s; output digest {measurement.digest}",
          file=sys.stderr)
    print(json.dumps(measurement.result))
    return 0 if measurement.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
