#!/usr/bin/env python3
"""HARP-in-the-loop benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload managed-steady --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload managed-steady --seed 0 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
per-layer trace and writes a Chrome/Perfetto trace under
``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each metric and layer means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def _print_report(report, workload, provenance: dict) -> None:
    import numpy

    print(f"== perfbench {report.workload} seed {report.seed} ==")
    print(f"why: {workload.why}")
    print(f"loads: {', '.join(workload.layers)}")
    print(
        f"program {provenance['git_sha']}  python {platform.python_version()}"
        f"  numpy {numpy.__version__}  cpu_count {os.cpu_count()}"
    )
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print("simulated outputs (correctness checks, not metrics):")
    for key, value in report.outputs.items():
        print(f"  {key:<32} {value}")
    for line in report.notes:
        print(line)
    print(f"checks: {'all passed' if report.correct else 'FAILED'}")
    for problem in report.problems:
        print(f"  FAIL {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        report = measure.traced(
            args.workload, args.seed, os.path.join(HERE, "out")
        )
    else:
        report = measure.timed(args.workload, args.seed, args.seconds)
    _print_report(report, WORKLOADS[args.workload], {"git_sha": _git_sha()})
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
