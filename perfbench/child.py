#!/usr/bin/env python3
"""One measurement in a fresh interpreter.

Usage::

    python3 perfbench/child.py '<job as JSON>'

``measure.py`` starts one child per set-up sample and one per cycle, so
no process-level state (a memo, a warmed table, a filled cache) carries
from one measured run into the next: every set-up and every cycle starts
cold.  The child prints one JSON object as its last line of output.

A job is ``{"job": "setup" | "cycle", "workload", "seed", "index",
"busy_waits": [[target, seconds], ...], "traced", "trace_path"}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from probes import (  # noqa: E402
    LAYERS, EpochProbe, Patches, ProgramClock, Tracer, busy_wait, perf_counter,
)
from workloads import WORKLOADS, sub_seed  # noqa: E402

from repro.core.allocator import LagrangianAllocator  # noqa: E402
from repro.sim.engine import World  # noqa: E402

#: Entry points the sensitivity self-test may slow down, by name.
BUSY_WAIT_TARGETS = {
    "allocate": (LagrangianAllocator, "allocate"),
    "step": (World, "step"),
}


def _slow_down(patches: Patches, job: dict) -> None:
    for target, seconds in job["busy_waits"]:
        busy_wait(patches, *BUSY_WAIT_TARGETS[target], seconds)


def _digest(summary: dict) -> str:
    text = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def setup(job: dict) -> dict:
    """Host time of one cold set-up: the first in this interpreter."""
    workload = WORKLOADS[job["workload"]]
    seed = sub_seed(job["seed"], job["index"] % workload.instances)
    with Patches() as patches:
        _slow_down(patches, job)
        return {"setup_s": workload.setup_s(seed)}


def cycle(job: dict) -> dict:
    """Every instance of the workload once: build, timed run, checks.

    ``wall_s`` is the program's host time over the cycle (set-ups and
    runs, with the benchmark's input draws and checks cut out).
    """
    workload = WORKLOADS[job["workload"]]
    clock = ProgramClock()
    instances = []
    wall_s = 0.0
    with Patches() as patches:
        probe = EpochProbe()
        probe.install(patches)
        _slow_down(patches, job)
        tracer = None
        if job["traced"]:
            tracer = Tracer(clock)
            tracer.install(patches)
        start = perf_counter()
        for k in range(workload.instances):
            seed = sub_seed(job["seed"], k)
            with clock.paused():
                inputs = workload.inputs(seed)
            built = clock.now()
            instance = workload.build(seed, inputs)
            probe.take_managers()
            first_epoch = len(probe.latencies_s)
            started = clock.now()
            instance.run(clock)
            ended = clock.now()
            wall_s += ended - built
            with clock.paused():
                outcome = instance.outcome(probe.take_managers())
            instances.append({
                "host_s": ended - started,
                "epochs_s": probe.latencies_s[first_epoch:],
                "sim_s": outcome.sim_s,
                "ticks": outcome.ticks,
                "energy_j": outcome.energy_j,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "problems": outcome.problems,
                "rm": dict(outcome.rm),
                "readmissions": outcome.readmissions,
                "digest": _digest(outcome.summary),
            })
    result = {
        "instances": instances,
        "wall_s": wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = {
            "calls": {layer: tracer.calls[layer] for layer in LAYERS},
            "self_s": {layer: tracer.self_s[layer] for layer in LAYERS},
            "top_level_s": tracer.top_level_s,
            "steps": tracer.fn_calls["World.step"],
            "advances": tracer.advances,
            "trace_gen_s": tracer.fn_total_s["generate_trace"],
            "ipc_bytes": tracer.ipc_bytes(),
            "spans_dropped": tracer.spans_dropped,
        }
        if job["trace_path"]:
            tracer.write_chrome_trace(job["trace_path"], start)
    return result


def main() -> int:
    job = json.loads(sys.argv[1])
    run = {"setup": setup, "cycle": cycle}[job["job"]]
    print(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
