"""Timed and traced runs of one workload; the figures the benchmark prints.

Import this module with ``src`` and this directory on ``sys.path``
(``run.py`` sets them up).  The measured work itself runs in child
interpreters (``child.py``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

from probes import LAYERS, perf_counter
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
#: Cold set-ups per run, each in its own interpreter; ``setup_s`` is
#: their median.
SETUP_CHILDREN = 5
#: Fewest epochs per cycle, so that p90 has >= 10 samples beyond it.
MIN_EPOCHS = 100
CHILD_TIMEOUT_S = 170


@dataclass
class Report:
    workload: str
    seed: int
    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Simulated outputs, printed beside the metrics (never metrics).
    outputs: dict[str, object] = field(default_factory=dict)
    #: Human-readable lines (per-layer table in traced runs).
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def _child(job: str, name: str, seed: int, busy_waits=(), **extra) -> dict:
    """Run one ``child.py`` job in a fresh interpreter; its JSON result."""
    spec = dict(job=job, workload=name, seed=seed, index=0,
                busy_waits=list(busy_waits), traced=False, trace_path=None)
    spec.update(extra)
    done = subprocess.run(
        [sys.executable, CHILD, json.dumps(spec)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{name} {job} child exited {done.returncode}:\n"
            f"{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tally(report: Report, cycles: list[dict]) -> None:
    for cycle in cycles:
        for outcome in cycle["instances"]:
            report.attempted += outcome["attempted"]
            report.failed += outcome["failed"]
            report.problems.extend(outcome["problems"])
    first = cycles[0]["instances"]
    for cycle in cycles[1:]:
        for k, (a, b) in enumerate(zip(first, cycle["instances"])):
            if a["digest"] != b["digest"]:
                report.problems.append(
                    f"instance {k}: repeat diverged from its first run"
                )
    report.outputs = {
        "instances": len(first),
        "sim_s": sum(o["sim_s"] for o in first),
        "ticks": sum(o["ticks"] for o in first),
        "energy_j": sum(o["energy_j"] for o in first),
        "epochs": sum(o["rm"].get("epochs", 0) for o in first),
        "operations": sum(o["attempted"] for o in first),
    }


def _close(report: Report) -> Report:
    """A run whose checks fail counts each failed check as a failure."""
    report.failed += len(report.problems)
    report.outputs["ops_failed_frac"] = report.failed / max(report.attempted, 1)
    return report


def timed(
    name: str, seed: int, seconds: float, busy_waits: tuple = ()
) -> Report:
    """The end-to-end figures: the reallocate probe is the only probe.

    Every set-up and every cycle runs in a fresh interpreter, so a
    process-level memo is cold in each of them and its fill cost shows.
    Two cycles run every instance twice.  Each instance's host time and
    each of its epochs' latencies is the faster of its two runs: the two
    runs do bit-identical work from the same cold start, so the slower
    one only adds noise from the host.  Cycles after the second, run
    until ``seconds`` have passed, are replay checks only.
    ``busy_waits`` holds ``(target, seconds)`` delays (see
    ``child.BUSY_WAIT_TARGETS``) for the sensitivity self-test.
    """
    workload = WORKLOADS[name]
    report = Report(name, seed)
    setups = [
        _child("setup", name, seed, busy_waits, index=k)["setup_s"]
        for k in range(SETUP_CHILDREN)
    ]
    start = perf_counter()
    cycles = [_child("cycle", name, seed, busy_waits) for _ in range(2)]
    while perf_counter() - start < seconds:
        cycles.append(_child("cycle", name, seed, busy_waits))
    _tally(report, cycles)
    a, b = cycles[0]["instances"], cycles[1]["instances"]
    host_s = sum(min(x["host_s"], y["host_s"]) for x, y in zip(a, b))
    lat = [
        min(x, y)
        for ia, ib in zip(a, b)
        for x, y in zip(ia["epochs_s"], ib["epochs_s"])
    ]
    m = report.metrics
    m["sim_s_per_s"] = (sum(o["sim_s"] for o in a) / host_s, "sim_s/host_s")
    m["setup_s"] = (statistics.median(setups), "s")
    m["peak_rss_mb"] = (
        max(c["peak_rss_mb"] for c in cycles[:2]), "MiB"
    )
    if workload.has_rm:
        if len(lat) < MIN_EPOCHS:
            report.problems.append(
                f"only {len(lat)} epochs; p90 needs {MIN_EPOCHS}"
            )
        m["rm_epoch_ms_p50"] = (statistics.median(lat) * 1e3, "ms")
        m["rm_epoch_ms_p90"] = (
            statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"
        )
    report.outputs["cycles"] = len(cycles)
    report.outputs["rm_epoch_samples"] = len(lat)
    return _close(report)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(name: str, seed: int, trace_dir: str | None = None) -> Report:
    """Per-layer figures: one untraced cycle, then one traced cycle.

    Each runs cold in its own interpreter, so ``trace_overhead_frac``
    compares like with like.
    """
    report = Report(name, seed)
    path = None
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"trace-{name}-seed{seed}.json.gz")
    plain = _child("cycle", name, seed)
    cycle = _child("cycle", name, seed, traced=True, trace_path=path)
    _tally(report, [plain, cycle])

    t = cycle["trace"]
    wall = cycle["wall_s"]
    unattributed = wall - t["top_level_s"]
    outcomes = cycle["instances"]
    rm = sum((Counter(o["rm"]) for o in outcomes), Counter())
    ticks = sum(o["ticks"] for o in outcomes)
    m = report.metrics
    for layer in LAYERS:
        m[f"{layer}.calls"] = (t["calls"][layer], "count")
        m[f"{layer}.self_s"] = (t["self_s"][layer], "s")
    m["sim.engine.steps"] = (t["steps"], "count")
    m["sim.event.advances"] = (t["advances"], "count")
    m["sim.leapt_ticks_frac"] = (1.0 - _frac(t["steps"], ticks), "ratio")
    m["core.manager.epochs"] = (rm["epochs"], "count")
    m["core.manager.coalesced_frac"] = (
        _frac(rm["coalesced"], rm["coalesced"] + rm["epochs"]), "ratio"
    )
    m["core.allocator.warm_hit_frac"] = (
        _frac(rm["warm_starts"], rm["solves"]), "ratio"
    )
    m["core.allocator.cache_hit_frac"] = (
        _frac(rm["cache_hits"], rm["cache_hits"] + rm["cache_misses"]),
        "ratio",
    )
    m["ipc.bytes"] = (t["ipc_bytes"], "B")
    m["fleet.readmissions"] = (
        sum(o["readmissions"] for o in outcomes), "count"
    )
    m["unattributed_s"] = (unattributed, "s")
    m["traced_wall_s"] = (wall, "s")
    m["trace_overhead_frac"] = (wall / plain["wall_s"] - 1.0, "ratio")

    self_s = t["self_s"]
    notes = report.notes
    notes.append(f"{'layer':<18}{'calls':>10}{'self_s':>11}{'share':>8}")
    for layer in sorted(LAYERS, key=lambda layer: -self_s[layer]):
        notes.append(
            f"{layer:<18}{t['calls'][layer]:>10}{self_s[layer]:>11.4f}"
            f"{self_s[layer] / wall:>8.1%}"
        )
    notes.append(
        f"{'(unattributed)':<18}{'':>10}{unattributed:>11.4f}"
        f"{unattributed / wall:>8.1%}"
    )
    notes.append(f"{'traced wall':<18}{'':>10}{wall:>11.4f}{1:>8.1%}")
    if t["trace_gen_s"]:
        notes.append(
            f"scenario.trace_gen_s {t['trace_gen_s']:.4f} s "
            "(generate_trace, inclusive; a share of the scenario row)"
        )
    if path is not None:
        dropped = f" ({t['spans_dropped']} spans over the cap)" \
            if t["spans_dropped"] else ""
        notes.append(f"Chrome/Perfetto trace: {path}{dropped}")
    return _close(report)
