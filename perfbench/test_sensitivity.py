"""Sensitivity self-test: each workload loads the layers it claims to.

A fixed host delay is injected through the benchmark's own wrapper into
one entry point, and the end-to-end metric that layer should move must
move by more than its bound; on the bypass workload it must not.  Run
from the repository root::

    python3 -m pytest perfbench/test_sensitivity.py -q

Every set-up and cycle of a measurement runs in its own interpreter
(``measure.py`` starts them), so ``peak_rss_mb`` and warmed state of one
measurement never leak into the next.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import measure  # noqa: E402

SEED = 0


def _bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _timed(workload: str, delays: tuple = ()) -> dict[str, float]:
    """One timed measurement: fixed work, no time floor."""
    report = measure.timed(workload, SEED, 0.0, busy_waits=delays)
    assert report.correct, f"{workload}: correctness checks failed"
    return {name: value for name, (value, _) in report.metrics.items()}


def _traced(workload: str):
    return measure.traced(workload, SEED)


def test_allocator_delay_moves_managed_steady_epoch_latency():
    bound = _bounds()["rm_epoch_ms_p50"]
    base = _timed("managed-steady")
    slow = _timed("managed-steady", (("allocate", 0.005),))
    assert slow["rm_epoch_ms_p50"] > base["rm_epoch_ms_p50"] * (1 + bound)


def test_allocator_delay_leaves_bypass_workload_within_bounds():
    bounds = _bounds()
    before = _timed("substrate-bursty")
    slow = _timed("substrate-bursty", (("allocate", 0.005),))
    after = _timed("substrate-bursty")
    for name in ("sim_s_per_s", "setup_s", "peak_rss_mb"):
        # Bracketed by two clean runs, so host drift over the test does
        # not count against the bypass claim.
        low = min(before[name], after[name]) * (1 - bounds[name])
        high = max(before[name], after[name]) * (1 + bounds[name])
        assert low <= slow[name] <= high, (name, before, slow, after)


def test_step_delay_moves_paper_pair_sim_rate():
    bound = _bounds()["sim_s_per_s"]
    base = _timed("paper-pair")
    slow = _timed("paper-pair", (("step", 0.0002),))
    assert slow["sim_s_per_s"] < base["sim_s_per_s"] * (1 - bound)


def test_trace_finds_the_control_plane_on_managed_steady():
    report = _traced("managed-steady")
    self_s = {
        name[: -len(".self_s")]: value
        for name, (value, _) in report.metrics.items()
        if name.endswith(".self_s")
    }
    assert max(self_s, key=self_s.get) == "core.manager"
    _assert_rows_add_up(report)


def test_trace_shows_no_control_plane_on_substrate_bursty():
    report = _traced("substrate-bursty")
    metrics = {name: value for name, (value, _) in report.metrics.items()}
    self_s = {
        name[: -len(".self_s")]: value
        for name, value in metrics.items()
        if name.endswith(".self_s")
    }
    assert max(self_s, key=self_s.get) == "sim.event"
    for layer in ("core.manager", "core.exploration", "core.allocator",
                  "core.pareto", "core.monitor"):
        assert metrics[f"{layer}.calls"] == 0
        assert self_s[layer] == 0.0
    _assert_rows_add_up(report)


def _assert_rows_add_up(report) -> None:
    metrics = {name: value for name, (value, _) in report.metrics.items()}
    rows = sum(v for n, v in metrics.items() if n.endswith(".self_s"))
    total = rows + metrics["unattributed_s"]
    assert abs(total - metrics["traced_wall_s"]) < 1e-6 * total
    assert report.correct
