"""Hot-path performance benchmark: vectorized vs reference solver & sim.

Times the two paths the ROADMAP's "as fast as the hardware allows" goal
depends on:

* **Allocator** — an 8-application × 64-operating-point MMKP solve
  (subgradient selection + greedy repair + placement), reference scalar
  loops vs the batched tensor path, plus the memoized-epoch fast path.
* **Pruning** — dominance pruning of one full Raptor Lake row (every
  ERV, 764 points): the allocator's core-count grid
  (``dominated_cells``) vs the pairwise tensor (``dominated_mask``),
  min and median over three seeds; the masks must be equal.
* **Simulation** — a multi-application 1000-tick world under CFS,
  reference per-core scalar integration vs array-shaped power/energy
  integration with placement reuse.

Writes ``BENCH_hotpaths.json`` at the repo root (the perf trajectory
artifact) and prints a summary.  ``--smoke`` (or ``HARP_BENCH_SMOKE=1``)
runs a down-scaled profile and writes the JSON next to the results of the
other benchmarks instead, so CI never overwrites the committed numbers.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py [--smoke]
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # allow running as a plain script
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.apps import npb_model
from repro.core.allocator import AllocationRequest, LagrangianAllocator
from repro.core.cost import batch_costs
from repro.core.operating_point import OperatingPoint
from repro.core.pareto import dominated_cells, dominated_mask
from repro.core.resource_vector import ErvLayout, ExtendedResourceVector
from repro.platform.topology import raptor_lake_i9_13900k
from repro.sim.engine import World
from repro.sim.schedulers.cfs import CfsScheduler

RESULT_PATH = _REPO_ROOT / "BENCH_hotpaths.json"
SMOKE_RESULT_PATH = _REPO_ROOT / "benchmarks" / "results" / "BENCH_hotpaths_smoke.json"

SIM_APPS = ["ep.C", "mg.C", "ft.C", "cg.C", "is.C", "lu.C"]


def _random_requests(
    layout: ErvLayout, rng: np.random.Generator, n_apps: int, n_points: int
) -> list[AllocationRequest]:
    """One solver instance: contended, hysteresis-bearing, mixed sizes."""
    requests = []
    for pid in range(n_apps):
        points = []
        for _ in range(n_points):
            p1 = int(rng.integers(0, 5))
            p2 = int(rng.integers(0, 5))
            e = int(rng.integers(0, 9))
            if p1 + p2 + e == 0:
                e = 1
            points.append(
                OperatingPoint(
                    erv=ExtendedResourceVector(layout, (p1, p2, e)),
                    utility=float(rng.uniform(0.5, 20.0)),
                    power=float(rng.uniform(1.0, 150.0)),
                    measured=True,
                    samples=1,
                )
            )
        requests.append(
            AllocationRequest(
                pid=pid,
                points=points,
                max_utility=20.0,
                preferred_erv=points[int(rng.integers(0, n_points))].erv,
            )
        )
    return requests


def bench_allocator(n_apps: int = 8, n_points: int = 64, n_instances: int = 20) -> dict:
    platform = raptor_lake_i9_13900k()
    layout = ErvLayout(platform)
    rng = np.random.default_rng(42)
    instances = [
        _random_requests(layout, rng, n_apps, n_points)
        for _ in range(n_instances)
    ]
    timings = {}
    # The reference configuration reproduces the seed solver: scalar
    # selection/repair loops over the full point tables (no Pareto
    # pruning).  The vectorized configuration is the new hot path —
    # batched tensors plus pruning.  cache_size=0 on both: time the
    # solver itself, not the memoization layer.
    configs = {
        "reference": dict(mode="reference", prune=False, cache_size=0),
        "vectorized": dict(mode="vectorized", prune=True, cache_size=0),
    }
    for name, kwargs in configs.items():
        alloc = LagrangianAllocator(platform, layout, **kwargs)
        alloc.allocate(instances[0])  # warm-up
        start = time.perf_counter()
        for requests in instances:
            alloc.allocate(requests)
        timings[name] = (time.perf_counter() - start) / n_instances

    # Memoized epochs: identical inputs skip the solver entirely.
    cached = LagrangianAllocator(platform, layout, mode="vectorized")
    cached.allocate(instances[0])
    start = time.perf_counter()
    for _ in range(n_instances):
        cached.allocate(instances[0])
    cached_s = (time.perf_counter() - start) / n_instances
    assert cached.stats.cache_hits == n_instances

    return {
        "n_apps": n_apps,
        "n_points": n_points,
        "n_instances": n_instances,
        "reference_ms": timings["reference"] * 1e3,
        "vectorized_ms": timings["vectorized"] * 1e3,
        "cached_epoch_ms": cached_s * 1e3,
        "speedup": timings["reference"] / timings["vectorized"],
        "cached_speedup": timings["reference"] / cached_s,
    }


def _per_call_ms(fn, reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - start) / reps * 1e3


def bench_prune(seeds: tuple[int, ...] = (0, 1, 2), reps: int = 5) -> dict:
    """Prune one full Raptor Lake row: core-count grid vs pairwise tensor."""
    layout = ErvLayout(raptor_lake_i9_13900k())
    ervs = layout.enumerate_all()
    counts = np.array([erv.counts for erv in ervs], dtype=float)
    cells = counts @ layout.type_projection()
    grid_ms, pairwise_ms = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        cost = batch_costs(
            rng.uniform(1.0, 150.0, len(ervs)),
            rng.uniform(0.5, 20.0, len(ervs)),
            20.0,
        )
        objectives = np.column_stack([cost, cells])
        assert np.array_equal(
            dominated_cells(cost, cells), dominated_mask(objectives)
        ), f"grid and pairwise masks differ (seed {seed})"
        grid_ms.append(_per_call_ms(partial(dominated_cells, cost, cells), reps))
        pairwise_ms.append(_per_call_ms(partial(dominated_mask, objectives), reps))
    return {
        "n_points": len(ervs),
        "seeds": list(seeds),
        "reps": reps,
        "grid_ms_min": min(grid_ms),
        "grid_ms_median": float(np.median(grid_ms)),
        "pairwise_ms_min": min(pairwise_ms),
        "pairwise_ms_median": float(np.median(pairwise_ms)),
        "speedup_median": float(np.median(pairwise_ms) / np.median(grid_ms)),
    }


def _build_world(vectorized: bool) -> World:
    world = World(
        raptor_lake_i9_13900k(), CfsScheduler(), seed=0, vectorized=vectorized
    )
    for name in SIM_APPS:
        world.spawn(npb_model(name))
    return world


def bench_sim(ticks: int = 1000) -> dict:
    timings = {}
    energies = {}
    for vectorized in (False, True):
        _build_world(vectorized).step()  # warm-up (numpy dispatch, caches)
        world = _build_world(vectorized)
        start = time.perf_counter()
        for _ in range(ticks):
            world.step()
        timings[vectorized] = time.perf_counter() - start
        energies[vectorized] = sum(world.energy_by_type_j.values())
    drift = abs(energies[True] - energies[False]) / energies[False]
    return {
        "ticks": ticks,
        "apps": SIM_APPS,
        "reference_s": timings[False],
        "vectorized_s": timings[True],
        "speedup": timings[False] / timings[True],
        "energy_drift_rel": drift,
    }


def run(smoke: bool = False) -> dict:
    if smoke:
        allocator = bench_allocator(n_apps=4, n_points=16, n_instances=3)
        prune = bench_prune(reps=1)
        sim = bench_sim(ticks=100)
    else:
        allocator = bench_allocator()
        prune = bench_prune()
        sim = bench_sim()
    report = {
        "bench": "hotpaths",
        "smoke": smoke,
        "allocator": allocator,
        "prune": prune,
        "sim": sim,
    }
    path = SMOKE_RESULT_PATH if smoke else RESULT_PATH
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\nresults written to {path}")
    if not smoke:
        assert allocator["speedup"] >= 5.0, (
            f"allocator speedup {allocator['speedup']:.1f}x below the 5x target"
        )
        assert sim["speedup"] >= 3.0, (
            f"sim speedup {sim['speedup']:.1f}x below the 3x target"
        )
    assert sim["energy_drift_rel"] < 1e-9, "vectorized sim diverged from reference"
    return report


def test_hotpaths_smoke():
    """Pytest entry point: scaled-down run, correctness assertions only."""
    run(smoke=True)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv or os.environ.get("HARP_BENCH_SMOKE") == "1"
    run(smoke=smoke)
