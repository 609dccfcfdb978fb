"""The benchmark's workloads: seeded inputs, one run, correctness checks.

Each workload turns a sub-seed into one *instance*.  ``Workload.inputs``
draws the inputs the benchmark generates itself (untimed);
``Workload.build`` hands them to the program through public entry points
and is the timed set-up; ``Instance.run(clock)`` is the timed work;
``Instance.outcome`` (untimed) reads back the simulated outputs, counts
operations, and runs the correctness checks.  Simulated outputs are
checks, never metrics.

A cycle runs ``instances`` instances with sub-seeds ``1000 * seed + k``:
several independent draws per run keep per-seed differences in offered
load from dominating the host-time figures, and every repeat of an
instance must reproduce its summary bit for bit.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro import scenario
from repro.analysis.scenarios import make_platform, run_scenario
from repro.core.manager import HarpManager, ManagerConfig
from repro.fault import Fault, FaultKind, FaultPlan
from repro.fleet import CoordinatorConfig, FleetAppSpec, FleetSim, NodeState
from repro.sim.engine import World
from repro.sim.event import make_world
from repro.sim.schedulers.cfs import CfsScheduler

from probes import Patches, ProgramClock, perf_counter


@dataclass
class Outcome:
    """What one instance did, read back after its timed run."""

    sim_s: float
    ticks: int
    energy_j: float
    attempted: int
    failed: int
    summary: dict
    problems: list[str] = field(default_factory=list)
    #: Counters summed over the HARP managers that ran (for the traced
    #: report); the managers themselves are dropped with the instance.
    rm: Counter = field(default_factory=Counter)
    readmissions: int = 0


def rm_counters(managers: list[HarpManager]) -> Counter:
    counters: Counter = Counter()
    for m in managers:
        stats = m.allocator.stats
        counters.update(
            epochs=m.allocation_epochs,
            coalesced=m.epoch_coalesced_events,
            failures=m.sessions_reaped + m.solver_fallbacks,
            solves=stats.solves,
            warm_starts=stats.warm_starts,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
        )
    return counters


def sub_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def _energy_books(world: World, label: str) -> list[str]:
    """Package energy = uncore + per-type core energy (sensor noise aside);
    ground-truth process energy never exceeds the core energy."""
    problems = []
    by_type = sum(world.energy_by_type_j.values())
    package = world.total_energy_j()
    expect = by_type + world.platform.uncore_power_w * world.time_s
    if not package > 0 or abs(package - expect) > 0.01 * package:
        problems.append(
            f"{label}: package {package:.3f} J != uncore + per-type "
            f"{expect:.3f} J"
        )
    procs = sum(p.energy_true_j for p in world.processes.values())
    if procs > by_type * (1 + 1e-9):
        problems.append(
            f"{label}: process energy {procs:.3f} J > core energy "
            f"{by_type:.3f} J"
        )
    return problems


# -- trace-driven worlds (managed-steady, substrate-bursty) ---------------------


def fixed_load_trace(spec: scenario.ScenarioSpec, seed: int) -> list:
    """The profile's expected load, drawn stratified from the seed.

    Exactly ``rate * duration`` sessions arrive, one in each ``1/rate``
    slot at a uniform offset within it.  The app mix, the thread counts
    and the lognormal work-size quantiles are each spread over the
    sessions in proportion and shuffled.  Two seeds differ in order and
    timing, never in offered load.  ``generate_trace`` draws the same
    distributions independently, which moves a 6-second window's load
    by +-25% from seed to seed.
    """
    if spec.arrival != "poisson" or spec.work_tail != "lognormal" \
            or spec.think_fraction or spec.diurnal_amplitude:
        raise ValueError(f"{spec.name}: not a steady batch profile")
    rng = np.random.default_rng([seed, 0x57EA])
    n = round(spec.rate_per_s * spec.duration_s)
    evenly = (np.arange(n) + 0.5) / n
    arrivals = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / spec.rate_per_s
    names = sorted(spec.app_mix)
    weights = np.array([spec.app_mix[a] for a in names], dtype=float)
    app_idx = np.searchsorted(np.cumsum(weights / weights.sum()), evenly)
    threads = np.resize(spec.nthreads_choices, n)
    sigma = spec.work_sigma
    mu = math.log(spec.work_scale_mean) - 0.5 * sigma * sigma
    normal = statistics.NormalDist()
    work = [math.exp(mu + sigma * normal.inv_cdf(q)) for q in evenly]
    app_idx, threads, work = (
        [seq[i] for i in rng.permutation(n)] for seq in (app_idx, threads, work)
    )
    return [
        scenario.SessionPlan(
            arrival_s=float(arrivals[i]), app=names[app_idx[i]],
            nthreads=int(threads[i]), work_scale=float(work[i]),
        )
        for i in range(n)
    ]


def trace_spec(
    profile: str, policy: str, duration_s: float
) -> scenario.ScenarioSpec:
    spec = replace(
        scenario.PROFILES[profile], policy=policy, duration_s=duration_s
    )
    if spec.scheduler != "cfs":
        raise ValueError(f"profile {profile!r} does not use cfs")
    return spec


class TraceInstance:
    """One trace-driven world; ``plans=None`` lets the program draw the
    trace with ``generate_trace``, as part of set-up."""

    def __init__(self, spec: scenario.ScenarioSpec, seed: int, plans=None):
        policy = spec.policy
        self.duration_s = spec.duration_s
        self.world = make_world(
            make_platform(spec.platform), CfsScheduler(), engine="event",
            seed=seed,
        )
        # The same RM wiring as repro.scenario.run_trace.
        self.manager = None
        if policy == "harp":
            self.manager = HarpManager(
                self.world, config=ManagerConfig(epoch_window_s=0.02)
            )
        self.driver = scenario.TraceDriver(
            self.world,
            # Looked up per call, so the tracer's wrapper is seen.
            scenario.generate_trace(spec, seed) if plans is None else plans,
            managed=self.manager is not None,
            max_live=spec.max_live,
        )

    def run(self, clock: ProgramClock) -> None:
        self.world.run_for(self.duration_s)

    def outcome(self, managers: list[HarpManager]) -> Outcome:
        world, drv = self.world, self.driver
        rm = rm_counters(managers)
        summary = dict(drv.summary())
        summary.update(
            ticks=world.tick_index,
            energy_j=world.total_energy_j(),
            energy_by_type_j=dict(world.energy_by_type_j),
            epochs=rm["epochs"],
            rm_failures=rm["failures"],
            books=[
                (r["pid"], r["app"], r["finish_s"], r["energy_true_j"])
                for r in drv.records
            ],
        )
        problems = _energy_books(world, "world")
        if drv.spawned != drv.completed + drv.live_count():
            problems.append(
                f"spawned {drv.spawned} != completed {drv.completed} "
                f"+ live {drv.live_count()}"
            )
        if self.manager is not None:
            self.manager.shutdown()
        return Outcome(
            sim_s=world.time_s,
            ticks=world.tick_index,
            energy_j=summary["energy_j"],
            attempted=drv.spawned + drv.rejected,
            failed=drv.rejected + rm["failures"],
            summary=summary,
            problems=problems,
            rm=rm,
        )


# -- paper-pair: the Fig. 6 pipeline -------------------------------------------


PAIR = ["ep.C", "mg.C"]
PAIR_POLICIES = ("cfs", "harp")
#: HARP measurement rounds (the figure averages 3).  Each round adds
#: full-cost epochs for the two new sessions, so with 16 the run holds
#: >= 100 epochs and its median sits inside the full-cost mode rather
#: than between it and the cheap epochs of warm-up (29 of ~60 at 3).
PAIR_ROUNDS = {"cfs": 3, "harp": 16}


class _FirstTick(Exception):
    """Raised by the first simulated tick of a set-up-only run."""


class PairInstance:
    def __init__(self, seed: int):
        self.seed = seed
        self.results = {}

    def run(self, clock: ProgramClock) -> None:
        for policy in PAIR_POLICIES:
            self.results[policy] = run_scenario(
                PAIR, platform="intel", policy=policy, seed=self.seed,
                rounds=PAIR_ROUNDS[policy],
            )

    def outcome(self, managers: list[HarpManager]) -> Outcome:
        cfs, harp = self.results["cfs"], self.results["harp"]
        problems = []
        if len(managers) != 1:
            raise RuntimeError(f"expected one HARP manager, saw {len(managers)}")
        mgr = managers[0]
        world = mgr.world
        problems += _energy_books(world, "harp world")
        summary = {}
        sim_s = world.time_s
        ticks = world.tick_index
        for policy, res in self.results.items():
            summary[policy] = {
                "warmup_rounds": res.warmup_rounds,
                "rounds": [
                    (r.makespan_s, r.energy_j, sorted(r.app_times.items()),
                     sorted(r.app_energy_j.items()))
                    for r in res.rounds
                ],
            }
            for i, r in enumerate(res.rounds):
                if sorted(r.app_times) != sorted(PAIR):
                    problems.append(f"{policy} round {i}: apps unfinished")
                if sum(r.app_energy_j.values()) > r.energy_j:
                    problems.append(f"{policy} round {i}: app energy > total")
        for r in cfs.rounds:
            sim_s += r.makespan_s
            ticks += round(r.makespan_s / world.tick_s)
        summary["harp_world"] = {
            "time_s": world.time_s,
            "energy_j": world.total_energy_j(),
            "epochs": mgr.allocation_epochs,
        }
        # Fig. 6 who-wins (EXPERIMENTS.md): HARP saves energy over CFS.
        if not harp.energy_j < cfs.energy_j:
            problems.append(
                f"HARP energy {harp.energy_j:.1f} J not below CFS "
                f"{cfs.energy_j:.1f} J"
            )
        sessions = len(PAIR) * (
            len(cfs.rounds) + len(harp.rounds) + harp.warmup_rounds
        )
        rm = rm_counters(managers)
        return Outcome(
            sim_s=sim_s,
            ticks=ticks,
            energy_j=summary["harp_world"]["energy_j"],
            attempted=sessions,
            failed=rm["failures"],
            summary=summary,
            problems=problems,
            rm=rm,
        )


def pair_setup_s(seed: int) -> float:
    """Host time from each ``run_scenario`` call to its first tick."""
    total = 0.0

    def make(orig):
        def step(world):
            raise _FirstTick

        return step

    with Patches() as patches:
        patches.method(World, "step", make)
        for policy in PAIR_POLICIES:
            t0 = perf_counter()
            try:
                run_scenario(PAIR, platform="intel", policy=policy, seed=seed)
            except _FirstTick:
                total += perf_counter() - t0
            else:
                raise RuntimeError(f"{policy}: run_scenario never ticked")
    return total


# -- fleet-sharded --------------------------------------------------------------


FLEET_NODES = 8
FLEET_MODELS = ("npb:ep.C", "npb:is.C", "tflite:vgg")
FLEET_THREADS = (1, 2)
#: Apps per fleet instance: six of each (model, threads) pair.
FLEET_APPS = 6 * len(FLEET_MODELS) * len(FLEET_THREADS)


def fleet_inputs(seed: int) -> tuple[list[FleetAppSpec], FaultPlan]:
    """The fleet's apps and fault plan, both drawn from the seed.

    The apps are ``generate_fleet_apps``' pools drawn stratified, as in
    :func:`fixed_load_trace`: every (model, threads) pair equally often,
    shuffled, one arrival per slot of the 0.5 s horizon.  One node
    crashes and another partitions (long enough to be reaped and
    reconciled) while the apps run, in the shape of
    ``examples/fleet_chaos_smoke.py``.
    """
    rng = np.random.default_rng([seed, 0xF1EE7])
    pairs = [(m, t) for m in FLEET_MODELS for t in FLEET_THREADS]
    mix = [pairs[i % len(pairs)] for i in rng.permutation(FLEET_APPS)]
    horizon_s = 0.5
    arrivals = (np.arange(FLEET_APPS) + rng.uniform(0.0, 1.0, FLEET_APPS)) \
        * (horizon_s / FLEET_APPS)
    apps = [
        FleetAppSpec(
            app_id=f"app-{i:04d}", model=model, nthreads=nthreads,
            arrival_s=float(arrivals[i]), work_scale=0.05,
        )
        for i, (model, nthreads) in enumerate(mix)
    ]
    crash, part = rng.choice(FLEET_NODES, size=2, replace=False)
    plan = FaultPlan([
        Fault(at_s=float(rng.uniform(0.5, 0.8)), kind=FaultKind.NODE_CRASH,
              target=f"node-{crash}"),
        Fault(at_s=float(rng.uniform(0.8, 1.1)),
              kind=FaultKind.NODE_PARTITION, target=f"node-{part}",
              params={"duration_s": float(rng.uniform(0.8, 1.2))}),
    ], seed=seed)
    return apps, plan


class FleetInstance:
    MAX_EPOCHS = 2000

    def __init__(self, seed: int, inputs: tuple[list[FleetAppSpec], FaultPlan]):
        apps, plan = inputs
        self.n_apps = len(apps)
        self.fleet = FleetSim(
            n_nodes=FLEET_NODES, apps=apps, seed=seed, plan=plan,
            coordinator_config=CoordinatorConfig(node_lease_epochs=1),
        )
        self.energy_trail: list[float] = []
        self.double_placed: set[str] = set()

    def run(self, clock: ProgramClock) -> None:
        fleet = self.fleet
        for _ in range(self.MAX_EPOCHS):
            fleet.run_epoch()
            with clock.paused():
                self.energy_trail.append(fleet.fleet_energy_j())
                self._check_placements()
            if (
                fleet.coordinator.all_finished()
                and fleet.injector.done()
                and len(fleet.coordinator.apps) == self.n_apps
            ):
                return

    def _check_placements(self) -> None:
        """At most one live copy per app among attached nodes.

        A partitioned (autonomous) node keeps running its copies until
        the link heals and reconciliation kills the stale ones; those
        are the designed split-brain window, not double placements.
        """
        nodes = self.fleet.nodes
        for app_id, node_ids in self.fleet.live_placements().items():
            attached = [n for n in node_ids
                        if nodes[n].state is NodeState.ATTACHED]
            if len(attached) > 1:
                self.double_placed.add(app_id)

    def outcome(self, managers: list[HarpManager]) -> Outcome:
        fleet = self.fleet
        results = fleet.results()
        coord = results["coordinator"]
        problems = []
        if not fleet.injector.done():
            problems.append("fault plan did not fire")
        if coord["nodes_reaped"] < 1:
            problems.append("no node was reaped")
        if coord["readmissions"] < 1:
            problems.append("no app was re-admitted")
        unfinished = sorted(
            a for a, rec in results["apps"].items() if rec["state"] != "finished"
        )
        lost = self.n_apps - len(results["apps"]) + len(unfinished)
        if lost:
            problems.append(f"{lost} app(s) lost or unfinished")
        if fleet.live_placements():
            problems.append("apps still live at the end")
        if self.double_placed:
            problems.append(f"double-placed: {sorted(self.double_placed)}")
        if any(b < a for a, b in zip(self.energy_trail, self.energy_trail[1:])):
            problems.append("fleet energy decreased")
        for node_id, node in sorted(fleet.nodes.items()):
            problems += _energy_books(node.world, f"node-{node_id}")
        rm = rm_counters(managers)
        worlds = [node.world for node in fleet.nodes.values()]
        return Outcome(
            sim_s=sum(w.time_s for w in worlds),
            ticks=sum(w.tick_index for w in worlds),
            energy_j=results["fleet_energy_j"],
            attempted=self.n_apps,
            failed=lost + len(self.double_placed) + rm["failures"],
            summary=results,
            problems=problems,
            rm=rm,
            readmissions=coord["readmissions"],
        )


# -- the registry ---------------------------------------------------------------


def _no_inputs(seed: int) -> None:
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Layers this workload loads (README.md has the full mapping).
    layers: tuple[str, ...]
    #: Instances per cycle, each from its own sub-seed.
    instances: int
    #: (sub-seed, inputs) -> an instance with ``run(clock)`` and
    #: ``outcome(managers)``.
    build: Callable[[int, object], object]
    #: Sub-seed -> the inputs the benchmark draws itself; not timed.
    inputs: Callable[[int], object] = _no_inputs
    has_rm: bool = True
    #: (sub-seed, inputs) -> host time from start to first tick, for a
    #: workload whose ``build`` does not reach it; default: time ``build``.
    setup: Callable[[int, object], float] | None = None

    def setup_s(self, seed: int) -> float:
        inputs = self.inputs(seed)
        if self.setup is not None:
            return self.setup(seed, inputs)
        t0 = perf_counter()
        self.build(seed, inputs)
        return perf_counter() - t0


STEADY = trace_spec("steady-64", "harp", 6.0)
BURSTY = trace_spec("bursty-1k", "none", 900.0)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="managed-steady",
            why="steady-64 load (4 arrivals/s, drawn stratified) under "
                "HARP on the event engine; the only workload where the RM "
                "control plane (exploration, allocator) dominates host time",
            layers=("core.manager", "core.exploration", "core.allocator",
                    "core.monitor", "sim.event", "scenario"),
            instances=12,
            inputs=lambda seed: fixed_load_trace(STEADY, seed),
            build=lambda seed, plans: TraceInstance(STEADY, seed, plans),
        ),
        Workload(
            name="paper-pair",
            why="the Fig. 6 ep.C+mg.C pipeline (run_scenario, cfs then "
                "harp) on the tick World: per-tick sim cost plus warm "
                "allocator re-solves of the same two apps",
            layers=("sim.engine", "sim.schedulers", "apps", "platform",
                    "core.pareto", "core.allocator", "core.manager"),
            instances=1,
            build=lambda seed, _: PairInstance(seed),
            setup=lambda seed, _: pair_setup_s(seed),
        ),
        Workload(
            name="fleet-sharded",
            why="8-node FleetSim with a seeded node crash and partition; "
                "the only workload that runs the ipc codec and the fleet "
                "coordinator's reap, readmit and reconcile paths",
            layers=("fleet", "ipc", "core.monitor", "apps", "sim.engine"),
            instances=5,
            inputs=fleet_inputs,
            build=FleetInstance,
        ),
        Workload(
            name="substrate-bursty",
            why="bursty-1k with no RM on the event engine: busy-leap "
                "probing and replay; the bypass workload, where every "
                "control-plane change predicts no change",
            layers=("sim.event", "scenario", "platform"),
            instances=2,
            build=lambda seed, _: TraceInstance(BURSTY, seed),
            has_rm=False,
        ),
    ]
}
