"""Tick-vs-event engine bit parity and event-heap behaviour.

The event engine (:class:`repro.sim.event.EventWorld`) claims *bit*
compatibility with the fixed-tick reference engine on tick-equivalent
scenarios: identical sensor energy, identical per-type accumulators,
identical PELT trajectories, identical completion order, identical
clock.  This module holds that claim to ``==`` (no tolerances) across a
seeded 200-instance property suite covering all four schedulers, both
platforms, both integration modes, managed (HARP) runs, fault-plan
replay, and obs-on/off runs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.scenarios import make_platform, resolve_model
from repro.core.manager import HarpManager, ManagerConfig
from repro.fault import Fault, FaultKind, FaultPlan, SimFaultInjector
from repro.obs import OBS
from repro.sim import (
    CfsScheduler,
    EasScheduler,
    EventKind,
    EventWorld,
    ItdScheduler,
    PinnedScheduler,
    World,
    make_world,
)

SCHEDULERS = {
    "cfs": CfsScheduler,
    "eas": EasScheduler,
    "itd": ItdScheduler,
    "pinned": PinnedScheduler,
}

_APPS = ["ep.C", "is.C", "cg.C"]


def _typed(value):
    """``value`` with every leaf paired with its type.

    ``np.float64(x) == x`` holds, so comparing ``_typed`` values is what
    makes a parity assert catch a numpy scalar leaking out of one engine.
    """
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


def _fingerprint(world: World, exit_order: list[int]) -> dict:
    """Everything the parity contract covers, exact values and types."""
    return _typed({
        "time_s": world.time_s,
        "tick_index": world.tick_index,
        "energy_j": world.total_energy_j(),
        "energy_by_type": dict(world.energy_by_type_j),
        "busy_by_type": dict(world.busy_time_by_type_s),
        "last_power": world.last_stats.package_power_w,
        "last_time": world.last_stats.time_s,
        "exit_order": tuple(exit_order),
        "finish": sorted(
            (p.pid, p.finish_time_s, p.work_done, p.energy_true_j)
            for p in world.processes.values()
        ),
        "pelt": sorted(
            (t.tid, t.utilization)
            for p in world.processes.values()
            for t in p.threads
        ),
        "cpu": sorted(
            (p.pid, tuple(sorted(p.cpu_time_by_type.items())))
            for p in world.processes.values()
        ),
    })


def _build_world(seed: int, engine: str, vectorized: bool = True) -> tuple:
    sched_name = ("cfs", "eas", "itd", "pinned")[seed % 4]
    platform = make_platform("intel" if seed % 2 == 0 else "odroid")
    world = make_world(
        platform,
        SCHEDULERS[sched_name](),
        engine=engine,
        seed=seed,
        vectorized=vectorized,
    )
    exit_order: list[int] = []
    world.on_process_exit.append(lambda p: exit_order.append(p.pid))
    return world, exit_order


def _spawn_mix(world: World, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for i in range(1 + seed % 3):
        model = replace(resolve_model(_APPS[(seed + i) % len(_APPS)]))
        # Small work units so some processes finish mid-run (exercising
        # completion ticks and the idle leap path after the last exit).
        model.total_work = float(rng.uniform(0.3, 2.5))
        world.spawn(model, nthreads=int(rng.integers(1, 5)))


def _run_instance(seed: int, engine: str, vectorized: bool = True) -> dict:
    world, exit_order = _build_world(seed, engine, vectorized)
    _spawn_mix(world, seed)
    world.run_for(0.8 + (seed % 5) * 0.3)
    return _fingerprint(world, exit_order)


class TestParityPropertySuite:
    """Seeded tick-vs-event equivalence, 200 instances."""

    @pytest.mark.parametrize("seed", range(200))
    def test_bit_parity(self, seed: int) -> None:
        tick = _run_instance(seed, engine="tick")
        event = _run_instance(seed, engine="event")
        assert tick == event

    @pytest.mark.parametrize("seed", [1, 6, 11, 16])
    def test_bit_parity_reference_mode(self, seed: int) -> None:
        tick = _run_instance(seed, engine="tick", vectorized=False)
        event = _run_instance(seed, engine="event", vectorized=False)
        assert tick == event

    def test_make_world_dispatch(self) -> None:
        platform = make_platform("intel")
        assert not isinstance(
            make_world(platform, CfsScheduler(), engine="tick"), EventWorld
        )
        assert isinstance(
            make_world(platform, CfsScheduler(), engine="event"), EventWorld
        )
        with pytest.raises(ValueError, match="unknown engine"):
            make_world(platform, CfsScheduler(), engine="warp")


class TestManagedParity:
    """The HARP manager's epoch/lease machinery rides wakeups on the
    event engine and must reproduce the tick engine exactly."""

    def _run(self, engine: str) -> tuple[dict, int]:
        world, exit_order = _build_world(4, engine)  # cfs / intel
        manager = HarpManager(
            world, config=ManagerConfig(epoch_window_s=0.02)
        )
        for i, app in enumerate(["ep.C", "is.C"]):
            model = replace(resolve_model(app))
            model.total_work = 1.0 + i
            world.spawn(model, nthreads=2, managed=True)
        world.run_for(6.0)
        fp = _fingerprint(world, exit_order)
        epochs = manager.allocation_epochs
        manager.shutdown()
        return fp, epochs

    def test_managed_bit_parity(self) -> None:
        tick, tick_epochs = self._run("tick")
        event, event_epochs = self._run("event")
        assert tick == event
        assert tick_epochs == event_epochs
        assert tick_epochs > 0


class TestFaultReplayParity:
    """A fault plan fires on the same ticks under both engines."""

    @pytest.mark.parametrize(
        "kind,params",
        [
            (FaultKind.APP_CRASH, {}),
            (FaultKind.SOLVER_FAILURE, {"count": 1}),
        ],
    )
    def test_fault_plan_replay(self, kind: FaultKind, params: dict) -> None:
        results = []
        for engine in ("tick", "event"):
            world, exit_order = _build_world(4, engine)
            manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=0.02)
            )
            plan = FaultPlan(
                [Fault(at_s=0.5, kind=kind, target="ep.C", params=params)]
            )
            injector = SimFaultInjector(world, manager, plan)
            for app in ("ep.C", "is.C"):
                model = replace(resolve_model(app))
                model.total_work = 1.5
                world.spawn(model, nthreads=2, managed=True)
            world.run_for(4.0)
            assert injector.done()
            fp = _fingerprint(world, exit_order)
            fp["fault_log"] = _typed([
                (rec["at_s"], rec["kind"], rec["applied"])
                for rec in injector.log
            ])
            manager.shutdown()
            results.append(fp)
        assert results[0] == results[1]


class TestObsBitIdentity:
    """Telemetry must be a pure observer: enabling it cannot move a
    single bit of simulation state, on either engine."""

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_obs_on_off(self, engine: str) -> None:
        baseline = _run_instance(3, engine)
        OBS.reset()
        OBS.enable()
        try:
            observed = _run_instance(3, engine)
        finally:
            OBS.disable()
            OBS.reset()
        assert observed == baseline

    def test_obs_on_off_dense_event(self) -> None:
        # The same contract where the busy-stretch fast-forward runs: a
        # dense event run that leaps stays bitwise with obs on.
        def run() -> dict:
            world, exit_order = _build_world(0, "event")
            _spawn_dense(world)
            world.run_for(2.0)
            return _fingerprint(world, exit_order)

        baseline = run()
        observed = {}
        assert _busy_leap_count(lambda: observed.update(run())) > 0
        assert observed == baseline

    def test_obs_handles_survive_registry_reset(self) -> None:
        world, _ = _build_world(0, "tick")
        _spawn_mix(world, 0)
        OBS.reset()
        OBS.enable()
        try:
            world.step()
            # A registry reset bumps the generation; the engine's cached
            # per-tick instrument handles must be re-resolved, not used
            # stale.
            OBS.reset()
            world.step()
            assert OBS.counter("sim.ticks").value == 1.0
        finally:
            OBS.disable()
            OBS.reset()


class TestIntegerTickHorizons:
    """run_for horizons are integer tick counts: no float-clock drift."""

    def test_chunked_equals_single(self) -> None:
        platform = make_platform("intel")
        chunked = make_world(platform, CfsScheduler(), engine="tick", seed=0)
        for _ in range(300):
            chunked.run_for(0.03)
        single = make_world(platform, CfsScheduler(), engine="tick", seed=0)
        single.run_for(9.0)
        assert chunked.tick_index == single.tick_index == 900

    def test_ticks_in_rounding(self) -> None:
        world, _ = _build_world(0, "tick")
        assert world.ticks_in(0.0) == 0
        assert world.ticks_in(-1.0) == 0
        assert world.ticks_in(1e-9) == 1
        assert world.ticks_in(0.07) == 7  # 0.07/0.01 = 6.999... in floats
        assert world.ticks_in(3600.0) == 360_000

    def test_long_horizon_exact_tick_count(self) -> None:
        # Empty event world: a 10-simulated-hour horizon leaps instantly
        # and must land on the exact tick, despite the cumulative float
        # clock drifting off the nominal grid.
        world, _ = _build_world(0, "event")
        world.run_for(36_000.0)
        assert world.tick_index == 3_600_000
        assert world.time_s != 36_000.0  # the drift is real...
        world.run_for(0.07)  # ...and horizons are unaffected by it
        assert world.tick_index == 3_600_007


class TestEventHeap:
    def test_leap_to_wakeup_boundary(self) -> None:
        world, _ = _build_world(0, "event")
        boundaries: list[int] = []
        world.on_event.append(lambda w: boundaries.append(w.tick_index))
        world.request_wakeup(0.5, EventKind.TIMER)
        world.run_for(1.0)
        assert world.tick_index == 100
        # One leap to the wakeup tick, one to the horizon.
        assert boundaries == [50, 100]

    def test_request_wakeup_deduplicates(self) -> None:
        world, _ = _build_world(0, "event")
        for _ in range(5):
            world.request_wakeup(0.25, EventKind.MONITOR)
        assert len(world._heap) == 1

    def test_schedule_callback_fires_once(self) -> None:
        world, _ = _build_world(0, "event")
        fired: list[float] = []
        world.schedule(0.3, lambda w: fired.append(w.time_s))
        world.run_for(1.0)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(0.3, abs=1e-6)

    def test_wakeup_never_in_past(self) -> None:
        world, _ = _build_world(0, "event")
        world.run_for(0.5)
        tick = world._tick_for(0.1)  # long past
        assert tick == world.tick_index + 1


class TestRunnableScan:
    """block()/unblock(): the fleet driver's scan-skip contract."""

    def test_block_removes_from_runnable_scan(self) -> None:
        world, _ = _build_world(0, "tick")
        model = replace(resolve_model("ep.C"))
        model.total_work = 50.0
        process = world.spawn(model, nthreads=2)
        assert len(world.runnable_pairs()) == 2
        world.step()
        world.block(process.pid)
        assert world.runnable_pairs() == []
        world.step()  # blocked: no progress
        work_blocked = process.work_done
        world.unblock(process.pid)
        assert len(world.runnable_pairs()) == 2
        world.step()
        assert process.work_done > work_blocked

    def test_kill_cleans_blocked_process(self) -> None:
        world, _ = _build_world(0, "tick")
        model = replace(resolve_model("ep.C"))
        model.total_work = 50.0
        process = world.spawn(model, nthreads=1)
        world.block(process.pid)
        world.kill(process.pid)
        world.unblock(process.pid)  # dead: must stay out of the scan
        assert world.runnable_pairs() == []


class TestPlacementCacheInvalidation:
    """kill(silent=True) must drop a cached placement that still maps the
    dead process — the signature alone cannot be trusted to move."""

    def test_silent_kill_drops_cache_entry(self) -> None:
        platform = make_platform("intel")
        world = make_world(
            platform, CfsScheduler(), engine="tick", seed=0, vectorized=True
        )
        model = replace(resolve_model("ep.C"))
        model.total_work = 50.0
        victim = world.spawn(model, nthreads=2)
        survivor = world.spawn(replace(model), nthreads=2)
        world.step()
        world.step()  # second tick serves the cached placement
        assert any(tid.pid == victim.pid for tid in world._placement_cache)
        world.kill(victim.pid, silent=True)
        assert world._placement_sig is None
        assert world._placement_cache == {}
        world.step()
        assert all(
            tid.pid == survivor.pid for tid in world._placement_cache
        )
        assert world._placement_cache  # survivor still placed

    def test_silent_kill_parity_across_engines(self) -> None:
        results = []
        for engine in ("tick", "event"):
            world, exit_order = _build_world(0, engine)
            _spawn_mix(world, 0)
            victim = world.spawn(replace(resolve_model("ep.C")), nthreads=2)
            world.run_for(0.2)
            world.kill(victim.pid, silent=True)
            world.run_for(1.0)
            results.append(_fingerprint(world, exit_order))
        assert results[0] == results[1]


def _spawn_dense(world: World, n: int = 3, work: float = 500.0) -> list:
    """Long-running processes: the world stays busy for the whole run."""
    procs = []
    for i in range(n):
        model = replace(resolve_model(_APPS[i % len(_APPS)]))
        model.total_work = work
        procs.append(world.spawn(model, nthreads=1 + i % 2))
    return procs


def _busy_leap_count(run) -> float:
    """Run a callable under obs; return the busy-leap counter it drove."""
    OBS.reset()
    OBS.enable()
    try:
        run()
        return OBS.counter("sim.busy_leaps").value
    finally:
        OBS.disable()
        OBS.reset()


class _QuantumScheduler(CfsScheduler):
    """CFS plus a round-robin quantum: every ``quantum_ticks`` the placed
    threads rotate across their hardware threads.  Exercises the
    time-dependent-scheduler contract — the placement is a pure function
    of (signature, quantum index), and ``next_preemption_tick`` reports
    the next rotation so busy leaps never cross one."""

    def __init__(self, quantum_ticks: int = 25):
        super().__init__()
        self.quantum_ticks = quantum_ticks

    def placement_signature(self, world):
        base = super().placement_signature(world)
        if base is None:
            return None
        return (base, world.tick_index // self.quantum_ticks)

    def next_preemption_tick(self, world):
        q = self.quantum_ticks
        return (world.tick_index // q + 1) * q

    def place(self, world):
        placement = super().place(world)
        if (world.tick_index // self.quantum_ticks) % 2 == 1 and placement:
            tids = sorted(placement)
            hw_ids = [placement[tid] for tid in tids]
            placement = dict(zip(tids, hw_ids[1:] + hw_ids[:1]))
        return placement


class TestBusyStretchFastForward:
    """The tentpole: dense stretches leap analytically, bit-identically."""

    def _run_dense(
        self,
        engine: str,
        scheduler,
        governor=None,
        platform_name: str = "intel",
        seconds: float = 3.0,
    ) -> dict:
        platform = make_platform(platform_name)
        world = make_world(
            platform, scheduler, engine=engine, governor=governor, seed=7
        )
        exit_order: list[int] = []
        world.on_process_exit.append(lambda p: exit_order.append(p.pid))
        _spawn_dense(world)
        world.run_for(seconds)
        return _fingerprint(world, exit_order)

    @pytest.mark.parametrize("sched_name", ["cfs", "itd", "pinned"])
    def test_dense_parity_and_leaps(self, sched_name: str) -> None:
        tick = self._run_dense("tick", SCHEDULERS[sched_name]())
        event_fp = {}

        def run_event() -> None:
            event_fp.update(self._run_dense("event", SCHEDULERS[sched_name]()))

        leaps = _busy_leap_count(run_event)
        assert event_fp == tick
        # With nothing runnable changing for 3 simulated seconds, the
        # event engine must actually have leapt, not stepped through.
        assert leaps > 0

    def test_eas_dense_never_busy_leaps(self) -> None:
        # EAS placements depend on per-tick PELT state: no signature, no
        # stable stretch.  Parity holds (the property suite covers it);
        # here we pin down that the engine never *claims* a stretch.
        fp = {}

        def run_event() -> None:
            fp.update(self._run_dense("event", EasScheduler()))

        assert _busy_leap_count(run_event) == 0
        assert fp == self._run_dense("tick", EasScheduler())

    @pytest.mark.parametrize("gov_name", ["schedutil", "powersave"])
    def test_util_driven_governor_parity(self, gov_name: str) -> None:
        # Utilization-driven governors move frequencies while PELT ramps;
        # the probe's fixpoint check must refuse those stretches and leap
        # only once frequencies stabilize — bit parity either way.
        from repro.platform.dvfs import PowersaveGovernor, SchedutilGovernor

        cls = {"schedutil": SchedutilGovernor, "powersave": PowersaveGovernor}[
            gov_name
        ]
        platform = make_platform("odroid")
        tick = self._run_dense(
            "tick", CfsScheduler(), governor=cls(platform), platform_name="odroid"
        )
        platform2 = make_platform("odroid")
        event = self._run_dense(
            "event",
            CfsScheduler(),
            governor=cls(platform2),
            platform_name="odroid",
        )
        assert event == tick

    def test_phase_boundary_splits_leap(self) -> None:
        # A phased application flips behaviour at work boundaries the
        # heap cannot see; steady_work_horizon must stop every leap short
        # of the flip so the tick engine's phase arithmetic is replayed
        # exactly.
        from repro.ext.phases import Phase, PhasedApplicationModel

        def build(engine: str):
            platform = make_platform("intel")
            world = make_world(platform, CfsScheduler(), engine=engine, seed=3)
            exit_order: list[int] = []
            world.on_process_exit.append(lambda p: exit_order.append(p.pid))
            base = resolve_model("ep.C")
            model = PhasedApplicationModel(
                name="phased",
                total_work=2.0,
                serial_fraction=base.serial_fraction,
                ips_per_work=base.ips_per_work,
                phases=[
                    Phase(0.3, power_intensity=0.7, ips_per_work=8e8),
                    Phase(0.5, power_intensity=1.4, ips_per_work=1.2e9),
                    Phase(0.2, power_intensity=1.0),
                ],
            )
            world.spawn(model, nthreads=2)
            return world, exit_order

        world_t, exits_t = build("tick")
        world_t.run_for(4.0)
        tick = _fingerprint(world_t, exits_t)

        world_e, exits_e = build("event")
        leaps = _busy_leap_count(lambda: world_e.run_for(4.0))
        assert _fingerprint(world_e, exits_e) == tick
        assert leaps > 0

    def test_quantum_scheduler_splits_leap(self) -> None:
        tick = self._run_dense("tick", _QuantumScheduler())
        fp = {}

        def run_event() -> None:
            fp.update(self._run_dense("event", _QuantumScheduler()))

        leaps = _busy_leap_count(run_event)
        assert fp == tick
        assert leaps > 0


class TestExpiryPredictionApi:
    """Unit contracts of the new expiry sources."""

    def test_next_preemption_tick_defaults(self) -> None:
        world, _ = _build_world(0, "tick")
        assert CfsScheduler().next_preemption_tick(world) is None
        assert ItdScheduler().next_preemption_tick(world) is None
        assert PinnedScheduler().next_preemption_tick(world) is None
        assert EasScheduler().next_preemption_tick(world) == world.tick_index + 1

    def test_steady_work_horizon_base(self) -> None:
        model = resolve_model("ep.C")
        world, _ = _build_world(0, "tick")
        process = world.spawn(replace(model), nthreads=1)
        assert process.model.steady_work_horizon(process) is None

    def test_steady_work_horizon_phased(self) -> None:
        from repro.ext.phases import Phase, PhasedApplicationModel

        model = PhasedApplicationModel(
            name="p",
            total_work=10.0,
            phases=[Phase(0.4), Phase(0.6)],
        )
        world, _ = _build_world(0, "tick")
        process = world.spawn(model, nthreads=1)
        h = model.steady_work_horizon(process)
        assert h is not None and 0.0 < h <= 4.0
        # The budget must stop short of the flip: phase_at at the horizon
        # still returns the first phase.
        assert model.phase_at(process.work_done + h * 0.999) is model.phases[0]
        process.work_done = 9.5  # inside the last phase
        assert model.steady_work_horizon(process) == pytest.approx(0.5)

    def test_rm_daemon_never_leaps(self) -> None:
        world, _ = _build_world(4, "tick")
        manager = HarpManager(world, config=ManagerConfig(epoch_window_s=0.02))
        daemons = [p for p in world.processes.values() if p.daemon]
        assert daemons
        assert daemons[0].model.steady_work_horizon(daemons[0]) == 0.0
        manager.shutdown()

    def test_ticks_until_work_expiry(self) -> None:
        from repro.sim.process import (
            WORK_EXPIRY_GUARD_TICKS,
            ticks_until_work_expiry,
        )

        assert ticks_until_work_expiry(1.0, 0.0) is None
        assert ticks_until_work_expiry(float("inf"), 0.1) is None
        assert (
            ticks_until_work_expiry(1.0, 0.01)
            == 100 - WORK_EXPIRY_GUARD_TICKS
        )
        # Budgets tighter than the guard force normal stepping.
        assert ticks_until_work_expiry(0.01, 0.01) <= 0


class TestMidStretchInvalidation:
    """State changes landing inside a predicted stretch must re-split the
    leap bit-identically: the event that fires mid-stretch is itself a
    heap boundary, so the leap simply never covers it."""

    def _managed_dense(self, engine: str, fault_kind=None) -> dict:
        world, exit_order = _build_world(4, engine)  # cfs / intel
        manager = HarpManager(world, config=ManagerConfig(epoch_window_s=0.02))
        injector = None
        if fault_kind is not None:
            plan = FaultPlan(
                [Fault(at_s=0.5, kind=fault_kind, target="ep.C", params={})]
            )
            injector = SimFaultInjector(world, manager, plan)
        for i, app in enumerate(["ep.C", "is.C"]):
            model = replace(resolve_model(app))
            model.total_work = 300.0  # dense: never finishes in-run
            world.spawn(model, nthreads=2, managed=True)
        world.run_for(2.0)
        fp = _fingerprint(world, exit_order)
        if injector is not None:
            assert injector.done()
            fp["fault_log"] = _typed([
                (rec["at_s"], rec["kind"], rec["applied"])
                for rec in injector.log
            ])
        manager.shutdown()
        return fp

    def test_fault_fires_inside_dense_stretch(self) -> None:
        tick = self._managed_dense("tick", FaultKind.APP_CRASH)
        event = self._managed_dense("event", FaultKind.APP_CRASH)
        assert tick == event

    def test_silent_kill_inside_dense_stretch(self) -> None:
        results = []
        for engine in ("tick", "event"):
            world, exit_order = _build_world(0, engine)
            victims = _spawn_dense(world)
            if world.event_driven:
                # The kill rides a scheduled callback: the heap event
                # bounds the leap, so the stretch re-splits at tick 40.
                world.schedule(0.4, lambda w: w.kill(victims[0].pid))
            else:
                def _kill_at_40(w, pid=victims[0].pid):
                    if w.tick_index == 40:
                        w.kill(pid)

                world.on_event.append(_kill_at_40)
            world.run_for(2.0)
            results.append(_fingerprint(world, exit_order))
        assert results[0] == results[1]

    def test_urgent_reallocation_pull_forward(self) -> None:
        # An RM deciding to reallocate *between* its own epochs (an urgent
        # pull-forward) lands mid-stretch on the event engine; the wakeup
        # it requests splits the leap at exactly the tick the tick engine
        # reallocates on.
        results = []
        for engine in ("tick", "event"):
            world, exit_order = _build_world(4, engine)
            manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=0.02)
            )
            for app in ("ep.C", "is.C"):
                model = replace(resolve_model(app))
                model.total_work = 300.0
                world.spawn(model, nthreads=2, managed=True)
            fired = [False]

            def pull_forward(w) -> None:
                if not fired[0] and w.tick_index >= 40:
                    fired[0] = True
                    manager.reallocate()

            world.on_event.append(pull_forward)
            if world.event_driven:
                world.request_wakeup(0.4, EventKind.REALLOC)
            world.run_for(2.0)
            assert fired[0]
            fp = _fingerprint(world, exit_order)
            fp["epochs"] = _typed(manager.allocation_epochs)
            manager.shutdown()
            results.append(fp)
        assert results[0] == results[1]


class TestRunUntilCap:
    """run_until_all_finished: bounded by default, unbounded by opt-in."""

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_cap_raises(self, engine: str) -> None:
        world, _ = _build_world(0, engine)
        model = replace(resolve_model("ep.C"))
        model.total_work = 1e9  # will not finish in the cap
        world.spawn(model, nthreads=1)
        with pytest.raises(RuntimeError, match="exceeded"):
            world.run_until_all_finished(max_seconds=1.0)

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_unbounded_opt_in(self, engine: str) -> None:
        world, _ = _build_world(0, engine)
        model = replace(resolve_model("ep.C"))
        model.total_work = 0.5
        world.spawn(model, nthreads=2)
        makespan = world.run_until_all_finished(max_seconds=None)
        assert makespan > 0.0
        assert all(p.finished for p in world.processes.values())

    def test_makespans_agree(self) -> None:
        spans = []
        for engine in ("tick", "event"):
            world, _ = _build_world(0, engine)
            model = replace(resolve_model("ep.C"))
            model.total_work = 0.8
            world.spawn(model, nthreads=2)
            spans.append(world.run_until_all_finished(max_seconds=30.0))
        assert _typed(spans[0]) == _typed(spans[1])


def _rejects(run) -> dict[str, float]:
    """Run a callable under obs; return the busy-leap refusals by reason."""
    OBS.reset()
    OBS.enable()
    try:
        run()
        return {
            reason: OBS.counter("sim.busy_leap_rejects", reason=reason).value
            for reason in (
                "no_signature", "preemption", "stateful_model",
                "work_boundary", "governor",
            )
        }
    finally:
        OBS.disable()
        OBS.reset()


class TestBusyLeapRejects:
    """Every refused busy leap is counted under the rule that refused it."""

    def _dense(
        self, scheduler, governor_cls=None, platform_name="intel", work=500.0
    ):
        platform = make_platform(platform_name)
        governor = None if governor_cls is None else governor_cls(platform)
        world = make_world(
            platform, scheduler, engine="event", governor=governor, seed=7
        )
        _spawn_dense(world, work=work)
        return world

    def test_no_signature(self) -> None:
        world = self._dense(EasScheduler())
        assert _rejects(lambda: world.run_for(0.5))["no_signature"] > 0

    def test_preemption(self) -> None:
        world = self._dense(_QuantumScheduler(quantum_ticks=1))
        assert _rejects(lambda: world.run_for(0.5))["preemption"] > 0

    def test_stateful_model(self) -> None:
        # The RM daemon burns its pending busy time in perf(): while it
        # holds a slot, nothing leaps.
        def run() -> None:
            world, _ = _build_world(4, "event")
            manager = HarpManager(
                world, config=ManagerConfig(epoch_window_s=0.02)
            )
            for app in ("ep.C", "is.C"):
                model = replace(resolve_model(app), total_work=300.0)
                world.spawn(model, nthreads=2, managed=True)
            world.run_for(2.0)
            manager.shutdown()

        assert _rejects(run)["stateful_model"] > 0

    def test_work_boundary(self) -> None:
        world = self._dense(CfsScheduler(), work=0.3)
        assert _rejects(lambda: world.run_for(1.0))["work_boundary"] > 0

    def test_governor(self) -> None:
        from repro.platform.dvfs import SchedutilGovernor

        world = self._dense(
            CfsScheduler(), governor_cls=SchedutilGovernor, platform_name="odroid"
        )
        assert _rejects(lambda: world.run_for(1.0))["governor"] > 0


class TestPerfCounterValidation:
    """Negative perf increments raise on both engines, leaps included."""

    @pytest.mark.parametrize("engine", ["tick", "event"])
    def test_negative_ips_raises_inside_dense_stretch(self, engine: str) -> None:
        world, _ = _build_world(0, engine)
        _spawn_dense(world)
        world.run_for(0.3)
        bad = replace(resolve_model("ep.C"), total_work=500.0, ips_per_work=-1e9)
        world.spawn(bad, nthreads=1)
        with pytest.raises(ValueError, match="negative perf accumulation"):
            world.run_for(1.0)
        # The plan is checked before it is committed: the bad tick leaves
        # the clock where it was.
        assert world.tick_index == 30

