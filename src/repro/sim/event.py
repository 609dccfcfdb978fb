"""The event-heap execution engine.

:class:`EventWorld` subclasses the fixed-tick :class:`~repro.sim.engine.World`
with a heap of typed future events (thread wakeups, process arrivals,
completions, quantum expiries, RT periods, monitor epochs, scheduled
reallocations, fault injections).  Between two events it *leaps*: it plans
one tick with the world's own pipeline (``World._plan_tick``) and commits
that same plan for every tick up to the next event (``World._commit``).
When nothing is runnable the plan is the idle tick; when something is,
the stretch rules of :meth:`EventWorld._try_busy_leap` decide how many
ticks the plan provably holds for.  A plan that holds for one tick only
is handed to ``World.step``, so a refused leap costs no second tick.

Bit-parity contract
-------------------
On tick-equivalent scenarios the event engine reproduces the tick engine
**bit for bit**: same ``time_s`` (the commit replays the per-tick float
additions), same sensor energy (noise draws are batched through
``default_rng``, which consumes the bitstream identically to scalar
draws), same PELT trajectories (per-tick multiplies are replayed), same
accumulators (the plan's ops replay in the tick's order), and identical
process completion order.  The parity suite in ``tests/test_eventsim.py``
asserts this across all four schedulers.

Listeners attach to ``world.on_event`` (fired at every advance boundary —
every tick while stepping, once per leap) and MUST route timed work
through :meth:`World.request_wakeup`; a wakeup guarantees the engine
visits that tick.  Wakeups are scheduled conservatively (up to one tick
early against the drifted cumulative clock) — a listener whose deadline
has not arrived yet simply re-requests and is woken on the next tick,
which converges on exactly the tick the tick engine would have fired.
"""

from __future__ import annotations

import heapq
import itertools
import math
from enum import Enum
from typing import Callable

from repro.obs import OBS
from repro.platform.dvfs import Governor
from repro.platform.topology import Platform
from repro.sim.engine import TickPlan, World
from repro.sim.process import ticks_until_work_expiry


class EventKind(Enum):
    """Taxonomy of heap events (labels for tracing and debugging)."""

    TIMER = "timer"            # generic requested wakeup
    WAKEUP = "wakeup"          # a thread/session becomes runnable
    BLOCK = "block"            # a session stops consuming CPU
    SPAWN = "spawn"            # process arrival
    COMPLETION = "completion"  # process expected to finish its work
    QUANTUM = "quantum"        # scheduler quantum expiry
    RT_PERIOD = "rt_period"    # real-time period boundary
    MONITOR = "monitor"        # monitor / sample epoch
    REALLOC = "realloc"        # scheduled reallocation / epoch flush
    FAULT = "fault"            # fault-plan injection point


#: A leap must replace at least this many ticks; shorter budgets step.
_MIN_LEAP_TICKS = 2


def _refused(reason: str) -> bool:
    """Count a refused busy leap under ``reason``; always ``False``."""
    if OBS.enabled:
        OBS.counter("sim.busy_leap_rejects", reason=reason).inc()
    return False


class EventWorld(World):
    """Event-driven world: identical API, idle AND stable busy stretches
    leap for free."""

    event_driven = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._heap: list[tuple[int, int, EventKind, Callable | None]] = []
        self._seq = itertools.count()
        self._wakeup_ticks: set[int] = set()

    # -- event heap --------------------------------------------------------------

    def _tick_for(self, at_s: float) -> int:
        """Tick index at which a wakeup for sim time ``at_s`` fires.

        Conservatively early: the cumulative float clock drifts ~3e-8 s
        per simulated hour off the nominal ``tick * tick_s`` grid, so the
        wakeup lands up to one tick before the deadline test passes and
        the listener re-requests.  Never at or before the current tick —
        a re-request from a boundary callback always lands strictly in
        the future, which is what makes the recheck loop converge.
        """
        return max(self.tick_index + 1, math.ceil((at_s - 1e-6) / self.tick_s))

    def request_wakeup(self, at_s: float, kind: object = EventKind.TIMER) -> None:
        """Guarantee the engine visits the tick covering sim time ``at_s``."""
        tick = self._tick_for(at_s)
        if tick in self._wakeup_ticks:
            return
        self._wakeup_ticks.add(tick)
        kind = kind if isinstance(kind, EventKind) else EventKind.TIMER
        heapq.heappush(self._heap, (tick, next(self._seq), kind, None))

    def schedule(
        self,
        at_s: float,
        callback: Callable[["EventWorld"], None],
        kind: EventKind = EventKind.TIMER,
    ) -> int:
        """Run ``callback(world)`` at the boundary covering ``at_s``.

        Callbacks fire after ``on_event`` listeners, in (time, insertion)
        order; returns the tick index they are scheduled for.
        """
        tick = self._tick_for(at_s)
        heapq.heappush(self._heap, (tick, next(self._seq), kind, callback))
        return tick

    def next_event_tick(self) -> int | None:
        """Tick of the earliest pending event, or ``None``."""
        return self._heap[0][0] if self._heap else None

    def _drain_due(self) -> None:
        """Pop every event at or before the current tick; run callbacks."""
        while self._heap and self._heap[0][0] <= self.tick_index:
            tick, _, _, callback = heapq.heappop(self._heap)
            if callback is None:
                self._wakeup_ticks.discard(tick)
            else:
                callback(self)

    # -- advancing ---------------------------------------------------------------

    def _advance_one(self, limit_tick: int) -> None:
        """Advance to the next boundary, never past ``limit_tick``.

        A legacy ``on_tick`` listener forces per-tick stepping.  Otherwise
        one tick is planned and committed for the whole budget to the next
        heap event (or the limit): at once when nothing is runnable, or
        as far as the stretch rules allow.  A refused leap steps with the
        plan it already has.
        """
        next_tick = self._heap[0][0] if self._heap else None
        leap_to = limit_tick if next_tick is None else min(next_tick, limit_tick)
        budget = leap_to - self.tick_index
        if self.on_tick or budget < _MIN_LEAP_TICKS:
            self.step()
        else:
            plan = self._plan_tick()
            # runnable_pairs() is the snapshot the plan was built from.
            if self.runnable_pairs():
                leapt = self._try_busy_leap(plan, budget)
            else:
                self._leap(plan, budget)
                leapt = True
            if leapt:
                for callback in self.on_event:
                    callback(self)
            else:
                self.step(plan)
        self._drain_due()

    def run_for(self, seconds: float) -> None:
        """Advance by a fixed duration (event-driven)."""
        target = self.tick_index + self.ticks_in(seconds)
        while self.tick_index < target:
            self._advance_one(target)

    def run_until_all_finished(self, max_seconds: float | None = 10_000.0) -> float:
        """Run until every process finished; returns the makespan.

        Hitting ``max_seconds`` raises rather than silently truncating
        the scenario; ``max_seconds=None`` opts into an unbounded run,
        advancing in hour-sized leap windows until the workload drains.
        """
        max_ticks = (
            None if max_seconds is None else int(max_seconds / self.tick_s + 1e-9)
        )
        while any(not p.daemon for p in self.running_processes()):
            if max_ticks is None:
                self._advance_one(self.tick_index + 360_000)
            else:
                if self.tick_index > max_ticks:
                    raise RuntimeError(
                        f"simulation exceeded {max_seconds}s without finishing"
                    )
                self._advance_one(max_ticks + 1)
        finish_times = [
            p.finish_time_s
            for p in self.processes.values()
            if p.finish_time_s is not None
        ]
        return max(finish_times) if finish_times else self.time_s

    # -- leaps -------------------------------------------------------------------

    def _leap(self, plan: TickPlan, n: int) -> None:
        """Commit the idle ``plan`` for ``n`` ticks.

        Sound without further checks: nothing is runnable (so nothing is
        placed, and demand only changes at event boundaries), and idle
        power does not depend on the core frequencies.
        """
        self._commit(plan, n)
        if OBS.enabled:
            OBS.counter("sim.leaps").inc()
            OBS.counter("sim.leap_ticks").inc(n)

    def _try_busy_leap(self, plan: TickPlan, budget_ticks: int) -> bool:
        """Commit ``plan`` over a *stable busy stretch* of up to ``budget_ticks``.

        A stable stretch is an interval over which the runnable set, the
        thread→hardware placement, and the core frequencies are provably
        unchanged, so the planned tick holds for every tick in it.  The
        stretch rules, each counted in ``sim.busy_leap_rejects`` when it
        refuses:

        * ``no_signature`` — the scheduler has no placement signature
          (EAS), so nothing proves the placement stays put;
        * ``preemption`` — the scheduler's ``next_preemption_tick`` is
          too close;
        * ``stateful_model`` — a placed model's ``perf`` changes its own
          state every call (``steady_work_horizon`` is 0, the RM daemon);
        * ``work_boundary`` — a process finishes this tick, or its
          remaining work or next phase boundary is too close (with a
          guard margin against float drift);
        * ``governor`` — the stretch utilization does not reproduce the
          stretch frequencies.

        Returns ``False`` without changing anything when a rule refuses;
        the caller then steps with the same plan.
        """
        if plan.sig is None:
            return _refused("no_signature")
        n = budget_ticks
        preempt_tick = self.scheduler.next_preemption_tick(self)
        if preempt_tick is not None:
            n = min(n, preempt_tick - self.tick_index)
            if n < _MIN_LEAP_TICKS:
                return _refused("preemption")
        if plan.finished:
            return _refused("work_boundary")
        # (process, work_before, work_budget, rate_dt) overrun guards.
        guards: list[tuple] = []
        for process, rate_dt in plan.progress:
            horizon = process.model.steady_work_horizon(process)
            if horizon is not None and horizon <= 0.0:
                return _refused("stateful_model")
            if rate_dt > 0:
                work_budget = process.remaining_work()
                if horizon is not None and horizon < work_budget:
                    work_budget = horizon
                k = ticks_until_work_expiry(work_budget, rate_dt)
                if k is not None:
                    n = min(n, k)
                    if n < _MIN_LEAP_TICKS:
                        return _refused("work_boundary")
                    guards.append((process, process.work_done, work_budget, rate_dt))
        # Exact dict equality is intended — any moved frequency breaks
        # bit parity on the second tick of the stretch.
        if self.governor.select_all(plan.core_util) != plan.freqs:
            return _refused("governor")

        self._commit(plan, n)
        for process, work_before, work_budget, rate_dt in guards:
            if process.work_done - work_before >= work_budget - 0.5 * rate_dt:
                raise RuntimeError(
                    "busy leap overran a work boundary for pid "
                    f"{process.pid} — expiry prediction bug"
                )
        if OBS.enabled:
            OBS.counter("sim.busy_leaps").inc()
            OBS.counter("sim.busy_leap_ticks").inc(n)
        return True


def make_world(
    platform: Platform,
    scheduler,
    engine: str = "tick",
    governor: Governor | None = None,
    tick_s: float = 0.01,
    seed: int | None = None,
    sensor_noise: float = 0.01,
    perf_noise: float = 0.02,
    vectorized: bool = True,
) -> World:
    """Build a world on the selected engine.

    ``engine="tick"`` is the fixed-tick reference implementation;
    ``engine="event"`` is the event-heap engine, bit-compatible on
    tick-equivalent scenarios and orders of magnitude faster when the
    machine has idle stretches.
    """
    if engine == "tick":
        cls: type[World] = World
    elif engine == "event":
        cls = EventWorld
    else:
        raise ValueError(f"unknown engine {engine!r} (want 'tick' or 'event')")
    return cls(
        platform,
        scheduler,
        governor=governor,
        tick_s=tick_s,
        seed=seed,
        sensor_noise=sensor_noise,
        perf_noise=perf_noise,
        vectorized=vectorized,
    )
