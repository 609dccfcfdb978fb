"""Host-side probes wrapped around the program's public entry points.

Nothing here edits the program: every probe is a reversible class- or
module-attribute patch installed by the benchmark and removed when the
run ends.  There are two probes:

* :class:`EpochProbe` -- the only probe of a timed run: one
  ``perf_counter`` pair around each outermost ``HarpManager.reallocate``
  (one allocation epoch, the RM's decision latency).
* :class:`Tracer` -- added in the traced run only: one span per call
  into a named layer (see :func:`layer_targets`), held in memory,
  reduced to per-layer call counts and self time, and written out as a
  Chrome/Perfetto trace.

:class:`ProgramClock` is the host clock of the measured regions: it
stops while the benchmark runs its own checks, and the tracer records
no spans then.

:func:`busy_wait` adds a fixed host delay to one entry point; the
sensitivity self-test uses it to prove that each workload loads the
layers it claims to.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

from repro.core.allocator import LagrangianAllocator
from repro.core.energy import EnergyAttributor
from repro.core.exploration import ExplorationPlanner
from repro.core.manager import HarpManager
from repro.core.monitor import SystemMonitor
from repro.fleet.coordinator import Coordinator
from repro.fleet.node import NodeManager
from repro.platform.dvfs import Governor
from repro.platform.sensors import EnergySensor
from repro.scenario.driver import TraceDriver
from repro.sim.engine import World
from repro.sim.event import EventWorld
from repro.sim.schedulers.base import Scheduler

import repro.analysis.scenarios  # noqa: F401  (loads every app suite)
from repro.apps.base import ApplicationModel

perf_counter = time.perf_counter

#: Spans held in memory for the Chrome trace; the per-layer sums cover
#: every span, kept or not.
MAX_SPANS = 200_000


class ProgramClock:
    """Host time spent in the program, with the benchmark's own work cut out.

    Inside ``with clock.paused():`` the clock stands still, so checks
    made in the middle of a measured region cost the program nothing.
    """

    def __init__(self) -> None:
        self.is_paused = False
        self._excluded_s = 0.0

    def now(self) -> float:
        return perf_counter() - self._excluded_s

    @contextlib.contextmanager
    def paused(self):
        t0 = perf_counter()
        self.is_paused = True
        try:
            yield
        finally:
            self.is_paused = False
            self._excluded_s += perf_counter() - t0


class Patches:
    """A reversible set of attribute patches (LIFO undo)."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls: type, name: str, make: Callable) -> None:
        """Replace ``cls.name`` (defined on ``cls`` itself) by ``make(orig)``."""
        orig = cls.__dict__[name]
        setattr(cls, name, make(orig))
        self._undo.append((cls, name, orig))

    def function(self, orig: Callable, make: Callable) -> None:
        """Replace a module-level function everywhere it was imported.

        ``from m import f`` copies the reference into the importing
        module, so every ``repro`` module holding ``orig`` is patched.
        """
        wrapped = make(orig)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, orig))

    def undo(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


def _subclasses(base: type) -> list[type]:
    seen: list[type] = []
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _methods(classes: list[type], *names: str) -> list[tuple[type, str]]:
    """(class, name) for every class that defines one of ``names`` itself."""
    return [
        (cls, name)
        for cls in classes
        for name in names
        if callable(cls.__dict__.get(name))
    ]


def layer_targets() -> list[tuple[str, list]]:
    """Layer name -> entry points: ``(class, method)`` pairs or functions.

    Subclass lists are built at call time, after every app suite and
    scheduler module is imported.  Session model classes that the
    scenario package derives at run time inherit ``perf`` from an app
    class patched here.
    """
    from repro.core.pareto import dominated_mask
    from repro.ipc.messages import decode_message, encode_message
    from repro.scenario.generator import generate_trace

    return [
        ("sim.engine", _methods([World], "step", "run_for",
                                "run_until_all_finished")),
        ("sim.event", _methods([EventWorld], "run_for",
                               "run_until_all_finished")),
        ("sim.schedulers", _methods(_subclasses(Scheduler), "place",
                                    "placement_signature")),
        ("apps", _methods(_subclasses(ApplicationModel), "perf")),
        ("platform", _methods([Governor], "select_all")
         + _methods([EnergySensor], "accumulate", "accumulate_constant",
                    "read_energy_j")),
        ("scenario", [generate_trace]
         + _methods([TraceDriver], "_on_event", "_on_exit")),
        ("core.manager", _methods([HarpManager], "reallocate", "_on_event",
                                  "_on_process_start", "_on_process_exit")),
        ("core.exploration", _methods([ExplorationPlanner], "next_point",
                                      "fit_models", "stage_of",
                                      "predict_missing")),
        ("core.allocator", _methods([LagrangianAllocator], "allocate",
                                    "place_selections")),
        ("core.pareto", [dominated_mask]),
        ("core.monitor", _methods([SystemMonitor], "sample")
         + _methods([EnergyAttributor], "attribute")),
        ("ipc", [encode_message, decode_message]),
        ("fleet", _methods([Coordinator], "run_epoch", "handle_node_request")
         + _methods([NodeManager], "send_report", "admit", "suspend")),
    ]


#: Layer names in report order (the modules of ``src/repro``).
LAYERS = [
    "sim.engine", "sim.event", "sim.schedulers", "apps", "platform",
    "scenario", "core.manager", "core.exploration", "core.allocator",
    "core.pareto", "core.monitor", "ipc", "fleet",
]


class EpochProbe:
    """Host latency of each outermost ``HarpManager.reallocate`` call.

    A re-entered epoch (a reap inside an epoch re-runs it) is part of
    the outer call's latency.  The managers seen are kept, so a workload
    can read their counters after a run that built them internally.
    """

    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self._managers: dict[int, HarpManager] = {}
        self._depth = 0

    def install(self, patches: Patches) -> None:
        probe = self

        def make(orig):
            @functools.wraps(orig)
            def reallocate(manager):
                if probe._depth:
                    return orig(manager)
                probe._depth = 1
                t0 = perf_counter()
                try:
                    return orig(manager)
                finally:
                    probe.latencies_s.append(perf_counter() - t0)
                    probe._depth = 0
                    probe._managers[id(manager)] = manager

            return reallocate

        patches.method(HarpManager, "reallocate", make)

    def take_managers(self) -> list[HarpManager]:
        """Managers seen since the last call, in first-seen order."""
        managers = list(self._managers.values())
        self._managers.clear()
        return managers


def busy_wait(patches: Patches, cls: type, name: str, seconds: float) -> None:
    """Spin ``seconds`` of host time before every ``cls.name`` call."""

    def make(orig):
        @functools.wraps(orig)
        def delayed(*args, **kwargs):
            end = perf_counter() + seconds
            while perf_counter() < end:
                pass
            return orig(*args, **kwargs)

        return delayed

    patches.method(cls, name, make)


class Tracer:
    """Spans at every layer boundary; self time per layer.

    A span's self time is its duration minus the part covered by child
    spans, so the layers' self times plus the time outside any span
    (``unattributed_s``) add up to the traced wall time exactly.  While
    ``clock`` is paused, the wrapped entry points run without spans.
    """

    def __init__(self, clock: ProgramClock) -> None:
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Calls and inclusive time per entry point ("Class.method").
        self.fn_calls: Counter[str] = Counter()
        self.fn_total_s: defaultdict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self.advances = 0
        self.sent: list = []
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0

    def _wrap(self, layer: str, label: str, orig: Callable) -> Callable:
        tracer = self
        stack = self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if tracer.clock.is_paused:
                return orig(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][2] if stack else -1
            frame = [perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                tracer.self_s[layer] += dur - frame[1]
                tracer.calls[layer] += 1
                tracer.fn_calls[label] += 1
                tracer.fn_total_s[label] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.top_level_s += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (label, layer, frame[0], end, span_id, parent)
                    )
                else:
                    tracer.spans_dropped += 1

        return traced

    def install(self, patches: Patches) -> None:
        from repro.ipc.messages import encode_message

        tracer = self

        def keep_sent(orig):
            # Encoded messages are kept and framed after the run, so the
            # framing never lands inside a span.
            @functools.wraps(orig)
            def encode(message):
                if not tracer.clock.is_paused:
                    tracer.sent.append(message)
                return orig(message)

            return encode

        for layer, targets in layer_targets():
            for target in targets:
                if isinstance(target, tuple):
                    cls, name = target
                    label = f"{cls.__name__}.{name}"
                    patches.method(
                        cls, name, functools.partial(self._wrap, layer, label)
                    )
                    continue
                make = functools.partial(self._wrap, layer, target.__name__)
                if target is encode_message:
                    make = functools.partial(
                        lambda span, orig: span(keep_sent(orig)), make
                    )
                patches.function(target, make)

        # Counted, not spanned: one event-engine advance per boundary.
        def count_advances(orig):
            @functools.wraps(orig)
            def advance(world, limit_tick):
                if not tracer.clock.is_paused:
                    tracer.advances += 1
                return orig(world, limit_tick)

            return advance

        patches.method(EventWorld, "_advance_one", count_advances)

    def ipc_bytes(self) -> int:
        """Wire size of every encoded message, framed by the IPC codec."""
        from repro.ipc.protocol import FrameCodec

        return sum(len(FrameCodec.encode(message)) for message in self.sent)

    def write_chrome_trace(self, path: str, t0: float) -> None:
        """Write the held spans as Chrome trace JSON (Perfetto opens it)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('{"traceEvents": [')
            for i, (label, layer, start, end, span_id, parent) in enumerate(
                self.spans
            ):
                event = {
                    "name": label, "cat": layer, "ph": "X", "pid": 1,
                    "tid": 1, "ts": (start - t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"id": span_id, "parent": parent},
                }
                fh.write((", " if i else "") + json.dumps(event))
            fh.write(f'], "metadata": {{"spans_dropped": {self.spans_dropped}}}}}')
