"""Tests for libharp: hooks, adapters, and the client control flow."""

import pytest

from repro.apps import kpn_model, npb_model, tflite_model
from repro.apps.base import AdaptivityType, ApplicationModel
from repro.apps.openmp import OmpEnvironment, resolve_team_size
from repro.ipc.client import InProcessTransport
from repro.ipc.messages import (
    Ack,
    ActivateOperatingPoint,
    OperatingPointsMessage,
    RegisterReply,
    RegisterRequest,
    UtilityReply,
    UtilityRequest,
)
from repro.libharp.adaptivity import AdaptationMode, SimProcessAdapter
from repro.libharp.client import LibHarpClient, RegistrationError
from repro.libharp.hooks import detect_runtime
from repro.sim.process import SimProcess

# A socket thread that dies with an exception is a failure, not a warning.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


def _static_app():
    return ApplicationModel(
        name="legacy", total_work=10.0, adaptivity=AdaptivityType.STATIC,
        runtime_lib=None, fixed_nthreads=4,
    )


class TestOpenMpSemantics:
    def test_user_value_without_harp(self):
        env = OmpEnvironment(omp_num_threads=8, nproc=32)
        assert resolve_team_size(env, None) == 8

    def test_nproc_default(self):
        env = OmpEnvironment(nproc=32)
        assert resolve_team_size(env, None) == 32

    def test_harp_degree_overrides(self):
        env = OmpEnvironment(omp_num_threads=32, nproc=32)
        assert resolve_team_size(env, 6) == 6

    def test_invalid_values_rejected(self):
        env = OmpEnvironment(omp_num_threads=0)
        with pytest.raises(ValueError):
            env.default_team_size()
        with pytest.raises(ValueError):
            resolve_team_size(OmpEnvironment(nproc=4), 0)


class TestRuntimeHooks:
    @pytest.mark.parametrize("runtime,malleable", [
        ("openmp", True), ("tbb", True), ("tensorflow", True),
        ("kpn", True), ("pthread", False), (None, False),
    ])
    def test_malleability(self, runtime, malleable):
        assert detect_runtime(runtime).malleable is malleable

    def test_unknown_runtime_degrades_to_static(self):
        hooks = detect_runtime("rayon")
        assert not hooks.malleable

    def test_static_runtime_keeps_user_threads(self):
        hooks = detect_runtime("pthread")
        assert hooks.resolve_degree(16, 4) == 16

    def test_malleable_runtime_follows_harp(self):
        hooks = detect_runtime("tbb")
        assert hooks.resolve_degree(32, 6) == 6

    def test_no_degree_keeps_user(self):
        hooks = detect_runtime("openmp")
        assert hooks.resolve_degree(12, None) == 12


class TestSimProcessAdapter:
    def test_scalable_adapts_threads_and_affinity(self):
        process = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=32)
        adapter = SimProcessAdapter(process)
        adapter.apply_allocation(degree=6, knobs={}, hw_threads=[0, 1, 2, 3, 4, 5])
        assert process.nthreads == 6
        assert process.affinity == frozenset({0, 1, 2, 3, 4, 5})

    def test_static_only_affinity(self):
        process = SimProcess(pid=1, model=_static_app(), nthreads=4)
        adapter = SimProcessAdapter(process)
        adapter.apply_allocation(degree=2, knobs={}, hw_threads=[7, 8])
        assert process.nthreads == 4  # unchanged
        assert process.affinity == frozenset({7, 8})

    def test_affinity_only_mode(self):
        process = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=32)
        adapter = SimProcessAdapter(process, mode=AdaptationMode.AFFINITY_ONLY)
        adapter.apply_allocation(degree=6, knobs={}, hw_threads=[0, 1])
        assert process.nthreads == 32
        assert process.affinity == frozenset({0, 1})

    def test_ignore_mode(self):
        process = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=32)
        adapter = SimProcessAdapter(process, mode=AdaptationMode.IGNORE)
        adapter.apply_allocation(degree=6, knobs={}, hw_threads=[0, 1])
        assert process.nthreads == 32
        assert process.affinity is None

    def test_kpn_reshapes_topology(self):
        model = kpn_model("mandelbrot")
        process = SimProcess(pid=1, model=model, nthreads=model.topology_size())
        adapter = SimProcessAdapter(process)
        adapter.apply_allocation(degree=10, knobs={}, hw_threads=list(range(10)))
        assert process.nthreads == model.topology_size(process)
        assert process.nthreads >= 8

    def test_custom_callbacks_invoked(self):
        model = tflite_model("vgg")
        process = SimProcess(pid=1, model=model, nthreads=8)
        adapter = SimProcessAdapter(process)
        calls = []
        adapter.register_callback(lambda knobs, hw: calls.append((knobs, hw)))
        adapter.apply_allocation(degree=4, knobs={"quant": 1}, hw_threads=[0, 1, 2, 3])
        assert calls == [({"quant": 1}, [0, 1, 2, 3])]
        assert process.nthreads == 4

    def test_utility_rate_from_clock(self):
        model = tflite_model("vgg")
        process = SimProcess(pid=1, model=model, nthreads=8)
        now = [0.0]
        adapter = SimProcessAdapter(process, clock=lambda: now[0])
        assert adapter.current_utility() is None  # first poll: no interval
        process.work_done = 10.0
        now[0] = 2.0
        assert adapter.current_utility() == pytest.approx(5.0)

    def test_no_utility_without_capability(self):
        process = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=2)
        adapter = SimProcessAdapter(process, clock=lambda: 1.0)
        assert adapter.current_utility() is None

    def test_empty_hw_threads_clears_affinity(self):
        process = SimProcess(pid=1, model=npb_model("ep.C"), nthreads=4)
        process.set_affinity(frozenset({1}))
        adapter = SimProcessAdapter(process)
        adapter.apply_allocation(degree=4, knobs={}, hw_threads=[])
        assert process.affinity is None


class TestLibHarpClient:
    def _rm(self, replies):
        log = []

        def handler(message):
            log.append(message)
            if isinstance(message, RegisterRequest):
                return replies.get("register", RegisterReply(ok=True, session_id=9))
            return replies.get("default", Ack(ok=True))

        return handler, log

    def test_registration_flow_sends_points(self):
        handler, log = self._rm({})
        process = SimProcess(pid=3, model=npb_model("ep.C"), nthreads=4)
        client = LibHarpClient(
            SimProcessAdapter(process),
            InProcessTransport(handler),
            description_points=[{"erv": [1, 0, 0], "utility": 1.0, "power": 5.0}],
        )
        session = client.register()
        assert session == 9
        assert isinstance(log[0], RegisterRequest)
        assert log[0].adaptivity == "scalable"
        assert isinstance(log[1], OperatingPointsMessage)

    def test_registration_rejected(self):
        handler, _ = self._rm({"register": RegisterReply(ok=False, error="full")})
        process = SimProcess(pid=3, model=npb_model("ep.C"), nthreads=4)
        client = LibHarpClient(SimProcessAdapter(process), InProcessTransport(handler))
        with pytest.raises(RegistrationError):
            client.register()

    def test_activation_push_applies_and_counts(self):
        handler, _ = self._rm({})
        process = SimProcess(pid=3, model=npb_model("ep.C"), nthreads=32)
        transport = InProcessTransport(handler)
        client = LibHarpClient(SimProcessAdapter(process), transport)
        client.register()
        reply = transport.push(
            ActivateOperatingPoint(pid=3, erv=[2, 0, 0], degree=2, hw_threads=[0, 2])
        )
        assert isinstance(reply, Ack) and reply.ok
        assert client.activations == 1
        assert process.nthreads == 2

    def test_utility_request_answered(self):
        handler, _ = self._rm({})
        model = tflite_model("alexnet")
        process = SimProcess(pid=3, model=model, nthreads=4)
        now = [0.0]
        transport = InProcessTransport(handler)
        client = LibHarpClient(
            SimProcessAdapter(process, clock=lambda: now[0]), transport
        )
        client.register()
        transport.push(UtilityRequest(pid=3))
        process.work_done = 4.0
        now[0] = 1.0
        reply = transport.push(UtilityRequest(pid=3))
        assert isinstance(reply, UtilityReply)
        assert reply.utility == pytest.approx(4.0)

    def test_unexpected_push_rejected(self):
        handler, _ = self._rm({})
        process = SimProcess(pid=3, model=npb_model("ep.C"), nthreads=4)
        transport = InProcessTransport(handler)
        LibHarpClient(SimProcessAdapter(process), transport)
        reply = transport.push(RegisterReply(ok=True))
        assert isinstance(reply, Ack) and not reply.ok
