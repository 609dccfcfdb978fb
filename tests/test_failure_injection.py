"""Failure injection: the management stack must degrade gracefully.

Covers the paper's operational corner cases — applications that exit
mid-exploration, register and die immediately, flood the system, or
misbehave on the protocol — plus socket-level failures on the real wire.
"""

import contextlib
import socket

import pytest

from repro.apps import npb_model
from repro.apps.base import ApplicationModel
from repro.core.manager import HarpManager, ManagerConfig
from repro.ipc.client import HarpSocketClient
from repro.ipc.messages import (
    Ack,
    DeregisterRequest,
    OperatingPointsMessage,
    RegisterReply,
    RegisterRequest,
    UtilityRequest,
)
from repro.ipc.protocol import send_message
from repro.ipc.server import HarpSocketServer
from repro.platform.dvfs import make_governor
from repro.sim.engine import World
from repro.sim.schedulers.pinned import PinnedScheduler

# A socket thread that dies with an exception is a failure, not a warning.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


def _world(platform, seed=0):
    return World(
        platform, PinnedScheduler(),
        governor=make_governor("powersave", platform), seed=seed,
    )


class TestManagerResilience:
    def test_app_exits_during_exploration(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig(startup_delay_s=0.05))
        short = ApplicationModel(name="blink", total_work=0.5)
        world.spawn(short, managed=True)
        world.spawn(npb_model("mg.C"), managed=True)
        world.run_until_all_finished()
        assert not manager.sessions  # both cleaned up

    def test_storm_of_short_applications(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig(startup_delay_s=0.02))
        for i in range(6):
            world.spawn(
                ApplicationModel(name=f"burst{i}", total_work=0.4),
                managed=True,
            )
        world.run_until_all_finished()
        assert not manager.sessions
        assert manager.allocation_epochs >= 6

    def test_more_apps_than_cores_co_allocates(self, odroid):
        world = _world(odroid)
        manager = HarpManager(world, ManagerConfig(startup_delay_s=0.02))
        procs = [
            world.spawn(
                ApplicationModel(name=f"many{i}", total_work=2.0,
                                 fixed_nthreads=2),
                managed=True,
            )
            for i in range(10)  # 10 apps on 8 cores
        ]
        world.run_for(0.5)
        # Everyone got some hardware despite the shortage.
        placed = [s for s in manager.sessions.values() if s.current_hw]
        assert len(placed) >= 8
        world.run_until_all_finished(max_seconds=600)

    def test_deregister_message_handled(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        proc = world.spawn(npb_model("ep.C"), managed=True)
        reply = manager.handle_request(DeregisterRequest(pid=proc.pid))
        assert isinstance(reply, Ack) and reply.ok
        assert proc.pid not in manager.sessions

    def test_points_for_unknown_pid_rejected(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        reply = manager.handle_request(
            OperatingPointsMessage(pid=999, points=[])
        )
        assert isinstance(reply, Ack) and not reply.ok

    def test_unexpected_request_type_rejected(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        reply = manager.handle_request(UtilityRequest(pid=1))
        assert isinstance(reply, Ack) and not reply.ok

    def test_manager_survives_empty_reallocate(self, intel):
        world = _world(intel)
        manager = HarpManager(world, ManagerConfig())
        assert manager.reallocate() is None

    def test_zero_work_application(self, intel):
        world = _world(intel)
        HarpManager(world, ManagerConfig())
        world.spawn(ApplicationModel(name="tiny", total_work=1e-6), managed=True)
        makespan = world.run_until_all_finished()
        assert makespan < 1.0


class TestSocketFailures:
    def test_client_vanishes_push_fails_cleanly(self, tmp_path):
        server = HarpSocketServer(
            str(tmp_path / "rm.sock"),
            lambda m: RegisterReply(ok=True) if isinstance(m, RegisterRequest) else Ack(ok=True),
        )
        with server:
            client = HarpSocketClient(
                str(tmp_path / "rm.sock"), str(tmp_path / "app.sock")
            )
            client.request(RegisterRequest(
                pid=1, app_name="x", push_socket=str(tmp_path / "app.sock")
            ))
            server.open_push_channel(1, str(tmp_path / "app.sock"))
            client.close()  # application dies
            # First push may still sit in the socket buffer; repeated
            # pushes must eventually fail without raising.
            results = [server.push(1, UtilityRequest(pid=1)) for _ in range(5)]
            assert not all(results)

    def test_garbage_bytes_on_request_socket(self, tmp_path):
        server = HarpSocketServer(str(tmp_path / "rm.sock"), lambda m: Ack(ok=True))
        with server:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(str(tmp_path / "rm.sock"))
            raw.sendall(b"\x00\x00\x00\x05junk!")
            raw.close()
            # Server keeps serving other clients afterwards.
            client = HarpSocketClient(
                str(tmp_path / "rm.sock"), str(tmp_path / "c.sock")
            )
            try:
                reply = client.request(DeregisterRequest(pid=2))
                assert isinstance(reply, Ack)
            finally:
                client.close()

    def test_oversized_frame_rejected(self, tmp_path):
        server = HarpSocketServer(str(tmp_path / "rm.sock"), lambda m: Ack(ok=True))
        with server:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(str(tmp_path / "rm.sock"))
            # Header claims a 100 MiB frame.
            raw.sendall((100 * 1024 * 1024).to_bytes(4, "big"))
            with contextlib.suppress(OSError):
                raw.sendall(b"x" * 1024)
            raw.close()
            # The server dropped that connection but stays alive.
            client = HarpSocketClient(
                str(tmp_path / "rm.sock"), str(tmp_path / "c2.sock")
            )
            try:
                assert isinstance(client.request(DeregisterRequest(pid=3)), Ack)
            finally:
                client.close()

    def test_push_channel_to_missing_socket_raises(self, tmp_path):
        server = HarpSocketServer(str(tmp_path / "rm.sock"), lambda m: Ack(ok=True))
        with server:
            with pytest.raises(OSError):
                server.open_push_channel(7, str(tmp_path / "nope.sock"))
