"""Tests for the IPC layer: messages, framing, and real Unix sockets."""

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ipc.client import HarpSocketClient, InProcessTransport
from repro.ipc.messages import (
    Ack,
    ActivateOperatingPoint,
    DeregisterRequest,
    OperatingPointsMessage,
    ProtocolViolation,
    RegisterReply,
    RegisterRequest,
    UtilityReply,
    UtilityRequest,
    decode_message,
    encode_message,
)
from repro.ipc.protocol import (
    FrameCodec,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.ipc.server import HarpSocketServer

# A socket thread that dies with an exception is a failure, not a warning.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)


class TestMessages:
    def test_register_round_trip(self):
        msg = RegisterRequest(
            pid=42, app_name="ep.C", granularity="coarse",
            adaptivity="scalable", provides_utility=True,
            push_socket="/tmp/x.sock",
        )
        back = decode_message(encode_message(msg))
        assert back == msg

    def test_activate_round_trip(self):
        msg = ActivateOperatingPoint(
            pid=7, erv=[1, 2, 4], degree=9, knobs={"replicas": {"c": 3}},
            hw_threads=[0, 1, 2],
        )
        back = decode_message(encode_message(msg))
        assert back == msg

    @pytest.mark.parametrize("msg", [
        RegisterReply(ok=True, session_id=3),
        OperatingPointsMessage(pid=1, points=[{"erv": [1, 0, 0]}]),
        UtilityRequest(pid=1),
        UtilityReply(pid=1, utility=2.5),
        UtilityReply(pid=1, utility=None),
        DeregisterRequest(pid=1),
        Ack(ok=False, error="nope"),
    ])
    def test_all_types_round_trip(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_message({"type": "mystery"})

    def test_missing_type_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_message({"pid": 1})

    def test_malformed_fields_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_message({"type": "register", "bogus": 1})

    def test_bad_granularity_rejected(self):
        with pytest.raises(ProtocolViolation):
            RegisterRequest(pid=1, app_name="x", granularity="medium")

    def test_bad_adaptivity_rejected(self):
        with pytest.raises(ProtocolViolation):
            RegisterRequest(pid=1, app_name="x", adaptivity="magic")


class TestFraming:
    def test_frame_round_trip(self):
        msg = UtilityReply(pid=3, utility=1.25)
        frame = FrameCodec.encode(msg)
        assert FrameCodec.decode(frame[4:]) == msg

    def test_garbage_frame_rejected(self):
        with pytest.raises(ProtocolError):
            FrameCodec.decode(b"\xff\xfe not json")

    def test_socketpair_round_trip(self):
        a, b = socket.socketpair()
        try:
            send_message(a, RegisterRequest(pid=1, app_name="x"))
            msg = recv_message(b)
            assert isinstance(msg, RegisterRequest)
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises(self):
        a, b = socket.socketpair()
        try:
            frame = FrameCodec.encode(UtilityRequest(pid=1))
            a.sendall(frame[: len(frame) - 2])
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            b.close()

    @given(st.integers(0, 2**16), st.text(max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_frames_survive_arbitrary_payloads(self, pid, name):
        msg = RegisterRequest(pid=pid, app_name=name)
        frame = FrameCodec.encode(msg)
        assert FrameCodec.decode(frame[4:]) == msg


class TestInProcessTransport:
    def test_request_reply(self):
        transport = InProcessTransport(lambda m: Ack(ok=True))
        assert transport.request(UtilityRequest(pid=1)) == Ack(ok=True)

    def test_push_without_handler(self):
        transport = InProcessTransport(lambda m: Ack(ok=True))
        reply = transport.push(UtilityRequest(pid=1))
        assert isinstance(reply, Ack) and not reply.ok

    def test_push_dispatches_to_handler(self):
        transport = InProcessTransport(lambda m: Ack(ok=True))
        transport.set_push_handler(lambda m: UtilityReply(pid=1, utility=9.0))
        reply = transport.push(UtilityRequest(pid=1))
        assert reply == UtilityReply(pid=1, utility=9.0)

    def test_closed_transport_rejects(self):
        transport = InProcessTransport(lambda m: Ack(ok=True))
        transport.close()
        with pytest.raises(ProtocolError):
            transport.request(UtilityRequest(pid=1))


class TestUnixSockets:
    """Integration tests over real AF_UNIX sockets."""

    def test_register_and_push_flow(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        push_path = str(tmp_path / "app.sock")
        registered = threading.Event()

        def handler(message):
            if isinstance(message, RegisterRequest):
                server.open_push_channel(message.pid, message.push_socket)
                registered.set()
                return RegisterReply(ok=True, session_id=message.pid)
            return Ack(ok=True)

        server = HarpSocketServer(rm_path, handler)
        with server:
            client = HarpSocketClient(rm_path, push_path)
            received = []
            client.set_push_handler(lambda m: received.append(m) or Ack(ok=True))
            try:
                reply = client.request(
                    RegisterRequest(pid=5, app_name="ep.C", push_socket=push_path)
                )
                assert isinstance(reply, RegisterReply) and reply.ok
                assert registered.wait(2.0)
                assert server.push(
                    5, ActivateOperatingPoint(pid=5, erv=[1, 0, 0], degree=1)
                )
                deadline = time.time() + 2.0
                while not received and time.time() < deadline:
                    time.sleep(0.01)
                assert received and isinstance(
                    received[0], ActivateOperatingPoint
                )
            finally:
                client.close()

    def test_push_to_unknown_pid_fails_gracefully(self, tmp_path):
        server = HarpSocketServer(
            str(tmp_path / "rm.sock"), lambda m: Ack(ok=True)
        )
        with server:
            assert not server.push(99, UtilityRequest(pid=99))

    def test_handler_exception_becomes_error_ack(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")

        def broken(message):
            raise RuntimeError("boom")

        server = HarpSocketServer(rm_path, broken)
        with server:
            client = HarpSocketClient(rm_path, str(tmp_path / "c.sock"))
            try:
                reply = client.request(UtilityRequest(pid=1))
                assert isinstance(reply, Ack) and not reply.ok
                assert "boom" in reply.error
            finally:
                client.close()

    def test_multiple_clients(self, tmp_path):
        rm_path = str(tmp_path / "rm.sock")
        seen = []

        def handler(message):
            seen.append(message.pid)
            return Ack(ok=True)

        server = HarpSocketServer(rm_path, handler)
        with server:
            clients = [
                HarpSocketClient(rm_path, str(tmp_path / f"c{i}.sock"))
                for i in range(3)
            ]
            try:
                for i, client in enumerate(clients):
                    client.request(DeregisterRequest(pid=i))
                assert sorted(seen) == [0, 1, 2]
            finally:
                for client in clients:
                    client.close()

    def test_open_close_cycles_leave_no_thread_exception(self, tmp_path):
        # close() straight after construction races the push thread's
        # start-up; the thread must never touch the closed listener.
        rm_path = str(tmp_path / "rm.sock")
        push_path = str(tmp_path / "c.sock")
        errors = []
        previous = threading.excepthook
        threading.excepthook = errors.append
        try:
            with HarpSocketServer(rm_path, lambda m: Ack(ok=True)):
                for _ in range(50):
                    client = HarpSocketClient(rm_path, push_path)
                    client.close()
                    assert not client._push_thread.is_alive()
        finally:
            threading.excepthook = previous
        assert [e.exc_value for e in errors] == []

    def test_socket_file_removed_on_stop(self, tmp_path):
        import os

        rm_path = str(tmp_path / "rm.sock")
        server = HarpSocketServer(rm_path, lambda m: Ack(ok=True))
        server.start()
        assert os.path.exists(rm_path)
        server.stop()
        assert not os.path.exists(rm_path)
