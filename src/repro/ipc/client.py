"""Application-side transports.

``HarpSocketClient`` is the real thing: a request connection to the RM's
Unix socket plus a dedicated listening push socket, per §4.1.1.
``InProcessTransport`` implements the same interface synchronously for the
deterministic simulation harness, where the RM and all applications live
in one process.

Hardening contract (docs/robustness.md): every request carries an
explicit timeout (``RequestTimeout`` instead of blocking forever on a
hung RM), ``close()`` is idempotent, and ``reconnect()`` re-establishes a
dropped request connection so :class:`repro.libharp.client.LibHarpClient`
can retry-with-backoff and re-register.  The in-process transport exposes
deterministic fault hooks (``push_filter``, ``fail_next_requests``) that
the fault-injection subsystem (``repro.fault``) uses to model push loss,
utility starvation, and flaky request paths without threads or clocks.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
from typing import Callable

from repro.ipc.messages import Ack, Message
from repro.ipc.protocol import (
    ProtocolError,
    RequestTimeout,
    recv_message,
    send_message,
)
from repro.obs import OBS

PushHandler = Callable[[Message], Message | None]

#: Idle-poll granularity for the push listener's blocking reads.
_POLL_TIMEOUT_S = 0.2

#: Default per-request timeout: generous against a healthy RM, bounded
#: against a hung one.
DEFAULT_REQUEST_TIMEOUT_S = 5.0


class Transport:
    """Interface libharp uses to talk to the RM."""

    def request(
        self, message: Message, timeout: float | None = None
    ) -> Message:
        """Send a request and wait for the reply (bounded by ``timeout``)."""
        raise NotImplementedError

    def set_push_handler(self, handler: PushHandler) -> None:
        """Install the callback invoked for RM push messages."""
        raise NotImplementedError

    def reconnect(self) -> None:
        """Re-establish the request channel after a failure (optional)."""

    def close(self) -> None:
        """Release resources; must be idempotent."""


class HarpSocketClient(Transport):
    """Unix-socket transport with a dedicated push listener."""

    def __init__(
        self,
        rm_socket_path: str,
        push_socket_path: str,
        timeout: float = DEFAULT_REQUEST_TIMEOUT_S,
        join_timeout_s: float = 2.0,
    ):
        self.rm_socket_path = rm_socket_path
        self.push_socket_path = push_socket_path
        self.timeout = timeout
        self.join_timeout_s = join_timeout_s
        self._push_handler: PushHandler | None = None
        self._request_lock = threading.Lock()
        self._closed = False

        with contextlib.suppress(FileNotFoundError):
            os.unlink(push_socket_path)
        self._push_listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._push_listener.bind(push_socket_path)
        self._push_listener.listen(1)
        # Set before the push thread starts: a close() racing the
        # thread's first statement would otherwise leave it calling
        # settimeout on a closed socket.
        self._push_listener.settimeout(_POLL_TIMEOUT_S)
        self._push_thread = threading.Thread(
            target=self._push_loop, name="libharp-push", daemon=True
        )
        self._stopping = threading.Event()
        self._push_thread.start()

        self._request_sock = self._connect()

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self.rm_socket_path)
        return sock

    def request(
        self, message: Message, timeout: float | None = None
    ) -> Message:
        if self._closed:
            raise ProtocolError("transport closed")
        effective = self.timeout if timeout is None else timeout
        obs_on = OBS.enabled
        t0 = OBS.walltime() if obs_on else 0.0
        try:
            with self._request_lock:
                self._request_sock.settimeout(effective)
                send_message(self._request_sock, message)
                reply = recv_message(self._request_sock)
        except socket.timeout as exc:
            if obs_on:
                OBS.counter("ipc.request_timeouts", type=message.TYPE).inc()
            raise RequestTimeout(
                f"no reply to {message.TYPE!r} within {effective}s"
            ) from exc
        if obs_on:
            OBS.histogram(
                "ipc.request_seconds", type=message.TYPE
            ).observe(OBS.walltime() - t0)
        if reply is None:
            raise ProtocolError("RM closed the connection")
        return reply

    def reconnect(self) -> None:
        """Drop and re-establish the request connection to the RM.

        The new connection is dialled and the old socket closed *outside*
        the request lock — ``close()`` can block flushing unsent data,
        and every in-flight ``request()`` queues on that lock.  Only the
        pointer swap is serialized.
        """
        if self._closed:
            raise ProtocolError("transport closed")
        sock = self._connect()
        with self._request_lock:
            old, self._request_sock = self._request_sock, sock
        with contextlib.suppress(OSError):
            old.close()
        if OBS.enabled:
            OBS.counter("ipc.reconnects").inc()

    def set_push_handler(self, handler: PushHandler) -> None:
        self._push_handler = handler

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        with contextlib.suppress(OSError):
            self._request_sock.close()
        with contextlib.suppress(OSError):
            self._push_listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._push_listener.close()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.push_socket_path)
        self._push_thread.join(timeout=self.join_timeout_s)
        if self._push_thread.is_alive() and OBS.enabled:
            OBS.counter("ipc.thread_join_timeouts", role="client").inc()

    def _push_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._push_listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with conn:
                conn.settimeout(_POLL_TIMEOUT_S)
                self._serve_push_conn(conn)

    def _serve_push_conn(self, conn: socket.socket) -> None:
        while not self._stopping.is_set():
            try:
                message = recv_message(conn)
            except socket.timeout:
                continue
            except (ProtocolError, OSError):
                return
            if message is None:
                return
            handler = self._push_handler
            reply: Message | None = Ack(ok=True)
            if handler is not None:
                try:
                    result = handler(message)
                except Exception as exc:
                    reply = Ack(ok=False, error=str(exc))
                else:
                    if result is not None:
                        reply = result
            try:
                send_message(conn, reply)
            except OSError:
                return


class InProcessTransport(Transport):
    """Synchronous in-process channel for the simulation harness.

    The RM side installs a request handler; pushes invoke the libharp
    handler directly.  No threads, no sockets — fully deterministic.

    Fault hooks (installed by :mod:`repro.fault`):

    * ``push_filter`` — called with each push message before delivery;
      returning ``False`` drops the push (the RM sees no reply), modelling
      push-channel loss or a hung application that stopped answering.
    * ``fail_next_requests`` — the next N requests raise
      :class:`ProtocolError` before reaching the RM, modelling a flaky
      request channel; ``reconnect()`` clears the remaining budget.
    """

    def __init__(self, rm_handler: Callable[[Message], Message]):
        self._rm_handler = rm_handler
        self._push_handler: PushHandler | None = None
        self._closed = False
        self.push_filter: Callable[[Message], bool] | None = None
        self.fail_next_requests = 0

    def request(
        self, message: Message, timeout: float | None = None
    ) -> Message:
        if self._closed:
            raise ProtocolError("transport closed")
        if self.fail_next_requests > 0:
            self.fail_next_requests -= 1
            if OBS.enabled:
                OBS.counter("fault.injected", kind="request_failure").inc()
            raise ProtocolError("injected request failure")
        if OBS.enabled:
            OBS.counter("ipc.messages", dir="request", type=message.TYPE).inc()
        return self._rm_handler(message)

    def set_push_handler(self, handler: PushHandler) -> None:
        self._push_handler = handler

    def reconnect(self) -> None:
        if self._closed:
            raise ProtocolError("transport closed")
        self.fail_next_requests = 0

    def push(self, message: Message) -> Message | None:
        """RM side: deliver a push message to the application.

        Returns ``None`` when the push was lost (fault-injected channel
        loss); the RM treats that as a failed delivery.
        """
        if self._closed:
            raise ProtocolError("transport closed")
        if self.push_filter is not None and not self.push_filter(message):
            if OBS.enabled:
                OBS.counter(
                    "ipc.messages", dir="push_dropped", type=message.TYPE
                ).inc()
            return None
        if OBS.enabled:
            OBS.counter("ipc.messages", dir="push", type=message.TYPE).inc()
        if self._push_handler is None:
            return Ack(ok=False, error="no push handler installed")
        return self._push_handler(message)

    def close(self) -> None:
        self._closed = True
