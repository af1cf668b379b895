"""The server's write path: frames are written through on the thread
that encoded them.

A protocol worker's frame must reach the socket without a loop tick,
a remainder the kernel would not take must still leave on
``EVENT_WRITE`` in append order, and a closed buffer must never touch
its socket again.
"""

import contextlib
import socket
import sys
import threading
import time

import pytest

from repro.errors import ConnectionClosed
from repro.net import OutboundBuffer, WaveKeyTCPServer
from repro.net.codec import RoundResult, StatsResponse
from repro.net.connection import (
    SEND_CLOSED,
    SEND_OK,
    SEND_PENDING,
    FrameConnection,
    connect,
)

from tests.net.conftest import (
    make_access_server,
    matched_seed,
    pin_seeds,
    wait_for,
)


@pytest.fixture()
def server(tiny_bundle):
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, handshake_timeout_s=30.0) as tcp:
            yield tcp


def _accepted_conn(tcp):
    """The server side of the one connection the test opened."""
    wait_for(lambda: len(tcp._conns) == 1, detail="connection accepted")
    return next(iter(tcp._conns))


class _BlockedLoop:
    """Park the loop thread inside a callback for the ``with`` body."""

    def __init__(self, loop):
        self._loop = loop
        self._entered = threading.Event()
        self._release = threading.Event()

    def _park(self):
        self._entered.set()
        self._release.wait(10.0)

    def __enter__(self):
        self._loop.call_soon(self._park)
        assert self._entered.wait(5.0), "loop never ran the callback"
        return self

    def __exit__(self, *exc_info):
        self._release.set()


# -- OutboundBuffer.write ----------------------------------------------------


def test_write_reaches_the_peer_at_once():
    left, right = socket.socketpair()
    left.setblocking(False)
    right.settimeout(2.0)
    try:
        buf = OutboundBuffer()
        assert buf.write(left, b"frame-1") == SEND_OK
        assert buf.pending == 0
        assert right.recv(64) == b"frame-1"
    finally:
        left.close()
        right.close()


def test_write_reports_a_remainder_and_flush_sends_it_in_order():
    left, right = socket.socketpair()
    left.setblocking(False)
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    try:
        buf = OutboundBuffer()
        first = bytes(range(256)) * 1024  # 256 KiB >> the send buffer
        assert buf.write(left, first) == SEND_PENDING
        assert 0 < buf.pending <= len(first)
        # A later write queues behind the remainder, never ahead of it.
        assert buf.write(left, b"second") == SEND_PENDING
        received = bytearray()
        while not buf.flush(left):
            received += right.recv(65536)
        right.settimeout(2.0)
        while len(received) < len(first) + len(b"second"):
            received += right.recv(65536)
        assert bytes(received) == first + b"second"
    finally:
        left.close()
        right.close()


def test_flush_after_close_writes_nothing():
    left, right = socket.socketpair()
    left.setblocking(False)
    right.setblocking(False)
    try:
        buf = OutboundBuffer()
        assert buf.append(b"queued before close") == SEND_OK
        buf.close()
        assert buf.flush(left)  # nothing left that could ever be written
        with pytest.raises(BlockingIOError):
            right.recv(64)
        assert buf.pending == 0
        assert buf.write(left, b"after close") == SEND_CLOSED
        with pytest.raises(BlockingIOError):
            right.recv(64)
    finally:
        left.close()
        right.close()


def test_concurrent_writers_never_interleave_frames():
    """More writer threads than cores, a flusher in the loop's role and
    a tiny switch interval: every frame arrives whole, and each
    writer's frames arrive in its own order."""
    left, right = socket.socketpair()
    left.setblocking(False)
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    right.settimeout(10.0)
    buf = OutboundBuffer()
    n_writers, per_writer = 4, 150

    def frame(w, i):
        body = bytes([w]) * 4 + i.to_bytes(4, "big") + bytes([w]) * (
            97 * (i % 7 + 1)
        )
        return len(body).to_bytes(4, "big") + body

    total = sum(
        len(frame(w, i)) for w in range(n_writers) for i in range(per_writer)
    )
    errors = []
    received = bytearray()
    done = threading.Event()

    def writer(w):
        try:
            for i in range(per_writer):
                verdict = buf.write(left, frame(w, i), force=True)
                assert verdict in (SEND_OK, SEND_PENDING), verdict
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    def flusher():
        while not done.is_set():
            buf.flush(left)
            time.sleep(0.0005)

    def reader():
        try:
            while len(received) < total:
                chunk = right.recv(65536)
                if not chunk:
                    break
                received.extend(chunk)
        except OSError as exc:
            errors.append(exc)
        finally:
            done.set()

    threads = [
        threading.Thread(target=writer, args=(w,), daemon=True)
        for w in range(n_writers)
    ] + [
        threading.Thread(target=flusher, daemon=True),
        threading.Thread(target=reader, daemon=True),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        done.set()
        left.close()
        right.close()
    assert errors == []
    assert len(received) == total
    next_index = [0] * n_writers
    offset = 0
    while offset < total:
        length = int.from_bytes(received[offset:offset + 4], "big")
        w = received[offset + 4]
        i = int.from_bytes(received[offset + 8:offset + 12], "big")
        assert bytes(received[offset:offset + 4 + length]) == frame(w, i)
        assert i == next_index[w]
        next_index[w] += 1
        offset += 4 + length
    assert next_index == [per_writer] * n_writers


# -- the server's producers --------------------------------------------------


def test_worker_frame_needs_no_loop_tick(server):
    """With the loop thread parked in a callback, a frame sent from a
    worker is already readable on the peer."""
    client = connect(*server.address, read_timeout_s=2.0)
    try:
        conn = _accepted_conn(server)
        with _BlockedLoop(server.loop):
            conn.channel.send(RoundResult(success=True, reason="through"))
            message = client.recv(timeout_s=2.0)
        assert message == RoundResult(success=True, reason="through")
    finally:
        client.close()


def test_remainder_leaves_on_event_write_in_append_order(server):
    """A large worker frame overruns a small send buffer while the peer
    is not reading; a loop frame and a second worker frame queue behind
    it, and all three arrive whole and in append order once the peer
    reads, the remainder leaving on writability alone."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(server.address)
    client = None
    try:
        conn = _accepted_conn(server)
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        big = StatsResponse(payload_json="x" * (512 * 1024))
        conn.channel.send(big)
        assert conn.outbound.pending > 0

        on_loop = threading.Event()
        from_loop = RoundResult(success=False, reason="from the loop")

        def enqueue_on_loop():
            server._enqueue(conn, from_loop)
            on_loop.set()

        server.loop.call_soon(enqueue_on_loop)
        assert on_loop.wait(5.0)
        from_worker = RoundResult(success=True, reason="from the worker")
        conn.channel.send(from_worker)

        time.sleep(0.2)  # the peer reads late
        client = FrameConnection(sock, read_timeout_s=5.0)
        assert client.recv() == big
        assert client.recv() == from_loop
        assert client.recv() == from_worker
        wait_for(lambda: conn.outbound.pending == 0, detail="drained")
    finally:
        if client is not None:
            client.close()
        else:
            sock.close()


def test_worker_send_racing_close_raises_connection_closed(server):
    """A worker writing while the loop closes the connection ends with
    ``ConnectionClosed`` from the closed buffer, never with a socket
    error: the buffer closes before the socket, so no write reaches a
    closed descriptor."""
    sock = socket.create_connection(server.address)
    outcome = []
    started = threading.Event()

    def read_until_eof():
        # Keep the peer reading so the race is with the close, not with
        # the outbound bound.
        with contextlib.suppress(OSError):
            while sock.recv(65536):
                pass

    def worker():
        frame = RoundResult(success=True, reason="race")
        try:
            while True:
                conn.channel.send(frame)
                started.set()
        except Exception as exc:  # noqa: BLE001 — the type is the assertion
            outcome.append(exc)

    reader = threading.Thread(target=read_until_eof, daemon=True)
    reader.start()
    try:
        conn = _accepted_conn(server)
        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        assert started.wait(5.0)
        server.loop.call_soon(server._close_conn, conn)
        thread.join(5.0)
        assert not thread.is_alive()
        assert len(outcome) == 1
        assert isinstance(outcome[0], ConnectionClosed), outcome[0]
        assert str(outcome[0]) == "send failed: connection closed"
        assert conn.closed and conn.outbound.closed
    finally:
        sock.close()
        reader.join(5.0)
