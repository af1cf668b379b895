"""Frame-relay tests: the splice the fault-injection proxy and the
gateway share.

Scripted raw-socket peers stand in for WaveKey endpoints, so each test
pins one relay property without running a session: order behind a
delayed frame, every frame ahead of EOF, frames pipelined behind a
HELLO, a poisoned length prefix tearing both sides down, and the
per-direction relay counters.  Only the public front ends are driven.
"""

import contextlib
import socket
import threading
import time

import pytest

from repro.cluster import WaveKeyGateway
from repro.net import FaultInjectionProxy, delay_frames
from repro.net.codec import (
    Frame,
    FrameAssembler,
    FrameType,
    Hello,
    encode_message,
    frame_to_bytes,
)

HELLO = encode_message(Hello(sender="mobile", rng_seed=1))
HOLD_S = 0.15


def record(i: int, size: int = 16) -> Frame:
    return Frame(FrameType.RECORD, (b"%06d" % i) * (size // 6 + 1))


def wire(*frames) -> bytes:
    return b"".join(frame_to_bytes(f) for f in frames)


def read_frames(sock, count=None):
    """Frames from ``sock`` until ``count`` arrived or the peer closed;
    returns ``(frames, closed)``."""
    assembler = FrameAssembler()
    frames = []
    while count is None or len(frames) < count:
        try:
            n = assembler.read_into(sock)
        except ConnectionResetError:
            return frames, True
        frames.extend(assembler.drain())
        if n == 0:
            return frames, True
    return frames, False


class Backend:
    """A listener whose first connection runs ``script(conn)`` on a
    thread; :meth:`result` joins it and returns what the script did."""

    def __init__(self, script):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(5.0)
        self.address = self._listener.getsockname()[:2]
        self._outcome = {}
        self._thread = threading.Thread(
            target=self._run, args=(script,), daemon=True
        )
        self._thread.start()

    def _run(self, script):
        try:
            conn, _ = self._listener.accept()
            with conn:
                conn.settimeout(5.0)
                self._outcome["value"] = script(conn)
        except BaseException as exc:  # surfaced by result()
            self._outcome["error"] = exc

    def result(self):
        self._thread.join(5.0)
        self._listener.close()
        assert not self._thread.is_alive(), "backend script hung"
        if "error" in self._outcome:
            raise self._outcome["error"]
        return self._outcome.get("value")


@contextlib.contextmanager
def front(kind, backend, interceptor=None):
    """The relay under test in front of ``backend``."""
    if kind == "proxy":
        relay = FaultInjectionProxy(backend.address, interceptor=interceptor)
    else:
        host, port = backend.address
        relay = WaveKeyGateway([f"{host}:{port}"], health_checks=False)
    with relay:
        yield relay


def dial(relay):
    sock = socket.create_connection(relay.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


def counter(relay, series):
    return relay.metrics.snapshot()["counters"].get(series, 0)


def wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def test_delay_of_frame_one_keeps_order():
    frames = [record(i) for i in range(3)]
    backend = Backend(lambda conn: read_frames(conn, 3)[0])
    hold = delay_frames(HOLD_S, types=[FrameType.RECORD], count=1)
    with front("proxy", backend, hold) as relay:
        start = time.monotonic()
        with dial(relay) as client:
            client.sendall(wire(*frames))
            assert backend.result() == frames
        assert time.monotonic() - start >= HOLD_S * 0.9
        assert relay.forwarded == 3


@pytest.mark.parametrize(
    "kind, held",
    [("proxy", False), ("proxy", True), ("gateway", False)],
)
def test_every_server_frame_arrives_before_eof(kind, held):
    # Big enough that the relay needs several reads and ticks.
    frames = [record(i, size=2048) for i in range(24)]

    def script(conn):
        hello, _ = read_frames(conn, 1)
        conn.sendall(wire(*frames))
        return hello

    backend = Backend(script)
    hold = (
        delay_frames(HOLD_S, types=[FrameType.RECORD], count=1)
        if held else None
    )
    with front(kind, backend, hold) as relay:
        with dial(relay) as client:
            client.sendall(wire(HELLO))
            received, closed = read_frames(client)
        assert backend.result() == [HELLO]
    assert received == frames
    assert closed


def test_frames_pipelined_behind_hello_follow_it():
    frames = [record(i) for i in range(3)]
    backend = Backend(lambda conn: read_frames(conn, 4)[0])
    with front("gateway", backend) as relay:
        with dial(relay) as client:
            client.sendall(wire(HELLO, *frames))
            assert backend.result() == [HELLO, *frames]


@pytest.mark.parametrize("kind", ["proxy", "gateway"])
def test_poisoned_length_prefix_closes_both_sides(kind):
    spliced = threading.Event()

    def script(conn):
        hello, _ = read_frames(conn, 1)
        spliced.set()
        rest, closed = read_frames(conn)
        return hello, rest, closed

    backend = Backend(script)
    with front(kind, backend) as relay:
        with dial(relay) as client:
            client.sendall(wire(HELLO))
            assert spliced.wait(5.0)
            client.sendall(b"\xff\xff\xff\xff" + b"junk" * 8)
            received, closed = read_frames(client)
            assert received == [] and closed
        assert backend.result() == ([HELLO], [], True)
        if kind == "gateway":
            assert wait_for(lambda: counter(
                relay, 'cluster.splice_errors{where="client stream"}'
            ) == 1)


def test_relayed_frames_are_counted_per_direction():
    up = [record(i) for i in range(2)]
    down = [record(10 + i) for i in range(3)]

    def script(conn):
        got, _ = read_frames(conn, 3)
        conn.sendall(wire(*down))
        return got

    backend = Backend(script)
    with front("gateway", backend) as relay:
        with dial(relay) as client:
            client.sendall(wire(HELLO, *up))
            received, closed = read_frames(client)
        assert backend.result() == [HELLO, *up]
        assert received == down and closed
        # The held HELLO opens the backend conversation; it is routed,
        # not relayed, so only the frames behind it count.
        assert counter(
            relay, 'cluster.frames.relayed{direction="c2s"}'
        ) == len(up)
        assert counter(
            relay, 'cluster.frames.relayed{direction="s2c"}'
        ) == len(down)
