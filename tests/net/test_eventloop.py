"""Event-loop tier tests: the loop itself, the bounded outbound
buffer, and the loop-health metrics observable over loopback.

The protocol-level behavior of the event-loop server is pinned by the
pre-existing suites (``test_client_server``, ``test_proxy``) which run
against it unchanged; this file covers what is *new*: cross-thread
scheduling, timers, callback isolation, backpressure shedding, the
``net.conn.open`` gauge, and the ``net.loop.*`` series.
"""

import socket
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.net import (
    NetClientConfig,
    OutboundBuffer,
    WaveKeyNetClient,
    WaveKeyTCPServer,
)
from repro.net.codec import Hello
from repro.net.connection import (
    SEND_CLOSED,
    SEND_OK,
    SEND_OVERFLOW,
    connect,
)
from repro.net.eventloop import EVENT_READ, EventLoop
from repro.obs import MetricsRegistry

from tests.net.conftest import (
    make_access_server,
    matched_seed,
    pin_seeds,
    wait_for,
)

CLIENT_CFG = NetClientConfig(
    read_timeout_s=5.0, max_retries=1, backoff_initial_s=0.01
)


# -- EventLoop core ----------------------------------------------------------


def test_call_soon_runs_callbacks_on_the_loop_thread():
    loop = EventLoop(name="test-loop").start()
    try:
        seen = []
        done = threading.Event()
        loop.call_soon(
            lambda: (seen.append(threading.current_thread().name),
                     done.set())
        )
        assert done.wait(2.0)
        assert seen == ["test-loop"]
    finally:
        loop.stop()


def test_call_later_fires_and_cancel_suppresses():
    loop = EventLoop().start()
    try:
        fired = threading.Event()
        cancelled_fired = threading.Event()
        handles = []

        def arm():
            loop.call_later(0.05, fired.set)
            handles.append(loop.call_later(0.3, cancelled_fired.set))

        loop.call_soon(arm)
        wait_for(lambda: handles, detail="timers armed")
        handles[0].cancel()
        assert fired.wait(2.0)
        time.sleep(0.5)
        assert not cancelled_fired.is_set()
    finally:
        loop.stop()


def test_selector_mutation_off_the_loop_thread_is_rejected():
    loop = EventLoop().start()
    left, right = socket.socketpair()
    try:
        with pytest.raises(ServiceError):
            loop.register(left, EVENT_READ, lambda mask: None)
    finally:
        left.close()
        right.close()
        loop.stop()


def test_callback_exceptions_are_counted_not_fatal():
    metrics = MetricsRegistry()
    loop = EventLoop(metrics=metrics).start()
    try:
        loop.call_soon(lambda: 1 / 0)
        alive = threading.Event()
        loop.call_soon(alive.set)
        assert alive.wait(2.0)  # the loop survived the exception
        assert (
            metrics.snapshot()["counters"]["net.loop.callback_errors"] == 1
        )
    finally:
        loop.stop()


def test_wake_after_stop_never_writes_into_a_recycled_fd():
    """A late wake() must be a no-op once the loop is stopped.

    stop() closes the self-pipe, so the OS is free to hand its fd
    number to the next socket the process opens; a wake() racing that
    teardown used to ``os.write(b"\\x00")`` into whatever inherited
    the number, silently injecting zero bytes into an unrelated TCP
    stream (seen as frame desync when backends are killed under load).
    """
    loop = EventLoop(name="late-wake").start()
    loop.stop()
    assert loop._wake_w == -1
    # Grab fresh fds right away — on POSIX the lowest free numbers are
    # reused, so these are very likely the pipe's old numbers.
    left, right = socket.socketpair()
    try:
        for _ in range(8):
            loop.wake()            # must not raise, must not write
            loop.call_soon(lambda: None)
        left.setblocking(False)
        right.setblocking(False)
        for sock in (left, right):
            with pytest.raises(BlockingIOError):
                sock.recv(64)      # no stray 0x00 landed in either end
    finally:
        left.close()
        right.close()


def test_wakeup_latency_histogram_measures_cross_thread_handoff():
    metrics = MetricsRegistry()
    loop = EventLoop(metrics=metrics).start()
    try:
        done = threading.Event()
        for _ in range(8):
            loop.call_soon(lambda: None)
        loop.call_soon(done.set)
        assert done.wait(2.0)
        hist = metrics.snapshot()["histograms"]["net.loop.wakeup_latency_s"]
        assert hist["count"] > 0
        assert hist["max"] < 1.0  # loopback handoffs are not seconds
    finally:
        loop.stop()


# -- OutboundBuffer ----------------------------------------------------------


def test_outbound_buffer_enforces_bound_and_force_bypasses_it():
    buf = OutboundBuffer(max_pending_bytes=10)
    assert buf.append(b"12345") == SEND_OK
    assert buf.append(b"123456") == SEND_OVERFLOW
    assert buf.pending == 5  # the overflowing append was not queued
    assert buf.append(b"123456", force=True) == SEND_OK
    assert buf.pending == 11
    buf.close()
    assert buf.append(b"x") == SEND_CLOSED


def test_outbound_buffer_partial_writes_drain_in_order():
    left, right = socket.socketpair()
    left.setblocking(False)
    left.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    try:
        buf = OutboundBuffer()
        payload = bytes(range(256)) * 2048  # 512 KiB >> the send buffer
        assert buf.append(payload, force=True) == SEND_OK
        received = bytearray()
        while buf.pending:
            if buf.flush(left):
                break
            received += right.recv(65536)
        while len(received) < len(payload):
            received += right.recv(65536)
        assert bytes(received) == payload
        assert buf.pending == 0
    finally:
        left.close()
        right.close()


# -- loop-health metrics over loopback ---------------------------------------


def test_conn_gauge_and_loop_series_over_loopback(tiny_bundle):
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access) as tcp:
            host, port = tcp.address

            def open_conns():
                return access.metrics.snapshot().get("gauges", {}).get(
                    "net.conn.open", 0
                )

            idle = connect(host, port, read_timeout_s=5.0)
            wait_for(
                lambda: open_conns() == 1, detail="gauge sees idle conn"
            )

            result = WaveKeyNetClient(
                host, port, CLIENT_CFG
            ).establish(rng_seed=31)
            assert result.success

            idle.close()
            wait_for(
                lambda: open_conns() == 0, detail="gauge drains on close"
            )

            snap = access.metrics.snapshot()
            assert snap["counters"]["net.loop.ticks"] > 0
            assert (
                snap["histograms"]["net.loop.wakeup_latency_s"]["count"] > 0
            )
            assert (
                snap["histograms"]["net.loop.outbound_buffer_bytes"]["count"]
                > 0
            )


def test_backpressure_overflow_sheds_with_wire_error(tiny_bundle):
    """An outbound bound smaller than a single accept frame forces the
    overflow path: the client gets a terminal ``overloaded`` error
    frame (allowed past the bound) and the shed is counted."""
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, max_outbound_bytes=8) as tcp:
            host, port = tcp.address
            conn = connect(host, port, read_timeout_s=5.0)
            try:
                conn.send(Hello(sender="mobile", rng_seed=41))
                message = conn.recv()
            finally:
                conn.close()
    assert message.code == "overloaded"
    counters = access.metrics.snapshot()["counters"]
    assert counters["net.server.backpressure_shed"] >= 1


def test_server_thread_count_is_flat_across_idle_connections(tiny_bundle):
    """The core scaling property, smoke-sized: 32 idle connections add
    zero threads (the full-scale version lives in
    ``benchmarks/test_net_scaling.py``)."""
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(
            access, handshake_timeout_s=30.0
        ) as tcp:
            host, port = tcp.address
            baseline = threading.active_count()
            socks = [
                socket.create_connection((host, port)) for _ in range(32)
            ]
            try:
                wait_for(
                    lambda: access.metrics.snapshot().get(
                        "gauges", {}
                    ).get("net.conn.open", 0) == 32,
                    detail="all idle conns accepted",
                )
                assert threading.active_count() == baseline
                # the loop still serves real sessions around the idlers
                result = WaveKeyNetClient(
                    host, port, CLIENT_CFG
                ).establish(rng_seed=55)
                assert result.success
            finally:
                for sock in socks:
                    sock.close()
