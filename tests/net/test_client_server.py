"""Loopback end-to-end tests: real client, real TCP server.

Each test runs a full key establishment (or a controlled failure)
between :class:`WaveKeyNetClient` and :class:`WaveKeyTCPServer` over
127.0.0.1, with pinned encoder seeds so the outcomes are deterministic.
"""

import functools
import gc
import socket

import pytest

import repro.net.client as client_module
from repro.errors import (
    ConnectionClosed,
    ProtocolError,
    TransportError,
    VersionMismatch,
)
from repro.net import (
    NetClientConfig,
    WaveKeyNetClient,
    WaveKeyTCPServer,
)
from repro.net.codec import (
    ErrorFrame,
    Hello,
    ReplDigest,
    ReplPull,
    ReplPush,
    ResumeRequest,
    RevokeNotice,
    SeedGrant,
    StatsRequest,
    TelemetryRequest,
)
from repro.net.connection import FrameConnection, connect
from repro.obs import MetricsRegistry, Tracer
from repro.protocol.agreement import KeyAgreementConfig
from repro.protocol.messages import OTAnnounce
from repro.net.server import _ClientConn
from repro.service import SessionState, sessions

from tests.net.conftest import (
    make_access_server,
    matched_seed,
    mismatched_seeds,
    pin_seeds,
)

CLIENT_CFG = NetClientConfig(
    read_timeout_s=5.0, max_retries=1, backoff_initial_s=0.01
)


def test_establishment_over_loopback(tiny_bundle):
    """Acceptance: matching keys and a verified HMAC over a real
    socket, with span trees and metrics on both endpoints."""
    metrics = MetricsRegistry()
    tracer = Tracer()
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access) as tcp:
            host, port = tcp.address
            client = WaveKeyNetClient(
                host, port, CLIENT_CFG, metrics=metrics, tracer=tracer
            )
            result = client.establish(rng_seed=11)

            assert result.success
            assert result.state == "established"
            assert result.attempts == 1
            assert len(result.key) == 256
            assert result.rounds and result.rounds[-1].success

            # both sides hold the same key
            record = access.sessions.get(result.session_id)
            assert record.state is SessionState.ESTABLISHED
            assert record.key == result.key
            assert tcp.sessions_served == 1

        # client-side observability: a span tree rooted at net.establish
        # with the protocol stages underneath, and wire metrics
        spans = {s.name for s in tracer.finished_spans()}
        assert {"net.establish", "net.connect", "net.hello",
                "net.round", "net.ot.announce"} <= spans
        snapshot = metrics.snapshot()["counters"]
        assert snapshot['net.frames_sent{endpoint="client"}'] >= 5
        assert snapshot['net.bytes_received{endpoint="client"}'] > 0

    # server-side observability: wire counters live next to the
    # service metrics in the shared registry
    server_counters = access.metrics.snapshot()["counters"]
    assert server_counters["net.server.sessions"] == 1
    assert server_counters['net.frames_received{endpoint="server"}'] >= 5


def test_finished_sessions_release_their_connections(
    tiny_bundle, monkeypatch
):
    """Finished sessions neither pin their connections (socket, buffers,
    inbox) nor grow the registry past its bound: after more sessions
    than the bound, at most the last connection is still alive."""
    monkeypatch.setattr(sessions, "FINISHED_SESSIONS_KEPT", 4)
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access) as tcp:
            host, port = tcp.address
            for seed in range(8):
                assert WaveKeyNetClient(
                    host, port, CLIENT_CFG
                ).establish(rng_seed=seed).success
            gc.collect()
            live = [
                o for o in gc.get_objects()
                if isinstance(o, _ClientConn) and o.server is tcp
            ]
            assert len(live) <= 1
            assert len(access.sessions.records()) == 4
            assert tcp.sessions_served == 8


def test_mismatched_seeds_fail_with_round_results(tiny_bundle):
    base, flipped = mismatched_seeds()
    with make_access_server(tiny_bundle, max_attempts=2) as access:
        pin_seeds(access, base, flipped)
        with WaveKeyTCPServer(access) as tcp:
            host, port = tcp.address
            result = WaveKeyNetClient(
                host, port, CLIENT_CFG
            ).establish(rng_seed=12)

    assert not result.success
    assert result.state == "failed"
    assert result.attempts == 2
    assert result.key is None
    assert len(result.rounds) == 2
    assert not any(r.success for r in result.rounds)
    assert result.failure_reason


def test_load_shedding_maps_to_busy_error(tiny_bundle):
    """With capacity 0... impossible; instead: fill the queue with a
    stalled worker so a second client is shed with a structured
    reason."""
    with make_access_server(
        tiny_bundle, workers=1, queue_capacity=1
    ) as access:
        pin_seeds(access, matched_seed())

        # Stall the single worker: the first client connects and then
        # never sends its announce, so the worker blocks in the round
        # while the next submissions overflow the queue.
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            host, port = tcp.address
            stall = connect(host, port, read_timeout_s=5.0)
            try:
                stall.send(Hello(sender="staller", rng_seed=1))
                stall.recv()  # Accept: the worker is now in our round
                stall.recv()  # SeedGrant
                # One more session saturates the queue (capacity 1)...
                filler = connect(host, port, read_timeout_s=5.0)
                filler.send(Hello(sender="filler", rng_seed=2))
                assert filler.recv().session_id  # Accept (queued)
                # ...so the next client is shed.
                result = WaveKeyNetClient(
                    host, port, CLIENT_CFG
                ).establish(rng_seed=3)
                assert not result.success
                assert result.state == "shed"
                assert "queue_full" in result.failure_reason
                filler.close()
            finally:
                stall.close()
    assert access.metrics.snapshot()["counters"]["net.server.shed"] == 1


def test_spoofed_protocol_sender_is_rejected(tiny_bundle):
    """A message claiming a different sender than the hello identity
    fails the round (anti-spoofing on the wire)."""
    with make_access_server(tiny_bundle, max_attempts=1) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            host, port = tcp.address
            conn = connect(host, port, read_timeout_s=5.0)
            try:
                conn.send(Hello(sender="mobile", rng_seed=4))
                conn.recv()  # Accept
                conn.recv()  # SeedGrant
                conn.send(OTAnnounce(sender="mallory", elements=(5,)))
                result = conn.recv()  # RoundResult
            finally:
                conn.close()
    assert not result.success
    assert "sender mismatch" in result.reason


FIRST_FRAMES_FROM_THE_FUTURE = [
    Hello(sender="mobile", rng_seed=1, version=99),
    ResumeRequest(
        sender="mobile", ticket_id="00" * 16, client_nonce=b"\x01" * 16,
        version=99,
    ),
    RevokeNotice(ticket_id="00" * 16, tag=b"\x02" * 32, version=99),
    StatsRequest(version=99),
    TelemetryRequest(version=99),
    ReplDigest(sender="probe", payload_json="{}", version=99),
    ReplPull(sender="probe", payload_json="{}", version=99),
    ReplPush(sender="probe", payload_json="{}", version=99),
]


@pytest.mark.parametrize("first_frame, code", [
    pytest.param(frame, code, id=type(frame).__name__)
    for frame, code in [
        *((frame, "version") for frame in FIRST_FRAMES_FROM_THE_FUTURE),
        (SeedGrant(attempt=1, seed=matched_seed()), "protocol"),
    ]
])
def test_version_mismatch_rejected(tiny_bundle, first_frame, code):
    """Every first-frame type is version-checked before it is acted
    on; a session frame opening a connection is a protocol error."""
    with make_access_server(tiny_bundle) as access:
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            host, port = tcp.address
            conn = connect(host, port, read_timeout_s=5.0)
            try:
                conn.send(first_frame)
                error = conn.recv()
                with pytest.raises(ConnectionClosed):
                    conn.recv()
            finally:
                conn.close()
    assert error.code == code


def test_version_1_hello_rejected(tiny_bundle):
    """A version-1 client would send one M_A element per OT instance,
    which the batch-form server no longer accepts: it is turned away at
    the Hello, before any OT work."""
    with make_access_server(tiny_bundle) as access:
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            host, port = tcp.address
            conn = connect(host, port, read_timeout_s=5.0)
            try:
                conn.send(Hello(sender="mobile", rng_seed=1, version=1))
                error = conn.recv()
            finally:
                conn.close()
    assert isinstance(error, ErrorFrame)
    assert error.code == "version"


def test_version_2_hello_rejected(tiny_bundle):
    """A version-2 client sends 32-byte compressed curve elements,
    which the x‖y decoder rejects: it is turned away at the Hello with
    the typed version error, before any OT work."""
    with make_access_server(tiny_bundle) as access:
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            host, port = tcp.address
            conn = connect(host, port, read_timeout_s=5.0)
            try:
                conn.send(Hello(
                    sender="mobile", rng_seed=1, group_id="curve25519",
                    version=2,
                ))
                error = conn.recv()
            finally:
                conn.close()
    assert isinstance(error, ErrorFrame)
    assert error.code == VersionMismatch.wire_code
    assert "client sent 2" in error.detail


def test_client_sdk_raises_typed_version_error(tiny_bundle, monkeypatch):
    """The SDK surfaces the server's version rejection as
    VersionMismatch at once, without retrying."""
    monkeypatch.setattr(
        client_module, "Hello", functools.partial(Hello, version=2)
    )
    with make_access_server(tiny_bundle) as access:
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            client = WaveKeyNetClient(*tcp.address, CLIENT_CFG)
            with pytest.raises(VersionMismatch, match="client sent 2"):
                client.establish(rng_seed=1)


def test_client_identity_cannot_claim_server_name(tiny_bundle):
    with make_access_server(tiny_bundle) as access:
        with WaveKeyTCPServer(
            access, name="server", read_timeout_s=5.0
        ) as tcp:
            host, port = tcp.address
            conn = connect(host, port, read_timeout_s=5.0)
            try:
                conn.send(Hello(sender="server", rng_seed=1))
                error = conn.recv()
            finally:
                conn.close()
    assert error.code == "identity"


def test_garbage_bytes_do_not_kill_the_server(tiny_bundle):
    """A connection speaking not-the-protocol is dropped; the server
    keeps serving real clients afterwards."""
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, read_timeout_s=2.0) as tcp:
            host, port = tcp.address
            raw = socket.create_connection((host, port))
            raw.sendall(b"\xff" * 64)
            raw.close()
            result = WaveKeyNetClient(
                host, port, CLIENT_CFG
            ).establish(rng_seed=13)
    assert result.success
    counters = access.metrics.snapshot()["counters"]
    assert counters.get("net.server.transport_errors", 0) >= 1


def test_connect_refused_raises_typed_transport_error():
    # grab a port that is certainly closed
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    client = WaveKeyNetClient(
        "127.0.0.1", port,
        NetClientConfig(max_retries=1, backoff_initial_s=0.01),
    )
    with pytest.raises(TransportError):
        client.establish(rng_seed=1)


def test_concurrent_networked_sessions(tiny_bundle):
    import threading

    # Six clients crafting OT group arithmetic at once contend for CPU,
    # and that wall time bills the server's protocol clock — relax the
    # announce deadline so this test checks concurrency, not the
    # machine's core count (deadline behavior is pinned in test_proxy).
    relaxed = KeyAgreementConfig(eta=tiny_bundle.eta, tau_s=30.0)
    with make_access_server(
        tiny_bundle, workers=3, agreement_config=relaxed
    ) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access) as tcp:
            host, port = tcp.address
            results = []
            lock = threading.Lock()

            def run(i):
                result = WaveKeyNetClient(
                    host, port, CLIENT_CFG
                ).establish(rng_seed=100 + i)
                with lock:
                    results.append(result)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

    assert len(results) == 6
    assert all(r.success for r in results)
    assert len({r.session_id for r in results}) == 6
