"""Fault-injection proxy tests: adversary hooks on real connections.

Each test routes a loopback establishment through
:class:`FaultInjectionProxy` and asserts the typed failure (or typed
recovery) the injected fault must produce: drops surface as read
timeouts and retries, corruption as decode errors, delays as the
paper's tau-deadline breach, reordering as a protocol violation, and
taps observe the full frame transcript without perturbing it.
"""

import pytest

from repro.errors import TransportError
from repro.net import (
    FaultInjectionProxy,
    FrameType,
    NetClientConfig,
    WaveKeyNetClient,
    WaveKeyTCPServer,
    corrupt_frames,
    delay_frames,
    drop_frames,
    reorder_once,
)

from tests.net.conftest import make_access_server, matched_seed, pin_seeds

FAST_CFG = NetClientConfig(
    read_timeout_s=2.0, max_retries=2, backoff_initial_s=0.01
)


@pytest.fixture()
def wired(tiny_bundle):
    """An access server with pinned matching seeds behind a TCP front
    end; yields the (access, tcp) pair."""
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, read_timeout_s=2.0) as tcp:
            yield access, tcp


def test_tap_sees_full_transcript_without_perturbing(wired):
    _, tcp = wired
    transcript = []
    with FaultInjectionProxy(
        tcp.address,
        taps=[lambda d, f: transcript.append((d, FrameType(f.type)))],
    ) as proxy:
        result = WaveKeyNetClient(
            *proxy.address, FAST_CFG
        ).establish(rng_seed=21)

    assert result.success
    types = [t for _, t in transcript]
    # the tap observed the whole protocol, in order
    assert types[0] == FrameType.HELLO
    assert types[1] == FrameType.ACCEPT
    for required in (
        FrameType.SEED_GRANT, FrameType.OT_ANNOUNCE,
        FrameType.OT_RESPONSE, FrameType.OT_CIPHERTEXTS,
        FrameType.RECON_CHALLENGE, FrameType.CONFIRM_RESPONSE,
        FrameType.CONFIRM_ACK, FrameType.ROUND_RESULT, FrameType.VERDICT,
    ):
        assert required in types, required
    # both directions were pumped
    directions = {d for d, _ in transcript}
    assert directions == {"c2s", "s2c"}


def test_dropped_announce_recovers_via_retry(wired):
    """Dropping the client's M_A stalls the round until the server's
    read deadline; the server's retry policy grants a fresh round and
    the establishment still succeeds.

    The client waits strictly longer than the server's 2 s, so the
    server's failed round reaches it before its own read timeout would
    abandon the connection and retry from scratch."""
    _, tcp = wired
    with FaultInjectionProxy(
        tcp.address,
        interceptor=drop_frames(types=[FrameType.OT_ANNOUNCE], count=1),
    ) as proxy:
        result = WaveKeyNetClient(
            *proxy.address, NetClientConfig(
                read_timeout_s=4.0, max_retries=2, backoff_initial_s=0.01,
            ),
        ).establish(rng_seed=22)

    assert result.success
    assert len(result.rounds) >= 2
    assert not result.rounds[0].success
    assert "transport" in result.rounds[0].reason
    assert proxy.dropped == 1


def test_corrupted_frame_surfaces_as_decode_error_and_retries(wired):
    """Flipping a payload byte of the client's M_A makes the server's
    decode fail with a typed transport reason; the retry succeeds."""
    _, tcp = wired
    with FaultInjectionProxy(
        tcp.address,
        interceptor=corrupt_frames(types=[FrameType.OT_ANNOUNCE], count=1),
    ) as proxy:
        result = WaveKeyNetClient(
            *proxy.address, FAST_CFG
        ).establish(rng_seed=23)

    assert result.success
    assert not result.rounds[0].success
    assert "transport" in result.rounds[0].reason
    assert "truncated" in result.rounds[0].reason


def test_blackhole_exhausts_retries_with_typed_error(wired):
    """A proxy that swallows every frame leaves the client nothing but
    its bounded retries and a typed TransportError."""
    _, tcp = wired
    with FaultInjectionProxy(
        tcp.address, interceptor=drop_frames(types=None, count=10_000),
    ) as proxy:
        client = WaveKeyNetClient(*proxy.address, FAST_CFG)
        with pytest.raises(TransportError):
            client.establish(rng_seed=24)


def test_delayed_announce_breaches_tau_deadline(wired):
    """Holding M_A past ``gesture_window_s + tau_s`` (2.12 s on the
    protocol clock) forces the paper's deadline failure on the server:
    the session times out rather than establishing."""
    access, tcp = wired
    with FaultInjectionProxy(
        tcp.address,
        interceptor=delay_frames(
            2.5, types=[FrameType.OT_ANNOUNCE], count=None
        ),
    ) as proxy:
        result = WaveKeyNetClient(
            *proxy.address,
            NetClientConfig(read_timeout_s=10.0, max_retries=0),
        ).establish(rng_seed=25)

    assert not result.success
    assert result.state in ("timed_out", "failed")
    reasons = " | ".join(r.reason for r in result.rounds)
    assert "deadline" in reasons or "transport" in reasons


def test_reordered_frames_rejected_by_strict_exchange(wired):
    """The exchange is strictly alternating; a swapped frame pair is a
    protocol violation, not silently tolerated.

    The held M_A stalls both sides until a read deadline fires.  The
    client waits strictly longer than the server's 2 s, so the
    server's failed-round verdict is what the client observes rather
    than a race between the two timeouts."""
    _, tcp = wired
    with FaultInjectionProxy(
        tcp.address,
        interceptor=reorder_once(
            types=[FrameType.OT_ANNOUNCE, FrameType.OT_RESPONSE]
        ),
    ) as proxy:
        result = WaveKeyNetClient(
            *proxy.address, NetClientConfig(
                read_timeout_s=4.0, max_retries=0,
            ),
        ).establish(rng_seed=26)

    assert not result.success
    assert not any(r.success for r in result.rounds)
