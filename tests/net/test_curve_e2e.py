"""End-to-end establishment over Curve25519 on real sockets.

The same loopback scenarios the MODP stack is tested with, run with
both parties configured for the elliptic-curve group: the event-loop
front end, the sharding gateway splice, and the typed rejection when
client and server disagree on the group.
"""

import pytest

from repro.crypto import CURVE25519_GROUP
from repro.errors import GroupMismatch
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.protocol import KeyAgreementConfig

from tests.net.conftest import make_access_server, matched_seed, pin_seeds

FRONT_ENDS = [WaveKeyTCPServer]
FRONT_END_IDS = ["eventloop"]

CURVE_CFG = NetClientConfig(
    group=CURVE25519_GROUP, read_timeout_s=5.0, max_retries=1,
    backoff_initial_s=0.01,
)
MODP_CFG = NetClientConfig(
    read_timeout_s=5.0, max_retries=1, backoff_initial_s=0.01,
)


def curve_agreement(bundle):
    return KeyAgreementConfig(eta=bundle.eta, group=CURVE25519_GROUP)


@pytest.fixture(params=FRONT_ENDS, ids=FRONT_END_IDS)
def curve_server(request, tiny_bundle):
    """A curve25519-configured access server behind one front end."""
    with make_access_server(
        tiny_bundle, agreement_config=curve_agreement(tiny_bundle)
    ) as access:
        pin_seeds(access, matched_seed())
        with request.param(access, read_timeout_s=5.0) as tcp:
            yield access, tcp


def test_curve_establishment_over_loopback(curve_server):
    _, tcp = curve_server
    result = WaveKeyNetClient(*tcp.address, CURVE_CFG).establish(rng_seed=31)
    assert result.success, result.failure_reason
    assert len(result.key) > 0


def test_curve_sessions_negotiate_the_group(curve_server):
    access, tcp = curve_server
    # Stock the curve material first: the background refill may not
    # have produced any by the time a session takes its tuples.
    access.ot_pool.fill(CURVE25519_GROUP)
    result = WaveKeyNetClient(*tcp.address, CURVE_CFG).establish(rng_seed=32)
    assert result.success
    # The pool served curve material, not MODP material.
    counters = access.metrics.snapshot()["counters"]
    curve_hits = sum(
        v for k, v in counters.items()
        if k.startswith("crypto.pool.hit") and 'group="curve25519"' in k
    )
    assert curve_hits > 0


def test_modp_client_rejected_by_curve_server(curve_server):
    _, tcp = curve_server
    with pytest.raises(GroupMismatch, match="curve25519"):
        WaveKeyNetClient(*tcp.address, MODP_CFG).establish(rng_seed=33)


def test_curve_client_rejected_by_modp_server(tiny_bundle):
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            with pytest.raises(GroupMismatch, match="wavekey-512"):
                WaveKeyNetClient(
                    *tcp.address, CURVE_CFG
                ).establish(rng_seed=34)


def test_curve_establishment_through_gateway(tiny_bundle):
    """The gateway splices opaque frames: the Hello group block passes
    through to the backend untouched and the session establishes."""
    from repro.cluster import WaveKeyGateway

    with make_access_server(
        tiny_bundle, agreement_config=curve_agreement(tiny_bundle)
    ) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            backend = f"{tcp.address[0]}:{tcp.address[1]}"
            with WaveKeyGateway(
                [backend], probe_interval_s=0.2, connect_timeout_s=2.0,
            ) as gateway:
                result = WaveKeyNetClient(
                    *gateway.address, CURVE_CFG
                ).establish(rng_seed=35)
    assert result.success, result.failure_reason


def test_client_warms_the_group_before_hello(curve_server, monkeypatch):
    """The client has no pool: OpenSSL, which its fixed-base powers and
    ladder keys run on, must be loaded once the client is constructed,
    not on the M_A deadline path."""
    _, tcp = curve_server
    warmed = []
    for name in ("power", "ladder_key"):
        method = getattr(CURVE25519_GROUP, name)
        monkeypatch.setattr(
            CURVE25519_GROUP, name,
            lambda n, name=name, method=method: (
                warmed.append(name) or method(n)
            ),
        )
    client = WaveKeyNetClient(*tcp.address, CURVE_CFG)
    assert warmed == ["power", "ladder_key"]
    result = client.establish(rng_seed=35)
    assert result.success, result.failure_reason
