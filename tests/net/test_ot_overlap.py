"""The server crafts each OT reply while the client crafts its own.

``_NetAgreement`` computes its M_B as soon as the client's M_A is in,
and its M_E as soon as the client's M_B is in, and only then waits for
the client's frame of the same phase.  These tests record the server
party's calls around a real loopback establishment: crafting must come
before the matching wait, while the frames the server sends keep the
strictly alternating order of Fig. 4.
"""

import pytest

from repro.errors import ConnectionTimeout
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.net import server as net_server
from repro.protocol.agreement import AgreementParty, KeyAgreementConfig
from repro.protocol.messages import OTAnnounce, OTResponse
from repro.protocol.timing import ProtocolClock

from tests.net.conftest import make_access_server, matched_seed, pin_seeds

CLIENT_CFG = NetClientConfig(
    read_timeout_s=5.0, max_retries=0, backoff_initial_s=0.01
)

#: What the server receives and sends in one round, in wire order.
WIRE_ORDER = [
    ("send", "SeedGrant"),
    ("expect", "OTAnnounce"),
    ("send", "OTAnnounce"),
    ("expect", "OTResponse"),
    ("send", "OTResponse"),
    ("expect", "OTCiphertextBatch"),
    ("send", "OTCiphertextBatch"),
    ("expect", "ReconciliationChallenge"),
    ("send", "ConfirmationResponse"),
    ("expect", "ConfirmAck"),
    ("send", "RoundResult"),
]


@pytest.fixture
def server_calls(monkeypatch):
    """Log of the server party's crafts, waits and sends."""
    log = []

    def record_craft(method):
        original = getattr(AgreementParty, method)

        def wrapper(self, *args, **kwargs):
            if self.name != CLIENT_CFG.name:
                log.append(("craft", method))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(AgreementParty, method, wrapper)

    for method in ("craft_announce", "craft_response", "craft_ciphertexts"):
        record_craft(method)

    original_expect = net_server._NetAgreement._expect

    def expect(self, message_type):
        log.append(("expect", message_type.__name__))
        return original_expect(self, message_type)

    original_send = net_server._WorkerChannel.send

    def send(self, message):
        log.append(("send", type(message).__name__))
        return original_send(self, message)

    monkeypatch.setattr(net_server._NetAgreement, "_expect", expect)
    monkeypatch.setattr(net_server._WorkerChannel, "send", send)
    return log


def test_server_crafts_before_waiting_and_keeps_wire_order(
    tiny_bundle, server_calls
):
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            result = WaveKeyNetClient(*tcp.address, CLIENT_CFG).establish(
                rng_seed=41
            )
    assert result.success, result.failure_reason

    def at(entry):
        return server_calls.index(entry)

    assert at(("craft", "craft_response")) < at(("expect", "OTResponse"))
    assert at(("craft", "craft_ciphertexts")) < at(
        ("expect", "OTCiphertextBatch")
    )
    # The M_B is crafted from the client's M_A, after the announce went
    # out; the M_E from the client's M_B, after the M_B went out.
    assert at(("send", "OTAnnounce")) < at(("craft", "craft_response"))
    assert at(("send", "OTResponse")) < at(("craft", "craft_ciphertexts"))

    wire = [entry for entry in server_calls if entry[0] != "craft"]
    assert wire[: len(WIRE_ORDER)] == WIRE_ORDER


class ScriptedChannel:
    """A worker channel that replays fixed client frames."""

    def __init__(self, frames):
        self.inbox = list(frames)
        self.sent = []

    def send(self, message):
        self.sent.append(type(message).__name__)

    def recv(self, timeout_s=None):
        if not self.inbox:
            raise ConnectionTimeout("no scripted frame left")
        return self.inbox.pop(0)


def test_craft_error_consumes_the_client_frame_first():
    """A bad client M_A fails the round only after the client's M_B is
    read, so no stale frame is left for the next attempt."""
    seed = matched_seed()
    element = bytes(64)
    channel = ScriptedChannel([
        # Not one element: craft_response rejects the announce.
        OTAnnounce(sender="mobile", elements=(element,) * (len(seed) - 1)),
        OTResponse(sender="mobile", elements=(element,) * len(seed)),
    ])
    config = KeyAgreementConfig()
    agreement = net_server._NetAgreement(channel, "mobile", "server")
    outcome = agreement(
        seed, seed, config,
        clock=ProtocolClock(start_s=config.gesture_window_s), rng=3,
    )
    assert not outcome.success
    assert outcome.failure_reason.startswith("protocol:")
    assert "OT announces" in outcome.failure_reason
    assert channel.inbox == []
    assert channel.sent == ["SeedGrant", "OTAnnounce", "RoundResult"]
