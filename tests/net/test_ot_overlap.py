"""The server crafts each OT reply while the client crafts its own.

The server's round steps compute its M_B as soon as the client's M_A is
in, and its M_E as soon as the client's M_B is in, and only then wait
for the client's frame of the same phase.  These tests record the
server party's calls around a real loopback establishment: crafting
must come before the matching frame is taken, while the frames the
server sends keep the strictly alternating order of Fig. 4.  The
scripted-channel tests pin the server's verdicts on a round's failure
paths.
"""

import pytest

from repro.crypto.hashes import hmac_digest
from repro.errors import ConnectionClosed, ConnectionTimeout
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.net import server as net_server
from repro.net.codec import ConfirmAck, RoundResult
from repro.protocol.agreement import AgreementParty, KeyAgreementConfig
from repro.protocol.messages import (
    ConfirmationResponse,
    OTAnnounce,
    OTCiphertextBatch,
    OTResponse,
)
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
    """Log of the server party's crafts, received frames and sends."""
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

    original_recv = net_server._WorkerChannel.recv

    def recv(self, *args, **kwargs):
        message = original_recv(self, *args, **kwargs)
        log.append(("expect", type(message).__name__))
        return message

    original_send = net_server._WorkerChannel.send

    def send(self, message):
        log.append(("send", type(message).__name__))
        return original_send(self, message)

    monkeypatch.setattr(net_server._WorkerChannel, "recv", recv)
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


class MobileChannel(ScriptedChannel):
    """A worker channel played by a real mobile party: each client frame
    is crafted when the server reads it, from the server frames sent so
    far; ``ack(party, challenge)`` closes the round."""

    def __init__(self, seed, config, ack, late_s=0.0, clock=None):
        super().__init__([])
        self.seen = {}
        self.late_s = late_s
        self.clock = clock
        self.frames = self._frames(
            AgreementParty("mobile", seed, config, rng=5), ack
        )

    def _frames(self, party, ack):
        yield party.craft_announce()
        yield party.craft_response(self.seen[OTAnnounce])
        yield party.craft_ciphertexts(self.seen[OTResponse])
        party.receive_ciphertexts(self.seen[OTCiphertextBatch])
        party.build_preliminary_key()
        challenge = party.craft_challenge()
        yield challenge
        party.verify_confirmation(self.seen[ConfirmationResponse])
        yield ack(party, challenge)

    def send(self, message):
        super().send(message)
        self.seen[type(message)] = message

    def recv(self, timeout_s=None):
        message = next(self.frames)
        if isinstance(message, OTAnnounce) and self.late_s:
            self.clock.advance(self.late_s)
        return message


def run_server(channel, seed, config, clock=None):
    clock = clock or ProtocolClock(start_s=config.gesture_window_s)
    agreement = net_server._NetAgreement(channel, "mobile", "server")
    return agreement(seed, seed, config, clock=clock, rng=3)


ROUND_SENT = [
    "SeedGrant", "OTAnnounce", "OTResponse", "OTCiphertextBatch",
    "ConfirmationResponse", "RoundResult",
]


def test_client_reported_confirmation_failure():
    seed, config = matched_seed(), KeyAgreementConfig()
    channel = MobileChannel(
        seed, config, lambda party, challenge: ConfirmAck(ok=False, tag=b"")
    )
    outcome = run_server(channel, seed, config)
    assert not outcome.success
    assert outcome.failure_reason == (
        "agreement: client reported HMAC confirmation failure"
    )
    assert channel.sent == ROUND_SENT


def test_ack_under_the_wrong_key_fails_the_round():
    seed, config = matched_seed(), KeyAgreementConfig()

    def wrong_key_ack(party, challenge):
        return ConfirmAck(
            ok=True, tag=hmac_digest(bytes(32), challenge.nonce + b"ack")
        )

    channel = MobileChannel(seed, config, wrong_key_ack)
    outcome = run_server(channel, seed, config)
    assert not outcome.success
    assert outcome.failure_reason.startswith(
        "agreement: confirmation ack HMAC mismatch"
    )
    assert channel.sent == ROUND_SENT


def true_ack(party, challenge):
    return ConfirmAck(
        ok=True,
        tag=hmac_digest(party.final_key.to_bytes(), challenge.nonce + b"ack"),
    )


def test_lost_success_result_fails_the_round():
    """The keys agree, but the RoundResult that says so cannot be sent:
    the round counts as failed on the server too."""
    seed, config = matched_seed(), KeyAgreementConfig()

    class LosingChannel(MobileChannel):
        def send(self, message):
            if isinstance(message, RoundResult) and message.success:
                raise ConnectionClosed("send failed: connection closed")
            super().send(message)

    channel = LosingChannel(seed, config, true_ack)
    outcome = run_server(channel, seed, config)
    assert not outcome.success
    assert outcome.failure_reason.startswith("transport:")
    assert outcome.mobile_key is None and outcome.server_key is None
    assert channel.sent == ROUND_SENT[:-1]


def test_matching_ack_establishes():
    seed, config = matched_seed(), KeyAgreementConfig()
    channel = MobileChannel(seed, config, true_ack)
    outcome = run_server(channel, seed, config)
    assert outcome.success, outcome.failure_reason
    assert outcome.keys_match
    assert channel.sent == ROUND_SENT


def test_late_client_announce_breaches_the_deadline():
    seed, config = matched_seed(), KeyAgreementConfig()
    clock = ProtocolClock(start_s=config.gesture_window_s)
    channel = MobileChannel(
        seed, config, true_ack, late_s=config.tau_s + 0.01, clock=clock
    )
    outcome = run_server(channel, seed, config, clock)
    assert not outcome.success
    assert outcome.failure_reason.startswith("deadline: M_A (mobile)")
    assert channel.sent == ["SeedGrant", "RoundResult"]
