"""The Fig. 4 round written once per role, as sans-IO steps.

``mobile_round`` and ``server_round`` yield ``Send``, ``Expect`` and
``Stage`` steps over an :class:`AgreementParty`.  These tests drive the
two roles against each other by hand, with no transport, and pin what
the in-process run makes of them: the Fig. 4 delivery order, and which
side's announce breaches the deadline.
"""

import numpy as np
import pytest

from repro.crypto import generate_dh_group
from repro.crypto.curve import CURVE25519_GROUP
from repro.errors import ProtocolError
from repro.protocol import (
    AgreementParty,
    KeyAgreementConfig,
    SimulatedTransport,
    run_key_agreement,
)
from repro.protocol.agreement import (
    Expect,
    Send,
    mobile_round,
    server_round,
)
from repro.protocol.messages import OTResponse
from repro.utils.bits import BitSequence

TEST_GROUP = generate_dh_group(96, rng=66)
GROUPS = [TEST_GROUP, CURVE25519_GROUP]
GROUP_IDS = ["modp96", "curve25519"]

#: Who sends what in one round: Fig. 4, then the mobile's ack.
WIRE_ORDER = [
    ("mobile", "OTAnnounce"),
    ("server", "OTAnnounce"),
    ("mobile", "OTResponse"),
    ("server", "OTResponse"),
    ("mobile", "OTCiphertextBatch"),
    ("server", "OTCiphertextBatch"),
    ("mobile", "ReconciliationChallenge"),
    ("server", "ConfirmationResponse"),
    ("mobile", "ConfirmAck"),
]


def make_config(group):
    return KeyAgreementConfig(key_length_bits=128, eta=0.1, group=group)


def parties(group, seed_rng=1):
    seed = BitSequence.random(36, np.random.default_rng(seed_rng))
    config = make_config(group)
    mobile = AgreementParty("mobile", seed, config, rng=2)
    server = AgreementParty(
        "server", seed, config, rng=3, own_sequences_first=False
    )
    return mobile, server


def play(mobile_steps, server_steps):
    """Step both roles by hand, in turns, a role that waits for a frame
    not yet sent skipping its turn; returns ``(sender, frame type)`` in
    the order the frames were sent."""
    steps = {"mobile": mobile_steps, "server": server_steps}
    peer = {"mobile": "server", "server": "mobile"}
    inbox = {"mobile": [], "server": []}
    current = {name: next(role) for name, role in steps.items()}
    sent = []
    while current:
        moved = False
        for name in list(current):
            step = current[name]
            if isinstance(step, Expect):
                if not inbox[name]:
                    continue
                value = inbox[name].pop(0)
            else:
                value = None
                if isinstance(step, Send):
                    sent.append((name, type(step.message).__name__))
                    inbox[peer[name]].append(step.message)
            moved = True
            try:
                current[name] = steps[name].send(value)
            except StopIteration:
                del current[name]
        assert moved, f"both roles wait: {current}"
    return sent


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_roles_alone_play_the_wire_order(group):
    mobile, server = parties(group)
    sent = play(
        mobile_round(mobile, "server"), server_round(server, "mobile")
    )
    assert sent == WIRE_ORDER
    assert mobile.session_key() == server.session_key()


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("role", [mobile_round, server_round])
def test_unexpected_frame_names_the_expected_type(group, role):
    party = parties(group)[role is server_round]
    steps = role(party, "server" if role is mobile_round else "mobile")
    while not isinstance(next(steps), Expect):
        pass
    with pytest.raises(ProtocolError, match="expected OTAnnounce"):
        steps.send(OTResponse(sender=party.name, elements=(b"\x01",)))


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("late", ["mobile", "server"])
def test_relay_delay_breaches_the_late_sides_deadline(group, late):
    """Both in-process roles run on one clock, so each checks the
    other's M_A: a relay that holds one direction's M_A past ``2 + tau``
    fails the round on that direction's announce."""
    config = make_config(group)

    def relay(sender, receiver, message):
        held = sender == late and type(message).__name__ == "OTAnnounce"
        return message, config.tau_s + 0.05 if held else 0.0

    seed = BitSequence.random(36, np.random.default_rng(4))
    outcome = run_key_agreement(
        seed, seed, config,
        transport=SimulatedTransport(interceptor=relay), rng=5,
    )
    assert not outcome.success
    assert outcome.failure_reason.startswith(f"deadline: M_A ({late})")


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_in_process_run_carries_the_eight_fig4_messages(group):
    """The ack closes the round without crossing the simulated channel."""
    log = []
    transport = SimulatedTransport(
        taps=[lambda s, r, m: log.append((s, r, type(m).__name__))]
    )
    seed = BitSequence.random(36, np.random.default_rng(6))
    outcome = run_key_agreement(
        seed, seed, make_config(group), transport=transport, rng=7
    )
    assert outcome.success and outcome.keys_match
    assert log == [
        (sender, "server" if sender == "mobile" else "mobile", name)
        for sender, name in WIRE_ORDER[:-1]
    ]
    assert transport.delivered_count == 8
