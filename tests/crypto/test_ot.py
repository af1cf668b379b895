"""Tests for the batch-form 1-out-of-2 Oblivious Transfer (Fig. 3, CO15)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    CURVE25519_GROUP,
    OTReceiverRound,
    OTSenderRound,
    generate_dh_group,
    run_ot_round,
)
from repro.crypto.ot import OTCiphertexts, instance_key
from repro.crypto.symmetric import xor_cipher
from repro.errors import CryptoError, ProtocolError

PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=25
)


@pytest.fixture(scope="module")
def group():
    return generate_dh_group(96, rng=13)


def wire(group, value):
    """``value`` as a signed big-endian integer one byte wider than the
    prime, the way a peer could put any integer on the wire."""
    width = (group.prime.bit_length() + 7) // 8 + 1
    return value.to_bytes(width, "big", signed=True)


def bad_value(group, bad):
    return {"prime": group.prime, "prime_plus": group.prime + 1}.get(bad, bad)


class TestSingleInstance:
    @pytest.mark.parametrize("choice", [0, 1])
    def test_receiver_gets_selected_secret(self, group, choice):
        sender = OTSenderRound(group, rng=1)
        receiver = OTReceiverRound(group, rng=2)
        responses = receiver.respond(sender.announce(), [choice])
        ciphertexts = sender.encrypt(responses, [(b"secret-0", b"secret-1")])
        assert receiver.decrypt(ciphertexts) == [
            b"secret-1" if choice else b"secret-0"
        ]

    @pytest.mark.parametrize("choice", [0, 1])
    def test_unselected_secret_is_garbage(self, group, choice):
        """Decrypting the other ciphertext with the receiver's key yields
        noise, not the secret — the receiver learns exactly one."""
        sender = OTSenderRound(group, rng=3)
        receiver = OTReceiverRound(group, rng=4)
        announce = sender.announce()
        responses = receiver.respond(announce, [choice])
        (ciphertexts,) = sender.encrypt(
            responses, [(b"secret-0", b"secret-1")]
        )
        s = group.decode_element(announce)
        element = pow(s, receiver._exponents[0], group.prime)
        key = instance_key(
            group, 0, announce, responses[0], group.encode_element(element)
        )
        other_cipher = ciphertexts.e0 if choice else ciphertexts.e1
        other_ctx = b"ot0" if choice else b"ot1"
        leaked = xor_cipher(other_cipher, key, other_ctx)
        assert leaked != (b"secret-0" if choice else b"secret-1")

    def test_sender_view_independent_of_choice(self, group):
        """R_i is a uniformly random group element under either choice;
        the sender cannot tell which secret was picked.  (Statistical
        smoke check: both choices produce in-group elements and the maps
        are bijective re-randomizations.)"""
        announce = OTSenderRound(group, rng=5).announce()
        for choice in (0, 1):
            for seed in range(5):
                receiver = OTReceiverRound(group, rng=seed)
                (response,) = receiver.respond(announce, [choice])
                assert group.contains(group.decode_element(response))

    def test_encrypt_before_announce_raises(self, group):
        with pytest.raises(ProtocolError):
            OTSenderRound(group, rng=0).encrypt([b"\x02"], [(b"a", b"b")])

    def test_decrypt_before_respond_raises(self, group):
        with pytest.raises(ProtocolError):
            OTReceiverRound(group, rng=0).decrypt([OTCiphertexts(b"", b"")])

    def test_bad_choice_rejected(self, group):
        sender = OTSenderRound(group, rng=1)
        receiver = OTReceiverRound(group, rng=2)
        with pytest.raises(ProtocolError):
            receiver.respond(sender.announce(), [0, 2])

    def test_unequal_secret_lengths_rejected(self, group):
        sender = OTSenderRound(group, rng=1)
        receiver = OTReceiverRound(group, rng=2)
        responses = receiver.respond(sender.announce(), [0])
        with pytest.raises(CryptoError):
            sender.encrypt(responses, [(b"ab", b"abc")])

    def test_out_of_group_messages_rejected(self, group):
        sender = OTSenderRound(group, rng=1)
        sender.announce()
        with pytest.raises(ProtocolError):
            sender.encrypt([wire(group, 0)], [(b"a", b"b")])
        receiver = OTReceiverRound(group, rng=2)
        with pytest.raises(ProtocolError):
            receiver.respond(wire(group, group.prime), [0])

    @pytest.mark.parametrize("bad", [0, -1, "prime", "prime_plus"])
    def test_receiver_rejects_m_a_outside_group(self, group, bad):
        """Every S outside [1, p) is rejected before any exponent is
        spent — a malicious sender cannot force degenerate keys."""
        receiver = OTReceiverRound(group, rng=1)
        with pytest.raises(ProtocolError):
            receiver.respond(wire(group, bad_value(group, bad)), [0])

    @pytest.mark.parametrize("bad", [0, -1, "prime", "prime_plus"])
    def test_sender_rejects_m_b_outside_group(self, group, bad):
        sender = OTSenderRound(group, rng=1)
        sender.announce()
        with pytest.raises(ProtocolError):
            sender.encrypt([wire(group, bad_value(group, bad))], [(b"a", b"b")])


class TestBatch:
    def test_batch_selects_per_choice(self, group):
        pairs = [(bytes([i]), bytes([i + 100])) for i in range(8)]
        choices = [0, 1, 1, 0, 1, 0, 0, 1]
        out = run_ot_round(group, pairs, choices, 1, 2)
        expected = [
            pairs[i][c] for i, c in enumerate(choices)
        ]
        assert out == expected

    def test_batch_length_mismatch(self, group):
        with pytest.raises(ProtocolError):
            run_ot_round(group, [(b"a", b"b")], [0, 1])

    def test_response_count_must_match_pairs(self, group):
        sender = OTSenderRound(group, rng=1)
        responses = OTReceiverRound(group, rng=2).respond(
            sender.announce(), [0, 1]
        )
        with pytest.raises(ProtocolError):
            sender.encrypt(responses, [(b"a", b"b")])


SMALL_MODP = generate_dh_group(96, rng=13)
ROUND_GROUPS = pytest.mark.parametrize(
    "round_group", [SMALL_MODP, CURVE25519_GROUP], ids=["modp", "curve25519"]
)
choice_vectors = st.lists(st.integers(0, 1), min_size=1, max_size=8)


def _round(group, choices, seed):
    """One round over distinct 16-byte secrets; returns everything a
    test needs to play the receiver against the sender's ciphertexts."""
    pairs = [
        (bytes([2 * i]) * 16, bytes([2 * i + 1]) * 16)
        for i in range(len(choices))
    ]
    sender = OTSenderRound(group, rng=seed)
    receiver = OTReceiverRound(group, rng=seed + 1)
    announce = sender.announce()
    responses = receiver.respond(announce, choices)
    return pairs, sender, receiver, announce, responses


def _receiver_key(group, receiver, announce, responses, i, j):
    """The receiver's key for instance ``j`` placed at index ``i``."""
    s = group.decode_element(announce)
    return instance_key(
        group, i, announce, responses[j],
        group.encode_element(group.exp(s, receiver._exponents[j])),
    )


@ROUND_GROUPS
class TestRoundProperties:
    @PROPERTY_SETTINGS
    @given(choices=choice_vectors, seed=st.integers(0, 2**16))
    def test_receiver_gets_exactly_the_selected_member(
        self, round_group, choices, seed
    ):
        group = round_group
        pairs, sender, receiver, announce, responses = _round(
            group, choices, seed
        )
        ciphertexts = sender.encrypt(responses, pairs)
        assert receiver.decrypt(ciphertexts) == [
            pair[c] for pair, c in zip(pairs, choices)
        ]
        for i, (c, pair) in enumerate(zip(choices, ciphertexts)):
            key = _receiver_key(group, receiver, announce, responses, i, i)
            other = xor_cipher(
                pair.e0 if c else pair.e1, key, b"ot0" if c else b"ot1"
            )
            assert other != pairs[i][1 - c]

    @PROPERTY_SETTINGS
    @given(
        choices=st.lists(st.integers(0, 1), min_size=2, max_size=8),
        data=st.data(),
    )
    def test_replayed_response_is_keyed_by_its_index(
        self, round_group, choices, data
    ):
        """A receiver that replays R_j at index i cannot open pair i
        with its key for j: the index is bound into every key."""
        group = round_group
        n = len(choices)
        j = data.draw(st.integers(0, n - 1), label="j")
        i = data.draw(
            st.integers(0, n - 1).filter(lambda k: k != j), label="i"
        )
        pairs, sender, receiver, announce, responses = _round(
            group, choices, seed=7
        )
        replayed = list(responses)
        replayed[i] = responses[j]
        ciphertexts = sender.encrypt(replayed, pairs)
        key_j = _receiver_key(group, receiver, announce, responses, j, j)
        key_i = _receiver_key(group, receiver, announce, responses, i, j)
        assert key_i != key_j
        c = choices[j]
        pair = ciphertexts[i]
        opened = xor_cipher(
            pair.e1 if c else pair.e0, key_j, b"ot1" if c else b"ot0"
        )
        assert opened not in pairs[i]
        # Index-bound, the replayed response does open pair i.
        assert xor_cipher(
            pair.e1 if c else pair.e0, key_i, b"ot1" if c else b"ot0"
        ) == pairs[i][c]
