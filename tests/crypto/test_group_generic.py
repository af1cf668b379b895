"""Group-generic OT stack: both groups behind one interface.

The OT round roles, the round helper, and the warm-material pool are
written against :class:`repro.crypto.group.Group`; these tests run the
same scenarios over the MODP group and Curve25519 and pin the
cross-group key-separation property of the hash.
"""

import numpy as np
import pytest

from repro.crypto import (
    CURVE25519_GROUP,
    OTMaterialPool,
    WAVEKEY_GROUP_512,
    generate_dh_group,
    hash_group_element,
    resolve_group,
    run_ot_round,
)
from repro.crypto.group import GROUP_CHOICES, Group
from repro.crypto.pool import make_receivers, sender_k1_factor
from repro.errors import ConfigurationError, ProtocolError
from repro.obs.metrics import MetricsRegistry

SMALL_MODP = generate_dh_group(96, rng=13)
GROUPS = [SMALL_MODP, CURVE25519_GROUP]
GROUP_IDS = ["modp", "curve25519"]


class TestResolveGroup:
    def test_choices(self):
        assert set(GROUP_CHOICES) == {"modp512", "curve25519"}

    def test_resolves_names(self):
        assert resolve_group("modp512") is WAVEKEY_GROUP_512
        assert resolve_group("wavekey-512") is WAVEKEY_GROUP_512
        assert resolve_group("curve25519") is CURVE25519_GROUP

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_group("p256")

    def test_both_implement_group(self):
        assert isinstance(WAVEKEY_GROUP_512, Group)
        assert isinstance(CURVE25519_GROUP, Group)


class TestKeySeparation:
    def test_group_id_separates_identical_bytes(self):
        """The same encoded bytes under different group ids must derive
        unrelated keys — a cross-group confusion attack yields nothing."""
        element = bytes(range(32))
        k_modp = hash_group_element(element, group_id="wavekey-512")
        k_curve = hash_group_element(element, group_id="curve25519")
        k_plain = hash_group_element(element)
        assert len({k_modp, k_curve, k_plain}) == 3

    def test_empty_group_id_keeps_historical_digest(self):
        # The MODP fast path hashed ints directly before groups grew
        # ids; an empty id must reproduce that exact digest.
        assert hash_group_element(12345) == hash_group_element(
            12345, group_id=""
        )

    def test_hash_element_binds_the_group(self):
        rng = np.random.default_rng(2)
        e = SMALL_MODP.random_exponent(rng)
        direct = hash_group_element(
            SMALL_MODP.encode_element(SMALL_MODP.power(e)),
            group_id=SMALL_MODP.name,
        )
        assert SMALL_MODP.hash_element(SMALL_MODP.power(e)) == direct


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
class TestGenericOT:
    def test_batch_ot_transfers_choices(self, group):
        pairs = [(bytes([i]), bytes([i + 100])) for i in range(6)]
        choices = [1, 0, 1, 1, 0, 0]
        out = run_ot_round(group, pairs, choices, 1, 2)
        assert out == [pairs[i][c] for i, c in enumerate(choices)]

    def test_pooled_batch_ot(self, group):
        pool = OTMaterialPool(depth=8, rng=7, metrics=MetricsRegistry())
        pool.register(group)
        pool.fill()
        pairs = [(bytes([i]), bytes([i + 50])) for i in range(4)]
        choices = [0, 1, 0, 1]
        out = run_ot_round(group, pairs, choices, 3, 4, pool=pool)
        assert out == [pairs[i][c] for i, c in enumerate(choices)]
        counters = pool.metrics.snapshot()["counters"]
        key = 'crypto.pool.hit{{group="{}",kind="{}"}}'
        assert counters[key.format(group.name, "sender")] == 1
        assert counters[key.format(group.name, "receiver")] == 4

    def test_k1_factor_matches_reference(self, group):
        """g^{-y^2} == S^{-y} in either group."""
        rng = np.random.default_rng(21)
        for _ in range(3):
            y = group.random_exponent(rng)
            s = group.power(y)
            factor = sender_k1_factor(group, y)
            assert factor == group.exp(s, -y)

    def test_encode_decode_roundtrip(self, group):
        rng = np.random.default_rng(5)
        element = group.power(group.random_exponent(rng))
        data = group.encode_element(element)
        assert isinstance(data, bytes)
        assert group.decode_element(data) == element

    def test_batch_encoding_matches_one_by_one(self, group):
        rng = np.random.default_rng(6)
        elements = [group.power(group.random_exponent(rng)) for _ in range(5)]
        # A sum keeps a non-trivial projective Z on the curve.
        elements.append(group.mul(elements[0], elements[1]))
        assert group.encode_elements(elements) == [
            group.encode_element(e) for e in elements
        ]
        assert group.encode_elements([]) == []

    def test_made_receivers_carry_encoding_and_ladder_key(self, group):
        """Pool and client stock build the tuples an inline respond
        would draw, plus g^x's encoding and, on the curve only, the
        ladder key of x."""
        made = make_receivers(group, np.random.default_rng(8), 3)
        rng = np.random.default_rng(8)
        for material in made:
            assert material.x == group.random_exponent(rng)
            assert material.encoded == group.encode_element(material.g_x)
            if group is CURVE25519_GROUP:
                assert material.ladder_key is not None
            else:
                assert material.ladder_key is None

    def test_decode_rejects_garbage(self, group):
        with pytest.raises(ProtocolError):
            group.decode_element(b"")

    def test_exp_many_matches_exp_in_both_shapes(self, group):
        """Every product equals exp: the curve's ladder recovery, MODP's
        per-call comb, and the comb-disabled clone's plain pow."""
        clones = [group]
        if group is not CURVE25519_GROUP:
            clones.append(group.with_comb(False))
        rng = np.random.default_rng(9)
        for g in clones:
            exponents = [g.random_exponent(rng) for _ in range(3)]
            powers = [g.power(e) for e in exponents]
            bases = [g.power(g.random_exponent(rng)) for _ in range(3)]
            encode = g.encode_element
            out = g.exp_many(bases[:1], exponents, powers)
            assert [encode(q) for q in out] == [
                encode(g.exp(bases[0], e)) for e in exponents
            ]
            out = g.exp_many(bases, exponents[:1], powers[:1])
            assert [encode(q) for q in out] == [
                encode(g.exp(b, exponents[0])) for b in bases
            ]
