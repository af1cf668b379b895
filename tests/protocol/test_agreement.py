"""Tests for the bidirectional OT key agreement (Fig. 4)."""

import numpy as np
import pytest

from repro.crypto import generate_dh_group
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol import (
    AgreementParty,
    KeyAgreementConfig,
    ProtocolClock,
    SimulatedTransport,
    run_key_agreement,
)
from repro.utils.bits import BitSequence

# A small group keeps the ~100 modexps per run fast in unit tests.
TEST_GROUP = generate_dh_group(96, rng=99)


def make_config(**kwargs):
    defaults = dict(key_length_bits=128, eta=0.1, group=TEST_GROUP)
    defaults.update(kwargs)
    return KeyAgreementConfig(**defaults)


def seeds_with_mismatches(length, n_flips, seed=0):
    rng = np.random.default_rng(seed)
    s_m = BitSequence.random(length, rng)
    flipped = s_m.array.copy()
    if n_flips:
        idx = rng.choice(length, size=n_flips, replace=False)
        flipped[idx] ^= 1
    return s_m, BitSequence(flipped)


class TestConfig:
    def test_segment_bits_formula(self):
        config = make_config(key_length_bits=256)
        assert config.segment_bits(48) == 3  # ceil(256 / 96)
        assert config.material_bits(48) == 288

    def test_ecc_tolerance_matches_eq4_radius(self):
        config = make_config(key_length_bits=256, eta=0.04)
        # floor(0.04 * 48) = 1 tolerated seed mismatch (Eq. 4 radius).
        assert config.tolerated_seed_mismatches(48) == 1
        assert make_config(eta=0.1).tolerated_seed_mismatches(48) == 4

    def test_announce_deadline(self):
        config = make_config(tau_s=0.12, gesture_window_s=2.0)
        assert config.announce_deadline_s == pytest.approx(2.12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_config(key_length_bits=4)
        with pytest.raises(ConfigurationError):
            make_config(eta=0.6)


class TestSuccessfulAgreement:
    def test_identical_seeds(self):
        s_m, s_r = seeds_with_mismatches(36, 0)
        outcome = run_key_agreement(s_m, s_r, make_config(), rng=1)
        assert outcome.success
        assert outcome.keys_match
        assert len(outcome.mobile_key) == 128

    def test_seeds_within_eta(self):
        # eta = 0.1 over 36 bits tolerates ceil(3.6) = 4 mismatches.
        s_m, s_r = seeds_with_mismatches(36, 3)
        outcome = run_key_agreement(s_m, s_r, make_config(), rng=2)
        assert outcome.success and outcome.keys_match
        assert outcome.seed_mismatch_bits == 3

    def test_key_has_requested_length(self):
        s_m, s_r = seeds_with_mismatches(36, 0)
        for l_k in (128, 168, 256):
            outcome = run_key_agreement(
                s_m, s_r, make_config(key_length_bits=l_k), rng=3
            )
            assert len(outcome.mobile_key) == l_k

    def test_keys_differ_across_runs(self):
        """The key comes from fresh OT randomness, not from the seeds."""
        s_m, s_r = seeds_with_mismatches(36, 0)
        k1 = run_key_agreement(s_m, s_r, make_config(), rng=4).mobile_key
        k2 = run_key_agreement(s_m, s_r, make_config(), rng=5).mobile_key
        assert k1 != k2

    def test_elapsed_includes_gesture(self):
        s_m, s_r = seeds_with_mismatches(36, 0)
        outcome = run_key_agreement(s_m, s_r, make_config(), rng=6)
        assert outcome.elapsed_s > 2.0


class TestPooledAgreement:
    def test_pool_capability_marker(self):
        """The access server keys ``pool=`` forwarding off this marker;
        injected test doubles without it keep their exact signatures."""
        assert getattr(run_key_agreement, "accepts_ot_pool", False)

    def test_pooled_run_succeeds_and_hits(self):
        from repro.crypto import OTMaterialPool

        config = make_config()
        pool = OTMaterialPool(depth=128, rng=11)
        pool.register(config.group)
        pool.fill()
        s_m, s_r = seeds_with_mismatches(36, 2)
        outcome = run_key_agreement(s_m, s_r, config, rng=12, pool=pool)
        assert outcome.success and outcome.keys_match
        counters = pool.metrics.snapshot()["counters"]
        assert counters['crypto.pool.hit{group="random-96",kind="sender"}'] > 0
        assert counters['crypto.pool.hit{group="random-96",kind="receiver"}'] > 0

    def test_exhausted_pool_still_succeeds(self):
        """Pool exhaustion must degrade to inline compute, never fail
        an agreement."""
        from repro.crypto import OTMaterialPool

        config = make_config()
        pool = OTMaterialPool(depth=1, rng=13)
        pool.register(config.group)
        pool.fill()  # 1 tuple per kind vs 2 senders and 2 * 36 receivers
        s_m, s_r = seeds_with_mismatches(36, 0)
        outcome = run_key_agreement(s_m, s_r, config, rng=14, pool=pool)
        assert outcome.success and outcome.keys_match
        counters = pool.metrics.snapshot()["counters"]
        assert counters['crypto.pool.miss{group="random-96",kind="sender"}'] > 0
        assert counters['crypto.pool.miss{group="random-96",kind="receiver"}'] > 0


class TestFailureModes:
    def test_seeds_beyond_eta_fail(self):
        s_m, s_r = seeds_with_mismatches(36, 18)
        outcome = run_key_agreement(s_m, s_r, make_config(), rng=7)
        assert not outcome.success
        assert outcome.mobile_key is None
        assert "agreement" in outcome.failure_reason

    def test_random_seeds_fail(self):
        rng = np.random.default_rng(8)
        s_m = BitSequence.random(36, rng)
        s_r = BitSequence.random(36, rng)
        outcome = run_key_agreement(s_m, s_r, make_config(), rng=9)
        assert not outcome.success

    def test_deadline_violation_discards_instance(self):
        s_m, s_r = seeds_with_mismatches(36, 0)
        slow = SimulatedTransport(base_latency_s=0.5)  # 500 ms per hop
        outcome = run_key_agreement(
            s_m, s_r, make_config(), transport=slow, rng=10
        )
        assert not outcome.success
        assert "deadline" in outcome.failure_reason

    def test_unequal_seed_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            run_key_agreement(
                BitSequence.zeros(36), BitSequence.zeros(35), make_config()
            )


class TestAgreementParty:
    def test_message_flow_ordering_enforced(self):
        config = make_config()
        party = AgreementParty(
            "mobile", BitSequence.random(36, np.random.default_rng(1)),
            config, rng=1,
        )
        with pytest.raises(ProtocolError):
            party.build_preliminary_key()
        with pytest.raises(ProtocolError):
            party.craft_challenge()

    def test_wrong_batch_sizes_rejected(self):
        config = make_config()
        rng = np.random.default_rng(2)
        party = AgreementParty(
            "mobile", BitSequence.random(36, rng), config, rng=2
        )
        other = AgreementParty(
            "server", BitSequence.random(24, rng), config, rng=3
        )
        announce = other.craft_announce()
        response = party.craft_response(announce)  # 36 instances
        with pytest.raises(ProtocolError):
            other.craft_ciphertexts(response)  # expects 24
        # M_A carries exactly one element per round.
        doubled = type(announce)(announce.sender, announce.elements * 2)
        with pytest.raises(ProtocolError):
            party.craft_response(doubled)

    def test_preliminary_keys_match_where_seeds_agree(self):
        config = make_config()
        rng = np.random.default_rng(4)
        s_m, s_r = seeds_with_mismatches(36, 5, seed=4)
        mobile = AgreementParty("mobile", s_m, config, rng=5,
                                own_sequences_first=True)
        server = AgreementParty("server", s_r, config, rng=6,
                                own_sequences_first=False)
        announce_m = mobile.craft_announce()
        announce_r = server.craft_announce()
        response_m = mobile.craft_response(announce_r)
        response_r = server.craft_response(announce_m)
        cipher_m = mobile.craft_ciphertexts(response_r)
        cipher_r = server.craft_ciphertexts(response_m)
        mobile.receive_ciphertexts(cipher_r)
        server.receive_ciphertexts(cipher_m)
        k_m = mobile.build_preliminary_key()
        k_r = server.build_preliminary_key()
        l_b = config.segment_bits(36)
        for i in range(36):
            seg_m = k_m[2 * i * l_b : 2 * (i + 1) * l_b]
            seg_r = k_r[2 * i * l_b : 2 * (i + 1) * l_b]
            if s_m[i] == s_r[i]:
                assert seg_m == seg_r, f"segment {i} should match"
