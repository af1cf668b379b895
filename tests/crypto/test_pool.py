"""Tests for the warm OT material pool."""

import time

import pytest

from repro.crypto import (
    OTMaterialPool,
    OTReceiverRound,
    OTSenderRound,
    generate_dh_group,
    run_ot_round,
)
from repro.crypto.pool import sender_k1_factor
from repro.errors import ConfigurationError, CryptoError
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(scope="module")
def group():
    return generate_dh_group(96, rng=13)


@pytest.fixture(scope="module")
def other_group():
    return generate_dh_group(96, rng=14)


def make_pool(depth=8, **kwargs):
    kwargs.setdefault("rng", 7)
    kwargs.setdefault("metrics", MetricsRegistry())
    return OTMaterialPool(depth=depth, **kwargs)


class TestStocks:
    def test_fill_reaches_depth(self, group):
        pool = make_pool(depth=8)
        pool.register(group)
        produced = pool.fill()
        assert produced == 16  # 8 sender + 8 receiver
        assert pool.depths(group) == (8, 8)

    def test_take_pops_and_reports_shortfall(self, group):
        pool = make_pool(depth=4)
        pool.register(group)
        pool.fill()
        assert len(pool.take_senders(group, 3)) == 3
        # Only 1 left: a take of 3 returns 1 and counts 2 misses.
        taken = pool.take_senders(group, 3)
        assert len(taken) == 1
        counters = pool.metrics.snapshot()["counters"]
        key = 'crypto.pool.{}{{group="random-96",kind="sender"}}'
        assert counters[key.format("hit")] == 4
        assert counters[key.format("miss")] == 2

    def test_empty_pool_take_is_graceful(self, group):
        pool = make_pool(depth=4)
        assert pool.take_senders(group, 5) == []
        assert pool.take_receivers(group, 5) == []

    def test_refill_thread_tops_up_after_drain(self, group):
        pool = make_pool(depth=6, refill_interval_s=0.01)
        pool.register(group)
        with pool:
            deadline = 5.0
            end = time.monotonic() + deadline
            while pool.depths(group) != (6, 6):
                if time.monotonic() > end:
                    pytest.fail("refill thread never reached depth")
                time.sleep(0.01)
            pool.take_senders(group, 6)
            end = time.monotonic() + deadline
            while pool.depths(group)[0] < 6:
                if time.monotonic() > end:
                    pytest.fail("refill thread never recovered the drain")
                time.sleep(0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OTMaterialPool(depth=0)
        with pytest.raises(ConfigurationError):
            OTMaterialPool(depth=4, low_watermark=4)
        with pytest.raises(ConfigurationError):
            OTMaterialPool(depth=4, refill_interval_s=0)


class TestSingleUse:
    def test_sender_material_reuse_raises(self, group):
        """Regression: one (y, S) tuple must never key two rounds."""
        pool = make_pool(depth=2)
        pool.register(group)
        pool.fill()
        (material,) = pool.take_senders(group, 1)
        OTSenderRound(group, rng=1).announce(material)
        with pytest.raises(CryptoError):
            OTSenderRound(group, rng=2).announce(material)

    def test_receiver_material_reuse_raises(self, group):
        pool = make_pool(depth=2)
        pool.register(group)
        pool.fill()
        (material,) = pool.take_receivers(group, 1)
        announce = OTSenderRound(group, rng=1).announce()
        OTReceiverRound(group, rng=2).respond(announce, [0], [material])
        with pytest.raises(CryptoError):
            OTReceiverRound(group, rng=3).respond(announce, [1], [material])

    def test_cross_group_material_rejected(self, group, other_group):
        pool = make_pool(depth=2)
        pool.register(group)
        pool.fill()
        (material,) = pool.take_senders(group, 1)
        with pytest.raises(CryptoError):
            OTSenderRound(other_group, rng=1).announce(material)


class TestCorrectness:
    def test_k1_factor_matches_reference(self, group):
        """g^{-y^2} really is S^{-y}: the one-multiplication second
        key equals the reference (R / S)^y."""
        p = group.prime
        for seed in range(5):
            y = group.random_exponent(seed)
            s = group.power(y)
            factor = sender_k1_factor(group, y)
            assert factor == pow(pow(s, -1, p), y, p)

    def test_pooled_batch_matches_choices(self, group):
        pool = make_pool(depth=16)
        pool.register(group)
        pool.fill()
        pairs = [(bytes([i]), bytes([i + 100])) for i in range(8)]
        choices = [0, 1, 1, 0, 1, 0, 0, 1]
        out = run_ot_round(group, pairs, choices, 1, 2, pool=pool)
        assert out == [pairs[i][c] for i, c in enumerate(choices)]

    def test_exhausted_pool_still_correct(self, group):
        """More instances than stock: the shortfall computes inline and
        every instance still transfers the selected secret."""
        pool = make_pool(depth=2)
        pool.register(group)
        pool.fill()
        pairs = [(bytes([i]), bytes([i + 100])) for i in range(6)]
        choices = [1, 0, 1, 1, 0, 0]
        out = run_ot_round(group, pairs, choices, 3, 4, pool=pool)
        assert out == [pairs[i][c] for i, c in enumerate(choices)]
        counters = pool.metrics.snapshot()["counters"]
        key = 'crypto.pool.{}{{group="random-96",kind="{}"}}'
        # One sender tuple per round, one receiver tuple per instance.
        assert counters[key.format("hit", "sender")] == 1
        assert key.format("miss", "sender") not in counters
        assert counters[key.format("miss", "receiver")] == 4
        # A round with an empty sender stock computes S inline.
        pool.take_senders(group, 1)
        out = run_ot_round(group, pairs, choices, 5, 6, pool=pool)
        assert out == [pairs[i][c] for i, c in enumerate(choices)]
        counters = pool.metrics.snapshot()["counters"]
        assert counters[key.format("miss", "sender")] == 1
