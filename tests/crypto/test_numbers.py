"""Tests for primality and DH groups."""

import math

import pytest

from repro.crypto import (
    DHGroup,
    FixedBaseComb,
    RFC3526_GROUP_1536,
    RFC3526_GROUP_2048,
    WAVEKEY_GROUP_512,
    generate_dh_group,
    is_probable_prime,
)
from repro.errors import CryptoError


class TestMillerRabin:
    @pytest.mark.parametrize(
        "prime", [2, 3, 5, 104729, 2**61 - 1, 2**89 - 1]
    )
    def test_accepts_primes(self, prime):
        assert is_probable_prime(prime)

    @pytest.mark.parametrize(
        "composite",
        [1, 4, 561, 1105, 104730, (2**61 - 1) * 3, 2**62],
    )
    def test_rejects_composites(self, composite):
        assert not is_probable_prime(composite)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes that Miller-Rabin must catch.
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(n)


class TestDHGroup:
    def test_rfc_groups_are_safe_primes(self):
        for group in (RFC3526_GROUP_1536, RFC3526_GROUP_2048):
            assert is_probable_prime(group.prime, rounds=10)
            assert is_probable_prime((group.prime - 1) // 2, rounds=5)

    def test_wavekey_group_is_safe_prime(self):
        assert WAVEKEY_GROUP_512.bits == 512
        assert is_probable_prime(WAVEKEY_GROUP_512.prime, rounds=10)
        assert is_probable_prime((WAVEKEY_GROUP_512.prime - 1) // 2,
                                 rounds=10)

    def test_div_is_mul_inverse(self):
        g = WAVEKEY_GROUP_512
        a, b = 123456789, 987654321
        assert g.div(g.mul(a, b), b) == a % g.prime

    def test_power(self):
        g = DHGroup(prime=23, generator=5)
        assert g.power(3) == pow(5, 3, 23)

    def test_random_exponent_in_range(self):
        g = WAVEKEY_GROUP_512
        for seed in range(20):
            e = g.random_exponent(seed)
            assert 1 <= e <= g.prime - 2

    def test_contains(self):
        g = DHGroup(prime=23, generator=5)
        assert g.contains(1) and g.contains(22)
        assert not g.contains(0) and not g.contains(23)

    def test_validation(self):
        with pytest.raises(CryptoError):
            DHGroup(prime=4, generator=2)
        with pytest.raises(CryptoError):
            DHGroup(prime=23, generator=23)


class TestFixedBaseComb:
    """The comb fast path must be bit-exact with built-in ``pow``."""

    def test_cross_check_against_pow(self):
        g = WAVEKEY_GROUP_512
        comb = g.comb()
        for seed in range(25):
            e = g.with_exponent_bits(None).random_exponent(seed)
            assert comb.power(e) == pow(g.generator, e, g.prime)

    def test_boundary_exponents(self):
        g = WAVEKEY_GROUP_512
        comb = g.comb()
        for e in (0, 1, 2, g.prime - 2, g.prime - 1, g.prime):
            assert comb.power(e) == pow(g.generator, e, g.prime)

    def test_out_of_table_exponents_fall_back(self):
        comb = FixedBaseComb(5, 23, max_exponent_bits=8)
        # Negative and oversized exponents bypass the table entirely.
        assert comb.power(-3) == pow(5, -3, 23)
        assert comb.power(1 << 40) == pow(5, 1 << 40, 23)

    def test_window_sizes_agree(self):
        g = generate_dh_group(96, rng=21)
        e = g.with_exponent_bits(None).random_exponent(5)
        expected = pow(g.generator, e, g.prime)
        for window in (1, 4, 6, 8):
            assert g.comb(window).power(e) == expected

    def test_table_size_knob(self):
        comb = FixedBaseComb(4, WAVEKEY_GROUP_512.prime, window=6)
        assert comb.entries == math.ceil(512 / 6) * 64

    def test_validation(self):
        with pytest.raises(CryptoError):
            FixedBaseComb(0, 23)
        with pytest.raises(CryptoError):
            FixedBaseComb(5, 23, window=0)
        with pytest.raises(CryptoError):
            FixedBaseComb(5, 23, window=17)

    def test_group_power_routes_through_comb(self):
        g = generate_dh_group(96, rng=22)
        for seed in range(5):
            e = g.random_exponent(seed)
            assert g.power(e) == g.power_naive(e)

    def test_comb_for_arbitrary_base(self):
        g = generate_dh_group(96, rng=23)
        base = g.power(12345)
        comb = FixedBaseComb(base, g.prime, max_exponent_bits=g.exponent_bits)
        e = g.random_exponent(9)
        assert comb.power(e) == pow(base, e, g.prime)

    @pytest.mark.parametrize("bits", [None, 256])
    def test_comb_for_sized_to_the_exponent_policy(self, bits):
        """A table sized to the policy's exponents covers them; 256-bit
        and full-width exponents both match ``pow``, in range or on the
        fallback."""
        g = WAVEKEY_GROUP_512.with_exponent_bits(bits)
        base = g.power(0xC0FFEE)
        comb = FixedBaseComb(
            base, g.prime, max_exponent_bits=g.exponent_bits, window=4
        )
        assert comb.digits * comb.window >= (bits or g.bits)
        for e in (
            g.random_exponent(10),
            (1 << 256) - 1,
            1 << 256,
            WAVEKEY_GROUP_512.with_exponent_bits(None).random_exponent(11),
            g.prime - 2,
        ):
            assert comb.power(e) == pow(base, e, g.prime)


class TestGroupPolicy:
    def test_with_comb_clone_is_value_equal(self):
        naive = WAVEKEY_GROUP_512.with_comb(False)
        assert naive == WAVEKEY_GROUP_512
        assert hash(naive) == hash(WAVEKEY_GROUP_512)
        assert not naive.comb_enabled and WAVEKEY_GROUP_512.comb_enabled

    def test_with_comb_window_validation(self):
        with pytest.raises(CryptoError):
            WAVEKEY_GROUP_512.with_comb(window=0)

    def test_exponent_bits_policy(self):
        assert WAVEKEY_GROUP_512.exponent_bits == 256
        full = WAVEKEY_GROUP_512.with_exponent_bits(None)
        assert full.exponent_bits is None
        for seed in range(10):
            e = WAVEKEY_GROUP_512.random_exponent(seed)
            assert 1 <= e < (1 << 256)

    def test_exponent_bits_validation(self):
        with pytest.raises(CryptoError):
            WAVEKEY_GROUP_512.with_exponent_bits(32)
        # Full-width-or-wider "short" exponents coerce to None.
        assert WAVEKEY_GROUP_512.with_exponent_bits(
            4096
        ).exponent_bits is None


class TestGenerateGroup:
    def test_small_group_generation(self):
        g = generate_dh_group(48, rng=1)
        assert is_probable_prime(g.prime)
        assert is_probable_prime((g.prime - 1) // 2)
        assert g.prime.bit_length() >= 47

    def test_deterministic(self):
        assert generate_dh_group(32, rng=7).prime == generate_dh_group(
            32, rng=7
        ).prime

    def test_rejects_tiny(self):
        with pytest.raises(CryptoError):
            generate_dh_group(8)
