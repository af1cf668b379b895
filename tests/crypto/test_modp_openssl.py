"""MODP products on OpenSSL: bit-exact with ``pow``, never raising.

:meth:`DHGroup.exp_many` runs each product as a DH exchange between
the exponent's DER-loaded private key and the base's DER-loaded public
key.  These tests pin it to ``pow`` on both shipped safe-prime sizes,
in both batch shapes and with keys prebuilt, built inline or mixed;
walk the inputs OpenSSL rejects (a product of 1 or ``p - 1``, on which
``cryptography`` panics instead of raising); and check that every
group outside the gate stays on ``pow``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import (
    RFC3526_GROUP_2048,
    WAVEKEY_GROUP_512,
    DHGroup,
    generate_dh_group,
)
from repro.crypto.pool import make_receivers, make_sender

OPENSSL_GROUPS = pytest.mark.parametrize(
    "group", [WAVEKEY_GROUP_512, RFC3526_GROUP_2048], ids=lambda g: g.name
)


@OPENSSL_GROUPS
class TestMatchesPow:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_one_base_many_exponents(self, group, data):
        p = group.prime
        base = data.draw(st.integers(1, p - 1), label="base")
        exponents = data.draw(
            st.lists(st.integers(1, p - 2), min_size=1, max_size=4),
            label="exponents",
        )
        prebuilt = data.draw(
            st.lists(
                st.booleans(),
                min_size=len(exponents),
                max_size=len(exponents),
            ),
            label="prebuilt",
        )
        powers = [group.power(e) for e in exponents]
        expected = [pow(base, e, p) for e in exponents]
        keys = [group.ladder_key(e) for e in exponents]
        mixed = [k if b else None for k, b in zip(keys, prebuilt)]
        assert group.exp_many([base], exponents, powers) == expected
        assert group.exp_many([base], exponents, powers, keys) == expected
        assert group.exp_many([base], exponents, powers, mixed) == expected

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_many_bases_one_exponent(self, group, data):
        p = group.prime
        bases = data.draw(
            st.lists(st.integers(1, p - 1), min_size=1, max_size=4),
            label="bases",
        )
        exponent = data.draw(st.integers(1, p - 2), label="exponent")
        power = [group.power(exponent)]
        expected = [pow(b, exponent, p) for b in bases]
        key = group.ladder_key(exponent)
        assert group.exp_many(bases, [exponent], power) == expected
        assert group.exp_many(bases, [exponent], power, [key]) == expected
        assert group.exp_many(bases, [exponent], power, [None]) == expected


@OPENSSL_GROUPS
def test_products_come_from_the_exchange(group):
    """The fast path is really taken: the exchange of a DER-loaded key
    pair is the product itself, so no silent ``pow`` fallback hides
    behind the equality tests."""
    rng = np.random.default_rng(5)
    algorithm = group._openssl_algorithm()
    assert algorithm is not None
    for _ in range(3):
        base = group.power(group.random_exponent(rng))
        e = group.random_exponent(rng)
        shared = group.ladder_key(e).exchange(
            group._public_key(base, algorithm)
        )
        assert int.from_bytes(shared, "big") == pow(base, e, group.prime)


@OPENSSL_GROUPS
class TestEdgeInputs:
    def test_every_edge_product_matches_pow(self, group):
        """Exponents ``q`` and ``p - 1`` give products of ±1, which
        OpenSSL rejects with a panic; bases 1 and ``p - 1`` with a
        ``ValueError``.  None of them may surface."""
        p = group.prime
        q = p >> 1
        bases = (1, 2, p - 2, p - 1)
        exponents = (1, q - 1, q, p - 2, p - 1)
        for e in exponents:
            got = group.exp_many(list(bases), [e], [group.power(e)])
            assert got == [pow(b, e, p) for b in bases]
        for b in bases:
            powers = [group.power(e) for e in exponents]
            keys = [group.ladder_key(e) for e in exponents]
            expected = [pow(b, e, p) for e in exponents]
            assert group.exp_many([b], list(exponents), powers) == expected
            assert group.exp_many([b], list(exponents), powers, keys) == (
                expected
            )

    def test_no_key_where_the_product_could_be_plus_minus_one(self, group):
        p = group.prime
        for e in (0, p >> 1, p - 1, p):
            assert group.ladder_key(e) is None
        for e in (1, (p >> 1) - 1, (p >> 1) + 1, p - 2):
            assert group.ladder_key(e) is not None


@pytest.mark.parametrize(
    "group",
    [
        WAVEKEY_GROUP_512.with_comb(False),
        generate_dh_group(96, rng=7),
        DHGroup(2**521 - 1, 3, name="mersenne-521"),
    ],
    ids=["comb-off", "96-bit", "unsafe-521"],
)
def test_groups_outside_the_gate_stay_on_pow(group):
    """The pure-``pow`` reference clone, a group below OpenSSL's
    512-bit minimum, and a prime whose ``(p - 1) / 2`` is composite
    build no keys, and their products still match ``pow``."""
    p = group.prime
    exponents = [1, 5, p - 2, p >> 1]
    assert [group.ladder_key(e) for e in exponents] == [None] * 4
    for base in (1, 2, p - 1):
        powers = [group.power(e) for e in exponents]
        assert group.exp_many([base], exponents, powers) == [
            pow(base, e, p) for e in exponents
        ]


def test_make_receivers_builds_keys():
    group = WAVEKEY_GROUP_512
    materials = make_receivers(group, np.random.default_rng(3), 4)
    assert all(m.ladder_key is not None for m in materials)
    s = group.power(group.random_exponent(4))
    xs = [m.x for m in materials]
    assert group.exp_many(
        [s], xs, [m.g_x for m in materials],
        [m.ladder_key for m in materials],
    ) == [pow(s, x, group.prime) for x in xs]


def test_make_sender_builds_its_key():
    """The sender tuple carries ``y``'s key, so its round's ``R_i^y``
    products load no key on the request path."""
    group = WAVEKEY_GROUP_512
    material = make_sender(group, np.random.default_rng(3))
    assert material.s == pow(group.generator, material.y, group.prime)
    assert (
        material.ladder_key.private_numbers().x
        == group.ladder_key(material.y).private_numbers().x
    )
