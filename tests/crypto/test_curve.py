"""Curve25519 tests: RFC 7748 vectors, encoding hygiene, cross-checks.

The ladder is pinned to the published test vectors (both §5.2 vectors
plus the iterated one), OpenSSL's X25519 ladder is pinned to the same
vectors, the Edwards arithmetic is cross-checked against the ladder
through the birational map, the batched ladder products and the
fixed-base powers against :func:`scalar_mul` / :func:`scalar_mul_naive`,
and the ``x‖y`` decoder against the RFC 8032 compressed decoder of
protocol 2 (kept here as the reference), on valid points, small-order
points and hand-built rejects — non-canonical, off-curve, wrong length.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from hypothesis import given, settings, strategies as st

import repro
import repro.crypto.curve as curve_module
from repro.crypto.curve import (
    BASE_POINT,
    CURVE25519_GROUP,
    D,
    EdwardsPoint,
    L,
    P,
    X25519_BASE,
    clamp_scalar,
    ladder_key,
    scalar_mul,
    scalar_mul_naive,
    x25519,
)
from repro.crypto.ot import OTReceiverRound, OTSenderRound
from repro.crypto.pool import make_receivers, make_sender
from repro.errors import CryptoError, ProtocolError

#: A square root of -1 (p = 5 mod 8): the x of the order-4 points, and
#: the correction step of the reference square root below.
SQRT_M1 = pow(2, (P - 1) // 4, P)


def compress(point: EdwardsPoint) -> bytes:
    """RFC 8032 s5.1.2: LE ``y`` with the sign of ``x`` in bit 255 (the
    curve's wire form up to protocol 2)."""
    inv_z = pow(point.z, -1, P)
    x, y = point.x * inv_z % P, point.y * inv_z % P
    return (y | (x & 1) << 255).to_bytes(32, "little")


def decompress(data: bytes) -> EdwardsPoint:
    """RFC 8032 s5.1.3 decoding (small-order points allowed): the
    square-root decoder of protocol 2, the reference the ``x‖y``
    decoder is checked against."""
    if len(data) != 32:
        raise ProtocolError(f"compressed points are 32 bytes, got {len(data)}")
    sign = data[31] >> 7
    y = int.from_bytes(data, "little") & ((1 << 255) - 1)
    if y >= P:
        raise ProtocolError("non-canonical compressed point (y >= p)")
    xx = (y * y - 1) * pow(D * y * y + 1, -1, P) % P
    x = pow(xx, (P + 3) // 8, P)
    if (x * x - xx) % P:
        x = x * SQRT_M1 % P
    if (x * x - xx) % P:
        raise ProtocolError("compressed point is not on the curve")
    if x == 0 and sign:
        raise ProtocolError("compressed point x = 0 with sign bit set")
    if (x & 1) != sign:
        x = P - x
    return EdwardsPoint(x, y, 1, x * y % P)


def reference_decode(data: bytes) -> EdwardsPoint:
    """Protocol 2's ``decode_element``: decompress, then reject the
    small-order points."""
    point = decompress(data)
    if point.is_small_order():
        raise ProtocolError("small order")
    return point


def xy(x: int, y: int) -> bytes:
    return x.to_bytes(32, "little") + y.to_bytes(32, "little")


# RFC 7748 section 5.2, first test vector.
VECTOR_1 = (
    "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
    "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
    "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
)

# RFC 7748 section 5.2, second test vector.
VECTOR_2 = (
    "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
    "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
    "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
)

# RFC 7748 section 5.2, iterated vector: k = u = 9, then
# (k, u) <- (X25519(k, u), k), checked after 1 and 1000 rounds.
ITERATED_1 = (
    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
)
ITERATED_1000 = (
    "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
)


def openssl_x25519(scalar: bytes, u: bytes) -> bytes:
    return X25519PrivateKey.from_private_bytes(scalar).exchange(
        X25519PublicKey.from_public_bytes(u)
    )


class TestX25519Vectors:
    @pytest.mark.parametrize("scalar,u,expected", [VECTOR_1, VECTOR_2])
    def test_rfc7748_section_5_2(self, scalar, u, expected):
        out = x25519(bytes.fromhex(scalar), bytes.fromhex(u))
        assert out.hex() == expected

    @pytest.mark.parametrize("scalar,u,expected", [VECTOR_1, VECTOR_2])
    def test_openssl_ladder_section_5_2(self, scalar, u, expected):
        scalar, u = bytes.fromhex(scalar), bytes.fromhex(u)
        assert openssl_x25519(scalar, u) == x25519(scalar, u)
        assert openssl_x25519(scalar, u).hex() == expected

    def test_openssl_ladder_iterated_1000(self):
        """The products run on OpenSSL's ladder, so it is pinned to the
        iterated vector the from-scratch ladder is pinned to above."""
        k = u = X25519_BASE
        for i in range(1000):
            k, u = openssl_x25519(k, u), k
            if i == 0:
                assert k == x25519(X25519_BASE, X25519_BASE)
                assert k.hex() == ITERATED_1
        assert k.hex() == ITERATED_1000

    def test_rfc7748_iterated_1000(self):
        k = u = X25519_BASE
        for i in range(1000):
            k, u = x25519(k, u), k
            if i == 0:
                assert k.hex() == ITERATED_1
        assert k.hex() == ITERATED_1000

    def test_clamping(self):
        k = clamp_scalar(bytes(range(32)))
        assert k % 8 == 0
        assert k.bit_length() == 255


class TestEdwardsArithmetic:
    def test_base_point_is_on_curve(self):
        assert BASE_POINT.is_on_curve()
        assert not BASE_POINT.is_small_order()

    def test_base_point_has_order_l(self):
        assert scalar_mul(BASE_POINT, L).is_identity()
        assert not scalar_mul(BASE_POINT, L - 1).is_identity()

    def test_add_double_negate_consistency(self):
        p2 = BASE_POINT.add(BASE_POINT)
        assert p2 == BASE_POINT.double()
        assert p2.add(BASE_POINT.negate()) == BASE_POINT
        assert BASE_POINT.add(BASE_POINT.negate()).is_identity()

    @pytest.mark.parametrize("seed", range(4))
    def test_window_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        n = int.from_bytes(bytes(rng.integers(0, 256, 32, dtype=np.uint8)),
                           "little")
        assert scalar_mul(BASE_POINT, n) == scalar_mul_naive(BASE_POINT, n)

    def test_power_matches_variable_base(self):
        for e in (1, 7, L - 1, 0x1234567890ABCDEF, (1 << 252) + 3):
            assert CURVE25519_GROUP.power(e) == scalar_mul_naive(
                BASE_POINT, e
            )

    def test_base_point_is_the_rfc8032_generator(self):
        """The literal base point is y = 4/5 with even x."""
        assert BASE_POINT.y == 4 * pow(5, -1, P) % P
        assert BASE_POINT.x % 2 == 0
        assert decompress(compress(BASE_POINT)) == BASE_POINT

    def test_ladder_matches_edwards_through_the_map(self):
        """X25519 on u=9 equals the Edwards scalar multiple mapped to
        Montgomery u — the two formulations implement one function."""
        rng = np.random.default_rng(5)
        for _ in range(3):
            raw = bytes(rng.integers(0, 256, 32, dtype=np.uint8))
            k = clamp_scalar(raw)
            via_ladder = int.from_bytes(x25519(raw, X25519_BASE), "little")
            via_edwards = scalar_mul(BASE_POINT, k).montgomery_u()
            assert via_ladder == via_edwards


class TestEncoding:
    def test_roundtrip(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            e = CURVE25519_GROUP.random_exponent(rng)
            point = CURVE25519_GROUP.power(e)
            data = CURVE25519_GROUP.encode_element(point)
            assert len(data) == 64
            assert CURVE25519_GROUP.decode_element(data) == point

    def test_sign_bit_distinguishes_negation(self):
        """A point and its negation differ in x‖y, and in the
        compressed reference form only in the sign bit."""
        encoded = BASE_POINT.encode()
        negated = BASE_POINT.negate().encode()
        assert encoded != negated and encoded[32:] == negated[32:]
        assert CURVE25519_GROUP.decode_element(negated) == BASE_POINT.negate()
        a, b = compress(BASE_POINT), compress(BASE_POINT.negate())
        assert a[:31] == b[:31] and a[31] ^ b[31] == 0x80
        assert decompress(b) == BASE_POINT.negate()

    def test_rejects_wrong_length(self):
        good = BASE_POINT.encode()
        for n in (0, 32, 63, 65):
            with pytest.raises(ProtocolError, match="64 bytes"):
                CURVE25519_GROUP.decode_element((good * 2)[:n])

    def test_rejects_non_canonical_y(self):
        # A coordinate >= p is non-canonical even when its value mod p
        # is a perfectly good coordinate: x or y + p encodes the base.
        x, y = BASE_POINT.x, BASE_POINT.y
        for data in (
            xy(x, y + P), xy(x + P, y), xy(x, (1 << 256) - 1),
            xy((1 << 256) - 1, y), xy(P, 1), xy(0, P + 1),
        ):
            with pytest.raises(ProtocolError, match=">= p"):
                CURVE25519_GROUP.decode_element(data)

    def test_rejects_off_curve(self):
        x, y = BASE_POINT.x, BASE_POINT.y
        for data in (xy(x, 2), xy(x + 1, y), xy(x, y + 1), xy(0, 0)):
            with pytest.raises(ProtocolError, match="not on the curve"):
                CURVE25519_GROUP.decode_element(data)

    @pytest.mark.parametrize(
        "point",
        [
            EdwardsPoint(0, 1, 1, 0),        # identity (order 1)
            EdwardsPoint(0, P - 1, 1, 0),    # order 2
            EdwardsPoint(SQRT_M1, 0, 1, 0),  # order 4
        ],
        ids=["identity", "order2", "order4"],
    )
    def test_decode_element_rejects_small_order(self, point):
        assert point.is_on_curve()
        assert point.is_small_order()
        with pytest.raises(ProtocolError):
            CURVE25519_GROUP.decode_element(point.encode())

    def test_d_and_sqrt_m1_constants(self):
        assert (SQRT_M1 * SQRT_M1) % P == P - 1
        assert (D * 121666 + 121665) % P == 0


class TestGroupInterface:
    def test_power_matches_power_naive(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            e = CURVE25519_GROUP.random_exponent(rng)
            assert CURVE25519_GROUP.power(e) == CURVE25519_GROUP.power_naive(e)

    def test_ot_key_algebra(self):
        """The sender's one-multiplication k1 fast path holds on the
        curve: exp(M_b, a) * g^{-a^2} == exp(M_b / M_a, a)."""
        G = CURVE25519_GROUP
        rng = np.random.default_rng(8)
        a, b = G.random_exponent(rng), G.random_exponent(rng)
        m_a = G.power(a)
        m_b = G.mul(m_a, G.power(b))  # receiver's choice-1 response
        fast = G.mul(G.exp(m_b, a), G.power((-a * a) % L))
        reference = G.exp(G.div(m_b, m_a), a)
        assert fast == reference
        assert reference == G.exp(m_a, b)

    def test_contains(self):
        assert CURVE25519_GROUP.contains(BASE_POINT)
        assert not CURVE25519_GROUP.contains(EdwardsPoint(0, 1, 1, 0))
        assert not CURVE25519_GROUP.contains(9)


# -- property tests against the reference paths ----------------------------

#: An order-8 point (RFC 8032 small-order encoding); adding it to a
#: subgroup point gives a mixed-torsion base.
ORDER8 = decompress(bytes.fromhex(
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"
))

BASES = {
    "subgroup": scalar_mul_naive(BASE_POINT, 0xC0FFEE),
    "mixed-torsion": scalar_mul_naive(BASE_POINT, 0xC0FFEE).add(ORDER8),
    "order8": ORDER8,
}

#: Scalars at the edges of the signed radix-16 recoding: digit 8 stays,
#: 9 borrows, runs of 0xF carry through every digit and out of the top.
EDGE_SCALARS = [
    0, 1, 7, 8, 9, 15, 16, 0x88, 0x89, 0x8F, 0xF8, 0xF9, 0x98,
    (1 << 252) - 1, 9 << 252, 0xF << 252, (1 << 256) - 1,
    L - 1, L, L + 1, 2 * L + 3,
    -1, -8, -9, -L, -(L + 5), -((1 << 256) - 1),
]


class TestScalarMulProperties:
    @pytest.mark.parametrize("base", list(BASES), ids=list(BASES))
    @pytest.mark.parametrize("n", EDGE_SCALARS)
    def test_edge_scalars_match_naive(self, base, n):
        point = BASES[base]
        assert scalar_mul(point, n) == scalar_mul_naive(point, n)

    def test_order8_point_is_pure_torsion(self):
        assert ORDER8.is_small_order()
        assert not ORDER8.double().double().is_identity()

    @settings(max_examples=40, deadline=None)
    @given(
        base=st.sampled_from(sorted(BASES)),
        n=st.integers(min_value=-(1 << 260), max_value=1 << 260),
    )
    def test_random_scalars_match_naive(self, base, n):
        point = BASES[base]
        assert scalar_mul(point, n) == scalar_mul_naive(point, n)

    @settings(max_examples=20, deadline=None)
    @given(data=st.binary(min_size=32, max_size=32))
    def test_clamped_scalars_kill_the_torsion(self, data):
        """A clamped scalar (a multiple of 8) on a mixed-torsion base
        lands on the subgroup multiple: it is never reduced mod L."""
        k = clamp_scalar(data)
        mixed = scalar_mul(BASES["mixed-torsion"], k)
        assert mixed == scalar_mul(BASES["subgroup"], k)


#: A residue with no clamped representative: ``40 * 8^-1 = 5 (mod L)``,
#: and neither 5 nor ``L - 5`` lies in ``[2^251, 2^252)``.
NO_REPRESENTATIVE = 40


class TestFixedBasePower:
    """``power`` reads each ``n * G`` off the public keys OpenSSL
    derives for ``n``'s clamped representative; every case, fallbacks
    included, equals the reference double-and-add."""

    @settings(max_examples=30, deadline=None)
    @given(e=st.integers(min_value=-(1 << 264), max_value=1 << 264))
    def test_random_exponents_match_naive(self, e):
        assert CURVE25519_GROUP.power(e) == scalar_mul_naive(
            BASE_POINT, e % L
        )

    @settings(max_examples=20, deadline=None)
    @given(data=st.binary(min_size=32, max_size=32))
    def test_clamped_and_sender_factor_exponents(self, data):
        """A clamped ``y``, its unclamped byte value and the sender's
        factor exponent ``-y^2 mod L``."""
        y = clamp_scalar(data)
        for n in (y, int.from_bytes(data, "little"), (-y * y) % L):
            assert CURVE25519_GROUP.power(n) == scalar_mul_naive(
                BASE_POINT, n % L
            )

    @pytest.mark.parametrize("n", [
        0, 1, L - 1, L, L + 1, -1,
        (1 << 255) - 8,  # clamped, but m + 8 overflows: fallback
        NO_REPRESENTATIVE,
    ])
    def test_edge_exponents_match_naive(self, n):
        assert CURVE25519_GROUP.power(n) == scalar_mul_naive(
            BASE_POINT, n % L
        )

    @pytest.mark.parametrize("n, falls_back", [
        (0, True),
        (NO_REPRESENTATIVE, True),
        ((1 << 255) - 8, True),
        (1, False),
        (1 << 254, False),
    ])
    def test_fallback_residues(self, n, fallbacks, falls_back):
        CURVE25519_GROUP.power(n)
        assert fallbacks == ([n % L] if falls_back else [])

    def test_off_curve_recovery_falls_back(self, monkeypatch, fallbacks):
        """A wrong addend recovers a point off the curve; the check
        catches it and scalar_mul answers."""
        n = CURVE25519_GROUP.random_exponent(np.random.default_rng(9))
        monkeypatch.setattr(curve_module, "_YQ8", (curve_module._YQ8 + 1) % P)
        assert CURVE25519_GROUP.power(n) == scalar_mul_naive(BASE_POINT, n)
        assert fallbacks == [n % L]

    def test_material_key_is_the_exponents_ladder_key(self):
        """Receiver material keeps the key its power was read off, and
        it is exactly ``ladder_key(x)``."""
        for material in make_receivers(CURVE25519_GROUP, 7, 6):
            assert material.g_x == scalar_mul_naive(BASE_POINT, material.x)
            assert (
                material.ladder_key.private_bytes_raw()
                == ladder_key(material.x).private_bytes_raw()
            )

    def test_sender_material_key_is_its_exponents_ladder_key(
        self, monkeypatch
    ):
        """Sender material keeps the key ``S`` was read off, it is
        exactly ``ladder_key(y)``, and the round's ``R_i^y`` products
        run on it: encrypt loads no key."""
        material = make_sender(CURVE25519_GROUP, 11)
        assert material.s == scalar_mul_naive(BASE_POINT, material.y)
        assert (
            material.ladder_key.private_bytes_raw()
            == ladder_key(material.y).private_bytes_raw()
        )
        sender = OTSenderRound(CURVE25519_GROUP)
        receiver = OTReceiverRound(CURVE25519_GROUP, 12)
        responses = receiver.respond(sender.announce(material), [0, 1])
        pairs = [(b"a0", b"a1"), (b"b0", b"b1")]
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(curve_module, "ladder_key", built.append)
            ciphertexts = sender.encrypt(responses, pairs)
        assert built == []
        assert receiver.decrypt(ciphertexts) == [b"a0", b"b1"]

    def test_unclamped_exponents_carry_no_key(self):
        out = CURVE25519_GROUP.powers_and_keys([1, L - 1, 1 << 254])
        assert [key is None for _, key in out] == [True, True, False]


def _power(n: int) -> EdwardsPoint:
    return CURVE25519_GROUP.power(n)


class TestPeerComb:
    """The receiver's call shape, one peer ``S`` raised to many
    exponents, computes exactly ``n * S`` even when ``S`` carries a
    small-order component."""

    @settings(max_examples=15, deadline=None)
    @given(
        base=st.sampled_from(["subgroup", "mixed-torsion"]),
        data=st.binary(min_size=32, max_size=32),
        shift=st.sampled_from([0, 8]),
    )
    def test_clamped_exponents_match_scalar_mul(self, base, data, shift):
        """Shift 8 pushes the exponent out of clamped form, onto the
        fallback; it too must keep the multiple-of-8 that clears the
        torsion, so it must not reduce mod L."""
        k = clamp_scalar(data) << shift
        point, = CURVE25519_GROUP.exp_many([BASES[base]], [k], [_power(k)])
        assert point == scalar_mul(BASES[base], k)
        assert point == scalar_mul(BASES["subgroup"], k)

    @pytest.mark.parametrize("n", [L, L + 8, 1 << 300, -1, -8, -(1 << 300)])
    def test_exact_multiple_on_mixed_torsion(self, n):
        base = BASES["mixed-torsion"]
        point, = CURVE25519_GROUP.exp_many([base], [n], [_power(n)])
        assert point == scalar_mul_naive(base, n)


@pytest.fixture
def fallbacks(monkeypatch):
    """Count the products :func:`ladder_products` hands to
    :func:`scalar_mul` instead of the ladder."""
    calls = []

    def counting(point, n):
        calls.append(n)
        return scalar_mul(point, n)

    monkeypatch.setattr(curve_module, "scalar_mul", counting)
    return calls


#: The eight points of order dividing 8: multiples of an order-8 point.
SMALL_ORDER = [scalar_mul_naive(ORDER8, k) for k in range(8)]


class TestLadderProducts:
    """Batched products on OpenSSL's ladder are bit-identical to
    :func:`scalar_mul`, in both call shapes, and an instance the ladder
    cannot serve falls back to it."""

    @settings(max_examples=25, deadline=None)
    @given(
        base=st.sampled_from(["subgroup", "mixed-torsion"]),
        seeds=st.lists(
            st.binary(min_size=32, max_size=32), min_size=1, max_size=4
        ),
    )
    def test_one_base_many_exponents(self, base, seeds):
        point = BASES[base]
        ks = [clamp_scalar(seed) for seed in seeds]
        out = CURVE25519_GROUP.exp_many(
            [point], ks, [_power(k) for k in ks]
        )
        assert [q.encode() for q in out] == [
            scalar_mul(point, k).encode() for k in ks
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        bases=st.lists(
            st.sampled_from(["subgroup", "mixed-torsion"]),
            min_size=1, max_size=4,
        ),
        data=st.binary(min_size=32, max_size=32),
    )
    def test_one_exponent_many_bases(self, bases, data):
        k = clamp_scalar(data)
        points = [BASES[b] for b in bases]
        out = CURVE25519_GROUP.exp_many(points, [k], [_power(k)])
        assert [q.encode() for q in out] == [
            scalar_mul(p, k).encode() for p in points
        ]

    @settings(max_examples=25, deadline=None)
    @given(
        base=st.sampled_from(["subgroup", "mixed-torsion"]),
        seeds=st.lists(
            st.binary(min_size=32, max_size=32), min_size=1, max_size=4
        ),
        prebuilt=st.lists(st.booleans(), min_size=4, max_size=4),
        shift=st.sampled_from([0, 8]),
    )
    def test_prebuilt_ladder_keys_match_scalar_mul(
        self, base, seeds, prebuilt, shift
    ):
        """Products from keys built ahead (pool / client stock) equal
        scalar_mul, mixed with instances that build theirs here; an
        unclamped scalar has no key and falls back."""
        point = BASES[base]
        ks = [clamp_scalar(seed) << shift for seed in seeds]
        keys = [
            CURVE25519_GROUP.ladder_key(k) if use else None
            for k, use in zip(ks, prebuilt)
        ]
        out = CURVE25519_GROUP.exp_many(
            [point], ks, [_power(k) for k in ks], keys
        )
        assert [q.encode() for q in out] == [
            scalar_mul(point, k).encode() for k in ks
        ]

    def test_prebuilt_keys_are_not_rebuilt(self, monkeypatch, fallbacks):
        rng = np.random.default_rng(5)
        ks = [CURVE25519_GROUP.random_exponent(rng) for _ in range(3)]
        keys = [CURVE25519_GROUP.ladder_key(k) for k in ks]
        built = []
        monkeypatch.setattr(curve_module, "ladder_key", built.append)
        out = CURVE25519_GROUP.exp_many(
            [BASES["subgroup"]], ks, [_power(k) for k in ks], keys
        )
        assert out == [scalar_mul(BASES["subgroup"], k) for k in ks]
        assert built == [] and fallbacks == []

    def test_clamped_products_use_the_ladder(self, fallbacks):
        rng = np.random.default_rng(4)
        ks = [CURVE25519_GROUP.random_exponent(rng) for _ in range(3)]
        points = [BASES["subgroup"], BASES["mixed-torsion"]]
        for point in points:
            CURVE25519_GROUP.exp_many([point], ks, [_power(k) for k in ks])
        CURVE25519_GROUP.exp_many(points, ks[:1], [_power(ks[0])])
        assert fallbacks == []

    @pytest.mark.parametrize("order", range(8))
    def test_small_order_companion_falls_back(self, order, fallbacks):
        """``B = T - G`` is a valid peer element whose companion
        ``B + G = T`` has small order: the ladder rejects it (or it is
        the identity), so the product comes from scalar_mul."""
        torsion = SMALL_ORDER[order]
        base = CURVE25519_GROUP.decode_element(
            torsion.add(BASE_POINT.negate()).encode()
        )
        k = CURVE25519_GROUP.random_exponent(np.random.default_rng(order))
        # (bases, exponents, products on the adversarial base)
        shapes = [([base], [k, k], 2), ([base, BASES["subgroup"]], [k], 1)]
        for bases, ks, adversarial in shapes:
            fallbacks.clear()
            out = CURVE25519_GROUP.exp_many(bases, ks, [_power(k)] * len(ks))
            expected = [scalar_mul(b, n) for b in bases for n in ks]
            assert [q.encode() for q in out] == [
                q.encode() for q in expected
            ]
            assert fallbacks == [k] * adversarial

    def test_wrong_power_falls_back(self, fallbacks):
        """A ``powers`` entry that is not ``n * G`` recovers a point off
        the curve; the check catches it and scalar_mul answers."""
        k = CURVE25519_GROUP.random_exponent(np.random.default_rng(6))
        point, = CURVE25519_GROUP.exp_many(
            [BASES["subgroup"]], [k], [_power(k + 8)]
        )
        assert point == scalar_mul(BASES["subgroup"], k)
        assert fallbacks == [k]

    def test_shapes_are_checked(self):
        G, S = CURVE25519_GROUP, BASES["subgroup"]
        assert G.exp_many([S], [], []) == []
        with pytest.raises(CryptoError):
            G.exp_many([S, S], [8, 16], [_power(8), _power(16)])
        with pytest.raises(CryptoError):
            G.exp_many([S], [8, 16], [_power(8)])
        with pytest.raises(CryptoError):
            G.exp_many([S], [8, 16], [_power(8), _power(16)], [None])


class TestDecodeDifferential:
    """The ``x‖y`` decoder accepts exactly the points protocol 2's
    compressed decoder (decompress + small-order check) accepts, and
    returns the same point; it never takes a square root."""

    @settings(max_examples=60, deadline=None)
    @given(
        s=st.one_of(st.just(0), st.integers(min_value=1, max_value=L - 1)),
        torsion=st.integers(min_value=0, max_value=7),
    )
    def test_agrees_on_points(self, s, torsion):
        point = scalar_mul(BASE_POINT, s).add(SMALL_ORDER[torsion])
        self._check(point.encode(), compress(point))

    @pytest.mark.parametrize("torsion", range(8))
    def test_small_order_points_rejected_by_both(self, torsion):
        point = SMALL_ORDER[torsion]
        for decode, data in (
            (CURVE25519_GROUP.decode_element, point.encode()),
            (reference_decode, compress(point)),
        ):
            with pytest.raises(ProtocolError, match="small order"):
                decode(data)

    @settings(max_examples=60, deadline=None)
    @given(
        x=st.integers(min_value=0, max_value=P - 1),
        y=st.integers(min_value=0, max_value=P - 1),
    )
    def test_agrees_on_coordinate_pairs(self, x, y):
        """Arbitrary pairs: accepted only when the compressed form of
        ``y`` and the sign of ``x`` decodes back to exactly ``(x, y)``
        (almost never, so the pair is also tried as a valid point's
        ``y`` with both signs of its ``x``)."""
        self._check(xy(x, y), (y | (x & 1) << 255).to_bytes(32, "little"))
        try:
            point = decompress(y.to_bytes(32, "little"))
        except ProtocolError:
            return
        for q in (point, point.negate()):
            self._check(q.encode(), compress(q))

    @staticmethod
    def _check(data: bytes, compressed: bytes):
        try:
            expected = reference_decode(compressed)
            if expected.encode() != data:
                expected = None  # decompression found another x
        except ProtocolError:
            expected = None
        if expected is None:
            with pytest.raises(ProtocolError):
                CURVE25519_GROUP.decode_element(data)
        else:
            assert CURVE25519_GROUP.decode_element(data) == expected


def test_modp_processes_never_import_cryptography():
    """Only products OpenSSL can serve load it: the CLI plus one
    establishment over a small test group leave ``cryptography`` out of
    ``sys.modules``; then one curve product, or (in a second process)
    one 512-bit MODP product, loads it."""
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import repro.cli\n"
        "from repro.crypto import generate_dh_group\n"
        "from repro.protocol import KeyAgreementConfig, run_key_agreement\n"
        "from repro.utils.bits import BitSequence\n"
        "seed = BitSequence.random(36, np.random.default_rng(1))\n"
        "config = KeyAgreementConfig(\n"
        "    key_length_bits=128, eta=0.1,\n"
        "    group=generate_dh_group(96, rng=99))\n"
        "assert run_key_agreement(seed, seed, config, rng=1).success\n"
        "print('cryptography' in sys.modules)\n"
        "if sys.argv[1] == 'curve':\n"
        "    from repro.crypto.curve import CURVE25519_GROUP as G\n"
        "    e = 1 << 254\n"
        "else:\n"
        "    from repro.crypto import WAVEKEY_GROUP_512 as G\n"
        "    e = 3\n"
        "G.exp_many([G.power(8)], [e], [G.power(e)])\n"
        "print('cryptography' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    lines = []
    for product in ("curve", "modp512"):
        result = subprocess.run(
            [sys.executable, "-c", script, product],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        lines += result.stdout.split()
    assert lines[:2] == ["False", "True"]
    assert lines[2:] == ["False", "True"]


class TestX25519LowOrder:
    @settings(max_examples=20, deadline=None)
    @given(scalar=st.binary(min_size=32, max_size=32))
    def test_zero_u_gives_zero(self, scalar):
        assert x25519(scalar, bytes(32)) == bytes(32)
