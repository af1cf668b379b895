"""Curve25519 from scratch: X25519 ladder + twisted-Edwards group law.

``repro.crypto.ecc`` is the paper's *error-correcting-code* secure
sketch; this module is the *elliptic-curve* arithmetic (the other
"ECC") that gives the OT a production-grade group.  A 512-bit MODP
modulus is a simulation toy (well under 128-bit security against
index calculus) and a real 128-bit MODP level means 2048-bit
exponentiations; Curve25519 reaches ~128-bit security with 255-bit
field elements, which is why the RFID/mobile key-establishment
literature assumes curve groups on constrained devices.

Two coordinate systems, cross-checked against each other:

* the **X25519 Montgomery ladder** of RFC 7748 (x-coordinate only,
  constant shape) — the from-scratch :func:`x25519` is pinned to the
  RFC test vectors and is the reference OpenSSL's ladder is checked
  against;
* the **twisted-Edwards form** ``-x^2 + y^2 = 1 + d x^2 y^2``
  (birationally equivalent, RFC 8032 point arithmetic in extended
  homogeneous coordinates) — used by the OT, because Chou-Orlandi
  needs full group-law arithmetic: the receiver's masked reply is
  ``R = S + x*B`` and the sender's second key is ``y * (R - S)``,
  neither of which the x-only ladder can form.

Scalars are clamped per RFC 7748 (multiples of 8 in
``[2^254, 2^254 + 8*(2^251 - 1)]``): the cofactor-8 curve has small
torsion components the clamping annihilates.  Scalars are deliberately
*not* reduced mod ``L`` before variable-base multiplication, so the
multiple-of-8 property holds even against adversarial mixed-torsion
inputs.

Wire elements are affine ``x‖y``: 64 bytes, little-endian ``x`` then
little-endian ``y``.  :meth:`Curve25519Group.decode_element` checks
both coordinates are below ``p``, the curve equation (four field
multiplications) and membership in the eight small-order points (one
set lookup), so accepting a peer element takes no square root.

Every scalar multiplication the OT performs runs on OpenSSL's X25519
via ``cryptography``, imported on first use, and is lifted back to the
exact Edwards point without a square root: from ``u(P)`` and
``u(P + Q)`` for a known point ``Q`` the a=-1 addition law is linear
in ``x(P)`` (:func:`_solve_x`).  The variable-base products
(:func:`ladder_products`) take ``Q = n*G`` and a second ladder run on
``B + G``; the fixed-base powers (:func:`base_powers`) take
``Q = 8*G`` and the two public keys OpenSSL derives for ``m`` and
``m + 8``, where ``m`` is the clamped scalar with ``m*G = ±n*G``.
The group law, validation and the rare fallbacks stay pure-Python
big-int arithmetic: inversions use CPython's C-level ``pow(z, -1, p)``
or one batched inversion, and :func:`scalar_mul` uses signed radix-16
digits over cached points.  Every fast path is cross-checked against
:func:`scalar_mul_naive` or :func:`scalar_mul`, and the wire bytes are
pinned by ``tests/crypto/test_ot_transcript.py``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.crypto.group import Group
from repro.errors import CryptoError, ProtocolError
from repro.utils.rng import ensure_rng

#: The field prime 2^255 - 19.
P = (1 << 255) - 19

#: Order of the prime-order subgroup (both forms share it).
L = (1 << 252) + 27742317777372353535851937790883648493

#: Twisted-Edwards ``d`` = -121665/121666 mod p.
D = (-121665 * pow(121666, P - 2, P)) % P

#: Montgomery ladder constant (A - 2) / 4 for A = 486662.
_A24 = 121665

#: The RFC 7748 X25519 base point (u = 9), encoded.
X25519_BASE = (9).to_bytes(32, "little")


# -- X25519 (RFC 7748 s5) ------------------------------------------------------


def clamp_scalar(data: bytes) -> int:
    """Clamp 32 scalar bytes per RFC 7748 and return the integer."""
    if len(data) != 32:
        raise CryptoError("X25519 scalars are exactly 32 bytes")
    k = bytearray(data)
    k[0] &= 248
    k[31] &= 127
    k[31] |= 64
    return int.from_bytes(k, "little")


def x25519(scalar: bytes, u: bytes) -> bytes:
    """The X25519 function of RFC 7748 s5: ``scalar * u`` on the ladder."""
    if len(u) != 32:
        raise CryptoError("X25519 u-coordinates are exactly 32 bytes")
    k = clamp_scalar(scalar)
    x1 = int.from_bytes(u, "little") & ((1 << 255) - 1)
    x2, z2 = 1, 0
    x3, z3 = x1, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        a = (x2 + z2) % P
        aa = a * a % P
        b = (x2 - z2) % P
        bb = b * b % P
        e = (aa - bb) % P
        c = (x3 + z3) % P
        d = (x3 - z3) % P
        da = d * a % P
        cb = c * b % P
        x3 = (da + cb) % P
        x3 = x3 * x3 % P
        z3 = (da - cb) % P
        z3 = x1 * (z3 * z3 % P) % P
        x2 = aa * bb % P
        z2 = e * ((aa + _A24 * e) % P) % P
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    # z2 == 0 only for the RFC 7748 low-order inputs, whose output is
    # the all-zero u-coordinate (x2 / 0 read as x2 * 0^(p-2) = 0).
    out = x2 * pow(z2, -1, P) % P if z2 else 0
    return out.to_bytes(32, "little")


# -- twisted-Edwards points (RFC 8032 s5.1) ------------------------------------


class EdwardsPoint:
    """A point in extended homogeneous coordinates ``(X : Y : Z : T)``.

    Invariants: ``Z != 0``, ``x = X/Z``, ``y = Y/Z``, ``T = XY/Z``.
    The formulas are the complete a=-1 set of RFC 8032 s5.1.4 — no
    exceptional cases, so add/double work for every input pair.
    """

    __slots__ = ("x", "y", "z", "t")

    def __init__(self, x: int, y: int, z: int, t: int):
        self.x = x
        self.y = y
        self.z = z
        self.t = t

    def add(self, other: "EdwardsPoint") -> "EdwardsPoint":
        a = (self.y - self.x) * (other.y - other.x) % P
        b = (self.y + self.x) * (other.y + other.x) % P
        c = 2 * self.t * other.t % P * D % P
        d = 2 * self.z * other.z % P
        e = (b - a) % P
        f = (d - c) % P
        g = (d + c) % P
        h = (b + a) % P
        return EdwardsPoint(e * f % P, g * h % P, f * g % P, e * h % P)

    def double(self) -> "EdwardsPoint":
        a = self.x * self.x % P
        b = self.y * self.y % P
        c = 2 * self.z * self.z % P
        h = (a + b) % P
        s = (self.x + self.y) % P
        e = (h - s * s) % P
        g = (a - b) % P
        f = (c + g) % P
        return EdwardsPoint(e * f % P, g * h % P, f * g % P, e * h % P)

    def negate(self) -> "EdwardsPoint":
        return EdwardsPoint((-self.x) % P, self.y, self.z, (-self.t) % P)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdwardsPoint):
            return NotImplemented
        return (
            (self.x * other.z - other.x * self.z) % P == 0
            and (self.y * other.z - other.y * self.z) % P == 0
        )

    def __hash__(self) -> int:
        inv_z = pow(self.z, -1, P)
        return hash((self.x * inv_z % P, self.y * inv_z % P))

    def __repr__(self) -> str:
        return f"EdwardsPoint({self.encode().hex()})"

    def is_identity(self) -> bool:
        return self.x % P == 0 and (self.y - self.z) % P == 0

    def is_small_order(self) -> bool:
        """Order dividing the cofactor 8 (identity included)."""
        return self.double().double().double().is_identity()

    def is_on_curve(self) -> bool:
        x, y, z, t = self.x, self.y, self.z, self.t
        if z % P == 0:
            return False
        if (x * y - z * t) % P != 0:
            return False
        return (y * y - x * x - z * z - D * t * t % P) % P == 0

    def montgomery_u(self) -> int:
        """The birational map to Montgomery form: ``u = (1+y)/(1-y)``,
        taken projectively as ``(Z+Y)/(Z-Y)`` (one inversion)."""
        denominator = (self.z - self.y) % P
        if denominator == 0:
            raise CryptoError("the identity has no Montgomery u-coordinate")
        return (self.z + self.y) * pow(denominator, -1, P) % P

    def encode(self) -> bytes:
        """The 64-byte wire encoding: LE affine ``x``, then LE ``y``."""
        return self.encode_scaled(pow(self.z, -1, P))

    def encode_scaled(self, inv_z: int) -> bytes:
        """:meth:`encode` given ``inv_z = 1/Z``, which a batch of points
        shares the cost of (:func:`_batch_invert`)."""
        return (self.x * inv_z % P).to_bytes(32, "little") + (
            self.y * inv_z % P
        ).to_bytes(32, "little")


def _identity() -> EdwardsPoint:
    return EdwardsPoint(0, 1, 1, 0)


#: Base point: y = 4/5 (mod p) with even x — the RFC 8032 generator of
#: the order-L subgroup, the Edwards image of the Montgomery u = 9.
_BASE_X, _BASE_Y = (
    15112221349535400772501151409588531511454012693041857206046113283949847762202,
    46316835694926478169428394003475163141307993866256225615783033603165251855960,
)
BASE_POINT = EdwardsPoint(_BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % P)


#: ``2d``: the addend factor of the cached-point additions below.
_D2 = 2 * D % P

#: Low 255 bits.  Since ``2^255 = 19 (mod p)``, the hot loops below
#: partially reduce a product ``t`` as ``(t & _MASK) + 19 * (t >> 255)``
#: (congruent, at most a few bits over 255, and about half the cost of
#: ``t % P``) wherever the next step is an addition; every coordinate
#: they store is fully reduced, so magnitudes never grow.
_MASK = (1 << 255) - 1


def _signed_nibbles(n: int) -> List[int]:
    """Radix-16 digits of ``n >= 0`` in ``[-7, 8]``, least significant
    first.  A digit above 8 borrows 16 from the next one, so the top
    digit is always positive (a carry out of the top adds a digit 1)."""
    digits = []
    while n:
        digit = n & 15
        n >>= 4
        if digit > 8:
            digit -= 16
            n += 1
        digits.append(digit)
    return digits


def scalar_mul(point: EdwardsPoint, n: int) -> EdwardsPoint:
    """``n * point`` via signed radix-16 digits (~252 doubles + 63 adds).

    The eight multiples ``1P..8P`` are cached as ``(Y+X, Y-X, 2Z, 2dT)``
    (negation swaps the first two and negates the last), so an addition
    costs eight multiplications.  The doublings run on local integers
    and form ``T`` only before an addition or at the end, since the
    a=-1 doubling never reads it.

    Negative scalars reduce mod ``L`` (callers only pass them for
    subgroup points); non-negative scalars are used as-is so clamping's
    multiple-of-8 property survives adversarial mixed-torsion inputs.
    """
    if n < 0:
        n %= L
    if n == 0:
        return _identity()
    digits = _signed_nibbles(n)
    multiples = [point, point.double()]
    for _ in range(6):
        multiples.append(multiples[-1].add(point))
    # table[k] adds k * point and table[-k] (index 16 - k) subtracts it.
    table: List[Optional[tuple]] = [None] * 16
    for k, m in enumerate(multiples, 1):
        ypx, ymx, t2d = (m.y + m.x) % P, (m.y - m.x) % P, m.t * _D2 % P
        z2 = 2 * m.z % P
        table[k] = (ypx, ymx, z2, t2d)
        if k < 8:
            table[-k] = (ymx, ypx, z2, -t2d % P)
    top = multiples[digits[-1] - 1]
    if len(digits) == 1:
        return top
    p, m = P, _MASK
    X, Y, Z = top.x, top.y, top.z
    for digit in reversed(digits[:-1]):
        for _ in range(4):
            t = X * X
            A = (t & m) + 19 * (t >> 255)
            t = Y * Y
            B = (t & m) + 19 * (t >> 255)
            H = A + B
            t = (X + Y) * (X + Y)
            E = H - (t & m) - 19 * (t >> 255)
            G = A - B
            t = Z * Z << 1
            F = (t & m) + 19 * (t >> 255) + G
            X = E * F % p
            Y = G * H % p
            Z = F * G % p
        if digit:
            ypx, ymx, z2, t2d = table[digit]
            t = (Y - X) * ymx
            A = (t & m) + 19 * (t >> 255)
            t = (Y + X) * ypx
            B = (t & m) + 19 * (t >> 255)
            t = E * H % p * t2d
            C = (t & m) + 19 * (t >> 255)
            t = Z * z2
            Dz = (t & m) + 19 * (t >> 255)
            E = B - A
            F = Dz - C
            G = Dz + C
            H = B + A
            X = E * F % p
            Y = G * H % p
            Z = F * G % p
    return EdwardsPoint(X, Y, Z, E * H % P)


def scalar_mul_naive(point: EdwardsPoint, n: int) -> EdwardsPoint:
    """Left-to-right double-and-add: the reference the window path and
    the fixed-base powers are cross-checked against."""
    if n < 0:
        n %= L
    acc = _identity()
    for t in range(n.bit_length() - 1, -1, -1):
        acc = acc.double()
        if (n >> t) & 1:
            acc = acc.add(point)
    return acc


def _batch_invert(values: List[int]) -> List[int]:
    """Inverses of every value with one field inversion (Montgomery's
    trick: 3 multiplications per value).  Values must be reduced mod
    ``p``; a zero maps to zero, as ``0^(p-2)`` would."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        if v:
            acc = acc * v % P
    inv = pow(acc, -1, P)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        v = values[i]
        if v:
            out[i] = inv * prefix[i] % P
            inv = inv * v % P
    return out


def _on_curve(x: int, y: int) -> bool:
    """Whether affine ``(x, y)`` satisfies ``-x^2 + y^2 = 1 + d x^2 y^2``."""
    xx, yy = x * x % P, y * y % P
    return (yy - xx - 1 - D * xx % P * yy) % P == 0


#: An order-8 point, affine.
_X8, _Y8 = (
    14399317868200118260347934320527232580618823971194345261214217575416788799818,
    2707385501144840649318225287225658788936804267575313519463743609750303402022,
)

#: Encodings of the eight points of order dividing 8 (the identity
#: included): the multiples of the order-8 point.  On the curve,
#: membership is exactly :meth:`EdwardsPoint.is_small_order`.
_SMALL_ORDER = frozenset(
    scalar_mul_naive(EdwardsPoint(_X8, _Y8, 1, _X8 * _Y8 % P), k).encode()
    for k in range(8)
)


# -- exact points from OpenSSL's X25519 ladder -------------------------------


def _solve_x(u1: int, u3: int, xq: int, yq: int) -> Tuple[int, int, int]:
    """Projective ``(X, Y, Z)`` of the point ``R`` with ``u(R) = u1``
    and ``u(R + Q) = u3``, for a known affine ``Q = (xq, yq)``.

    Each ``u`` gives a ``y`` through ``y = (u - 1)/(u + 1)``; with
    ``y1 = y(R)`` and ``y3 = y(R + Q)`` the a=-1 addition law is
    linear in ``x``:

        x(R) = (y3 - y1 yq) / (xq (1 + d y1 y3 yq)),

    so no square root is taken.  Both fractions are cleared, so the
    caller inverts ``Z`` (in a batch); ``Z == 0`` marks an instance
    the formula cannot serve, and a wrong ``u`` or ``Q`` shows up as
    a result off the curve (:func:`_checked_points`).
    """
    a1, b1, a3, b3 = u1 - 1, u1 + 1, u3 - 1, u3 + 1
    num = (a3 * b1 - a1 * b3 % P * yq) % P
    den = xq * ((b1 * b3 + D * a1 % P * a3 % P * yq) % P) % P
    return num * b1 % P, a1 * den % P, den * b1 % P


def _checked_points(
    solved: List[Optional[Tuple[int, int, int]]],
) -> List[Optional[EdwardsPoint]]:
    """The affine points of :func:`_solve_x` results, with one batched
    inversion; ``None`` for a missing entry, a zero ``Z`` or a point
    off the curve."""
    inverses = _batch_invert([s[2] if s else 0 for s in solved])
    out: List[Optional[EdwardsPoint]] = []
    for s, inv in zip(solved, inverses):
        point = None
        if inv:
            x, y = s[0] * inv % P, s[1] * inv % P
            if _on_curve(x, y):
                point = EdwardsPoint(x, y, 1, x * y % P)
        out.append(point)
    return out


def _u(public_key) -> int:
    return int.from_bytes(public_key.public_bytes_raw(), "little")


def _montgomery_us(points: List[EdwardsPoint]) -> List[Optional[bytes]]:
    """Encoded ``u = (Z+Y)/(Z-Y)`` of every point with one inversion;
    ``None`` for the identity, which has no u-coordinate."""
    inverses = _batch_invert([(q.z - q.y) % P for q in points])
    return [
        ((q.z + q.y) * inv % P).to_bytes(32, "little") if inv else None
        for q, inv in zip(points, inverses)
    ]


def ladder_key(n: int):
    """OpenSSL's X25519 private key for scalar ``n``, or ``None`` when
    ``n`` is not in clamped form (the ladder clamps, so it cannot serve
    it).  Building one costs ~45 µs, almost all of it the public key
    ``u(n*G)`` OpenSSL derives on load.  :func:`base_powers` reads that
    public key, so a clamped exponent's power and key come from one
    load; material that meets a peer's base later keeps the key."""
    # Imported here, so processes that never multiply on the curve
    # (MODP, resume-only) never load OpenSSL.
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PrivateKey,
    )

    if n >> 254 == 1 and not n & 7:
        return X25519PrivateKey.from_private_bytes(n.to_bytes(32, "little"))
    return None


#: ``8^-1 mod L``: ``m = 8 * (n * _INV8 mod L)`` is the multiple of 8
#: congruent to ``n``.
_INV8 = pow(8, -1, L)

#: ``Q = 8*G``, affine: the known addend of :func:`base_powers`.
_XQ8, _YQ8 = (
    46706390780465557264338673484185971070529246228527338942042475661633188627656,
    15299170165656271974649334809062094114079726227711063015095704409550798436788,
)


def _clamped_representative(n: int) -> Tuple[Optional[int], bool]:
    """``(m, negate)`` with ``m`` and ``m + 8`` both clamped and
    ``m*G = -n*G`` if ``negate`` else ``n*G``; ``(None, False)`` for
    the residues with no such ``m`` (0 among them, ~2^-127 of the
    rest)."""
    k = n * _INV8 % L
    for candidate, negate in ((k, False), (-k % L, True)):
        # m = 8k is clamped for k in [2^251, 2^252); m + 8 needs k + 1 too.
        if candidate >> 251 == 1 and candidate + 1 >> 251 == 1:
            return 8 * candidate, negate
    return None, False


def base_powers(scalars: List[int]) -> List[Tuple[EdwardsPoint, object]]:
    """``(n*G, ladder_key(n))`` for every scalar, both off OpenSSL.

    For the clamped representative ``m`` of ``±n``
    (:func:`_clamped_representative`), loading the X25519 private keys
    ``m`` and ``m + 8`` derives ``u(m*G)`` and ``u(m*G + 8*G)``, and
    :func:`_solve_x` with ``Q = 8*G`` recovers the exact ``m*G`` (one
    inversion per batch).  A clamped ``n`` is its own representative,
    so its ladder key is the ``m`` key already loaded.  A residue
    without a representative, a zero denominator or a result off the
    curve falls back to :func:`scalar_mul`.
    """
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PrivateKey,
    )

    load = X25519PrivateKey.from_private_bytes
    plans, solved = [], []
    for n in scalars:
        m, negate = _clamped_representative(n)
        key = None
        if m is not None:
            key = load(m.to_bytes(32, "little"))
            u1 = _u(key.public_key())
            u3 = _u(load((m + 8).to_bytes(32, "little")).public_key())
            solved.append(_solve_x(u1, u3, _XQ8, _YQ8))
        else:
            solved.append(None)
        plans.append((n, m, negate, key))
    out = []
    for (n, m, negate, key), point in zip(plans, _checked_points(solved)):
        if point is None:
            point = scalar_mul(BASE_POINT, n % L)
        elif negate:
            point = point.negate()
        out.append((point, key if m == n else ladder_key(n)))
    return out


def ladder_products(
    bases: List[EdwardsPoint],
    scalars: List[int],
    powers: List[EdwardsPoint],
    keys: Optional[List] = None,
) -> List[EdwardsPoint]:
    """``scalar_mul(base, n)`` for a batch, with the x-only work on
    OpenSSL's X25519 ladder; the result is the exact Edwards point.

    One of ``bases`` and ``scalars`` has length 1 and pairs with every
    entry of the other; ``powers[j]`` is ``scalars[j] * G``.  For each
    product ``n * B`` the ladder runs on ``u(B)`` and on the companion
    ``u(B + G)``, whose product is ``n*B + n*G``, and :func:`_solve_x`
    with ``Q = n*G`` recovers ``n*B``.  The ladder clamps its scalar,
    so only scalars already in clamped form use it; their multiple-of-8
    clears any torsion component of ``B``, as in :func:`scalar_mul`.
    An instance the ladder cannot serve — an unclamped scalar, an
    identity companion, a ladder output of zero (a small-order
    companion such as ``B = T - G``), a zero denominator, or a result
    off the curve (a wrong ``powers`` entry) — falls back to
    :func:`scalar_mul`.  ``keys[j]``, when given and not ``None``, is
    ``scalars[j]``'s prebuilt :func:`ladder_key`; the other scalars get
    theirs built here.
    """
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PublicKey,
    )

    nb = len(bases)
    # (base index, scalar index) of every product.
    pairs = [
        (0 if nb == 1 else i, 0 if len(scalars) == 1 else i)
        for i in range(max(nb, len(scalars)))
    ]
    # u(B) and u(B + G) for every distinct base, and the affine n*G.
    us = _montgomery_us(bases + [b.add(BASE_POINT) for b in bases])
    public_keys = [
        X25519PublicKey.from_public_bytes(u) if u is not None else None
        for u in us
    ]
    z_inverses = _batch_invert([q.z % P for q in powers])
    keys = [
        key if key is not None else ladder_key(n)
        for n, key in zip(scalars, keys or [None] * len(scalars))
    ]
    solved = []
    for b, j in pairs:
        key, pub, pub_companion = keys[j], public_keys[b], public_keys[nb + b]
        if key is None or pub is None or pub_companion is None:
            solved.append(None)
            continue
        try:
            u1 = int.from_bytes(key.exchange(pub), "little")
            u3 = int.from_bytes(key.exchange(pub_companion), "little")
        except ValueError:
            solved.append(None)
            continue
        q, inv_zq = powers[j], z_inverses[j]
        solved.append(_solve_x(u1, u3, q.x * inv_zq % P, q.y * inv_zq % P))
    return [
        point if point is not None else scalar_mul(bases[b], scalars[j])
        for (b, j), point in zip(pairs, _checked_points(solved))
    ]


class Curve25519Group(Group):
    """The prime-order subgroup of Curve25519 as an OT :class:`Group`.

    Elements are :class:`EdwardsPoint` objects; ``mul`` is point
    addition, ``div`` adds the negation, ``power`` is a fixed-base
    multiple of the base point read off OpenSSL (:func:`base_powers`),
    and exponents are RFC 7748 clamped scalars (so exponent arithmetic
    for the precomputed sender factor happens mod the subgroup order
    ``L``).
    """

    name = "curve25519"

    def __eq__(self, other) -> bool:
        return isinstance(other, Curve25519Group)

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return "Curve25519Group()"

    @property
    def bits(self) -> int:
        return 255

    @property
    def exponent_modulus(self) -> int:
        return L

    def random_exponent(self, rng) -> int:
        rng = ensure_rng(rng)
        raw = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
        return clamp_scalar(raw)

    @property
    def comb_enabled(self) -> bool:
        return True

    def power(self, exponent: int) -> EdwardsPoint:
        return base_powers([exponent])[0][0]

    def powers_and_keys(self, exponents):
        return base_powers(list(exponents))

    def power_naive(self, exponent: int) -> EdwardsPoint:
        return scalar_mul_naive(BASE_POINT, exponent % L)

    def exp(self, element: EdwardsPoint, exponent: int) -> EdwardsPoint:
        return scalar_mul(element, exponent)

    def ladder_key(self, exponent: int):
        return ladder_key(exponent)

    def _exp_many(self, bases, exponents, powers, keys):
        return ladder_products(bases, exponents, powers, keys)

    def mul(self, a: EdwardsPoint, b: EdwardsPoint) -> EdwardsPoint:
        return a.add(b)

    def div(self, a: EdwardsPoint, b: EdwardsPoint) -> EdwardsPoint:
        return a.add(b.negate())

    def contains(self, element) -> bool:
        return (
            isinstance(element, EdwardsPoint)
            and element.is_on_curve()
            and not element.is_small_order()
        )

    def encode_element(self, element: EdwardsPoint) -> bytes:
        return element.encode()

    def encode_elements(self, elements) -> List[bytes]:
        inverses = _batch_invert([q.z % P for q in elements])
        return [q.encode_scaled(inv) for q, inv in zip(elements, inverses)]

    def decode_element(self, data: bytes) -> EdwardsPoint:
        """Parse ``x‖y``: both coordinates below ``p``, on the curve,
        and not one of the eight small-order points."""
        if len(data) != 64:
            raise ProtocolError(
                f"curve25519 elements are 64 bytes, got {len(data)}"
            )
        x = int.from_bytes(data[:32], "little")
        y = int.from_bytes(data[32:], "little")
        if x >= P or y >= P:
            raise ProtocolError(
                "non-canonical curve25519 encoding (coordinate >= p)"
            )
        if not _on_curve(x, y):
            raise ProtocolError("curve25519 element is not on the curve")
        if data in _SMALL_ORDER:
            raise ProtocolError("curve25519 element has small order")
        return EdwardsPoint(x, y, 1, x * y % P)


#: The module-level singleton the protocol/CLI use (value-equal to any
#: other instance; stocks and configs key off it like a group constant).
CURVE25519_GROUP = Curve25519Group()
