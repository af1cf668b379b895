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
inputs.  Wire elements are the canonical 32-byte RFC 8032 encoding
(little-endian ``y`` with the sign of ``x`` in bit 255);
:func:`decode_point` rejects non-canonical (``y >= p``) and off-curve
encodings and :meth:`Curve25519Group.decode_element` additionally
rejects the eight small-order points.

Only the x-only ladder runs outside this module: the OT's
variable-base products (:meth:`Curve25519Group.exp_many`, through
:func:`ladder_products`) run on OpenSSL's X25519 via ``cryptography``,
imported on first use, and each exact Edwards point is recovered from
a second ladder run on ``B + G`` and the caller's known ``n * G``.  The
group law, decoding and validation, the fixed-base comb and the pool
stay pure-Python big-int arithmetic, so their costs are counted in
field multiplications and inversions: inversions use CPython's C-level
``pow(z, -1, p)`` or one batched inversion (decoding folds its division
into the square root), :func:`scalar_mul` uses signed radix-16 digits
over cached points, and the fixed-base :class:`EdwardsComb` on the base
point stores affine rows for 7-multiplication mixed additions.  Every
fast path is cross-checked against :func:`scalar_mul_naive` or
:func:`scalar_mul`, and the wire bytes are pinned by
``tests/crypto/test_ot_transcript.py``.
"""

from __future__ import annotations

import threading
from typing import List, Optional

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

#: A square root of -1 (p = 5 mod 8), used in point decompression.
SQRT_M1 = pow(2, (P - 1) // 4, P)

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
        """Canonical 32-byte encoding: LE ``y``, sign of ``x`` in bit 255."""
        return self.encode_scaled(pow(self.z, -1, P))

    def encode_scaled(self, inv_z: int) -> bytes:
        """:meth:`encode` given ``inv_z = 1/Z``, which a batch of points
        shares the cost of (:func:`_batch_invert`)."""
        x = self.x * inv_z % P
        y = self.y * inv_z % P
        data = bytearray(y.to_bytes(32, "little"))
        if x & 1:
            data[31] |= 0x80
        return bytes(data)


def _identity() -> EdwardsPoint:
    return EdwardsPoint(0, 1, 1, 0)


def _recover_x(y: int, sign: int) -> int:
    """RFC 8032 s5.1.3 decompression; raises on off-curve encodings.

    ``x^2 = u/v`` with ``u = y^2 - 1`` and ``v = d y^2 + 1`` (never 0:
    ``-1/d`` is not a square).  The root candidate
    ``u v^3 (u v^7)^((p-5)/8)`` folds the division into the square-root
    exponentiation, so decoding costs one ``pow`` and no inversion.
    """
    yy = y * y % P
    u = (yy - 1) % P
    if u == 0:
        if sign:
            raise ProtocolError(
                "invalid curve25519 encoding: x = 0 with sign bit set"
            )
        return 0
    v = (D * yy + 1) % P
    v3 = v * v % P * v % P
    x = u * v3 % P * pow(u * v3 % P * v3 % P * v % P, (P - 5) // 8, P) % P
    vxx = v * x % P * x % P
    if vxx != u:
        if vxx != P - u:
            raise ProtocolError("curve25519 encoding is not on the curve")
        x = x * SQRT_M1 % P
    if (x & 1) != sign:
        x = P - x
    return x


def decode_point(data: bytes) -> EdwardsPoint:
    """Parse a canonical 32-byte encoding (small-order points allowed)."""
    if len(data) != 32:
        raise ProtocolError(
            f"curve25519 elements are 32 bytes, got {len(data)}"
        )
    sign = data[31] >> 7
    y = int.from_bytes(data, "little") & ((1 << 255) - 1)
    if y >= P:
        raise ProtocolError(
            "non-canonical curve25519 encoding (y >= p)"
        )
    x = _recover_x(y, sign)
    return EdwardsPoint(x, y, 1, x * y % P)


#: Base point: y = 4/5 (mod p) with even x — the RFC 8032 generator of
#: the order-L subgroup, the Edwards image of the Montgomery u = 9.
_BASE_Y = 4 * pow(5, P - 2, P) % P
_BASE_X = _recover_x(_BASE_Y, 0)
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
    """Left-to-right double-and-add: the reference the window and comb
    paths are cross-checked against."""
    if n < 0:
        n %= L
    acc = _identity()
    for t in range(n.bit_length() - 1, -1, -1):
        acc = acc.double()
        if (n >> t) & 1:
            acc = acc.add(point)
    return acc


#: Comb window of the group's fixed-base table, chosen by measurement
#: (EXPERIMENTS.md): window 6 builds in ~40 ms and powers in ~0.19 ms;
#: window 8 powers no faster but takes ~130 ms to build.
COMB_WINDOW = 6


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


# -- variable-base products on OpenSSL's X25519 ladder ------------------------


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
    it).  Building one costs ~50 µs, most of it a public key nobody
    reads, so material that will meet a peer's base later builds its
    key when it is made, off the request path."""
    # Imported here, so processes that never multiply on the curve
    # (MODP, resume-only) never load OpenSSL.
    from cryptography.hazmat.primitives.asymmetric.x25519 import (
        X25519PrivateKey,
    )

    if n >> 254 == 1 and not n & 7:
        return X25519PrivateKey.from_private_bytes(n.to_bytes(32, "little"))
    return None


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
    ``u(B + G)``, whose product is ``n*B + n*G``.  Both ``u`` give a
    ``y``, and with ``y1 = y(n*B)``, ``y3 = y(n*B + Q)`` for the known
    ``Q = n*G = (xq, yq)`` the a=-1 addition law is linear in ``x``:

        x(n*B) = (y3 - y1 yq) / (xq (1 + d y1 y3 yq)),

    so no square root is taken and every inversion is batched.  The
    ladder clamps its scalar, so only scalars already in clamped form
    use it; their multiple-of-8 clears any torsion component of ``B``,
    as in :func:`scalar_mul`.  An instance the ladder cannot serve — an
    unclamped scalar, an identity companion, a ladder output of zero
    (a small-order companion such as ``B = T - G``), a zero
    denominator, or a result off the curve (a wrong ``powers`` entry)
    — falls back to :func:`scalar_mul`.  ``keys[j]``, when given and
    not ``None``, is ``scalars[j]``'s prebuilt :func:`ladder_key`; the
    other scalars get theirs built here.
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
    recovered = []
    for b, j in pairs:
        key, pub, pub_companion = keys[j], public_keys[b], public_keys[nb + b]
        if key is None or pub is None or pub_companion is None:
            recovered.append(None)
            continue
        try:
            u1 = int.from_bytes(key.exchange(pub), "little")
            u3 = int.from_bytes(key.exchange(pub_companion), "little")
        except ValueError:
            recovered.append(None)
            continue
        q, inv_zq = powers[j], z_inverses[j]
        xq, yq = q.x * inv_zq % P, q.y * inv_zq % P
        # y1 = a1/b1 and y3 = a3/b3 from y = (u - 1)/(u + 1); then
        # x = num/den with both fractions cleared, and Z = den * b1.
        a1, b1, a3, b3 = u1 - 1, u1 + 1, u3 - 1, u3 + 1
        num = (a3 * b1 - a1 * b3 % P * yq) % P
        den = xq * ((b1 * b3 + D * a1 % P * a3 % P * yq) % P) % P
        recovered.append((num * b1 % P, a1 * den % P, den * b1 % P))
    inverses = _batch_invert([r[2] if r else 0 for r in recovered])
    out = []
    for (b, j), r, inv in zip(pairs, recovered, inverses):
        if inv:
            x, y = r[0] * inv % P, r[1] * inv % P
            xx, yy = x * x % P, y * y % P
            if (yy - xx - 1 - D * xx % P * yy) % P == 0:
                out.append(EdwardsPoint(x, y, 1, x * y % P))
                continue
        out.append(scalar_mul(bases[b], scalars[j]))
    return out


class EdwardsComb:
    """Fixed-base windowed table over Edwards additions.

    The exact shape of :class:`~repro.crypto.numbers.FixedBaseComb`
    with point addition for multiplication: digit row ``i`` holds
    ``(k << (window * i)) * base`` for every ``0 < k < 2^window``, so a
    fixed-base scalar mult is one addition per non-zero digit and no
    doublings at all.  Entries are stored affine as
    ``(y+x, y-x, 2dxy)`` — made affine with one batched inversion at
    build time — so each addition is a 7-multiplication mixed add.  At
    the default window 6, 256 bits take 43 rows of 64 entries (the zero
    digit's slot stays empty) and at most 43 additions per
    exponentiation.
    """

    __slots__ = ("base", "window", "digits", "_rows")

    def __init__(
        self, base: EdwardsPoint, bits: int = 256, window: int = COMB_WINDOW
    ):
        if not (1 <= window <= 8):
            raise CryptoError("comb window must be in [1, 8]")
        self.base = base
        self.window = window
        self.digits = -(-bits // window)
        radix = 1 << window
        points: List[EdwardsPoint] = []
        b = base
        for i in range(self.digits):
            row = [b]
            for _ in range(radix - 2):
                row.append(row[-1].add(b))
            points.extend(row)
            if i + 1 < self.digits:
                b = row[-1].add(b)
        inverses = _batch_invert([q.z for q in points])
        rows: List[List[Optional[tuple]]] = []
        for i in range(self.digits):
            row: List[Optional[tuple]] = [None]
            for j in range(i * (radix - 1), (i + 1) * (radix - 1)):
                q, inv_z = points[j], inverses[j]
                x = q.x * inv_z % P
                y = q.y * inv_z % P
                row.append(((y + x) % P, (y - x) % P, x * y % P * _D2 % P))
            rows.append(row)
        self._rows = rows

    @property
    def entries(self) -> int:
        return self.digits * (1 << self.window)

    def power(self, exponent: int) -> EdwardsPoint:
        """Exactly ``exponent * base``.

        Exponents outside the table range fall back to
        :func:`scalar_mul` *without* reducing mod ``L``, so the result
        stays exact for a base with a small-order component, which only
        the unreduced (clamped, multiple-of-8) scalar clears.
        """
        if exponent < 0:
            return scalar_mul(self.base, -exponent).negate()
        if exponent.bit_length() > self.digits * self.window:
            return scalar_mul(self.base, exponent)
        p, m = P, _MASK
        X, Y, Z, T = 0, 1, 1, 0
        mask = (1 << self.window) - 1
        for row in self._rows:
            if not exponent:
                break
            digit = exponent & mask
            exponent >>= self.window
            if digit:
                ypx, ymx, t2d = row[digit]
                t = (Y - X) * ymx
                A = (t & m) + 19 * (t >> 255)
                t = (Y + X) * ypx
                B = (t & m) + 19 * (t >> 255)
                t = T * t2d
                C = (t & m) + 19 * (t >> 255)
                Dz = Z << 1
                E = B - A
                F = Dz - C
                G = Dz + C
                H = B + A
                X = E * F % p
                Y = G * H % p
                Z = F * G % p
                T = E * H % p
        return EdwardsPoint(X, Y, Z, T)


class Curve25519Group(Group):
    """The prime-order subgroup of Curve25519 as an OT :class:`Group`.

    Elements are :class:`EdwardsPoint` objects; ``mul`` is point
    addition, ``div`` adds the negation, ``power`` is a fixed-base comb
    multiple of the base point, and exponents are RFC 7748 clamped
    scalars (so exponent arithmetic for the precomputed sender factor
    happens mod the subgroup order ``L``).
    """

    name = "curve25519"

    def __init__(self):
        self._comb: Optional[EdwardsComb] = None
        self._comb_lock = threading.Lock()

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

    def comb(self) -> EdwardsComb:
        table = self._comb
        if table is None:
            with self._comb_lock:
                table = self._comb
                if table is None:
                    table = EdwardsComb(BASE_POINT)
                    self._comb = table
        return table

    def power(self, exponent: int) -> EdwardsPoint:
        return self.comb().power(exponent % L)

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
        point = decode_point(data)
        if point.is_small_order():
            raise ProtocolError(
                "curve25519 element has small order"
            )
        return point


#: The module-level singleton the protocol/CLI use (value-equal to any
#: other instance; stocks and configs key off it like a group constant).
CURVE25519_GROUP = Curve25519Group()
