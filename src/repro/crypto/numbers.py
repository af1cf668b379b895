"""Number-theoretic primitives: primality testing and DH groups.

The paper's OT runs in a prime-order-ish multiplicative group described
by "two large prime numbers g and u" (Fig. 3's modulus ``u`` and base
``g``).  Production deployments should use a standardized group; we ship
the RFC 3526 1536- and 2048-bit MODP groups (generator 2, safe primes)
and a generator for small test groups so unit tests stay fast.

The OT's variable-base products (:meth:`DHGroup.exp_many`) run on
OpenSSL's Montgomery modexp through ``cryptography``'s DH exchange,
imported on first use: each exponent becomes a DH private key and each
base a DH public key, both loaded from DER, so the exchange's shared
secret is exactly ``base^exponent mod p``.  OpenSSL rejects a secret of
1 or ``p - 1`` (and ``cryptography`` then panics rather than raising),
so only inputs whose product cannot be ±1 reach it; the rest, and
every group below OpenSSL's 512-bit DH minimum, run on the built-in
``pow``, which stays the reference.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.crypto.group import Group
from repro.errors import CryptoError, ProtocolError
from repro.utils.rng import ensure_rng

#: Default comb window width (bits per digit).  Chosen empirically for
#: the 512-bit simulation group: window 6 gives ~6x over ``pow`` at a
#: ~5500-entry table (built once, lazily, in single-digit milliseconds);
#: wider windows buy little more while the table grows 2x per bit.
#: Override per call site, or process-wide via ``WAVEKEY_COMB_WINDOW``.
DEFAULT_COMB_WINDOW = int(os.environ.get("WAVEKEY_COMB_WINDOW", "6"))

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
)


def _rng_randint_below(rng, bound: int) -> int:
    """Uniform integer in [0, bound) using a numpy Generator for bigints."""
    if bound <= 0:
        raise CryptoError("bound must be positive")
    n_bits = bound.bit_length()
    n_bytes = (n_bits + 7) // 8
    while True:
        raw = int.from_bytes(bytes(rng.integers(0, 256, size=n_bytes,
                                                dtype=np.uint8)), "big")
        raw &= (1 << n_bits) - 1
        if raw < bound:
            return raw


def is_probable_prime(n: int, rounds: int = 40, rng=None) -> bool:
    """Miller-Rabin primality test (error probability <= 4^-rounds)."""
    n = int(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = ensure_rng(rng if rng is not None else 0xC0FFEE)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = 2 + _rng_randint_below(rng, n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FixedBaseComb:
    """Fixed-base windowed precomputation (Lim-Lee / BGMW family).

    The exponent is read as ``d = ceil(bits / window)`` digits of
    ``window`` bits each; for every digit position ``i`` the table holds
    ``base ** (k * 2 ** (window * i)) mod modulus`` for all ``k`` in
    ``[0, 2 ** window)``.  An exponentiation is then just one modular
    multiplication per non-zero digit — no squarings at all — which
    beats CPython's (C-level, but generic) sliding-window ``pow`` by
    ~4-6x at window 6 on 512-bit operands.

    Trade-off: the table costs ``d * 2 ** window`` residues of storage
    and ``d * 2 ** window`` multiplications to build, so a comb only
    pays for itself on bases that are exponentiated many times (a
    group generator, not a per-session peer element).  Exponents
    outside ``[0, 2 ** (window * d))`` fall back to the built-in
    ``pow`` — correctness never depends on the table covering the
    input.
    """

    __slots__ = ("base", "modulus", "window", "digits", "_tables")

    def __init__(
        self,
        base: int,
        modulus: int,
        max_exponent_bits: Optional[int] = None,
        window: int = DEFAULT_COMB_WINDOW,
    ):
        if modulus < 3:
            raise CryptoError("comb modulus too small")
        if not (0 < base < modulus):
            raise CryptoError("comb base outside (0, modulus)")
        if not (1 <= window <= 16):
            raise CryptoError("comb window must be in [1, 16]")
        bits = max_exponent_bits or modulus.bit_length()
        if bits < 1:
            raise CryptoError("max_exponent_bits must be >= 1")
        self.base = base
        self.modulus = modulus
        self.window = window
        self.digits = math.ceil(bits / window)
        radix = 1 << window
        tables = []
        b = base % modulus
        for _ in range(self.digits):
            row = [1] * radix
            row[1] = b
            for k in range(2, radix):
                row[k] = row[k - 1] * b % modulus
            tables.append(row)
            # base ** (2 ** (window * (i + 1))) for the next digit row.
            b = row[radix - 1] * b % modulus
        self._tables = tables

    @property
    def entries(self) -> int:
        """Total residues held (table-size knob: digits * 2**window)."""
        return self.digits * (1 << self.window)

    def power(self, exponent: int) -> int:
        """``base ** exponent mod modulus``, bit-exact with ``pow``."""
        exponent = int(exponent)
        if exponent < 0 or exponent.bit_length() > self.digits * self.window:
            return pow(self.base, exponent, self.modulus)
        acc = 1
        modulus = self.modulus
        tables = self._tables
        mask = (1 << self.window) - 1
        shift = self.window
        i = 0
        while exponent:
            digit = exponent & mask
            if digit:
                acc = acc * tables[i][digit] % modulus
            exponent >>= shift
            i += 1
        return acc


#: DER of the PKCS #3 ``dhKeyAgreement`` object identifier
#: (1.2.840.113549.1.3.1), which names a ``(p, g)`` DH key.
_DH_KEY_AGREEMENT_OID = bytes.fromhex("06092a864886f70d010301")

#: OpenSSL refuses DH over primes below this many bits.
_OPENSSL_DH_MIN_BITS = 512


def _der(tag: int, body: bytes) -> bytes:
    """One DER tag-length-value."""
    n = len(body)
    if n < 0x80:
        return bytes((tag, n)) + body
    length = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes((tag, 0x80 | len(length))) + length + body


def _der_integer(value: int) -> bytes:
    """DER ``INTEGER`` of a non-negative ``value`` (a leading zero
    byte keeps a set top bit from reading as a sign)."""
    return _der(0x02, value.to_bytes(value.bit_length() // 8 + 1, "big"))


@dataclass(frozen=True)
class DHGroup(Group):
    """A multiplicative group mod a safe prime, with a fixed generator.

    ``power`` (the fixed-base hot path: every OT announce/respond is a
    ``g ** x mod p``) runs through a lazily built, per-group-cached
    :class:`FixedBaseComb` table; ``power_naive`` retains the plain
    ``pow`` path as fallback and cross-check.  The comb can be disabled
    or re-tuned without touching the frozen value identity via
    :meth:`with_comb` — clones compare and hash equal to the original.
    With the comb enabled, :meth:`exp_many` runs the variable-base
    products on OpenSSL (see :meth:`_openssl_algorithm` for the gate);
    :meth:`exp` stays on ``pow``, the reference they are checked
    against.
    """

    prime: int
    generator: int
    name: str = "custom"

    def __post_init__(self):
        if self.prime < 5:
            raise CryptoError("group prime too small")
        if not (1 < self.generator < self.prime):
            raise CryptoError("generator outside (1, prime)")
        # Non-field state (cache + config) on a frozen dataclass: not
        # part of equality/hash, never serialized, set via the escape
        # hatch because plain attribute assignment is blocked.
        object.__setattr__(self, "_comb_lock", threading.Lock())
        object.__setattr__(self, "_combs", {})
        object.__setattr__(self, "_comb_enabled", True)
        object.__setattr__(self, "_comb_window", None)
        object.__setattr__(self, "_exponent_bits", None)
        # DER AlgorithmIdentifier of (p, g) for OpenSSL's keys, or
        # False where p is not a safe prime; built on first use
        # (:meth:`_openssl_algorithm`).
        object.__setattr__(self, "_algorithm", None)

    def _configured_clone(self, **overrides) -> "DHGroup":
        """Value-equal clone carrying this group's policy overrides."""
        clone = DHGroup(self.prime, self.generator, self.name)
        for key in (
            "_comb_enabled", "_comb_window", "_exponent_bits", "_algorithm"
        ):
            object.__setattr__(
                clone, key, overrides.get(key, getattr(self, key))
            )
        return clone

    @property
    def bits(self) -> int:
        return self.prime.bit_length()

    @property
    def comb_enabled(self) -> bool:
        """Whether :meth:`power` routes through the comb fast path."""
        return self._comb_enabled

    def with_comb(
        self, enabled: bool = True, window: Optional[int] = None
    ) -> "DHGroup":
        """A clone of this group with the comb fast path configured.

        The clone is value-equal to the original (same prime/generator/
        name) but holds its own table cache, so benchmarks can A/B the
        naive and comb paths on the same group without mutating shared
        module-level group constants.
        """
        if window is not None and not (1 <= window <= 16):
            raise CryptoError("comb window must be in [1, 16]")
        return self._configured_clone(
            _comb_enabled=bool(enabled), _comb_window=window
        )

    @property
    def exponent_bits(self) -> Optional[int]:
        """Secret-exponent length policy (None = full ``prime`` width)."""
        return self._exponent_bits

    def with_exponent_bits(self, bits: Optional[int]) -> "DHGroup":
        """A clone drawing secret exponents of ``bits`` bits.

        Short-exponent Diffie-Hellman (RFC 7919 s5.2, NIST SP 800-56A):
        a uniformly drawn ``n``-bit exponent gives ``n/2`` bits of
        security against Pollard's lambda, so sizing ``n`` to at least
        twice the modulus' own (index-calculus) security level loses
        nothing while shrinking every ``pow`` by the same factor the
        exponent shrank.  ``None`` restores full-width draws — the
        reference configuration benchmarks compare against.
        """
        if bits is not None:
            bits = int(bits)
            if bits < 64:
                raise CryptoError(
                    "short exponents below 64 bits are never a sound "
                    "trade; pass None for full-width draws"
                )
            if bits >= (self.prime - 2).bit_length():
                bits = None  # not actually short: keep full-width draws
        return self._configured_clone(_exponent_bits=bits)

    def comb(self, window: Optional[int] = None) -> FixedBaseComb:
        """The (lazily built, cached) comb table for the generator."""
        width = window or self._comb_window or DEFAULT_COMB_WINDOW
        combs: Dict[int, FixedBaseComb] = self._combs
        table = combs.get(width)
        if table is None:
            with self._comb_lock:
                table = combs.get(width)
                if table is None:
                    table = FixedBaseComb(
                        self.generator, self.prime, window=width
                    )
                    combs[width] = table
        return table

    def random_exponent(self, rng) -> int:
        """Uniform secret exponent in [1, prime - 2].

        Under a :meth:`with_exponent_bits` policy the draw narrows to
        ``[1, 2 ** exponent_bits - 1]``; the resulting group elements
        remain (computationally) indistinguishable while every
        exponentiation shortens proportionally.
        """
        if self._exponent_bits is not None:
            return 1 + _rng_randint_below(
                ensure_rng(rng), (1 << self._exponent_bits) - 1
            )
        return 1 + _rng_randint_below(ensure_rng(rng), self.prime - 2)

    def power(self, exponent: int) -> int:
        """``generator ** exponent mod prime`` (comb fast path)."""
        if self._comb_enabled:
            return self.comb().power(exponent)
        return pow(self.generator, exponent, self.prime)

    def power_naive(self, exponent: int) -> int:
        """``generator ** exponent mod prime`` via built-in ``pow``.

        Retained as the reference implementation the comb is
        cross-checked against, and as the fallback for comb-disabled
        clones.
        """
        return pow(self.generator, exponent, self.prime)

    def exp(self, element: int, exponent: int) -> int:
        """``element ** exponent mod prime`` (variable base)."""
        return pow(element, exponent, self.prime)

    def _openssl_algorithm(self) -> Optional[bytes]:
        """The DER ``(p, g)`` AlgorithmIdentifier OpenSSL's keys carry,
        or ``None`` when this group's products stay on ``pow``.

        The gate: the comb is enabled (so ``with_comb(False)`` remains
        the pure-``pow`` reference), ``p`` has OpenSSL's minimum 512
        bits, and ``q = (p - 1) / 2`` is prime.  In a safe-prime group
        every base in ``[2, p - 2]`` has order ``q`` or ``2q``, so an
        exponent in ``[1, p - 2]`` other than ``q`` never yields a
        product of ±1, which OpenSSL would reject.  The shipped groups'
        primes are known safe (their tests check it), which spares each
        process the ~45 ms primality test of the 512-bit ``q``; any
        other group runs it once, and its clones share the verdict.
        """
        if not self._comb_enabled or self.bits < _OPENSSL_DH_MIN_BITS:
            return None
        algorithm = self._algorithm
        if algorithm is None:
            if self.prime in _SHIPPED_SAFE_PRIMES or is_probable_prime(
                self.prime >> 1
            ):
                algorithm = _der(0x30, _DH_KEY_AGREEMENT_OID + _der(
                    0x30,
                    _der_integer(self.prime) + _der_integer(self.generator),
                ))
            else:
                algorithm = False
            object.__setattr__(self, "_algorithm", algorithm)
        return algorithm or None

    def ladder_key(self, exponent: int):
        """OpenSSL's DH private key for ``exponent``, or ``None``
        outside the gate (:meth:`_openssl_algorithm`; the exponent in
        ``[1, p - 2]`` and not ``(p - 1) / 2``).

        Loaded from PKCS #8 DER: building a key from
        ``DHPrivateNumbers`` re-checks the parameters, ~11 ms a call,
        while the DER load costs ~0.07 ms, most of it the public key
        OpenSSL derives.  Material that will meet a peer's base later
        builds its key when it is made, off the request path.
        """
        algorithm = self._openssl_algorithm()
        if (
            algorithm is None
            or not 0 < exponent < self.prime - 1
            or exponent == self.prime >> 1
        ):
            return None
        # Imported here, so processes that only use small test groups
        # never load OpenSSL.
        from cryptography.hazmat.primitives.serialization import (
            load_der_private_key,
        )

        der = _der(0x30, b"\x02\x01\x00" + algorithm + _der(
            0x04, _der_integer(exponent)
        ))
        try:
            return load_der_private_key(der, None)
        except ValueError:
            return None

    def _public_key(self, base: int, algorithm: bytes):
        """OpenSSL's DH public key for ``base`` in ``[2, p - 2]`` (a
        SubjectPublicKeyInfo DER load, ~10 µs), else ``None``."""
        from cryptography.hazmat.primitives.serialization import (
            load_der_public_key,
        )

        if not 1 < base < self.prime - 1:
            return None
        try:
            return load_der_public_key(_der(0x30, algorithm + _der(
                0x03, b"\x00" + _der_integer(base)
            )))
        except ValueError:
            return None

    def _exp_many(self, bases, exponents, powers, keys):
        """Each product as the shared secret of a DH exchange between
        its exponent's :meth:`ladder_key` (``keys[j]``, or built here)
        and its base loaded as a public key, on OpenSSL's Montgomery
        modexp.  A product the gate keeps off OpenSSL, or one OpenSSL
        rejects, runs on ``pow``.  The generator powers are not
        needed."""
        p = self.prime
        algorithm = self._openssl_algorithm()
        if algorithm is None:
            if len(bases) == 1:
                return [pow(bases[0], e, p) for e in exponents]
            return [pow(b, exponents[0], p) for b in bases]
        keys = [
            key if key is not None else self.ladder_key(e)
            for e, key in zip(exponents, keys or [None] * len(exponents))
        ]
        public_keys = [self._public_key(b, algorithm) for b in bases]
        out = []
        for i in range(max(len(bases), len(exponents))):
            b = 0 if len(bases) == 1 else i
            j = 0 if len(exponents) == 1 else i
            key, public_key = keys[j], public_keys[b]
            if key is not None and public_key is not None:
                try:
                    out.append(
                        int.from_bytes(key.exchange(public_key), "big")
                    )
                    continue
                except ValueError:
                    pass
            out.append(pow(bases[b], exponents[j], p))
        return out

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.prime

    def div(self, a: int, b: int) -> int:
        """``a / b`` via the modular inverse of ``b``."""
        return (a * pow(b, -1, self.prime)) % self.prime

    def contains(self, element) -> bool:
        return isinstance(element, int) and 0 < element < self.prime

    @property
    def exponent_modulus(self) -> int:
        """Exponents live mod ``p - 1`` (Fermat)."""
        return self.prime - 1

    def encode_element(self, element: int) -> bytes:
        """Minimal big-endian bytes — the historical wire encoding."""
        element = int(element)
        if element < 0:
            raise CryptoError("group elements are non-negative")
        return element.to_bytes(max(1, (element.bit_length() + 7) // 8), "big")

    def decode_element(self, data: bytes) -> int:
        if not data:
            raise ProtocolError("empty group element")
        element = int.from_bytes(data, "big")
        if not self.contains(element):
            raise ProtocolError("element outside the group")
        return element


def generate_dh_group(bits: int, rng=None, max_tries: int = 100_000) -> DHGroup:
    """Generate a safe-prime group of the requested size (for tests).

    A safe prime ``p = 2q + 1`` with ``q`` prime makes the subgroup
    structure simple; we use generator 4 (a quadratic residue, generating
    the order-q subgroup) to avoid leaking the low-order bit.
    """
    if bits < 16:
        raise CryptoError("group size below 16 bits is meaningless")
    rng = ensure_rng(rng)
    for _ in range(max_tries):
        q = _rng_randint_below(rng, 1 << (bits - 1)) | (1 << (bits - 2)) | 1
        p = 2 * q + 1
        if is_probable_prime(q, rounds=20, rng=rng) and is_probable_prime(
            p, rounds=20, rng=rng
        ):
            return DHGroup(prime=p, generator=4, name=f"random-{bits}")
    raise CryptoError(f"no safe prime found in {max_tries} tries")


_RFC3526_1536_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF"
)

_RFC3526_2048_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"
)

#: RFC 3526 group 5 (1536-bit MODP, generator 2).
RFC3526_GROUP_1536 = DHGroup(
    prime=int(_RFC3526_1536_HEX, 16), generator=2, name="rfc3526-1536"
)

#: RFC 3526 group 14 (2048-bit MODP, generator 2).
RFC3526_GROUP_2048 = DHGroup(
    prime=int(_RFC3526_2048_HEX, 16), generator=2, name="rfc3526-2048"
)

_WAVEKEY_512_HEX = (
    "838c2b668d8a71c35b38d652f29a284b22eaf31893fbe4b927a26e368fc7c027"
    "498ea9bbaa9063443b67c04d363e8d69d0cd2d7ecc7d7f58c765fb58745c6a1f"
)

#: Fixed 512-bit safe-prime group (generator 4, a quadratic residue),
#: produced by :func:`generate_dh_group` with seed 20240707.  This is the
#: *simulation default*: it keeps the OT modexps of one key
#: establishment well inside the paper's sub-second compute budget.
#: Production deployments should pass an RFC 3526 group (or an
#: elliptic-curve OT) to the protocol instead.
#:
#: Fast-path policy: secret exponents are drawn at 256 bits (RFC 7919
#: s5.2 short-exponent DH).  A 512-bit MODP modulus offers well under
#: 128 bits of index-calculus security, so 256-bit exponents (128-bit
#: Pollard-lambda resistance) are never the weak link, and every comb
#: power and ``pow`` fallback halves in cost (OpenSSL's variable-base
#: products barely notice).  Recover the paper-literal reference
#: behaviour, all ``pow`` and full-width exponents, with
#: ``WAVEKEY_GROUP_512.with_exponent_bits(None).with_comb(False)``.
WAVEKEY_GROUP_512 = DHGroup(
    prime=int(_WAVEKEY_512_HEX, 16), generator=4, name="wavekey-512"
).with_exponent_bits(256)

#: Primes of the shipped groups, whose ``(p - 1) / 2`` is known prime.
_SHIPPED_SAFE_PRIMES = frozenset(
    g.prime
    for g in (RFC3526_GROUP_1536, RFC3526_GROUP_2048, WAVEKEY_GROUP_512)
)
