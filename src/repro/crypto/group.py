"""The abstract group interface the OT stack is generic over.

The Chou-Orlandi OT (batch form of paper Fig. 3) only needs a cyclic
group with a fixed generator: the round's announce is ``S = g^y``, the
receiver's masked reply is ``g^x`` or ``S * g^x``, the sender's keys are
one variable-base exponentiation each (plus one division — or one
multiplication by the precomputed ``S^{-y}``), and the receiver's keys
are powers of the one base ``S``.  Both roles compute their
variable-base products in one call, :meth:`Group.exp_many`, which also
receives the generator powers the caller already holds.
:class:`Group` captures exactly that contract so the same
:class:`~repro.crypto.ot` machinery runs over the multiplicative MODP
groups of :mod:`repro.crypto.numbers` *and* the Curve25519 group of
:mod:`repro.crypto.curve` (where "multiplication" is point addition and
"exponentiation" is scalar multiplication — the abstract operation
names stay multiplicative to match the paper's notation).

Group elements are opaque to callers: integers for MODP, Edwards
points for the curve.  The wire and the key-derivation hash only ever
see :meth:`Group.encode_element` bytes, and
:meth:`Group.decode_element` is the single validation chokepoint for
untrusted peer material (range / on-curve / small-order checks live
there and in :meth:`Group.contains`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from repro.crypto.hashes import hash_group_element
from repro.errors import ConfigurationError, CryptoError


class Group(ABC):
    """A cyclic group with a fixed generator, written multiplicatively.

    Implementations: :class:`~repro.crypto.numbers.DHGroup` (integers
    mod a safe prime) and
    :class:`~repro.crypto.curve.Curve25519Group` (the prime-order
    subgroup of Curve25519 in twisted-Edwards form).
    """

    #: Stable identifier: names the group on the wire (``Hello``
    #: negotiation), in metrics labels, and in the key-derivation
    #: domain separation of :meth:`hash_element`.
    name: str

    # -- scalars -----------------------------------------------------------

    @property
    @abstractmethod
    def exponent_modulus(self) -> int:
        """The modulus exponent arithmetic lives in (``p - 1`` for MODP
        by Fermat, the subgroup order ``L`` for the curve)."""

    @abstractmethod
    def random_exponent(self, rng) -> int:
        """Draw a secret exponent under this group's policy."""

    # -- fixed-base exponentiation (the precomputable hot path) ------------

    @property
    @abstractmethod
    def comb_enabled(self) -> bool:
        """Whether :meth:`power` runs on a fast fixed-base path (a
        precomputed table for MODP, OpenSSL for the curve)."""

    @abstractmethod
    def power(self, exponent: int):
        """``g^exponent`` via the fixed-base fast path."""

    def powers_and_keys(self, exponents: Sequence[int]) -> List[tuple]:
        """``(power(e), ladder_key(e))`` for every exponent: what a
        receiver tuple precomputes.  A group whose fixed-base power
        loads the key anyway (the curve) returns that one."""
        return [(self.power(e), self.ladder_key(e)) for e in exponents]

    @abstractmethod
    def power_naive(self, exponent: int):
        """``g^exponent`` via the reference (table-free) arithmetic."""

    # -- element arithmetic ------------------------------------------------

    @abstractmethod
    def exp(self, element, exponent: int):
        """``element^exponent`` (variable base; no table)."""

    def ladder_key(self, exponent: int):
        """A handle :meth:`exp_many` can reuse for ``exponent``, built
        ahead so its cost leaves the request path: an OpenSSL private
        key (X25519 on the curve, DH for MODP).  ``None`` when the
        group has nothing to build for it, and such a product runs on
        the reference arithmetic.  Loading a key makes OpenSSL derive
        its public key ``g^exponent``; the curve reads its fixed-base
        powers off it, so :meth:`powers_and_keys` loads each key once."""
        return None

    def exp_many(
        self,
        bases: Sequence,
        exponents: Sequence[int],
        powers: Sequence,
        keys: Optional[Sequence] = None,
    ) -> List:
        """``[base^exponent]`` for a batch, each equal to :meth:`exp`.

        One of ``bases`` and ``exponents`` holds exactly one entry,
        which is paired with every entry of the other: the OT sender
        raises every ``R_i`` to its one ``y``, the receiver raises its
        peer's one ``S`` to every ``x_i``.  ``powers[j]`` must be
        ``g^exponents[j]``, which both roles already hold (``S`` and
        the ``g^{x_i}`` of their responses); a group may use them to
        recover each product faster.  ``keys[j]``, when given, is
        ``exponents[j]``'s :meth:`ladder_key` or ``None``.
        """
        if len(powers) != len(exponents):
            raise CryptoError(
                f"{len(exponents)} exponents need as many generator "
                f"powers, got {len(powers)}"
            )
        if keys is not None and len(keys) != len(exponents):
            raise CryptoError(
                f"{len(exponents)} exponents need as many ladder keys, "
                f"got {len(keys)}"
            )
        if not bases or not exponents:
            return []
        if len(bases) != 1 and len(exponents) != 1:
            raise CryptoError(
                "exp_many pairs one base with many exponents or one "
                f"exponent with many bases, got {len(bases)} and "
                f"{len(exponents)}"
            )
        return self._exp_many(
            list(bases), list(exponents), list(powers),
            None if keys is None else list(keys),
        )

    @abstractmethod
    def _exp_many(
        self, bases: list, exponents: list, powers: list,
        keys: Optional[list],
    ) -> List:
        """:meth:`exp_many` on validated shapes (one side has length 1)."""

    @abstractmethod
    def mul(self, a, b):
        """The group operation (modular product / point addition)."""

    @abstractmethod
    def div(self, a, b):
        """``a * b^{-1}`` (modular inverse / point subtraction)."""

    @abstractmethod
    def contains(self, element) -> bool:
        """Whether ``element`` is an acceptable peer element (range /
        on-curve / small-order checks)."""

    # -- wire representation -----------------------------------------------

    @abstractmethod
    def encode_element(self, element) -> bytes:
        """Canonical byte encoding (what the wire and the KDF see)."""

    def encode_elements(self, elements: Sequence) -> List[bytes]:
        """:meth:`encode_element` of each element; a group may share
        work across the batch (the curve shares one inversion)."""
        return [self.encode_element(e) for e in elements]

    @abstractmethod
    def decode_element(self, data: bytes):
        """Parse untrusted peer bytes into a validated element.

        Raises :class:`~repro.errors.ProtocolError` on anything that
        is not the canonical encoding of an acceptable element.
        """

    # -- key derivation ----------------------------------------------------

    def hash_element(self, element, context: bytes = b"wavekey-ot") -> bytes:
        """Derive a 32-byte key from ``element`` (the ``H`` of Fig. 3).

        Hashes the canonical encoding with the group id mixed into the
        domain separation, so the same scalar relationship in two
        different groups can never yield the same symmetric key.
        """
        return hash_group_element(
            self.encode_element(element), context, group_id=self.name
        )


#: CLI spellings accepted by :func:`resolve_group`.
GROUP_CHOICES = ("modp512", "curve25519")


def resolve_group(name: str) -> Group:
    """Map a CLI/wire group name to its module-level group instance.

    Accepts the CLI spellings (``modp512``, ``curve25519``) and the
    wire ids (``wavekey-512``, ``curve25519``).  Imports lazily so the
    registry creates no module cycle with the implementations.
    """
    if name in ("modp512", "wavekey-512"):
        from repro.crypto.numbers import WAVEKEY_GROUP_512

        return WAVEKEY_GROUP_512
    if name == "curve25519":
        from repro.crypto.curve import CURVE25519_GROUP

        return CURVE25519_GROUP
    raise ConfigurationError(
        f"unknown group {name!r} (choices: {', '.join(GROUP_CHOICES)})"
    )
