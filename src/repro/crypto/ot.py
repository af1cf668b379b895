"""1-out-of-2 Oblivious Transfer in the Chou–Orlandi batch form.

The paper's Fig. 3 runs each OT instance with its own sender secret
``a``.  WaveKey runs ``l_s`` instances per direction per round, so this
module uses the batch form of Chou & Orlandi ("The Simplest Protocol
for Oblivious Transfer", LATINCRYPT 2015, §3): one sender secret ``y``
keys every instance of a round.

* The sender draws ``y`` and announces one element ``S = g^y``.
* For instance ``i`` the receiver draws ``x_i`` and answers
  ``R_i = g^{x_i}`` to select secret 0, or ``R_i = S * g^{x_i}`` to
  select secret 1.
* The sender keys instance ``i`` as ``k0 = H(i, S, R_i, R_i^y)`` and
  ``k1 = H(i, S, R_i, (R_i / S)^y)``.  Exactly one of them equals the
  receiver's ``H(i, S, R_i, S^{x_i})``.

Binding the index ``i`` and the transcript ``(S, R_i)`` into the hash
is what makes one ``y`` safe to share: a receiver that replays ``R_j``
at index ``i`` gets a different key at ``i`` than at ``j``.  The sender
and receiver roles exchange wire bytes, so the keys hash exactly the
bytes that crossed the wire, and :meth:`Group.decode_element` validates
every peer element before any exponent touches it.

Fast paths, each with the reference arithmetic kept beside it:

* Each role computes its ``l_s`` variable-base products in one
  :meth:`~repro.crypto.group.Group.exp_many` call: the sender's
  ``R_i^y`` (knowing ``g^y = S``), the receiver's ``S^{x_i}`` (knowing
  each ``g^{x_i}``).  Both groups run them on OpenSSL: MODP as DH
  exchanges whose shared secret is the exact product
  (:meth:`~repro.crypto.numbers.DHGroup.exp_many`, ``pow`` off its
  gate), Curve25519 as x-only work on the X25519 ladder with each exact
  Edwards point recovered from the known generator power
  (:func:`~repro.crypto.curve.ladder_products`).
* The sender's second key is one multiplication by the precomputed
  ``S^{-y} = g^{-y^2}`` (:func:`~repro.crypto.pool.sender_k1_factor`)
  instead of a division and an exponentiation.
* The fixed-base powers ``g^y`` and ``g^{x_i}`` can come ready-made
  from an :class:`~repro.crypto.pool.OTMaterialPool` or a client's
  per-round stock: the sender claims one
  :class:`~repro.crypto.pool.SenderMaterial` per round, which carries
  the ladder key its ``R_i^y`` products run on, the receiver one
  :class:`~repro.crypto.pool.ReceiverMaterial` per instance, which also
  carries the encoding of ``g^{x_i}`` (a choice-0 ``R_i``) and the
  ladder key its ``S^{x_i}`` runs on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.crypto.group import Group
from repro.crypto.pool import (
    OTMaterialPool,
    ReceiverMaterial,
    SenderMaterial,
    sender_k1_factor,
)
from repro.crypto.symmetric import xor_cipher
from repro.errors import CryptoError, ProtocolError
from repro.utils.rng import ensure_rng


@dataclass(frozen=True)
class OTCiphertexts:
    """The sender's final message: both encrypted secrets."""

    e0: bytes
    e1: bytes


def instance_key(
    group: Group, index: int, announce: bytes, response: bytes,
    element: bytes,
) -> bytes:
    """``H(i, S, R_i, element)``: the key of OT instance ``index``.

    ``element`` is the product's :meth:`~Group.encode_element` bytes,
    which the callers encode a round at a time
    (:meth:`~Group.encode_elements`).  Every field is length-prefixed,
    and the group id separates the domains of the two groups, so no two
    distinct inputs hash alike.
    """
    h = hashlib.sha256(b"wavekey-ot-co15|")
    h.update(group.name.encode("ascii"))
    for part in (
        index.to_bytes(4, "big"),
        announce,
        response,
        element,
    ):
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return h.digest()


class OTSenderRound:
    """Sender side of one round: every instance keyed by one ``y``."""

    def __init__(self, group: Group, rng=None):
        self.group = group
        self._rng = ensure_rng(rng)
        self._y: Optional[int] = None
        self._s = None
        self._k1_factor = None
        self._key = None
        self._announce: Optional[bytes] = None

    def announce(self, material: Optional[SenderMaterial] = None) -> bytes:
        """Draw ``y`` and return the encoded ``S = g^y``.

        With pooled ``material`` the tuple was precomputed off the hot
        path; claiming it enforces single use.
        """
        group = self.group
        if material is not None:
            material.claim(group)
            self._y, self._s = material.y, material.s
            self._k1_factor = material.k1_factor
            self._key = material.ladder_key
        else:
            self._y = group.random_exponent(self._rng)
            self._s = group.power(self._y)
            # Without the comb the extra fixed-base power costs what it
            # saves, so the naive clone keeps the division-based key.
            self._k1_factor = (
                sender_k1_factor(group, self._y)
                if group.comb_enabled
                else None
            )
        self._announce = group.encode_element(self._s)
        return self._announce

    def encrypt(
        self,
        responses: Sequence[bytes],
        secret_pairs: Sequence[Tuple[bytes, bytes]],
    ) -> List[OTCiphertexts]:
        """Encrypt pair ``i`` against the receiver's encoded ``R_i``."""
        if self._y is None:
            raise ProtocolError("OTSenderRound.encrypt before announce")
        if len(responses) != len(secret_pairs):
            raise ProtocolError(
                f"expected {len(secret_pairs)} OT responses, got "
                f"{len(responses)}"
            )
        group, y, s = self.group, self._y, self._s
        rs = []
        for response, (secret0, secret1) in zip(responses, secret_pairs):
            if len(secret0) != len(secret1):
                raise CryptoError("OT secrets must have equal length")
            rs.append(group.decode_element(response))
        k0_elements = group.exp_many(rs, [y], [s], [self._key])
        if self._k1_factor is not None:
            # (R / S)^y == R^y * S^{-y}, with S^{-y} precomputed.
            k1_elements = [
                group.mul(k0, self._k1_factor) for k0 in k0_elements
            ]
        else:
            k1_elements = group.exp_many(
                [group.div(r, s) for r in rs], [y], [s]
            )
        # Encoded a batch at a time: the curve's k1 products are
        # projective, and one batch shares their inversions.
        k0_encoded = group.encode_elements(k0_elements)
        k1_encoded = group.encode_elements(k1_elements)
        out = []
        for i, (response, (secret0, secret1)) in enumerate(
            zip(responses, secret_pairs)
        ):
            k0 = instance_key(
                group, i, self._announce, response, k0_encoded[i]
            )
            k1 = instance_key(
                group, i, self._announce, response, k1_encoded[i]
            )
            out.append(OTCiphertexts(
                e0=xor_cipher(secret0, k0, b"ot0"),
                e1=xor_cipher(secret1, k1, b"ot1"),
            ))
        return out


class OTReceiverRound:
    """Receiver side of one round: one choice bit per instance."""

    def __init__(self, group: Group, rng=None):
        self.group = group
        self._rng = ensure_rng(rng)
        self._s = None
        self._announce: Optional[bytes] = None
        self._choices: List[int] = []
        self._exponents: List[int] = []
        self._powers: list = []
        self._keys: list = []
        self._responses: List[bytes] = []

    def respond(
        self,
        announce: bytes,
        choices: Sequence[int],
        materials: Sequence[ReceiverMaterial] = (),
    ) -> List[bytes]:
        """Answer the encoded ``S`` with one encoded ``R_i`` per choice.

        ``materials`` supplies warm ``(x, g^x)`` tuples for the first
        instances; the rest are computed inline.  A choice-0 instance
        answers with its material's prebuilt encoding of ``g^x``; every
        other ``R_i`` is encoded in one batch.
        """
        choices = [int(c) for c in choices]
        if any(c not in (0, 1) for c in choices):
            raise ProtocolError(f"OT choices must be 0 or 1, got {choices}")
        group = self.group
        s = group.decode_element(announce)
        exponents, powers, keys, responses = [], [], [], []
        unencoded = []  # (instance, R_i) whose encoding replaces responses[i]
        for i, choice in enumerate(choices):
            encoded = key = None
            if i < len(materials):
                material = materials[i]
                material.claim(group)
                x, g_x = material.x, material.g_x
                encoded, key = material.encoded, material.ladder_key
            else:
                x = group.random_exponent(self._rng)
                g_x = group.power(x)
            exponents.append(x)
            powers.append(g_x)
            keys.append(key)
            if choice:
                unencoded.append((i, group.mul(s, g_x)))
            elif encoded is None:
                unencoded.append((i, g_x))
            responses.append(encoded)
        if unencoded:
            indices, elements = zip(*unencoded)
            for i, data in zip(indices, group.encode_elements(elements)):
                responses[i] = data
        self._s, self._announce = s, announce
        self._choices, self._exponents = choices, exponents
        self._powers, self._keys = powers, keys
        self._responses = responses
        return list(responses)

    def decrypt(self, ciphertexts: Sequence[OTCiphertexts]) -> List[bytes]:
        """Recover the selected secret of every instance."""
        if self._s is None:
            raise ProtocolError("OTReceiverRound.decrypt before respond")
        if len(ciphertexts) != len(self._exponents):
            raise ProtocolError(
                f"expected {len(self._exponents)} ciphertext pairs, got "
                f"{len(ciphertexts)}"
            )
        group = self.group
        elements = group.encode_elements(group.exp_many(
            [self._s], self._exponents, self._powers, self._keys
        ))
        out = []
        for i, (element, choice, response, pair) in enumerate(zip(
            elements, self._choices, self._responses, ciphertexts
        )):
            key = instance_key(group, i, self._announce, response, element)
            if choice:
                out.append(xor_cipher(pair.e1, key, b"ot1"))
            else:
                out.append(xor_cipher(pair.e0, key, b"ot0"))
        return out


def run_ot_round(
    group: Group,
    secret_pairs: Sequence[Tuple[bytes, bytes]],
    choices: Sequence[int],
    sender_rng=None,
    receiver_rng=None,
    pool: Optional[OTMaterialPool] = None,
) -> List[bytes]:
    """Run one round of ``len(secret_pairs)`` OTs end to end.

    :mod:`repro.protocol.agreement` drives the same round objects
    through explicit wire messages; this helper serves unit tests and
    benchmarks.  A ``pool`` exercises the warm-material fast path.
    """
    if len(secret_pairs) != len(choices):
        raise ProtocolError("one choice bit per secret pair is required")
    sender = OTSenderRound(group, sender_rng)
    receiver = OTReceiverRound(group, receiver_rng)
    senders = pool.take_senders(group, 1) if pool is not None else ()
    receivers = (
        pool.take_receivers(group, len(choices)) if pool is not None else ()
    )
    announce = sender.announce(senders[0] if senders else None)
    responses = receiver.respond(announce, choices, receivers)
    return receiver.decrypt(sender.encrypt(responses, secret_pairs))
