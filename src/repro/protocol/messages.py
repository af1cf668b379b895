"""Wire messages of the key-agreement protocol (Fig. 4).

Each dataclass corresponds to one of the combined messages: the OT
messages of one direction travel as single wire messages ``M_A`` (the
round's one sender element), ``M_B``, ``M_E``, followed by the
reconciliation challenge and the HMAC confirmation.  ``wire_size_bytes`` gives the
serialized size, used by the transport to model transmission delay.
:class:`ConfirmAck`, the mobile's closing acknowledgement, is no Fig. 4
message and has no such size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.crypto.ot import OTCiphertexts
from repro.errors import ProtocolError
from repro.utils.bits import BitSequence


def _coerce_elements(elements: Tuple) -> Tuple[bytes, ...]:
    """Normalize OT elements to their wire form (encoded bytes).

    Group elements travel as opaque, group-defined encodings; a bare
    int (the historical MODP form, still used directly by tests and
    attack tooling) coerces to its minimal big-endian bytes, which is
    byte-identical to the pre-generic wire encoding.
    """
    coerced = []
    for element in elements:
        if isinstance(element, bytes):
            coerced.append(element)
        elif isinstance(element, int):
            if element < 0:
                raise ProtocolError("group elements are non-negative")
            coerced.append(
                element.to_bytes(max(1, (element.bit_length() + 7) // 8),
                                 "big")
            )
        else:
            raise ProtocolError(
                f"OT elements are bytes, got {type(element).__name__}"
            )
    return tuple(coerced)


@dataclass(frozen=True)
class OTAnnounce:
    """``M_A``: the encoded ``S = g^y`` keying the sender's OT round
    (one element in the batch form; the field stays a tuple)."""

    sender: str
    elements: Tuple[bytes, ...]

    def __post_init__(self):
        if not self.elements:
            raise ProtocolError("empty OT announce")
        object.__setattr__(self, "elements", _coerce_elements(self.elements))

    def wire_size_bytes(self) -> int:
        return sum(len(e) for e in self.elements)


@dataclass(frozen=True)
class OTResponse:
    """``M_B``: the concatenated receiver responses ``R_i``."""

    sender: str
    elements: Tuple[bytes, ...]

    def __post_init__(self):
        if not self.elements:
            raise ProtocolError("empty OT response")
        object.__setattr__(self, "elements", _coerce_elements(self.elements))

    def wire_size_bytes(self) -> int:
        return sum(len(e) for e in self.elements)


@dataclass(frozen=True)
class OTCiphertextBatch:
    """``M_E``: the concatenated ciphertext pairs ``<e_i^0, e_i^1>``."""

    sender: str
    pairs: Tuple[OTCiphertexts, ...]

    def __post_init__(self):
        if not self.pairs:
            raise ProtocolError("empty OT ciphertext batch")

    def wire_size_bytes(self) -> int:
        return sum(len(p.e0) + len(p.e1) for p in self.pairs)


@dataclass(frozen=True)
class ReconciliationChallenge:
    """The initiator's ECC sketch of its preliminary key plus a nonce."""

    sender: str
    sketch: BitSequence
    nonce: bytes

    def __post_init__(self):
        if len(self.nonce) < 8:
            raise ProtocolError("nonce must be at least 8 bytes")

    def wire_size_bytes(self) -> int:
        return (len(self.sketch) + 7) // 8 + len(self.nonce)


@dataclass(frozen=True)
class ConfirmationResponse:
    """The responder's HMAC of the nonce under the reconciled key."""

    sender: str
    tag: bytes

    def __post_init__(self):
        if len(self.tag) != 32:
            raise ProtocolError("confirmation tag must be 32 bytes")

    def wire_size_bytes(self) -> int:
        return len(self.tag)


@dataclass(frozen=True)
class ConfirmAck:
    """Mobile -> server: mutual confirmation closing one round.

    ``tag`` is the mobile's HMAC of the challenge nonce under its final
    key (:func:`repro.protocol.agreement.ack_tag`) — proof to the server
    that the mobile reconstructed the same key; ``ok=False`` (empty tag)
    reports a mobile-side verification failure.
    """

    ok: bool
    tag: bytes
