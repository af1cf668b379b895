"""Cryptographic substrate.

Everything the WaveKey key-agreement protocol (paper SIV-D) needs,
implemented from scratch on the Python standard library + numpy:

* :mod:`repro.crypto.group` — the abstract :class:`Group` interface the
  OT stack is generic over, plus :func:`resolve_group` for name-based
  selection (``modp512`` / ``curve25519``).
* :mod:`repro.crypto.numbers` — Miller-Rabin primality, safe-prime /
  DH-group generation, and the RFC 3526 MODP groups used by default.
* :mod:`repro.crypto.curve` — from-scratch Curve25519: the X25519
  Montgomery ladder (RFC 7748) and the twisted-Edwards form whose point
  addition the Chou-Orlandi OT needs.  Naming note: this module is the
  *elliptic curve*; :mod:`repro.crypto.ecc` is the *error-correcting
  code* reconciliation (the paper's "ECC" abbreviation), not curves.
* :mod:`repro.crypto.ot` — the computationally efficient 1-out-of-2
  Oblivious Transfer of Chou & Orlandi (paper Fig. 3) in its batch
  form: one sender secret keys a whole round of instances, which the
  protocol combines into three messages.
* :mod:`repro.crypto.pool` — warm OT material: single-use sender/receiver
  exponent tuples precomputed off the hot path by a watermark-driven
  background refill worker, so the request path only pays the per-peer
  variable-base exponentiations.
* :mod:`repro.crypto.gf2` / :mod:`repro.crypto.bch` — GF(2^m) arithmetic
  and binary BCH codes (Berlekamp-Massey + Chien search).
* :mod:`repro.crypto.ecc` — the code-offset secure sketch built on BCH
  that implements the paper's ECC-based reconciliation.
* :mod:`repro.crypto.hashes` / :mod:`repro.crypto.symmetric` — SHA-256
  hashing, HMAC, and the hash-keystream cipher used for OT payloads.
"""

from repro.crypto.group import GROUP_CHOICES, Group, resolve_group
from repro.crypto.curve import CURVE25519_GROUP, Curve25519Group, x25519
from repro.crypto.numbers import (
    DHGroup,
    FixedBaseComb,
    RFC3526_GROUP_1536,
    RFC3526_GROUP_2048,
    WAVEKEY_GROUP_512,
    generate_dh_group,
    is_probable_prime,
)
from repro.crypto.hashes import hash_group_element, hkdf_stream, hmac_digest
from repro.crypto.pool import (
    OTMaterialPool,
    ReceiverMaterial,
    SenderMaterial,
)
from repro.crypto.symmetric import xor_cipher
from repro.crypto.ot import (
    OTReceiverRound,
    OTSenderRound,
    run_ot_round,
)
from repro.crypto.gf2 import GF2m
from repro.crypto.bch import BCHCode, design_bch
from repro.crypto.ecc import SecureSketch
from repro.crypto.rs import RSCode
from repro.crypto.segment_sketch import SegmentSecureSketch

__all__ = [
    "Group",
    "GROUP_CHOICES",
    "resolve_group",
    "CURVE25519_GROUP",
    "Curve25519Group",
    "x25519",
    "DHGroup",
    "FixedBaseComb",
    "RFC3526_GROUP_1536",
    "RFC3526_GROUP_2048",
    "WAVEKEY_GROUP_512",
    "generate_dh_group",
    "is_probable_prime",
    "hash_group_element",
    "hkdf_stream",
    "hmac_digest",
    "xor_cipher",
    "OTSenderRound",
    "OTReceiverRound",
    "OTMaterialPool",
    "SenderMaterial",
    "ReceiverMaterial",
    "run_ot_round",
    "GF2m",
    "BCHCode",
    "design_bch",
    "SecureSketch",
    "RSCode",
    "SegmentSecureSketch",
]
