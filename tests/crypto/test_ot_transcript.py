"""Golden OT transcripts: the wire bytes of one fixed-seed agreement.

One deterministic :class:`AgreementParty` pair per group runs the three
OT messages of Fig. 4 (``M_A``, ``M_B``, ``M_E`` in both directions)
and assembles its preliminary keys.  The sha256 of every message and of
both keys is pinned, so any change to the group arithmetic (comb
layout, scalar multiplication, inversion, encoding) that is not
bit-identical on the wire fails here, not in a later interop run.
"""

import hashlib

import numpy as np
import pytest

from repro.crypto.curve import CURVE25519_GROUP
from repro.crypto.numbers import WAVEKEY_GROUP_512
from repro.protocol.agreement import AgreementParty, KeyAgreementConfig
from repro.utils.bits import BitSequence

SEED_BITS = 36

#: Digests captured before the curve fast paths were rewritten.
GOLDEN = {
    "curve25519": {
        "mobile.m_a": "b760b42410219da69717ec7e8246bd6054bd52f006ae733ab7e1e104048a8f05",
        "server.m_a": "74def920b715fc77eaeba627ad0c7ea0f335cf0b38fd4969f808e51cbdc2515f",
        "mobile.m_b": "c229203e891323fde7f47ba74c3dc13173293a379a2ce870a50b1d77f31622eb",
        "server.m_b": "489f1a969752691a523ed386e476eb234a86fe49dd59233d44a2b1d2b777e0d8",
        "mobile.m_e": "95bfc5bea7765c7092b629b9a93312cd5ccebe0bec4077ad6884800b5899a006",
        "server.m_e": "87ca2a2065fc3ffaebe7f6e4cffa3cab7e4a6d9e4aaa818d311d419bb30f3d7e",
        "mobile.key": "bb8271fafde318c691fa85773d7c5ccee4a2074e0a0cb4bd5e384468163749ef",
        "server.key": "d0d57324b85b93f84b825ba0dca00120f1f86387a31c4e42ed907a99116fd99b",
    },
    "wavekey-512": {
        "mobile.m_a": "cff1da7db716dc4018fdf3e649b811e4821dbdc3ed892acdfdaca72d4d7cc731",
        "server.m_a": "2ca38ebde89a05198f3641781bba55b92e352246e68b4d1587abb6f9422a7df1",
        "mobile.m_b": "b97169ef4bf8c1e915e4ac19ea7002f1f2b19be2d8dd5cd2cac9788adea1dc41",
        "server.m_b": "7327a7b62c6c81473d12370bc47e27887e042b60404896778e4299968c4917ba",
        "mobile.m_e": "c7da77de1f72376282ee6be01de33b71ca016f7530b3bb1e3f09af2803da5a9e",
        "server.m_e": "c62813695e3febe85710534cc33f96cda1c06e303787606720a7ad2a45e81451",
        "mobile.key": "bb8271fafde318c691fa85773d7c5ccee4a2074e0a0cb4bd5e384468163749ef",
        "server.key": "d0d57324b85b93f84b825ba0dca00120f1f86387a31c4e42ed907a99116fd99b",
    },
}


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(4, "big"))
        h.update(chunk)
    return h.hexdigest()


def _transcript(group) -> dict:
    rng = np.random.default_rng(20240)
    seed_mobile = BitSequence.random(SEED_BITS, rng)
    seed_server = BitSequence.random(SEED_BITS, rng)
    config = KeyAgreementConfig(group=group)
    mobile = AgreementParty(
        "mobile", seed_mobile, config, np.random.default_rng(1),
        own_sequences_first=True,
    )
    server = AgreementParty(
        "server", seed_server, config, np.random.default_rng(2),
        own_sequences_first=False,
    )
    m_a_mobile = mobile.craft_announce()
    m_a_server = server.craft_announce()
    m_b_mobile = mobile.craft_response(m_a_server)
    m_b_server = server.craft_response(m_a_mobile)
    m_e_mobile = mobile.craft_ciphertexts(m_b_server)
    m_e_server = server.craft_ciphertexts(m_b_mobile)
    mobile.receive_ciphertexts(m_e_server)
    server.receive_ciphertexts(m_e_mobile)
    return {
        "mobile.m_a": _digest(*m_a_mobile.elements),
        "server.m_a": _digest(*m_a_server.elements),
        "mobile.m_b": _digest(*m_b_mobile.elements),
        "server.m_b": _digest(*m_b_server.elements),
        "mobile.m_e": _digest(
            *(c for pair in m_e_mobile.pairs for c in (pair.e0, pair.e1))
        ),
        "server.m_e": _digest(
            *(c for pair in m_e_server.pairs for c in (pair.e0, pair.e1))
        ),
        "mobile.key": _digest(mobile.build_preliminary_key().to_bytes()),
        "server.key": _digest(server.build_preliminary_key().to_bytes()),
    }


@pytest.mark.parametrize(
    "group", [CURVE25519_GROUP, WAVEKEY_GROUP_512], ids=lambda g: g.name
)
def test_transcript_matches_golden(group):
    assert _transcript(group) == GOLDEN[group.name]
