"""Golden OT transcripts: the wire bytes of one fixed-seed agreement.

One deterministic :class:`AgreementParty` pair per group runs the three
OT messages of Fig. 4 (``M_A``, ``M_B``, ``M_E`` in both directions)
and assembles its preliminary keys.  The sha256 of every message and of
both keys is pinned, so any change to the group arithmetic (fixed-base
powers, scalar multiplication, inversion, encoding) that is not
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

#: The key digests were captured before the curve fast paths were
#: rewritten.  The message digests were re-captured when M_A became the
#: one batch-form element; each party draws its sequence pairs before
#: any OT randomness, so the keys did not move.  The curve's message
#: digests were re-captured again when its elements became ``x‖y``
#: (protocol 3); the points are the ones :data:`COMPRESSED_GOLDEN` pins.
GOLDEN = {
    "curve25519": {
        "mobile.m_a": "d134a250010db9aa176103b8beddb9bee6e1b5c66a6541a9489ce066303ce82f",
        "server.m_a": "733e70f859af2d4da7f1e2408c52d71d52fc03a96b1c84db99e13e0a591952d7",
        "mobile.m_b": "896b46720fb55c033d448793ad656f7f9a0a5b026fc7ac602ff09edf396e7c69",
        "server.m_b": "9548a6f44f99596af14e3d784f6f806bc0cbabd7fce054c5ac651c1902e99a78",
        "mobile.m_e": "52ec86dcc27fbdc9d36e5adf3a10107f04b826a787a2672a40679cc53ab6c195",
        "server.m_e": "9a97a0c4f7b501188638f63c7f5993b52c6e5b49797efd09a531e514ec8e3b8a",
        "mobile.key": "bb8271fafde318c691fa85773d7c5ccee4a2074e0a0cb4bd5e384468163749ef",
        "server.key": "d0d57324b85b93f84b825ba0dca00120f1f86387a31c4e42ed907a99116fd99b",
    },
    "wavekey-512": {
        "mobile.m_a": "0d36142495f35c1c3ddb25fec552a562631f03239c88eba4eadd07bf6638527e",
        "server.m_a": "162dafdbded3bd7a240bb1ee660f14ac40c70d419f9cc0c11a53919708a6676f",
        "mobile.m_b": "7f82a899e8036ecce3a6a686df58c2bce9ef61dfe3d8486d8cc0212a358eb25e",
        "server.m_b": "36bf2473569973f161e9901ad02b6b82e5d47e219f52b5c2bff7d248493e97f8",
        "mobile.m_e": "65351454eac3211ec0e8662554c6bf2f73505009cc6bd23e6b2f64ec9bbc0234",
        "server.m_e": "cadeeef354c67795327e27515478429b9efc44dc95089d9632cd6cf2059798ee",
        "mobile.key": "bb8271fafde318c691fa85773d7c5ccee4a2074e0a0cb4bd5e384468163749ef",
        "server.key": "d0d57324b85b93f84b825ba0dca00120f1f86387a31c4e42ed907a99116fd99b",
    },
}


#: The curve's M_A/M_B digests of protocol 2, whose elements were RFC
#: 8032 compressed: re-encoding protocol 3's ``x‖y`` elements that way
#: must reproduce them, so the change of encoding moved no point.
COMPRESSED_GOLDEN = {
    "mobile.m_a": "0e27acc4bed8aee837b1caba25d81955fffd8a07bf288cd797f4895d819146a8",
    "server.m_a": "c050b27b0c4f6069890c55a379f252cae840db368c32ebd5df6d768b1a5b998f",
    "mobile.m_b": "769a7bedcb0416c4f4ee9d923004a148feeea621d3af1ef076b863657d178c4a",
    "server.m_b": "84fce6ec1b550a2ed4ca793c5313c73686dc23270c86f283819dec772c012b33",
}


def _compressed(element: bytes) -> bytes:
    """RFC 8032 s5.1.2 form of an ``x‖y`` element: LE ``y`` with the
    sign of ``x`` in bit 255."""
    x = int.from_bytes(element[:32], "little")
    y = int.from_bytes(element[32:], "little")
    return (y | (x & 1) << 255).to_bytes(32, "little")


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(4, "big"))
        h.update(chunk)
    return h.hexdigest()


def _transcript(group, encode=lambda element: element) -> dict:
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
        "mobile.m_a": _digest(*map(encode, m_a_mobile.elements)),
        "server.m_a": _digest(*map(encode, m_a_server.elements)),
        "mobile.m_b": _digest(*map(encode, m_b_mobile.elements)),
        "server.m_b": _digest(*map(encode, m_b_server.elements)),
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


def test_curve_points_match_the_compressed_transcript():
    transcript = _transcript(CURVE25519_GROUP, encode=_compressed)
    assert {k: transcript[k] for k in COMPRESSED_GOLDEN} == COMPRESSED_GOLDEN
