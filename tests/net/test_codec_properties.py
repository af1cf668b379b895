"""Property tests of the wire codec.

* every message of every frame type survives ``decode(encode(m)) == m``;
* the parser is canonical: a payload that decodes at all re-encodes to
  exactly the same bytes, so one message has one encoding;
* arbitrary bytes pushed through :class:`FrameAssembler` and
  :func:`decode_payload` fail only with the codec's typed errors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ot import OTCiphertexts
from repro.errors import DecodeError, FrameTooLarge, ProtocolError
from repro.net.codec import (
    Accept,
    ConfirmAck,
    ErrorFrame,
    Frame,
    FrameAssembler,
    FrameType,
    Hello,
    RecordFrame,
    ReplDigest,
    ReplPull,
    ReplPush,
    ResumeAccept,
    ResumeRequest,
    RevokeNotice,
    RoundResult,
    SeedGrant,
    StatsRequest,
    StatsResponse,
    TelemetryRequest,
    TelemetryResponse,
    TicketGrant,
    Verdict,
    decode_payload,
    encode_message,
    frame_to_bytes,
)
from repro.obs.tracing import TraceContext
from repro.protocol.messages import (
    ConfirmationResponse,
    OTAnnounce,
    OTCiphertextBatch,
    OTResponse,
    ReconciliationChallenge,
)
from repro.utils.bits import BitSequence

from tests.net.test_golden_frames import CASES

PROPERTY_SETTINGS = settings(derandomize=True, database=None)

texts = st.text(max_size=12)
u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
floats = st.floats(allow_nan=False)
documents = st.text(max_size=40)
bits = st.lists(st.integers(0, 1), max_size=40).map(BitSequence)
elements = st.lists(
    st.binary(min_size=1, max_size=70), min_size=1, max_size=4
).map(tuple)
traces = st.none() | st.builds(
    TraceContext,
    trace_id=texts, span_id=texts, sampled=st.booleans(), service=texts,
)


def _repl(cls):
    return st.builds(cls, sender=texts, payload_json=documents, version=u8)


MESSAGES = {
    Hello: st.builds(
        Hello, sender=texts, rng_seed=st.integers(0, 1 << 600),
        dynamic=st.booleans(), version=u8, trace_context=traces,
        group_id=texts,
    ),
    Accept: st.builds(
        Accept, sender=texts, session_id=texts, key_length_bits=u16,
        eta=floats, version=u8,
    ),
    SeedGrant: st.builds(SeedGrant, attempt=u16, seed=bits),
    OTAnnounce: st.builds(OTAnnounce, sender=texts, elements=elements),
    OTResponse: st.builds(OTResponse, sender=texts, elements=elements),
    OTCiphertextBatch: st.builds(
        OTCiphertextBatch,
        sender=texts,
        pairs=st.lists(
            st.builds(
                OTCiphertexts,
                e0=st.binary(max_size=70), e1=st.binary(max_size=70),
            ),
            min_size=1, max_size=3,
        ).map(tuple),
    ),
    ReconciliationChallenge: st.builds(
        ReconciliationChallenge, sender=texts, sketch=bits,
        nonce=st.binary(min_size=8, max_size=32),
    ),
    ConfirmationResponse: st.builds(
        ConfirmationResponse, sender=texts,
        tag=st.binary(min_size=32, max_size=32),
    ),
    ConfirmAck: st.builds(
        ConfirmAck, ok=st.booleans(), tag=st.binary(max_size=40)
    ),
    RoundResult: st.builds(RoundResult, success=st.booleans(), reason=texts),
    Verdict: st.builds(
        Verdict, state=texts, attempts=u16, reason=texts, session_id=texts
    ),
    ErrorFrame: st.builds(ErrorFrame, code=texts, detail=texts),
    StatsRequest: st.builds(StatsRequest, version=u8),
    StatsResponse: st.builds(
        StatsResponse, payload_json=documents, version=u8
    ),
    TelemetryRequest: st.builds(
        TelemetryRequest, drain=st.booleans(), version=u8
    ),
    TelemetryResponse: st.builds(
        TelemetryResponse, payload_json=documents, version=u8
    ),
    TicketGrant: st.builds(
        TicketGrant, ticket_id=texts, expires_at=floats,
        lifetime_s=floats, version=u8,
    ),
    ResumeRequest: st.builds(
        ResumeRequest, sender=texts, ticket_id=texts,
        client_nonce=st.binary(max_size=32), version=u8,
        trace_context=traces,
    ),
    ResumeAccept: st.builds(
        ResumeAccept, sender=texts, channel_id=texts,
        server_nonce=st.binary(max_size=32),
        tag=st.binary(max_size=40), version=u8,
    ),
    RecordFrame: st.builds(
        RecordFrame, seq=st.integers(0, (1 << 64) - 1),
        ciphertext=st.binary(max_size=80), tag=st.binary(max_size=40),
    ),
    RevokeNotice: st.builds(
        RevokeNotice, ticket_id=texts, tag=st.binary(max_size=40),
        version=u8,
    ),
    ReplDigest: _repl(ReplDigest),
    ReplPull: _repl(ReplPull),
    ReplPush: _repl(ReplPush),
}

# Errors a receiver may see from hostile bytes: the codec's own, plus
# the dataclass validators' (empty announce, short nonce, ...).
TYPED_ERRORS = (DecodeError, FrameTooLarge, ProtocolError)


def test_strategies_cover_every_message_class():
    assert set(MESSAGES) == {type(m) for m in CASES.values()}


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda c: c.__name__)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_decode_inverts_encode(cls, data):
    message = data.draw(MESSAGES[cls])
    assert decode_payload(encode_message(message)) == message


def _mutate(payload: bytes, edits) -> bytes:
    """Apply (kind, position, byte) edits: overwrite, insert or delete."""
    out = bytearray(payload)
    for kind, position, value in edits:
        if kind == "set" and out:
            out[position % len(out)] = value
        elif kind == "insert":
            out.insert(position % (len(out) + 1), value)
        elif kind == "delete" and out:
            del out[position % len(out)]
    return bytes(out)


edits = st.lists(
    st.tuples(
        st.sampled_from(("set", "insert", "delete")),
        st.integers(0, 1 << 16),
        u8,
    ),
    min_size=1, max_size=4,
)


@pytest.mark.parametrize("cls", MESSAGES, ids=lambda c: c.__name__)
@PROPERTY_SETTINGS
@given(data=st.data())
def test_decodable_payload_reencodes_identically(cls, data):
    frame = encode_message(data.draw(MESSAGES[cls]))
    payload = _mutate(frame.payload, data.draw(edits))
    try:
        decoded = decode_payload(Frame(frame.type, payload))
    except (DecodeError, ProtocolError):
        return
    assert encode_message(decoded) == Frame(frame.type, payload)


framed_garbage = st.builds(
    lambda type_byte, payload: frame_to_bytes(Frame(type_byte, payload)),
    st.sampled_from([int(t) for t in FrameType] + [0x00, 0x7F, 0xFF]),
    st.binary(max_size=120),
)


@PROPERTY_SETTINGS
@given(chunks=st.lists(st.binary(max_size=64) | framed_garbage, max_size=6))
def test_arbitrary_bytes_raise_only_typed_errors(chunks):
    assembler = FrameAssembler(max_frame_bytes=256)
    assembler.feed(b"".join(chunks))
    while not assembler.broken:
        try:
            frame = assembler.next_frame()
        except TYPED_ERRORS:
            continue
        if frame is None:
            break
        try:
            decode_payload(frame)
        except TYPED_ERRORS:
            pass
