"""Codec round-trip and size-reconciliation tests.

Property-style sweeps over every wire message type: encode -> frame ->
bytes -> frame -> decode must be the identity, encoded frame length
must equal ``wire_size_bytes() + framing_overhead()`` for the protocol
dataclasses, and every malformed input (truncation, trailing bytes,
unknown types, oversized frames) must raise the right typed error.
"""

import numpy as np
import pytest

from repro.crypto.ot import OTCiphertexts
from repro.errors import DecodeError, FrameTooLarge
from repro.net.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    PROTOCOL_VERSION,
    Accept,
    ConfirmAck,
    ErrorFrame,
    Frame,
    FrameAssembler,
    FrameType,
    Hello,
    RecordFrame,
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
    framing_overhead,
    read_frame,
)
from repro.protocol.messages import (
    ConfirmationResponse,
    OTAnnounce,
    OTCiphertextBatch,
    OTResponse,
    ReconciliationChallenge,
)
from repro.obs.tracing import TraceContext
from repro.utils.bits import BitSequence


def roundtrip(message):
    """Full wire loop: message -> frame -> bytes -> frame -> message."""
    data = frame_to_bytes(encode_message(message))
    consumed = [0]

    def recv_exactly(n):
        chunk = data[consumed[0]:consumed[0] + n]
        assert len(chunk) == n, "reader ran past the encoded frame"
        consumed[0] += n
        return chunk

    frame = read_frame(recv_exactly)
    assert consumed[0] == len(data), "frame did not consume all bytes"
    return decode_payload(frame)


# extreme int sizes: zero, one, a 4096-bit monster, and a u16-boundary
# neighbourhood; realistic group elements live far inside this range
EXTREME_INTS = (0, 1, 255, 256, 65535, 65536, (1 << 512) - 1, 1 << 4095)


def sample_messages():
    rng = np.random.default_rng(0)
    return [
        OTAnnounce(sender="mobile", elements=EXTREME_INTS),
        OTAnnounce(sender="m", elements=(7,)),
        OTResponse(sender="server", elements=tuple(reversed(EXTREME_INTS))),
        OTCiphertextBatch(
            sender="mobile",
            pairs=(
                OTCiphertexts(e0=b"", e1=b"x"),
                OTCiphertexts(e0=bytes(range(64)), e1=bytes(64)),
            ),
        ),
        ReconciliationChallenge(
            sender="mobile",
            sketch=BitSequence.random(133, rng),  # non-byte-aligned
            nonce=bytes(range(16)),
        ),
        ReconciliationChallenge(
            sender="mobile",
            sketch=BitSequence([1]),
            nonce=b"\x00" * 8,
        ),
        ConfirmationResponse(sender="server", tag=bytes(32)),
        Hello(sender="mobile", rng_seed=0),
        Hello(sender="mobile-é", rng_seed=(1 << 62) + 3, dynamic=True),
        Accept(
            sender="server", session_id="s000042",
            key_length_bits=256, eta=0.0417,
        ),
        SeedGrant(attempt=3, seed=BitSequence.random(31, rng)),
        ConfirmAck(ok=True, tag=bytes(range(32))),
        ConfirmAck(ok=False, tag=b""),
        RoundResult(success=False, reason="agreement: HMAC mismatch"),
        RoundResult(success=True),
        Verdict(state="established", attempts=2, session_id="s000042"),
        Verdict(state="failed", attempts=3, reason="keys differ"),
        ErrorFrame(code="busy", detail="queue 32/32"),
        ErrorFrame(code="version"),
        StatsRequest(),
        StatsResponse(payload_json="{}"),
        StatsResponse(
            payload_json='{"role": "backend", "snapshot": '
                         '{"counters": {"né": 3}}}'
        ),
        TicketGrant(
            ticket_id="a" * 32, expires_at=1.75e9, lifetime_s=3600.0
        ),
        ResumeRequest(
            sender="mobile", ticket_id="b" * 32,
            client_nonce=bytes(range(16)),
        ),
        ResumeAccept(
            sender="server", channel_id="c" * 32,
            server_nonce=bytes(16), tag=bytes(range(32)),
        ),
        RecordFrame(seq=0, ciphertext=b"", tag=bytes(32)),
        RecordFrame(
            seq=(1 << 64) - 1, ciphertext=bytes(range(256)) * 4,
            tag=bytes(reversed(range(32))),
        ),
        RevokeNotice(ticket_id="d" * 32, tag=bytes(32)),
    ]


@pytest.mark.parametrize(
    "message", sample_messages(), ids=lambda m: type(m).__name__
)
def test_roundtrip_identity(message):
    assert roundtrip(message) == message


def test_hello_carries_version():
    decoded = roundtrip(Hello(sender="mobile", rng_seed=5))
    assert decoded.version == PROTOCOL_VERSION


@pytest.mark.parametrize("value", EXTREME_INTS)
def test_uint_extremes_roundtrip(value):
    # Integers coerce to their minimal big-endian encoding on message
    # construction; the wire must carry those bytes unchanged.
    message = OTAnnounce(sender="a", elements=(value,))
    expected = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
    assert message.elements == (expected,)
    assert roundtrip(message).elements == (expected,)


def test_encoded_size_matches_wire_model():
    """The codec's frame length is exactly the latency model's
    ``wire_size_bytes`` plus the documented framing overhead."""
    rng = np.random.default_rng(1)
    protocol_messages = [
        m for m in sample_messages()
        if isinstance(
            m,
            (
                OTAnnounce, OTResponse, OTCiphertextBatch,
                ReconciliationChallenge, ConfirmationResponse,
            ),
        )
    ]
    # plus a realistically-sized batch
    protocol_messages.append(OTAnnounce(
        sender="mobile",
        elements=tuple(
            int(x) for x in rng.integers(1, 1 << 62, size=48)
        ),
    ))
    assert protocol_messages
    for message in protocol_messages:
        encoded = frame_to_bytes(encode_message(message))
        assert (
            len(encoded)
            == message.wire_size_bytes() + framing_overhead(message)
        ), type(message).__name__


def test_truncated_payload_raises_decode_error():
    for message in sample_messages():
        frame = encode_message(message)
        if not frame.payload:
            continue
        truncated = Frame(frame.type, frame.payload[:-1])
        with pytest.raises(DecodeError):
            decode_payload(truncated)


def test_trailing_bytes_raise_decode_error():
    frame = encode_message(RoundResult(success=True))
    with pytest.raises(DecodeError, match="trailing"):
        decode_payload(Frame(frame.type, frame.payload + b"\x00"))


def test_unknown_frame_type_raises_decode_error():
    with pytest.raises(DecodeError, match="unknown frame type"):
        decode_payload(Frame(0x7F, b""))


def test_empty_uint_field_raises_decode_error():
    # u16 length prefix of 0 is never produced by the encoder
    payload = b"\x00\x01a" + b"\x00\x01" + b"\x00\x00"
    with pytest.raises(DecodeError):
        decode_payload(Frame(FrameType.OT_ANNOUNCE, payload))


def _reader_for(data):
    consumed = [0]

    def recv_exactly(n):
        chunk = data[consumed[0]:consumed[0] + n]
        consumed[0] += n
        return chunk

    return recv_exactly


def test_read_frame_rejects_oversized_frames():
    message = OTAnnounce(sender="mobile", elements=(1 << 512,))
    data = frame_to_bytes(encode_message(message))
    with pytest.raises(FrameTooLarge):
        read_frame(_reader_for(data), max_frame_bytes=16)
    # the limit is checked before the body is read: a hostile length
    # prefix cannot make the receiver allocate
    hostile = b"\xff\xff\xff\xff" + b"\x10"
    with pytest.raises(FrameTooLarge):
        read_frame(_reader_for(hostile), DEFAULT_MAX_FRAME_BYTES)


def test_read_frame_rejects_zero_length_body():
    with pytest.raises(DecodeError):
        read_frame(_reader_for(b"\x00\x00\x00\x00"))


def test_header_constant_matches_layout():
    frame = encode_message(ConfirmAck(ok=True, tag=b""))
    data = frame_to_bytes(frame)
    assert len(data) == HEADER_BYTES + len(frame.payload)


# -- frame-size boundary: exactly-at-limit accepted, limit+1 rejected --------


def _record_with_payload_bytes(total_payload: int) -> RecordFrame:
    """A RecordFrame whose *encoded* payload is exactly ``total_payload``
    bytes, computed from the encoder itself so the test tracks any
    future layout change."""
    base = len(encode_message(
        RecordFrame(seq=0, ciphertext=b"", tag=bytes(32))
    ).payload)
    assert total_payload >= base
    return RecordFrame(
        seq=0, ciphertext=bytes(total_payload - base), tag=bytes(32)
    )


def test_frame_exactly_at_limit_accepted():
    message = _record_with_payload_bytes(DEFAULT_MAX_FRAME_BYTES)
    frame = encode_message(message)
    assert len(frame.payload) == DEFAULT_MAX_FRAME_BYTES
    decoded = decode_payload(
        read_frame(_reader_for(frame_to_bytes(frame)))
    )
    assert decoded == message


def test_frame_one_over_limit_rejected():
    frame = encode_message(
        _record_with_payload_bytes(DEFAULT_MAX_FRAME_BYTES + 1)
    )
    with pytest.raises(FrameTooLarge):
        read_frame(_reader_for(frame_to_bytes(frame)))


def test_assembler_boundary_matches_read_frame():
    """The streaming assembler enforces the identical boundary: the
    at-limit frame parses, one byte more poisons the stream."""
    at_limit = encode_message(
        _record_with_payload_bytes(DEFAULT_MAX_FRAME_BYTES)
    )
    assembler = FrameAssembler()
    assembler.feed(frame_to_bytes(at_limit))
    parsed = assembler.next_frame()
    assert parsed is not None and parsed.payload == at_limit.payload

    over = encode_message(
        _record_with_payload_bytes(DEFAULT_MAX_FRAME_BYTES + 1)
    )
    assembler = FrameAssembler()
    assembler.feed(frame_to_bytes(over))
    with pytest.raises(FrameTooLarge):
        assembler.next_frame()
    assert assembler.broken


@pytest.mark.parametrize(
    "message",
    [
        ResumeRequest(sender="m", ticket_id="t" * 32,
                      client_nonce=bytes(16)),
        RevokeNotice(ticket_id="t" * 32, tag=bytes(32)),
        TicketGrant(ticket_id="t" * 32, expires_at=0.0, lifetime_s=1.0),
        ResumeAccept(sender="s", channel_id="c" * 32,
                     server_nonce=bytes(16), tag=bytes(32)),
    ],
    ids=lambda m: type(m).__name__,
)
def test_access_frames_fit_well_under_limit(message):
    """Control-plane access frames are small: none should come within
    an order of magnitude of the frame cap."""
    frame = encode_message(message)
    assert len(frame.payload) < DEFAULT_MAX_FRAME_BYTES // 1024


# -- trace-context tail: backward compatibility and telemetry frames ---------


SAMPLE_CONTEXT = TraceContext(
    trace_id="t0ffee-0001",
    span_id="s0ffee-000042",
    sampled=True,
    service="mobile-é",
)


def _traceable_messages(context):
    return [
        Hello(sender="mobile", rng_seed=17, trace_context=context),
        ResumeRequest(
            sender="mobile", ticket_id="b" * 32,
            client_nonce=bytes(range(16)), trace_context=context,
        ),
    ]


@pytest.mark.parametrize(
    "message", _traceable_messages(SAMPLE_CONTEXT),
    ids=lambda m: type(m).__name__,
)
def test_trace_context_roundtrips(message):
    decoded = roundtrip(message)
    assert decoded == message
    assert decoded.trace_context == SAMPLE_CONTEXT


@pytest.mark.parametrize(
    "message", _traceable_messages(None), ids=lambda m: type(m).__name__
)
def test_contextless_encoding_is_byte_identical_to_pre_trace(message):
    """A peer that never sets ``trace_context`` produces exactly the
    old wire bytes: no marker, no empty strings, nothing."""
    with_context = dataclasses_replace(message, SAMPLE_CONTEXT)
    bare = encode_message(message).payload
    traced = encode_message(with_context).payload
    assert traced.startswith(bare), "tail must be strictly appended"
    assert len(traced) > len(bare)
    # the bare payload ends where the old format ended: decoding it
    # yields trace_context=None (old peer -> new decoder interop)
    assert decode_payload(encode_message(message)).trace_context is None


def dataclasses_replace(message, context):
    import dataclasses

    return dataclasses.replace(message, trace_context=context)


def test_unknown_trace_marker_raises_decode_error():
    frame = encode_message(Hello(sender="m", rng_seed=1))
    with pytest.raises(DecodeError, match="unknown extension tag"):
        decode_payload(Frame(frame.type, frame.payload + b"\x7f"))


def test_truncated_trace_context_raises_decode_error():
    frame = encode_message(
        Hello(sender="m", rng_seed=1, trace_context=SAMPLE_CONTEXT)
    )
    for cut in range(len(frame.payload) - 1,
                     len(frame.payload) - 8, -1):
        with pytest.raises(DecodeError):
            decode_payload(Frame(frame.type, frame.payload[:cut]))


# -- group-id block: OT group negotiation in Hello ----------------------------


def test_hello_group_id_roundtrips():
    decoded = roundtrip(
        Hello(sender="mobile", rng_seed=3, group_id="curve25519")
    )
    assert decoded.group_id == "curve25519"


def test_hello_group_id_roundtrips_alongside_trace_context():
    message = Hello(
        sender="mobile", rng_seed=3,
        trace_context=SAMPLE_CONTEXT, group_id="curve25519",
    )
    decoded = roundtrip(message)
    assert decoded.group_id == "curve25519"
    assert decoded.trace_context == SAMPLE_CONTEXT


def test_default_group_hello_is_byte_identical():
    """A client on the default MODP group sends no group block at all —
    the frame is byte-identical to the pre-negotiation wire format."""
    bare = encode_message(Hello(sender="mobile", rng_seed=17)).payload
    grouped = encode_message(
        Hello(sender="mobile", rng_seed=17, group_id="curve25519")
    ).payload
    assert grouped.startswith(bare), "group block must be strictly appended"
    assert len(grouped) > len(bare)
    assert decode_payload(encode_message(
        Hello(sender="mobile", rng_seed=17)
    )).group_id == ""


def test_duplicate_group_block_raises():
    frame = encode_message(
        Hello(sender="m", rng_seed=1, group_id="curve25519")
    )
    block = b"\x02" + len(b"curve25519").to_bytes(2, "big") + b"curve25519"
    assert frame.payload.endswith(block)
    with pytest.raises(DecodeError, match="duplicate group-id"):
        decode_payload(Frame(frame.type, frame.payload + block))


def test_empty_group_block_raises():
    frame = encode_message(Hello(sender="m", rng_seed=1))
    with pytest.raises(DecodeError, match="empty group-id"):
        decode_payload(
            Frame(frame.type, frame.payload + b"\x02\x00\x00")
        )


@pytest.mark.parametrize(
    "message",
    [
        TelemetryRequest(),
        TelemetryRequest(drain=True),
        TelemetryResponse(payload_json="{}"),
        TelemetryResponse(
            payload_json='{"schema": "repro.telemetry/1", '
                         '"service": "backend-é", "spans": []}'
        ),
    ],
    ids=["peek", "drain", "empty-doc", "utf8-doc"],
)
def test_telemetry_frames_roundtrip(message):
    assert roundtrip(message) == message


def test_telemetry_response_rejects_bad_utf8():
    # u8 version + blob32(u32 length + body) with an invalid utf-8 body
    broken = bytes([PROTOCOL_VERSION]) + b"\x00\x00\x00\x02\xff\xfe"
    with pytest.raises(DecodeError, match="utf-8"):
        decode_payload(Frame(FrameType.TELEMETRY_RESPONSE, broken))


def test_telemetry_frame_types_are_distinct():
    assert encode_message(TelemetryRequest()).type == (
        FrameType.TELEMETRY_REQUEST
    )
    assert encode_message(
        TelemetryResponse(payload_json="{}")
    ).type == FrameType.TELEMETRY_RESPONSE
    assert FrameType.TELEMETRY_REQUEST != FrameType.STATS_REQUEST


# -- canonical decoding: one message, one encoding ----------------------------


def _flag_payloads():
    """(frame type, payload) per flag field, with the flag byte set to 2."""
    hello = encode_message(Hello(sender="m", rng_seed=1)).payload
    # the sampled flag, then the u16 length of the empty service string
    traced = encode_message(ResumeRequest(
        sender="m", ticket_id="t", client_nonce=b"",
        trace_context=TraceContext(trace_id="t", span_id="s"),
    )).payload
    assert traced.endswith(b"\x01\x00\x00")
    return {
        "hello-dynamic": (FrameType.HELLO, hello[:-1] + b"\x02"),
        "confirm-ack-ok": (FrameType.CONFIRM_ACK, b"\x02\x00"),
        "round-result-success": (FrameType.ROUND_RESULT, b"\x02\x00\x00"),
        "telemetry-drain": (FrameType.TELEMETRY_REQUEST, b"\x01\x02"),
        "trace-sampled": (
            FrameType.RESUME_REQUEST, traced[:-3] + b"\x02\x00\x00"
        ),
    }


@pytest.mark.parametrize("name", sorted(_flag_payloads()))
def test_flag_byte_other_than_0_or_1_rejected(name):
    frame_type, payload = _flag_payloads()[name]
    with pytest.raises(DecodeError, match="flag"):
        decode_payload(Frame(frame_type, payload))


@pytest.mark.parametrize(
    "message, from_end",
    [
        (SeedGrant(attempt=1, seed=BitSequence([1, 0, 1])), 1),
        # the sketch's last byte sits before the blob8 nonce (1 + 8 bytes)
        (
            ReconciliationChallenge(
                sender="m", sketch=BitSequence([1] * 13), nonce=bytes(8)
            ),
            10,
        ),
    ],
    ids=["SeedGrant", "ReconciliationChallenge"],
)
def test_nonzero_padding_bits_rejected(message, from_end):
    frame = encode_message(message)
    payload = bytearray(frame.payload)
    assert payload[-from_end] & 0x01 == 0
    payload[-from_end] |= 0x01
    with pytest.raises(DecodeError, match="padding"):
        decode_payload(Frame(frame.type, bytes(payload)))


def test_non_minimal_integer_rejected():
    # Hello's rng_seed as u16 length 2 + 00 05: the value 5 with a
    # leading zero byte; the encoder only ever writes 01 05
    payload = b"\x01" + b"\x00\x01m" + b"\x00\x02\x00\x05" + b"\x00"
    with pytest.raises(DecodeError, match="non-minimal"):
        decode_payload(Frame(FrameType.HELLO, payload))
    assert decode_payload(
        Frame(FrameType.HELLO, b"\x01\x00\x01m\x00\x01\x05\x00")
    ).rng_seed == 5


def test_extension_tags_out_of_order_rejected():
    bare = encode_message(Hello(sender="m", rng_seed=1)).payload
    both = encode_message(Hello(
        sender="m", rng_seed=1,
        trace_context=SAMPLE_CONTEXT, group_id="curve25519",
    )).payload
    trace_block = both[len(bare):-(3 + len("curve25519"))]
    group_block = both[len(bare) + len(trace_block):]
    assert bare + trace_block + group_block == both
    with pytest.raises(DecodeError, match="order"):
        decode_payload(
            Frame(FrameType.HELLO, bare + group_block + trace_block)
        )
