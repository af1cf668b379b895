"""Codec round-trips for the replication frames.

The three ``REPL_*`` frames share one envelope (sender + JSON payload);
each must survive the full wire loop and decode back to its own type —
the front end dispatches first frames by exact type."""

import json

import pytest

from repro.errors import DecodeError
from repro.net.codec import (
    FrameType,
    ReplDigest,
    ReplPull,
    ReplPush,
    decode_payload,
    encode_message,
)

from tests.net.test_codec import roundtrip

SAMPLE_PAYLOADS = [
    "{}",
    json.dumps({"digest": {"127.0.0.1:4242/abcd1234": 17}}),
    json.dumps({
        "entries": [
            {
                "origin": "127.0.0.1:4242/abcd1234",
                "seq": 3,
                "op": "grant",
                "ticket_id": "ab" * 16,
                "payload": {"resume_secret": "11" * 32,
                            "peer": "mobile-é",
                            "expires_unix": 1.75e9},
                "id": "00" * 16,
            }
        ],
        "digest": {},
    }),
]


@pytest.mark.parametrize("cls,frame_type", [
    (ReplDigest, FrameType.REPL_DIGEST),
    (ReplPull, FrameType.REPL_PULL),
    (ReplPush, FrameType.REPL_PUSH),
])
class TestReplFrames:
    def test_roundtrip_identity(self, cls, frame_type):
        for payload in SAMPLE_PAYLOADS:
            message = cls(sender="10.0.0.7:9000/cafe0001",
                          payload_json=payload)
            decoded = roundtrip(message)
            assert decoded == message
            assert type(decoded) is cls

    def test_frame_type_assignment(self, cls, frame_type):
        frame = encode_message(cls(sender="s", payload_json="{}"))
        assert frame.type == frame_type

    def test_truncated_payload_rejected(self, cls, frame_type):
        frame = encode_message(
            cls(sender="s", payload_json='{"digest": {}}')
        )
        truncated = frame._replace(payload=frame.payload[:-3])
        with pytest.raises(DecodeError):
            decode_payload(truncated)


def test_types_are_distinct_on_the_wire():
    """Same envelope, three frame types: a pull must never decode as a
    push (the receiver's reply depends on which one arrived)."""
    decoded = [
        roundtrip(cls(sender="s", payload_json="{}"))
        for cls in (ReplDigest, ReplPull, ReplPush)
    ]
    assert [type(m) for m in decoded] == [ReplDigest, ReplPull, ReplPush]
