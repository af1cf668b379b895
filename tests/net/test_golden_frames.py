"""Golden wire corpus: every frame type pinned byte for byte.

``golden/frames.json`` maps a case name to the hex of
``frame_to_bytes(encode_message(message))``.  Each case must encode to
exactly its stored bytes, and those bytes must decode back to the case
message; every :class:`FrameType` member must have at least one case.

The case list below is the only source of the corpus.  A deliberate
wire change regenerates it with::

    PYTHONPATH=src python -m tests.net.test_golden_frames

and the diff of ``frames.json`` is the reviewable record of that change.
"""

import json
from pathlib import Path

import pytest

from repro.crypto.ot import OTCiphertexts
from repro.net.codec import (
    Accept,
    ConfirmAck,
    ErrorFrame,
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

CORPUS_PATH = Path(__file__).parent / "golden" / "frames.json"

TRACE = TraceContext(
    trace_id="t0ffee-0001", span_id="s0ffee-000042",
    sampled=True, service="mobile-é",
)
UNSAMPLED_TRACE = TraceContext(
    trace_id="t1", span_id="s1", sampled=False, service="",
)

# Opaque group elements of realistic sizes: 64-byte MODP integers (the
# 512-bit simulation group) and 64-byte x‖y curve25519 points.
MODP_ELEMENTS = (
    (1 << 511) + 0x1234567,
    bytes(range(64)),
    7,
)
CURVE_ELEMENTS = (
    bytes(range(64)),
    bytes(range(100, 164)),
    bytes(64),
)

# Bit strings whose length is, and is not, a multiple of 8.
SKETCH_133 = BitSequence.from_int((1 << 132) | 0xDEADBEEF, 133)
SKETCH_128 = BitSequence.from_int((1 << 127) | 0xC0FFEE, 128)
SEED_31 = BitSequence.from_int(0x5A5A5A5, 31)


#: Case name -> message; covers every frame type and extension mix.
CASES = {
    "hello-bare": Hello(sender="mobile", rng_seed=0),
    "hello-seed-2^300": Hello(
        sender="mobile-é", rng_seed=1 << 300, dynamic=True
    ),
    "hello-trace": Hello(
        sender="mobile", rng_seed=17, trace_context=TRACE
    ),
    "hello-group": Hello(
        sender="mobile", rng_seed=17, group_id="curve25519"
    ),
    "hello-trace-group": Hello(
        sender="mobile", rng_seed=17, dynamic=True,
        trace_context=UNSAMPLED_TRACE, group_id="curve25519",
    ),
    "accept": Accept(
        sender="server", session_id="s000042",
        key_length_bits=256, eta=0.0417,
    ),
    "seed-grant-31-bits": SeedGrant(attempt=3, seed=SEED_31),
    "seed-grant-empty": SeedGrant(attempt=0, seed=BitSequence()),
    "ot-announce-modp": OTAnnounce(
        sender="mobile", elements=MODP_ELEMENTS
    ),
    "ot-announce-curve": OTAnnounce(
        sender="mobile", elements=CURVE_ELEMENTS
    ),
    "ot-response-modp": OTResponse(
        sender="server", elements=MODP_ELEMENTS[::-1]
    ),
    "ot-response-curve": OTResponse(
        sender="server", elements=CURVE_ELEMENTS[::-1]
    ),
    "ot-ciphertexts": OTCiphertextBatch(
        sender="server",
        pairs=(
            OTCiphertexts(e0=b"", e1=b"x"),
            OTCiphertexts(e0=bytes(range(64)), e1=bytes(64)),
        ),
    ),
    "recon-challenge-133-bits": ReconciliationChallenge(
        sender="mobile", sketch=SKETCH_133, nonce=bytes(range(16)),
    ),
    "recon-challenge-128-bits": ReconciliationChallenge(
        sender="mobile", sketch=SKETCH_128, nonce=b"\xa5" * 8,
    ),
    "confirm-response": ConfirmationResponse(
        sender="server", tag=bytes(range(32))
    ),
    "confirm-ack-ok": ConfirmAck(ok=True, tag=bytes(range(32))),
    "confirm-ack-fail": ConfirmAck(ok=False, tag=b""),
    "round-result-ok": RoundResult(success=True),
    "round-result-fail": RoundResult(
        success=False, reason="agreement: HMAC mismatch"
    ),
    "verdict-established": Verdict(
        state="established", attempts=2, session_id="s000042"
    ),
    "verdict-failed": Verdict(
        state="failed", attempts=3, reason="keys differ"
    ),
    "error": ErrorFrame(code="busy", detail="queue 32/32"),
    "error-empty-detail": ErrorFrame(code="version"),
    "stats-request": StatsRequest(),
    "stats-response": StatsResponse(
        payload_json='{"role": "backend", "counters": {"né": 3}}'
    ),
    "telemetry-request-peek": TelemetryRequest(),
    "telemetry-request-drain": TelemetryRequest(drain=True),
    "telemetry-response": TelemetryResponse(payload_json="{}"),
    "ticket-grant": TicketGrant(
        ticket_id="a" * 32, expires_at=1.75e9, lifetime_s=3600.0
    ),
    "resume-request-bare": ResumeRequest(
        sender="mobile", ticket_id="b" * 32,
        client_nonce=bytes(range(16)),
    ),
    "resume-request-trace": ResumeRequest(
        sender="mobile", ticket_id="b" * 32,
        client_nonce=bytes(range(16)), trace_context=TRACE,
    ),
    "resume-accept": ResumeAccept(
        sender="server", channel_id="c" * 32,
        server_nonce=bytes(16), tag=bytes(range(32)),
    ),
    "record-empty": RecordFrame(seq=0, ciphertext=b"", tag=bytes(32)),
    "record-max-seq": RecordFrame(
        seq=(1 << 64) - 1, ciphertext=bytes(range(256)),
        tag=bytes(reversed(range(32))),
    ),
    "revoke-notice": RevokeNotice(ticket_id="d" * 32, tag=bytes(32)),
    "repl-digest": ReplDigest(
        sender="backend-0", payload_json='{"hw": {"backend-0": 4}}'
    ),
    "repl-pull": ReplPull(sender="backend-1", payload_json="{}"),
    "repl-push": ReplPush(
        sender="gateway", payload_json='{"entries": []}'
    ),
}


def encode_case(message) -> str:
    return frame_to_bytes(encode_message(message)).hex()


def load_corpus():
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def test_corpus_names_match_cases():
    assert sorted(load_corpus()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_encodes_to_golden_bytes(name):
    assert encode_case(CASES[name]) == load_corpus()[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes_decode_to_case(name):
    assembler = FrameAssembler()
    assembler.feed(bytes.fromhex(load_corpus()[name]))
    frames = assembler.drain()
    assert len(frames) == 1 and assembler.buffered == 0
    assert decode_payload(frames[0]) == CASES[name]


def test_every_frame_type_has_a_case():
    covered = {encode_message(m).type for m in CASES.values()}
    missing = sorted(t.name for t in set(FrameType) - covered)
    assert not missing, f"frame types without a golden case: {missing}"


def main() -> None:
    corpus = {name: encode_case(CASES[name]) for name in sorted(CASES)}
    CORPUS_PATH.parent.mkdir(exist_ok=True)
    CORPUS_PATH.write_text(
        json.dumps(corpus, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(corpus)} cases to {CORPUS_PATH}")


if __name__ == "__main__":
    main()
