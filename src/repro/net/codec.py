"""Versioned binary codec for the WaveKey wire protocol.

Frame layout (everything big-endian)::

    +----------------+-----------+--------------------+
    | body length u32| type u8   | payload            |
    +----------------+-----------+--------------------+

``body length`` counts the type byte plus the payload, so a receiver
can bound memory before reading the body (:class:`FrameTooLarge`).

Four message families share the framing: the **protocol dataclasses**
of :mod:`repro.protocol.messages` (``M_A``/``M_B``/``M_E``, the
reconciliation challenge and the HMAC confirmation), and the frames
defined here for **session control** (handshake, seed grant, acks,
verdicts, stats/telemetry scrapes, errors), the **access layer**
(tickets, resumption, sealed records, revocation) and **replication**
(digest, pull and push of JSON log entries).

One spec table, ``_SPECS``, drives both directions: each message class
maps to its frame type, its fields in wire order and the extension
tags it allows.  Each field is one of a few kinds: fixed-width numbers,
0/1 flags, minimal integers, bit sequences, length-prefixed blobs,
strings and JSON documents, counted lists and nested records.  OT group
elements are opaque non-empty blobs the negotiated group validates.

Extensions are optional trailing blocks, a tag byte plus one field:
``0x01`` trace context (:class:`Hello`, :class:`ResumeRequest`) and
``0x02`` OT group id (:class:`Hello`).  Tags must be strictly
ascending, so each appears at most once; a tag the frame does not
allow is rejected, as are trailing bytes on a frame that allows none.
An absent extension writes nothing, so such frames are byte-identical
to the wire from before the extension existed.

Decoding is canonical: whatever decodes re-encodes to the same bytes.
``tests/net/golden`` pins every frame type byte for byte, and
:func:`framing_overhead` reconciles ``wire_size_bytes()`` of the
protocol dataclasses with the codec.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.crypto.ot import OTCiphertexts
from repro.errors import DecodeError, FrameTooLarge, ProtocolError
from repro.obs.tracing import TraceContext
from repro.protocol.messages import (
    ConfirmAck,
    ConfirmationResponse,
    OTAnnounce,
    OTCiphertextBatch,
    OTResponse,
    ReconciliationChallenge,
)
from repro.utils.bits import BitSequence

#: Bump on any incompatible change to frame layout or message payloads.
#: Version 2: ``M_A`` carries the one batch-form OT element ``S`` of the
#: round, not one element per instance.  Version 3: curve25519 elements
#: are affine ``x‖y`` (64 bytes), not RFC 8032 compressed (32 bytes).
PROTOCOL_VERSION = 3

#: Frame header: u32 body length + u8 frame type.
_HEADER = struct.Struct("!IB")
HEADER_BYTES = _HEADER.size

#: Default bound on one frame's payload; generous next to real messages
#: (a 512-bit-group M_E for l_s=128 is ~20 KiB).
DEFAULT_MAX_FRAME_BYTES = 1 << 20


class FrameType(enum.IntEnum):
    """One byte on the wire identifying the payload schema."""

    HELLO = 0x01
    ACCEPT = 0x02
    SEED_GRANT = 0x03
    OT_ANNOUNCE = 0x10
    OT_RESPONSE = 0x11
    OT_CIPHERTEXTS = 0x12
    RECON_CHALLENGE = 0x13
    CONFIRM_RESPONSE = 0x14
    CONFIRM_ACK = 0x15
    ROUND_RESULT = 0x20
    VERDICT = 0x21
    ERROR = 0x30
    STATS_REQUEST = 0x40
    STATS_RESPONSE = 0x41
    TELEMETRY_REQUEST = 0x42
    TELEMETRY_RESPONSE = 0x43
    TICKET_GRANT = 0x50
    RESUME_REQUEST = 0x51
    RESUME_ACCEPT = 0x52
    RECORD = 0x53
    REVOKE_NOTICE = 0x54
    REPL_DIGEST = 0x60
    REPL_PULL = 0x61
    REPL_PUSH = 0x62


class Frame(NamedTuple):
    """A decoded frame header + raw payload (pre message decode)."""

    type: FrameType
    payload: bytes


# -- session-control messages -------------------------------------------------


@dataclass(frozen=True)
class Hello:
    """Client -> server: open a session (the wire's AccessRequest).

    ``trace_context`` (optional) carries the client's distributed
    trace: when present, every hop — gateway splice, backend worker
    pool — parents its spans under the client's root instead of
    minting a new trace.

    ``group_id`` (optional) negotiates the OT group for the session:
    empty means the historical default (the 512-bit MODP simulation
    group), anything else names the group the client will run the
    exchange in (e.g. ``curve25519``).  A server configured for a
    different group answers with a typed ``group`` error frame instead
    of mis-decoding elements.
    """

    sender: str
    rng_seed: int
    dynamic: bool = False
    version: int = PROTOCOL_VERSION
    trace_context: Optional[TraceContext] = None
    group_id: str = ""


@dataclass(frozen=True)
class Accept:
    """Server -> client: session admitted; carries the protocol
    operating point so both sides build identical reconciliation
    parameters."""

    sender: str
    session_id: str
    key_length_bits: int
    eta: float
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class SeedGrant:
    """Server -> client: the device-side key-seed for one attempt.

    In a real deployment the device derives this from its own IMU
    sensing of the shared gesture; the reproduction's sensor simulator
    lives server-side, so the simulated device sensing is granted over
    the wire at the start of each round.
    """

    attempt: int
    seed: BitSequence


@dataclass(frozen=True)
class RoundResult:
    """Server -> client: verdict of one protocol round (attempt)."""

    success: bool
    reason: str = ""


@dataclass(frozen=True)
class Verdict:
    """Server -> client: the session's terminal state."""

    state: str
    attempts: int
    reason: str = ""
    session_id: str = ""


@dataclass(frozen=True)
class ErrorFrame:
    """Either direction: a structured wire-level error (load shed,
    version mismatch, malformed frame)."""

    code: str
    detail: str = ""


@dataclass(frozen=True)
class StatsRequest:
    """Client -> server: ask for an operational stats snapshot instead
    of opening a session.

    Sent as the *first* frame where a :class:`Hello` would go; the
    server answers with one :class:`StatsResponse` and closes.  The
    cluster tier uses this exchange both as a health probe and as the
    metrics scrape feeding the fleet view.
    """

    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class StatsResponse:
    """Server -> client: one JSON document of operational stats.

    The payload is JSON (not a binary schema) because it carries a
    whole :meth:`MetricsRegistry.snapshot` — an open-ended, labeled
    series set that evolves faster than the wire protocol should.
    ``role`` inside the document distinguishes a single backend
    (``"backend"``) from a gateway answering with its merged fleet
    view (``"gateway"``).
    """

    payload_json: str
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class TelemetryRequest:
    """Client -> server: ask for buffered telemetry instead of opening
    a session.

    Sent as the *first* frame where a :class:`Hello` would go; the
    server answers with one :class:`TelemetryResponse` and closes.
    The response carries the server's bounded ring of finished span
    trees and recent events (:class:`repro.obs.collect.TelemetryBuffer`)
    — the raw material the trace stitcher
    (``repro obs trace --stitch``) joins across processes by trace_id.
    ``drain=True`` additionally clears the server's buffer, so a
    periodic scraper sees each span exactly once; the default peek
    leaves the buffer intact for concurrent readers.
    """

    drain: bool = False
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class TelemetryResponse:
    """Server -> client: one JSON telemetry document.

    JSON for the same reason :class:`StatsResponse` is: the payload is
    an open-ended document (``service`` identity, span dicts, event
    dicts, drop counters) that evolves faster than the wire protocol
    should.
    """

    payload_json: str
    version: int = PROTOCOL_VERSION


# -- access-layer messages (repro.access) -------------------------------------


@dataclass(frozen=True)
class TicketGrant:
    """Server -> client: a session-resumption ticket.

    Issued alongside the terminal verdict of a successful agreement: a
    returning client presents ``ticket_id`` in a :class:`ResumeRequest`
    to open a secure channel without re-running the gesture/OT
    exchange.  The resumption secret itself never travels — both sides
    derive it from the agreed key (:mod:`repro.access.records`), so the
    grant only names the ticket and its lifetime.
    """

    ticket_id: str
    expires_at: float   # server wall-clock (unix seconds)
    lifetime_s: float
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class ResumeRequest:
    """Client -> server: open a secure channel from a live ticket.

    Sent as the *first* frame where a :class:`Hello` would go.
    ``client_nonce`` freshens the channel key schedule so records from
    an earlier resumption of the same ticket never replay into this
    one.  ``trace_context`` propagates the client's distributed trace
    exactly as on :class:`Hello`.
    """

    sender: str
    ticket_id: str
    client_nonce: bytes
    version: int = PROTOCOL_VERSION
    trace_context: Optional[TraceContext] = None


@dataclass(frozen=True)
class ResumeAccept:
    """Server -> client: the resumption is live.

    ``tag`` authenticates the server to the client: an HMAC over both
    nonces and the channel id under a key only a holder of the ticket's
    resumption secret can derive — a server that never saw the agreed
    key cannot produce it.
    """

    sender: str
    channel_id: str
    server_nonce: bytes
    tag: bytes
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class RecordFrame:
    """Either direction: one sealed record of the secure channel.

    ``seq`` is the per-direction record counter (explicit, strictly
    sequential — receivers reject replays and reorders outright);
    ``ciphertext`` is the keystream-encrypted payload; ``tag`` is the
    encrypt-then-MAC HMAC over the sequence number and ciphertext
    under the direction's MAC key.
    """

    seq: int
    ciphertext: bytes
    tag: bytes


@dataclass(frozen=True)
class RevokeNotice:
    """Client -> server: kill a ticket, authenticated out-of-channel.

    Sent as a connection's first frame (no secure channel required —
    a device that lost its session state must still be able to revoke).
    ``tag`` is an HMAC over the ticket id under the ticket's dedicated
    revocation key, so only a holder of the agreed key can revoke.
    """

    ticket_id: str
    tag: bytes
    version: int = PROTOCOL_VERSION


# -- replication messages (repro.replica) -------------------------------------


@dataclass(frozen=True)
class ReplDigest:
    """Either direction: one replication digest document.

    Sent as a connection's *first* frame it asks "where do you stand?":
    the receiver answers with its own :class:`ReplDigest` and closes.
    Also sent as the acknowledgement to a :class:`ReplPush`, carrying
    the receiver's post-ingest digest so the pusher learns what stuck.
    The payload is JSON (same argument as :class:`StatsResponse`): a
    per-origin high-water vector is an open-ended document that grows
    with fleet membership, not a fixed binary schema.
    """

    sender: str
    payload_json: str
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class ReplPull:
    """Either direction: "send me every entry my digest lacks".

    Sent as a connection's first frame with the requester's digest in
    the JSON payload; the receiver answers with one :class:`ReplPush`
    carrying only the missing per-origin suffixes (plus its own digest)
    and closes.  This is the anti-entropy catch-up path — a rebooted
    backend pulls the world's delta, never the world.
    """

    sender: str
    payload_json: str
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class ReplPush:
    """Either direction: a batch of replication log entries.

    Sent as a connection's first frame (eager push of fresh grants and
    revocations, or the gateway ferrying entries between backends) the
    receiver ingests every entry and acks with a :class:`ReplDigest`;
    sent as the answer to a :class:`ReplPull` it carries the requested
    suffix.  Entries are content-addressed JSON documents — the
    receiver recomputes each entry id and drops tampered or duplicate
    entries without poisoning the rest of the batch.
    """

    sender: str
    payload_json: str
    version: int = PROTOCOL_VERSION


# -- field kinds --------------------------------------------------------------


class _Reader:
    """Consumes a payload; every underrun is a DecodeError."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        start, self.pos = self.pos, self.pos + n
        if self.pos > len(self.data):
            raise DecodeError(
                f"payload truncated: wanted {n} bytes at offset "
                f"{start}, have {len(self.data) - start}"
            )
        return self.data[start:self.pos]


class _Kind(NamedTuple):
    """How a field travels: ``write(out, value)``, ``read(r) -> value``."""

    write: Callable[[List[bytes], Any], None]
    read: Callable[[_Reader], Any]


def _fixed(fmt: str) -> _Kind:
    """A fixed-width big-endian number in ``struct`` format ``fmt``."""
    layout = struct.Struct(fmt)
    return _Kind(
        lambda out, value: out.append(layout.pack(value)),
        lambda r: layout.unpack(r.take(layout.size))[0],
    )


U8, U16, U32, U64, F64 = map(_fixed, ("!B", "!H", "!I", "!Q", "!d"))


def _blob(width: int, to_wire=bytes, from_wire=bytes) -> _Kind:
    """Bytes behind a ``width``-byte length prefix, made from the value
    by ``to_wire`` and back by ``from_wire``, which also rejects bytes
    that are not the canonical encoding of any value."""
    prefix = struct.Struct({1: "!B", 2: "!H", 4: "!I"}[width])
    pack, unpack, limit = prefix.pack, prefix.unpack, (1 << 8 * width) - 1

    def write(out, value):
        data = to_wire(value)
        if len(data) > limit:
            raise ProtocolError(f"blob{8 * width} field over {limit} bytes")
        out.append(pack(len(data)))
        out.append(data)

    def read(r):
        return from_wire(r.take(unpack(r.take(width))[0]))

    return _Kind(write, read)


BLOB8, BLOB16, BLOB32 = map(_blob, (1, 2, 4))


def _read_flag(r: _Reader) -> bool:
    value = U8.read(r)
    if value > 1:
        raise DecodeError(f"flag byte must be 0 or 1, got 0x{value:02x}")
    return value == 1


def _uint_bytes(value: int) -> bytes:
    """Minimal big-endian bytes; zero encodes as one zero byte."""
    value = int(value)
    if value < 0:
        raise ProtocolError("cannot encode a negative integer")
    return value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")


def _uint(data: bytes) -> int:
    if not data:
        raise DecodeError("empty integer field")
    if data[0] == 0 and len(data) > 1:
        raise DecodeError("non-minimal integer field: leading zero byte")
    return int.from_bytes(data, "big")


def _element(data: bytes) -> bytes:
    """Opaque (the negotiated group validates it), but never empty."""
    if not data:
        raise DecodeError("empty group element field")
    return data


def _write_bits(out: List[bytes], seq: BitSequence) -> None:
    U32.write(out, len(seq))
    out.append(seq.to_bytes())


def _read_bits(r: _Reader) -> BitSequence:
    n_bits = U32.read(r)
    data = r.take((n_bits + 7) // 8)
    if n_bits % 8 and data[-1] & (0xFF >> n_bits % 8):
        raise DecodeError("non-zero padding bits in bit sequence")
    return BitSequence.from_bytes(data, n_bits)


def _counted(item: _Kind) -> _Kind:
    """A u16 count followed by that many ``item`` values (a tuple)."""

    def write(out, values):
        U16.write(out, len(values))
        for value in values:
            item.write(out, value)

    return _Kind(
        write, lambda r: tuple(item.read(r) for _ in range(U16.read(r)))
    )


def _write_fields(out: List[bytes], value, fields: Tuple) -> None:
    """Write each (attribute name, kind) field of ``value`` in order."""
    for name, kind in fields:
        kind.write(out, getattr(value, name))


def _read_fields(r: _Reader, fields: Tuple) -> Dict[str, Any]:
    values = {}
    for name, kind in fields:
        values[name] = kind.read(r)
    return values


def _record(cls: type, *fields: Tuple[str, _Kind]) -> _Kind:
    """A nested record: ``cls`` built from ``fields`` in wire order."""
    return _Kind(
        lambda out, value: _write_fields(out, value, fields),
        lambda r: cls(**_read_fields(r, fields)),
    )


FLAG = _Kind(lambda out, value: U8.write(out, 1 if value else 0), _read_flag)
UINT = _blob(2, _uint_bytes, _uint)
STRING = _blob(2, str.encode, bytes.decode)
#: JSON documents travel as u32-length utf-8: stats outgrow a u16.
DOCUMENT = _blob(4, str.encode, bytes.decode)
BITS = _Kind(_write_bits, _read_bits)
ELEMENTS = _counted(_blob(2, bytes, _element))
PAIRS = _counted(_record(OTCiphertexts, ("e0", BLOB16), ("e1", BLOB16)))
TRACE_CONTEXT = _record(
    TraceContext, ("trace_id", STRING), ("span_id", STRING),
    ("sampled", FLAG), ("service", STRING),
)


# -- the schema ---------------------------------------------------------------


#: Extension tag -> (attribute, kind, absent value: written as nothing).
_EXTENSIONS: Dict[int, Tuple[str, _Kind, Any]] = {
    0x01: ("trace_context", TRACE_CONTEXT, None),
    0x02: ("group_id", STRING, ""),
}


def _spec(frame_type: FrameType, *fields, extensions=()) -> Tuple:
    """A message's frame type, its (attribute, kind) fields in wire
    order, and the extension tags it may carry (ascending)."""
    return frame_type, fields, tuple(sorted(extensions))


_VERSION = ("version", U8)
_SENDER = ("sender", STRING)
_TAG = ("tag", BLOB8)
_TICKET = ("ticket_id", STRING)
_DOCUMENT = ("payload_json", DOCUMENT)

_SPECS: Dict[type, Tuple] = {
    Hello: _spec(
        FrameType.HELLO, _VERSION, _SENDER, ("rng_seed", UINT),
        ("dynamic", FLAG), extensions=(0x01, 0x02),
    ),
    Accept: _spec(
        FrameType.ACCEPT, _VERSION, _SENDER, ("session_id", STRING),
        ("key_length_bits", U16), ("eta", F64),
    ),
    SeedGrant: _spec(FrameType.SEED_GRANT, ("attempt", U16), ("seed", BITS)),
    OTAnnounce: _spec(FrameType.OT_ANNOUNCE, _SENDER, ("elements", ELEMENTS)),
    OTResponse: _spec(FrameType.OT_RESPONSE, _SENDER, ("elements", ELEMENTS)),
    OTCiphertextBatch: _spec(
        FrameType.OT_CIPHERTEXTS, _SENDER, ("pairs", PAIRS)
    ),
    ReconciliationChallenge: _spec(
        FrameType.RECON_CHALLENGE, _SENDER, ("sketch", BITS), ("nonce", BLOB8)
    ),
    ConfirmationResponse: _spec(FrameType.CONFIRM_RESPONSE, _SENDER, _TAG),
    ConfirmAck: _spec(FrameType.CONFIRM_ACK, ("ok", FLAG), _TAG),
    RoundResult: _spec(
        FrameType.ROUND_RESULT, ("success", FLAG), ("reason", STRING)
    ),
    Verdict: _spec(
        FrameType.VERDICT, ("state", STRING), ("attempts", U16),
        ("reason", STRING), ("session_id", STRING),
    ),
    ErrorFrame: _spec(FrameType.ERROR, ("code", STRING), ("detail", STRING)),
    StatsRequest: _spec(FrameType.STATS_REQUEST, _VERSION),
    StatsResponse: _spec(FrameType.STATS_RESPONSE, _VERSION, _DOCUMENT),
    TelemetryRequest: _spec(
        FrameType.TELEMETRY_REQUEST, _VERSION, ("drain", FLAG)
    ),
    TelemetryResponse: _spec(
        FrameType.TELEMETRY_RESPONSE, _VERSION, _DOCUMENT
    ),
    TicketGrant: _spec(
        FrameType.TICKET_GRANT, _VERSION, _TICKET,
        ("expires_at", F64), ("lifetime_s", F64),
    ),
    ResumeRequest: _spec(
        FrameType.RESUME_REQUEST, _VERSION, _SENDER, _TICKET,
        ("client_nonce", BLOB8), extensions=(0x01,),
    ),
    ResumeAccept: _spec(
        FrameType.RESUME_ACCEPT, _VERSION, _SENDER, ("channel_id", STRING),
        ("server_nonce", BLOB8), _TAG,
    ),
    RecordFrame: _spec(
        FrameType.RECORD, ("seq", U64), ("ciphertext", BLOB32), _TAG
    ),
    RevokeNotice: _spec(FrameType.REVOKE_NOTICE, _VERSION, _TICKET, _TAG),
    ReplDigest: _spec(FrameType.REPL_DIGEST, _VERSION, _SENDER, _DOCUMENT),
    ReplPull: _spec(FrameType.REPL_PULL, _VERSION, _SENDER, _DOCUMENT),
    ReplPush: _spec(FrameType.REPL_PUSH, _VERSION, _SENDER, _DOCUMENT),
}

#: Frame type -> (message class, spec): the decode direction.
_BY_FRAME_TYPE: Dict[FrameType, Tuple[type, Tuple]] = {
    spec[0]: (cls, spec) for cls, spec in _SPECS.items()
}


def _read_extensions(r: _Reader, allowed: Tuple[int, ...]) -> Dict:
    """Parse the bytes after the fields as extension blocks: allowed tags
    only, strictly ascending (so each at most once), never absent."""
    if not allowed:
        raise DecodeError(
            f"{len(r.data) - r.pos} trailing bytes after payload"
        )
    values: Dict[str, Any] = {}
    last = 0
    while r.pos < len(r.data):
        tag = U8.read(r)
        if tag not in allowed:
            raise DecodeError(f"unknown extension tag 0x{tag:02x}")
        name, kind, absent = _EXTENSIONS[tag]
        label = name.replace("_", "-")
        if tag == last:
            raise DecodeError(f"duplicate {label} block")
        if tag < last:
            raise DecodeError(f"{label} block out of order")
        last = tag
        values[name] = kind.read(r)
        if values[name] == absent:
            raise DecodeError(f"empty {label} block")
    return values


# -- public API ---------------------------------------------------------------


def encode_message(message) -> Frame:
    """Serialize any wire message into a typed frame."""
    try:
        frame_type, fields, extensions = _SPECS[type(message)]
    except KeyError:
        raise ProtocolError(
            f"{type(message).__name__} is not a wire message"
        )
    out: List[bytes] = []
    _write_fields(out, message, fields)
    for tag in extensions:
        name, kind, absent = _EXTENSIONS[tag]
        value = getattr(message, name)
        if value != absent:
            U8.write(out, tag)
            kind.write(out, value)
    return Frame(frame_type, b"".join(out))


def decode_payload(frame: Frame):
    """Deserialize a frame back into its message object.

    Raises :class:`DecodeError` on unknown types, truncated payloads,
    trailing bytes, bad extensions and non-canonical fields; message
    validation failures (empty announce, short nonce...) surface as
    :class:`ProtocolError` from the dataclass constructors."""
    try:
        cls, (_, fields, extensions) = _BY_FRAME_TYPE[frame.type]
    except KeyError:
        raise DecodeError(f"unknown frame type 0x{int(frame.type):02x}")
    r = _Reader(frame.payload)
    try:
        values = _read_fields(r, fields)
        if r.pos < len(r.data):
            values.update(_read_extensions(r, extensions))
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid utf-8 in string field: {exc}")
    return cls(**values)


def frame_to_bytes(frame: Frame) -> bytes:
    """Wrap a frame in the length-prefixed wire header."""
    body_len = len(frame.payload) + 1
    return _HEADER.pack(body_len, int(frame.type)) + frame.payload


def _body_length(buf, offset: int, max_frame_bytes: int) -> int:
    """The header's body length, checked before any body byte is read."""
    (body_len,) = struct.unpack_from("!I", buf, offset)
    if body_len < 1:
        raise DecodeError("frame body length must be >= 1")
    if body_len - 1 > max_frame_bytes:
        raise FrameTooLarge(
            f"incoming frame payload of {body_len - 1} bytes exceeds the "
            f"{max_frame_bytes}-byte limit"
        )
    return body_len


def _frame_type(type_byte: int) -> FrameType:
    try:
        return FrameType(type_byte)
    except ValueError:
        raise DecodeError(f"unknown frame type 0x{type_byte:02x}")


def read_frame(
    recv_exactly: Callable[[int], bytes],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Frame:
    """Read one frame via ``recv_exactly(n) -> bytes``.

    Enforces ``max_frame_bytes`` on the payload *before* reading the
    body, so an oversized (or corrupted-length) frame cannot balloon
    memory; the frame type is validated but the payload is returned
    raw (the proxy tampers with frames without decoding them).
    """
    body_len = _body_length(recv_exactly(4), 0, max_frame_bytes)
    body = recv_exactly(body_len)
    return Frame(_frame_type(body[0]), body[1:])


class FrameAssembler:
    """Incremental frame decoder over one reusable receive buffer.

    The blocking :func:`read_frame` pulls exactly one frame per call
    and blocks inside ``recv``; an event loop instead gets *whatever
    bytes are currently readable* and must carve frames out of them.
    :class:`FrameAssembler` owns a single growable ``bytearray``:
    :meth:`read_into` fills it with ``socket.recv_into`` (no per-chunk
    ``bytes`` objects, no join), and :meth:`next_frame` parses complete
    frames in place, copying each payload out exactly once.

    Error taxonomy mirrors :func:`read_frame`:

    * :class:`FrameTooLarge` / zero-length body — the length prefix is
      poisoned, so the stream position is unrecoverable; the assembler
      marks itself :attr:`broken` and refuses further parsing;
    * unknown frame type — the frame was consumed whole, so the stream
      stays aligned; the :class:`DecodeError` is per-frame and
      :meth:`next_frame` may be called again.
    """

    __slots__ = ("max_frame_bytes", "broken", "_buf", "_start", "_end")

    def __init__(
        self,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        initial_capacity: int = 8192,
    ):
        self.max_frame_bytes = int(max_frame_bytes)
        self.broken = False
        self._buf = bytearray(max(HEADER_BYTES, int(initial_capacity)))
        self._start = 0   # first unparsed byte
        self._end = 0     # one past the last received byte

    @property
    def buffered(self) -> int:
        """Bytes received but not yet parsed into frames."""
        return self._end - self._start

    @property
    def capacity(self) -> int:
        """Current size of the reusable buffer (diagnostics)."""
        return len(self._buf)

    def _reserve(self, need: int) -> None:
        """Make at least ``need`` bytes of tail room, compacting (moving
        the unparsed window to offset 0) before growing."""
        if self._start == self._end:
            self._start = self._end = 0
        free = len(self._buf) - self._end
        if free >= need:
            return
        pending = self._end - self._start
        if self._start and len(self._buf) - pending >= need:
            # Slide the window down in place; no allocation.
            self._buf[:pending] = memoryview(self._buf)[
                self._start:self._end
            ]
            self._start, self._end = 0, pending
            return
        capacity = len(self._buf)
        while capacity - pending < need:
            capacity *= 2
        grown = bytearray(capacity)
        grown[:pending] = memoryview(self._buf)[self._start:self._end]
        self._buf = grown
        self._start, self._end = 0, pending

    def read_into(self, sock) -> int:
        """One non-blocking ``recv_into`` from ``sock``.

        Returns the byte count (0 = EOF).  Raises ``BlockingIOError``
        when the socket has nothing (callers loop until it does), and
        OS errors as-is — the event loop owns the typed-error mapping.
        """
        # Reserve enough for the frame in progress when its length is
        # already known, else a page; one recv per readiness event is
        # the fairness unit, the loop calls again while data remains.
        need = 4096
        if self._end - self._start >= 4:
            (body_len,) = struct.unpack_from("!I", self._buf, self._start)
            if 1 <= body_len - 1 <= self.max_frame_bytes:
                need = max(need, 4 + body_len - self.buffered)
        self._reserve(need)
        n = sock.recv_into(memoryview(self._buf)[self._end:])
        self._end += n
        return n

    def feed(self, data: bytes) -> int:
        """Append raw bytes (tests, non-socket sources)."""
        data = bytes(data)
        self._reserve(len(data))
        self._buf[self._end:self._end + len(data)] = data
        self._end += len(data)
        return len(data)

    def next_frame(self) -> Optional[Frame]:
        """Parse and return one complete frame, or ``None`` if the
        buffer holds only a partial frame."""
        if self.broken:
            raise DecodeError("frame stream is unrecoverable")
        avail = self._end - self._start
        if avail < 4:
            return None
        # A poisoned length prefix loses the stream position for good.
        self.broken = True
        body_len = _body_length(self._buf, self._start, self.max_frame_bytes)
        self.broken = False
        if avail < 4 + body_len:
            return None
        type_byte = self._buf[self._start + 4]
        payload = bytes(
            memoryview(self._buf)[
                self._start + 5:self._start + 4 + body_len
            ]
        )
        # The whole frame is consumed before its type is checked, so an
        # unknown type leaves the stream aligned.
        self._start += 4 + body_len
        return Frame(_frame_type(type_byte), payload)

    def drain(self) -> List[Frame]:
        """All currently complete frames (stops at the first partial)."""
        frames: List[Frame] = []
        while True:
            frame = self.next_frame()
            if frame is None:
                return frames
            frames.append(frame)


def framing_overhead(message) -> int:
    """Exact codec overhead of a protocol dataclass, in bytes.

    For the five :mod:`repro.protocol.messages` classes this is the
    difference between the encoded frame (header included) and the
    payload bytes that ``wire_size_bytes()`` models::

        len(frame_to_bytes(encode_message(m)))
            == m.wire_size_bytes() + framing_overhead(m)

    Per message: the 5-byte frame header, the sender string (u16 length
    + utf-8), and the per-field length prefixes (u16 per integer
    element, u16 per ciphertext half, u32 bit count for sketches, u8
    nonce/tag lengths).
    """
    sender_bytes = 2 + len(message.sender.encode("utf-8"))
    if isinstance(message, (OTAnnounce, OTResponse)):
        return HEADER_BYTES + sender_bytes + 2 + 2 * len(message.elements)
    if isinstance(message, OTCiphertextBatch):
        return HEADER_BYTES + sender_bytes + 2 + 4 * len(message.pairs)
    if isinstance(message, ReconciliationChallenge):
        return HEADER_BYTES + sender_bytes + 4 + 1
    if isinstance(message, ConfirmationResponse):
        return HEADER_BYTES + sender_bytes + 1
    raise ProtocolError(
        f"{type(message).__name__} has no wire_size_bytes() model"
    )
