"""Exception hierarchy for the WaveKey reproduction library.

Every error raised deliberately by :mod:`repro` derives from
:class:`WaveKeyError`, so callers can catch library failures with a single
``except`` clause while still distinguishing the failure class when they
need to.
"""

from __future__ import annotations


class WaveKeyError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(WaveKeyError):
    """A configuration value is out of range or internally inconsistent."""


class ShapeError(WaveKeyError):
    """An array argument does not have the documented shape."""


class TrainingError(WaveKeyError):
    """Model training could not proceed (bad dataset, divergence, ...)."""


class QuantizationError(WaveKeyError):
    """Key-seed quantization failed (bad bin count, non-finite input, ...)."""


class ProtocolError(WaveKeyError):
    """A protocol message was malformed or violated the state machine."""


class DeadlineExceeded(ProtocolError):
    """A critical protocol message arrived after the tau deadline (SIV-D.2)."""


class TransportError(WaveKeyError):
    """Moving bytes between protocol endpoints failed.

    Raised by both the simulated channel (:mod:`repro.protocol.transport`)
    and the real wire (:mod:`repro.net`): oversized frames, undecodable
    bytes, timed-out reads, dropped messages, and closed connections all
    derive from this class, so a client can retry on ``TransportError``
    without accidentally swallowing protocol or crypto failures.
    """


class FrameTooLarge(TransportError):
    """A frame (or simulated message) exceeds the configured size limit."""


class DecodeError(TransportError):
    """Received bytes could not be decoded into a protocol message."""


class ConnectionTimeout(TransportError):
    """A connect or read deadline expired before the peer answered."""


class ConnectionClosed(TransportError):
    """The peer closed the connection mid-conversation."""


class MessageDropped(TransportError, ProtocolError):
    """A transport interceptor dropped a message instead of relaying it.

    Subclasses both :class:`TransportError` (it is a delivery failure)
    and :class:`ProtocolError` (historical position in the hierarchy, so
    existing ``except ProtocolError`` handlers keep working).
    """


class GroupMismatch(ProtocolError):
    """Client and server are configured for different OT groups.

    The group is negotiated in the wire ``Hello`` (empty group id ==
    the historical 512-bit MODP default); a server answering with a
    ``group`` error frame refuses the session before any element
    bytes are exchanged, and the client raises this instead of
    retrying — a retry against the same server cannot succeed.
    """

    #: Wire error code carried in the ErrorFrame for this rejection.
    wire_code = "group"


class VersionMismatch(ProtocolError):
    """Client and server speak different wire protocol versions.

    The server answers a first frame of another version with a
    ``version`` error frame, and the client raises this instead of
    retrying; it also raises it for an ``Accept`` of another version.
    """

    #: Wire error code carried in the ErrorFrame for this rejection.
    wire_code = "version"


class KeyAgreementFailure(ProtocolError):
    """The two parties could not converge on a common key.

    Raised when ECC reconciliation fails or the HMAC confirmation does not
    verify.  A benign run hitting this indicates too-noisy key seeds; an
    attack run hitting this is the intended outcome.
    """


class DecodingError(WaveKeyError):
    """An error-correcting code could not decode (too many bit errors)."""


class CryptoError(WaveKeyError):
    """A cryptographic primitive was misused or failed an internal check."""


class SimulationError(WaveKeyError):
    """A physical-layer simulation produced invalid state."""


class ServiceError(WaveKeyError):
    """The access-control service was misused (submit after shutdown,
    double start, result read before completion, ...)."""


class AccessError(WaveKeyError):
    """The post-agreement secure access layer rejected an operation.

    Raised by :mod:`repro.access`: ticket lifecycle violations, record
    authentication failures, and misuse of the channel state machine
    all derive from this class so callers can separate access-layer
    refusals from transport faults (retryable) and protocol failures.
    """


class TicketError(AccessError):
    """A session-resumption ticket could not be honoured."""

    #: Wire error code carried in the ErrorFrame for this rejection.
    wire_code = "ticket_rejected"


class TicketUnknown(TicketError):
    """No live ticket with this id (never issued, or already evicted)."""

    wire_code = "ticket_unknown"


class TicketExpired(TicketError):
    """The ticket's TTL elapsed before the resumption attempt."""

    wire_code = "ticket_expired"


class TicketRevoked(TicketError):
    """The ticket was explicitly revoked and must never resume again."""

    wire_code = "ticket_revoked"


class RecordRejected(AccessError):
    """An AEAD record failed authentication or sequencing.

    Covers forged/tampered ciphertexts, replayed or reordered sequence
    numbers, and oversized plaintexts.  A channel that raises this is
    poisoned: both ends tear the connection down rather than resync.
    """


class ReplicationError(AccessError):
    """A ticket-replication log entry or exchange is invalid.

    Raised by :mod:`repro.replica` for malformed entry documents,
    content-address mismatches (a tampered or corrupted entry), and
    structurally invalid digest vectors received from a peer.
    """
