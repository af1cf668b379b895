"""Secure-channel endpoints and the authenticated application ops.

:mod:`repro.access.records` supplies sealed records; this module puts
a request/response application protocol inside them — the "access the
RFID-protected system" action the WaveKey paper motivates — and
packages the two endpoint roles:

* :class:`ServerAccessChannel` — transport-agnostic: the event-loop
  server (:mod:`repro.net.server`) feeds it decoded
  :class:`RecordFrame` objects and writes back whatever frames it
  returns;
* :class:`ClientAccessChannel` — owns a blocking
  :class:`~repro.net.connection.FrameConnection`, performs the
  resume handshake (nonce exchange, server-auth tag check), and
  exposes :meth:`request` for round-trip ops.

Ops are JSON objects inside the encrypted payload (the record layer
already provides integrity; JSON keeps the op schema free to evolve
without touching the wire codec):

``{"op": "query", "target": ...}``  -> what would this key open?
``{"op": "open",  "target": ...}``  -> actuate (grant/deny decision)
``{"op": "ping"}``                  -> channel liveness
``{"op": "bye"}``                   -> orderly close
"""

from __future__ import annotations

import hmac as _hmac
import json
import os
import time
import uuid
from typing import Callable, Dict, List, Optional

from repro.access.records import (
    CLIENT,
    SERVER,
    ChannelKeys,
    RecordChannel,
    confirm_tag,
    derive_channel_keys,
)
from repro.access.store import Ticket
from repro.errors import AccessError, RecordRejected
from repro.net.codec import RecordFrame, ResumeAccept
from repro.net.connection import FrameConnection
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import get_default_tracer

#: Nonce length for the resume handshake.
NONCE_BYTES = 16

#: Ops the server-side dispatcher understands.
KNOWN_OPS = ("query", "open", "ping", "bye")


def new_nonce() -> bytes:
    return os.urandom(NONCE_BYTES)


def new_channel_id() -> str:
    return uuid.UUID(bytes=os.urandom(16)).hex


def encode_op(op: str, **fields: object) -> bytes:
    """One application op as a record plaintext."""
    return json.dumps(
        {"op": op, **fields}, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_payload(plaintext: bytes) -> Dict[str, object]:
    try:
        payload = json.loads(plaintext.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise AccessError(f"malformed channel payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise AccessError("channel payload must be a JSON object")
    return payload


#: Server-side op handler: (op payload, ticket) -> result fields.
OpHandler = Callable[[Dict[str, object], Ticket], Dict[str, object]]


def default_op_handler(
    payload: Dict[str, object], ticket: Ticket
) -> Dict[str, object]:
    """The reference RFID-backend behaviour.

    ``query`` answers which resource class the ticket's peer may
    reach; ``open`` actuates it.  Real deployments replace this with
    their authorization callback — the channel only guarantees the
    request arrived authenticated under the agreed key.
    """
    op = payload.get("op")
    target = str(payload.get("target", "door"))
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "query":
        return {
            "ok": True,
            "peer": ticket.peer,
            "target": target,
            "allowed": True,
            "resumed": ticket.resumed,
        }
    if op == "open":
        return {
            "ok": True,
            "peer": ticket.peer,
            "target": target,
            "opened": True,
            "at": time.time(),
        }
    return {"ok": False, "error": f"unknown op {op!r}"}


class ServerAccessChannel:
    """Server half of one resumed secure channel.

    Construct via :meth:`accept`, which derives the channel keys from
    the ticket's resumption secret and the two nonces and produces
    the :class:`ResumeAccept` to send.  Afterwards, feed every
    inbound :class:`RecordFrame` to :meth:`handle_record`; it returns
    the sealed response record, or ``None`` when the client said
    ``bye`` (check :attr:`finished` and close the connection).
    """

    def __init__(
        self,
        channel_id: str,
        ticket: Ticket,
        records: RecordChannel,
        handler: OpHandler = default_op_handler,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.channel_id = channel_id
        self.ticket = ticket
        self.records = records
        self.handler = handler
        self.metrics = metrics
        self.finished = False
        self.ops_served = 0
        #: distributed-trace parent (a TraceContext) and tracer, set by
        #: the front end after a resume carrying wire trace context;
        #: ``access.op`` spans nest under the parent so the resumed
        #: channel's work lands in the client's stitched trace.
        self.trace_parent = None
        self.tracer = None

    @classmethod
    def accept(
        cls,
        ticket: Ticket,
        client_nonce: bytes,
        handler: OpHandler = default_op_handler,
        metrics: Optional[MetricsRegistry] = None,
        sender: str = "server",
    ) -> "tuple[ServerAccessChannel, ResumeAccept]":
        """Open the server half and build the handshake reply."""
        server_nonce = new_nonce()
        channel_id = new_channel_id()
        keys = derive_channel_keys(
            ticket.resume_secret, client_nonce, server_nonce
        )
        accept_frame = ResumeAccept(
            sender=sender,
            channel_id=channel_id,
            server_nonce=server_nonce,
            tag=confirm_tag(keys, channel_id, client_nonce, server_nonce),
        )
        channel = cls(
            channel_id=channel_id,
            ticket=ticket,
            records=RecordChannel(keys, SERVER),
            handler=handler,
            metrics=metrics,
        )
        return channel, accept_frame

    def _count(self, op: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "access.ops", labels={"op": op, "role": "server"}
            ).inc()

    def handle_record(self, record: RecordFrame) -> Optional[RecordFrame]:
        """Open one request record, dispatch, seal the response.

        :class:`RecordRejected` propagates to the caller (which should
        surface a typed wire error and drop the connection — the
        channel is poisoned).
        """
        tracer = self.tracer if self.tracer is not None else (
            get_default_tracer()
        )
        plaintext = self.records.open_record(record)
        payload = decode_payload(plaintext)
        op = str(payload.get("op", ""))
        self._count(op if op in KNOWN_OPS else "unknown")
        if op == "bye":
            self.finished = True
            return None
        if self.trace_parent is not None:
            op_span = tracer.span(
                "access.op", parent=self.trace_parent,
                op=op, channel=self.channel_id,
            )
        else:  # no wire context: inherit the thread's active span
            op_span = tracer.span(
                "access.op", op=op, channel=self.channel_id
            )
        with op_span:
            result = self.handler(payload, self.ticket)
        self.ops_served += 1
        return self.records.seal(
            json.dumps(result, separators=(",", ":"), sort_keys=True).encode(
                "utf-8"
            )
        )


class ClientAccessChannel:
    """Client half: resume handshake plus blocking request/response.

    Built by :meth:`WaveKeyNetClient.open_channel`; use as a context
    manager so ``bye`` and the socket close are never skipped."""

    def __init__(
        self,
        conn: FrameConnection,
        records: RecordChannel,
        channel_id: str,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.conn = conn
        self.records = records
        self.channel_id = channel_id
        self.metrics = metrics
        self._closed = False

    @staticmethod
    def complete_handshake(
        resume_secret: bytes,
        client_nonce: bytes,
        accept_frame: ResumeAccept,
    ) -> "tuple[ChannelKeys, RecordChannel]":
        """Verify the server-auth tag and derive this side's keys.

        Raises :class:`AccessError` when the tag does not verify —
        the peer does not hold the ticket's resumption secret.
        """
        keys = derive_channel_keys(
            resume_secret, client_nonce, accept_frame.server_nonce
        )
        expected = confirm_tag(
            keys,
            accept_frame.channel_id,
            client_nonce,
            accept_frame.server_nonce,
        )
        if not _hmac.compare_digest(expected, accept_frame.tag):
            raise AccessError(
                "resume accept tag mismatch: server does not hold the "
                "ticket secret"
            )
        return keys, RecordChannel(keys, CLIENT)

    def _count(self, op: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(
                "access.ops", labels={"op": op, "role": "client"}
            ).inc()

    def request(
        self, op: str, timeout_s: float = 5.0, **fields: object
    ) -> Dict[str, object]:
        """Send one op and block for its response payload."""
        if self._closed:
            raise AccessError("channel is closed")
        self._count(op)
        self.conn.send(self.records.seal(encode_op(op, **fields)))
        reply = self.conn.recv(timeout_s=timeout_s)
        if not isinstance(reply, RecordFrame):
            raise AccessError(
                f"expected a record, got {type(reply).__name__}: {reply!r}"
            )
        return decode_payload(self.records.open_record(reply))

    def close(self) -> None:
        """Send ``bye`` (best effort) and close the socket."""
        if self._closed:
            return
        self._closed = True
        try:
            if not self.records.poisoned and not self.conn.closed:
                self.conn.send(self.records.seal(encode_op("bye")))
        except (AccessError, RecordRejected, OSError):
            pass
        finally:
            self.conn.close()

    def __enter__(self) -> "ClientAccessChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
