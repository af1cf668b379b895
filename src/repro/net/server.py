"""Event-loop TCP front end over :class:`WaveKeyAccessServer`.

:class:`WaveKeyTCPServer` runs a single ``selectors`` thread that owns
every socket; per-connection state machines (handshake -> request ->
agreement rounds -> verdict) are driven by readiness events, and the
only per-session threads are the access server's existing protocol
workers.  Thousands of idle connections cost file descriptors, not OS
threads.

The data path:

* **reads** — the loop ``recv_into``\\ s each readable socket into that
  connection's reusable :class:`FrameAssembler` buffer and decodes
  complete frames in place (no per-chunk allocations, no joins);
* **first frames** — after one protocol-version check, a dispatch
  table keyed by message type answers the connection's first frame:
  ``Hello`` starts a session, ``ResumeRequest`` opens a secure channel
  from a ticket, and revoke / stats / telemetry / replication requests
  get a one-shot reply before the connection closes;
* **compute offload** — decoded protocol messages are queued to the
  session's worker channel; the access server's worker runs the
  server's round steps, blocking on the in-memory channel
  instead of the socket, and its sends write each encoded frame
  straight through the connection's bounded :class:`OutboundBuffer`
  to the socket on the worker thread, so no frame waits for the loop
  to win the GIL back from the worker crafting the next message;
* **writes** — every producer (worker or loop) writes through the
  outbound buffer; ``EVENT_WRITE`` is armed only for a remainder the
  kernel would not take, which the loop flushes on writability with
  its ``memoryview`` offset.  A peer that stops reading hits the
  buffer bound and is shed with an ``overloaded`` error frame
  (``net.server.backpressure_shed``);
* **verdicts** — session completion fires a ticket done-callback that
  hops onto the loop and writes the terminal verdict, so no thread
  ever parks in ``ticket.result``;
* **deadlines** — loop timers enforce the hello deadline
  (``net.server.handshake_timeouts``) and the verdict budget; mid-round
  read deadlines ride the worker channel's bounded ``get``.

Operational mapping onto the wire:

* **load shedding** — a shed admission becomes an ``ErrorFrame`` with
  code ``busy`` carrying the queue depth, and the connection closes;
* **deadlines** — network wait time advances the session's
  :class:`ProtocolClock`, so a slow or stalled client breaches the
  paper's ``2 s + tau`` announce deadline exactly as a slow reader
  link would;
* **sender validation** — the hello fixes the peer identity for the
  connection; every subsequent protocol message claiming a different
  ``sender`` is rejected (anti-spoofing);
* **observability** — wire-level frame/byte counters, loop health
  series (``net.loop.*``), and a ``net.conn.open`` gauge share the
  access server's registry.
"""

from __future__ import annotations

import contextlib
import json
import queue
import socket
import threading
import time
from typing import Optional, Tuple

from repro.access.channel import ServerAccessChannel, default_op_handler
from repro.access.records import derive_resume_secret, verify_revocation_tag
from repro.access.store import KeyStore
from repro.crypto.numbers import WAVEKEY_GROUP_512
from repro.errors import (
    AccessError,
    ConnectionClosed,
    ConnectionTimeout,
    GroupMismatch,
    RecordRejected,
    ServiceError,
    TicketError,
    TicketUnknown,
    TransportError,
    VersionMismatch,
)
from repro.net.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    PROTOCOL_VERSION,
    Accept,
    ErrorFrame,
    FrameAssembler,
    Hello,
    RecordFrame,
    ReplDigest,
    ReplPull,
    ReplPush,
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
from repro.net.connection import (
    SEND_CLOSED,
    SEND_OVERFLOW,
    SEND_PENDING,
    OutboundBuffer,
    run_round,
)
from repro.net.eventloop import EVENT_READ, EVENT_WRITE, EventLoop
from repro.net.splice import accept_ready, listen
from repro.obs.metrics import byte_buckets
from repro.obs.tracing import parent_from_context, resolve_tracer
from repro.protocol.agreement import (
    ROUND_FAILURES,
    AgreementParty,
    KeyAgreementOutcome,
    round_outcome,
    server_round,
)
from repro.service.server import WaveKeyAccessServer
from repro.service.sessions import AccessRequest, SessionState
from repro.utils.rng import child_rng

_UNSET = object()


class _NetAgreement:
    """The session's ``agreement_fn`` on one client connection: each
    attempt grants the seed, runs the server's round steps
    (:func:`repro.protocol.agreement.server_round`) over ``conn``, the
    connection's :class:`_WorkerChannel`, and reports the round to the
    client in a :class:`RoundResult`."""

    #: Network waits must not serialize other sessions' compute: the
    #: access server skips its compute lock for this agreement_fn and
    #: lets real crafting time (including contention) bill the clock.
    hold_compute_lock = False

    def __init__(self, conn, peer: str, server_name: str, pool=None):
        self.conn = conn
        self.peer = peer
        self.server_name = server_name
        self.pool = pool
        self.attempt = 0

    def __call__(
        self, seed_m, seed_r, config, transport=None, clock=None, rng=None
    ) -> KeyAgreementOutcome:
        self.attempt += 1
        conn = self.conn
        tracer = resolve_tracer(None)
        mismatch = seed_m.hamming_distance(seed_r)
        with tracer.span(
            "net.agreement",
            attempt=self.attempt,
            peer=self.peer,
            seed_mismatch_bits=mismatch,
        ):
            try:
                # The device's simulated sensing, granted over the wire.
                with tracer.span("net.seed_grant"):
                    with clock.measure():
                        conn.send(SeedGrant(self.attempt, seed_m))
                # Built once the grant is out, outside the clock, so the
                # grant does not wait for its 72 sequence draws; they
                # come from the same streams either way.
                party = AgreementParty(
                    self.server_name,
                    seed_r,
                    config,
                    rng=child_rng(rng, "party"),
                    own_sequences_first=False,
                    pool=self.pool,
                )
                run_round(
                    server_round(party, self.peer, clock), conn, clock, tracer
                )
            except ROUND_FAILURES as exc:
                outcome = round_outcome(clock, mismatch, exc)
                with contextlib.suppress(TransportError):
                    conn.send(RoundResult(
                        success=False, reason=outcome.failure_reason
                    ))
                return outcome

        try:
            conn.send(RoundResult(success=True))
        except TransportError as exc:
            # The keys agree but the client never heard it; report the
            # round as failed so server and client views stay consistent.
            return round_outcome(clock, mismatch, exc)
        key = party.session_key()
        return round_outcome(clock, mismatch, keys=(key, key))


# -- event-loop front end ------------------------------------------------------

#: Inbox sentinel: the connection is gone; wakes any blocked worker.
_CLOSED = object()

#: _ClientConn lifecycle.
_HANDSHAKE = "handshake"
_AGREEMENT = "agreement"
_SECURE = "secure"
_CLOSING = "closing"


class _WorkerChannel:
    """The protocol worker's :class:`FrameConnection`-shaped view of one
    event-loop connection: ``recv`` blocks on the inbox the loop fills,
    ``send`` writes the encoded frame through the outbound buffer to the
    socket on the worker's own thread and wakes the loop only when a
    remainder needs ``EVENT_WRITE``.  All failures surface as typed
    transport errors, which end the round as a failed outcome."""

    def __init__(self, conn: "_ClientConn"):
        self._conn = conn

    def send(self, message) -> None:
        self._conn.send_from_worker(message)

    def recv(self, timeout_s: float = _UNSET):
        conn = self._conn
        if timeout_s is _UNSET:
            timeout_s = conn.server.read_timeout_s
        try:
            item = conn.inbox.get(timeout=timeout_s)
        except queue.Empty:
            raise ConnectionTimeout(
                f"read timed out after {timeout_s}s waiting for a frame"
            )
        if item is _CLOSED:
            conn.inbox.put(_CLOSED)  # keep later readers unblocked
            raise ConnectionClosed("connection closed")
        if isinstance(item, Exception):
            raise item
        return item


class _ClientConn:
    """Per-connection state owned by the event loop."""

    __slots__ = (
        "server", "sock", "addr", "state", "assembler", "outbound",
        "inbox", "channel", "ticket", "deadline", "closed", "want_write",
        "access", "peer", "hello_at", "trace_parent",
    )

    def __init__(self, server: "WaveKeyTCPServer", sock, addr):
        self.server = server
        self.sock = sock
        self.addr = addr
        self.state = _HANDSHAKE
        self.assembler = FrameAssembler(server.max_frame_bytes)
        self.outbound = OutboundBuffer(server.max_outbound_bytes)
        self.inbox: "queue.Queue" = queue.Queue()
        self.channel = _WorkerChannel(self)
        self.ticket = None
        self.deadline = None
        self.closed = False
        self.want_write = False
        self.access: Optional[ServerAccessChannel] = None
        self.peer = ""
        self.hello_at: Optional[float] = None
        self.trace_parent = None

    @property
    def peername(self) -> str:
        return f"{self.addr[0]}:{self.addr[1]}"

    # -- worker-thread send path ------------------------------------------

    def send_from_worker(self, message) -> None:
        server = self.server
        start = time.perf_counter()
        data = frame_to_bytes(encode_message(message))
        encode_s = time.perf_counter() - start
        try:
            verdict = self.outbound.write(self.sock, data)
        except OSError as exc:
            error = ConnectionClosed(f"send failed: {exc}")
            server.loop.call_soon(server._transport_error, self, error)
            raise error from exc
        if verdict == SEND_CLOSED:
            raise ConnectionClosed("send failed: connection closed")
        if verdict == SEND_OVERFLOW:
            server.loop.call_soon(server._shed_backpressure, self)
            raise ConnectionClosed(
                "send failed: outbound buffer overflow "
                f"({self.outbound.pending}/{self.outbound.max_pending_bytes}"
                " bytes pending, peer not reading)"
            )
        server._note_frame_sent(len(data), encode_s, self.outbound.pending)
        if verdict == SEND_PENDING:
            server.loop.call_soon(server._ensure_writable, self)


class WaveKeyTCPServer:
    """Event-loop TCP front end over an access server.

    Public surface: the constructor, ``start``/``stop``/context manager,
    ``address``, ``sessions_served``, ``metrics`` and ``events``.
    """

    def __init__(
        self,
        access_server: WaveKeyAccessServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: str = "server",
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        read_timeout_s: float = 10.0,
        handshake_timeout_s: float = 5.0,
        verdict_grace_s: float = 10.0,
        max_outbound_bytes: int = 1 << 20,
        inbox_limit: int = 256,
        key_store: Optional[KeyStore] = None,
        op_handler=default_op_handler,
        secure_idle_timeout_s: float = 30.0,
        telemetry=None,
        telemetry_flush_interval_s: float = 1.0,
        replicator=None,
    ):
        self.access_server = access_server
        self.name = name
        self.max_frame_bytes = int(max_frame_bytes)
        self.read_timeout_s = float(read_timeout_s)
        self.handshake_timeout_s = float(handshake_timeout_s)
        self.verdict_grace_s = float(verdict_grace_s)
        self.max_outbound_bytes = int(max_outbound_bytes)
        self.inbox_limit = int(inbox_limit)
        # explicit None-check: an empty KeyStore is falsy (__len__)
        self.key_store = (
            key_store
            if key_store is not None
            else KeyStore(metrics=access_server.metrics)
        )
        self.replicator = replicator
        self.op_handler = op_handler
        self.secure_idle_timeout_s = float(secure_idle_timeout_s)
        self.telemetry = telemetry
        self.telemetry_flush_interval_s = float(telemetry_flush_interval_s)
        self._telemetry_deadline = None
        self._host = host
        self._port = port
        self._sock: Optional[socket.socket] = None
        self._conns: set = set()  # loop-thread only
        self._running = False
        self.loop: Optional[EventLoop] = None
        self.sessions_served = 0
        self.address: Optional[Tuple[str, int]] = None
        self._labels = {"endpoint": "server"}
        # First-frame dispatch.  A handler returns the reply to send
        # before closing, or None when it keeps the connection open.
        self._first_frame_handlers = {
            Hello: self._start_session,
            ResumeRequest: self._resume,
            RevokeNotice: self._revoke,
            StatsRequest: self._stats,
            TelemetryRequest: self._telemetry,
            ReplDigest: self._replicate,
            ReplPull: self._replicate,
            ReplPush: self._replicate,
        }

    @property
    def metrics(self):
        return self.access_server.metrics

    @property
    def events(self):
        return self.access_server.events

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WaveKeyTCPServer":
        if self._running:
            raise ServiceError("TCP server already started")
        self._sock = listen(self._host, self._port, backlog=1024)
        self.address = self._sock.getsockname()[:2]
        self._running = True
        self.loop = EventLoop(
            name="wavekey-net-loop", metrics=self.metrics
        ).start()
        self.loop.call_soon(
            self.loop.register, self._sock, EVENT_READ,
            self._on_listener_ready,
        )
        if self.telemetry is not None:
            # Periodic flush keeps the tracer's own span bound from
            # filling between scrapes; armed on the loop thread because
            # call_later is loop-thread-only.
            self.loop.call_soon(self._telemetry_flush_tick)
        if self.replicator is not None:
            # The replicator's fleet identity is the bound address, so
            # attachment waits for the listen socket.
            self.replicator.attach(self)
        self.events.emit(
            "net_listening", host=self.address[0], port=self.address[1]
        )
        return self

    def _telemetry_flush_tick(self) -> None:
        if not self._running or self.telemetry is None:
            return
        self.telemetry.flush()
        self._telemetry_deadline = self.loop.call_later(
            self.telemetry_flush_interval_s, self._telemetry_flush_tick
        )

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        if self.replicator is not None:
            self.replicator.stop()
        done = threading.Event()
        self.loop.call_soon(self._shutdown_on_loop, done)
        done.wait(timeout=5.0)
        self.loop.stop()
        self.events.emit("net_stopped", sessions_served=self.sessions_served)

    def _shutdown_on_loop(self, done: threading.Event) -> None:
        try:
            if self._telemetry_deadline is not None:
                self._telemetry_deadline.cancel()
            self.loop.unregister(self._sock)
            self._sock.close()
            for conn in list(self._conns):
                self._close_conn(conn)
        finally:
            done.set()

    def __enter__(self) -> "WaveKeyTCPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- metrics helpers (registry is thread-safe) -------------------------

    def _note_frame_sent(
        self, n_bytes: int, encode_s: float, outbound_depth: int
    ) -> None:
        metrics = self.metrics
        metrics.counter("net.frames_sent", labels=self._labels).inc()
        metrics.counter(
            "net.bytes_sent", labels=self._labels
        ).inc(n_bytes)
        metrics.histogram(
            "net.encode_s", labels=self._labels
        ).observe(encode_s)
        metrics.histogram(
            "net.loop.outbound_buffer_bytes", bounds=byte_buckets()
        ).observe(outbound_depth)

    def _note_frame_received(self, payload_len: int, decode_s: float) -> None:
        metrics = self.metrics
        metrics.counter("net.frames_received", labels=self._labels).inc()
        metrics.counter(
            "net.bytes_received", labels=self._labels
        ).inc(payload_len + HEADER_BYTES)
        metrics.histogram(
            "net.decode_s", labels=self._labels
        ).observe(decode_s)

    # -- accept path (loop thread) -----------------------------------------

    def _on_listener_ready(self, mask: int) -> None:
        for client_sock, addr in accept_ready(self._sock):
            conn = _ClientConn(self, client_sock, addr)
            self._conns.add(conn)
            self.loop.register(client_sock, EVENT_READ,
                               lambda m, c=conn: self._on_conn_ready(c, m))
            conn.deadline = self.loop.call_later(
                self.handshake_timeout_s,
                lambda c=conn: self._handshake_timeout(c),
            )
            self.metrics.gauge("net.conn.open").inc()

    # -- read path (loop thread) -------------------------------------------

    def _on_conn_ready(self, conn: _ClientConn, mask: int) -> None:
        if conn.closed:
            return
        if mask & EVENT_WRITE:
            try:
                drained = conn.outbound.flush(conn.sock)
            except OSError as exc:
                self._transport_error(
                    conn, ConnectionClosed(f"send failed: {exc}")
                )
                return
            if drained:
                if conn.state == _CLOSING:
                    self._close_conn(conn)
                    return
                conn.want_write = False
                self.loop.modify(
                    conn.sock, EVENT_READ,
                    lambda m, c=conn: self._on_conn_ready(c, m),
                )
        if mask & EVENT_READ and conn.state != _CLOSING:
            self._service_reads(conn)

    def _service_reads(self, conn: _ClientConn) -> None:
        eof = False
        # Bounded reads per readiness event keep the loop fair; the
        # selector is level-triggered, so leftover kernel bytes retrigger.
        for _ in range(16):
            try:
                n = conn.assembler.read_into(conn.sock)
            except (BlockingIOError, InterruptedError):
                break
            except OSError as exc:
                self._transport_error(
                    conn, ConnectionClosed(f"read failed: {exc}")
                )
                return
            if n == 0:
                eof = True
                break
        self._drain_frames(conn)
        if eof and not conn.closed:
            self._transport_error(
                conn, ConnectionClosed("peer closed the connection")
            )

    def _drain_frames(self, conn: _ClientConn) -> None:
        while not conn.closed:
            try:
                frame = conn.assembler.next_frame()
            except TransportError as exc:
                if conn.assembler.broken:
                    # Poisoned length prefix: the stream cannot recover.
                    self._transport_error(conn, exc)
                    return
                self._frame_error(conn, exc)
                continue
            if frame is None:
                return
            self._on_frame(conn, frame)

    def _on_frame(self, conn: _ClientConn, frame) -> None:
        start = time.perf_counter()
        try:
            message = decode_payload(frame)
        except TransportError as exc:
            self._frame_error(conn, exc)
            return
        self._note_frame_received(
            len(frame.payload), time.perf_counter() - start
        )
        if conn.state == _HANDSHAKE:
            self._handle_first_frame(conn, message)
        elif conn.state == _SECURE:
            self._handle_secure_frame(conn, message)
        else:
            if conn.inbox.qsize() >= self.inbox_limit:
                self.metrics.counter("net.server.inbox_shed").inc()
                self.events.emit(
                    "net_inbox_overflow", peer=conn.peername,
                    limit=self.inbox_limit,
                )
                self._enqueue(conn, ErrorFrame(
                    "flood",
                    f"over {self.inbox_limit} frames queued ahead of the "
                    "protocol worker",
                ), force=True)
                self._close_after_flush(conn)
                return
            conn.inbox.put(message)

    def _frame_error(self, conn: _ClientConn, exc: TransportError) -> None:
        """A single frame failed to decode but the stream is aligned."""
        if conn.state == _AGREEMENT:
            # The worker fails the round ("transport: ...") and the
            # server's retry policy may grant a fresh one, so the
            # connection survives.
            conn.inbox.put(exc)
            return
        self._transport_error(conn, exc)

    def _transport_error(self, conn: _ClientConn, exc: TransportError) -> None:
        if conn.closed:
            return  # a worker's failed write raced the loop's own close
        self.metrics.counter("net.server.transport_errors").inc()
        self.events.emit(
            "net_transport_error", peer=conn.peername, error=str(exc)
        )
        if conn.state == _AGREEMENT:
            conn.inbox.put(exc)
        self._close_conn(conn)

    # -- handshake / verdict state machine (loop thread) -------------------

    def _handle_first_frame(self, conn: _ClientConn, message) -> None:
        handler = self._first_frame_handlers.get(type(message))
        if handler is None:
            reply = ErrorFrame(
                "protocol", f"expected HELLO, got {type(message).__name__}"
            )
        elif message.version != PROTOCOL_VERSION:
            reply = ErrorFrame(
                VersionMismatch.wire_code,
                f"server speaks protocol {PROTOCOL_VERSION}, "
                f"client sent {message.version}",
            )
        else:
            reply = handler(conn, message)
        if reply is not None:
            self._enqueue(conn, reply)
            self._close_after_flush(conn)

    def _start_session(self, conn: _ClientConn, message: Hello):
        if not message.sender or message.sender == self.name:
            return ErrorFrame(
                "identity", f"invalid client identity {message.sender!r}"
            )
        served_group = self.access_server.agreement_config.group
        requested_group = message.group_id or WAVEKEY_GROUP_512.name
        if requested_group != served_group.name:
            return ErrorFrame(
                GroupMismatch.wire_code,
                f"server runs OT group {served_group.name!r}, "
                f"client requested {requested_group!r}",
            )

        conn.peer = message.sender
        conn.hello_at = time.monotonic()
        conn.trace_parent = parent_from_context(message.trace_context)
        agreement = _NetAgreement(
            conn.channel, peer=message.sender, server_name=self.name,
            pool=self.access_server.ot_pool,
        )
        request = AccessRequest(
            rng_seed=message.rng_seed,
            dynamic=message.dynamic,
            agreement_fn=agreement,
            trace_context=conn.trace_parent,
        )
        try:
            ticket = self.access_server.submit(request)
        except ServiceError as exc:
            return ErrorFrame("unavailable", str(exc))
        conn.ticket = ticket

        if ticket.done():
            record = ticket.result(timeout=0.1)
            if record.state is SessionState.SHED:
                self._send_shed(conn, record)
                return None

        config = self.access_server.agreement_config
        self._enqueue(conn, Accept(
            sender=self.name,
            session_id=request.session_id,
            key_length_bits=config.key_length_bits,
            eta=config.eta,
        ))
        if conn.closed or conn.state == _CLOSING:
            return None  # the accept itself overflowed: connection is shedding
        conn.state = _AGREEMENT
        if conn.deadline is not None:
            conn.deadline.cancel()
        budget = (
            self.access_server.config.session_deadline_s
            + self.verdict_grace_s
        )
        conn.deadline = self.loop.call_later(
            budget,
            lambda c=conn, b=budget, sid=request.session_id: (
                self._verdict_timeout(c, b, sid)
            ),
        )
        ticket.add_done_callback(
            lambda record, c=conn: self.loop.call_soon(
                self._deliver_verdict, c, record
            )
        )
        return None

    def _resume(self, conn: _ClientConn, message: ResumeRequest):
        """Ticket resumption: no gesture, no OT — straight to a secure
        channel if the ticket is alive."""
        resume_start = time.monotonic()
        parent = parent_from_context(message.trace_context)
        tracer = resolve_tracer(self.access_server.tracer)
        try:
            with tracer.span(
                "access.resume.accept", parent=parent,
                peer=message.sender, ticket_id=message.ticket_id,
            ):
                ticket = self.key_store.resume(message.ticket_id)
                channel, accept = ServerAccessChannel.accept(
                    ticket,
                    message.client_nonce,
                    handler=self.op_handler,
                    metrics=self.metrics,
                    sender=self.name,
                )
        except TicketError as exc:
            self.metrics.counter(
                "access.resume", labels={"outcome": exc.wire_code}
            ).inc()
            if self.replicator is not None and isinstance(exc, TicketUnknown):
                # With replication on, every live grant should have
                # reached us — an unknown ticket is a replication miss
                # (entry still in flight, or issuer died before push).
                self.metrics.counter("replica.resume.miss").inc()
            self.events.emit(
                "access_resume_rejected", peer=conn.peername,
                ticket_id=message.ticket_id, code=exc.wire_code,
            )
            return ErrorFrame(exc.wire_code, str(exc))
        except AccessError as exc:
            return ErrorFrame("resume_invalid", str(exc))
        conn.peer = message.sender
        conn.access = channel
        conn.trace_parent = parent
        channel.trace_parent = parent
        channel.tracer = tracer
        conn.state = _SECURE
        self._arm_secure_idle(conn)
        self.metrics.counter(
            "access.resume", labels={"outcome": "ok"}
        ).inc()
        self.metrics.histogram("access.resume.latency").observe(
            time.monotonic() - resume_start,
            trace_id=parent.trace_id if parent is not None else None,
        )
        self.events.emit(
            "access_resumed", peer=conn.peername,
            ticket_id=ticket.ticket_id, channel_id=channel.channel_id,
        )
        self._enqueue(conn, accept)
        return None

    def _revoke(self, conn: _ClientConn, notice: RevokeNotice):
        """Only a holder of the ticket's revocation key (derived from
        the agreed key) can revoke; success is a ``RoundResult`` ack."""
        metrics = self.metrics
        ticket = self.key_store.peek(notice.ticket_id)
        if ticket is None:
            metrics.counter(
                "access.revocations", labels={"outcome": "unknown"}
            ).inc()
            return ErrorFrame(
                "ticket_unknown", f"no live ticket {notice.ticket_id}"
            )
        if not verify_revocation_tag(
            ticket.resume_secret, ticket.ticket_id, notice.tag
        ):
            metrics.counter(
                "access.revocations", labels={"outcome": "bad_tag"}
            ).inc()
            self.events.emit(
                "access_revoke_rejected", ticket_id=notice.ticket_id,
                reason="bad_tag",
            )
            return ErrorFrame(
                "revoke_auth",
                "revocation tag mismatch: peer does not hold the ticket key",
            )
        self.key_store.revoke(notice.ticket_id)
        metrics.counter("access.revocations", labels={"outcome": "ok"}).inc()
        self.events.emit("access_revoked", ticket_id=notice.ticket_id)
        return RoundResult(success=True, reason="revoked")

    def _replicate(self, conn: _ClientConn, message):
        """Delegate a ``REPL_*`` frame to the attached replicator
        (non-blocking), or refuse with a typed ``replication_disabled``
        error so a misdirected peer learns immediately rather than
        timing out."""
        if self.replicator is None:
            self.metrics.counter(
                "replica.requests", labels={"outcome": "disabled"}
            ).inc()
            return ErrorFrame(
                "replication_disabled",
                f"backend {self.name} does not replicate ticket state",
            )
        return self.replicator.handle(message)

    def _stats(self, conn: _ClientConn, message: StatsRequest):
        """The cluster gateway's health probe and metrics scrape in one
        round trip: identity, session count, live admission-queue
        pressure, and a full registry snapshot for fleet merging."""
        self.metrics.counter("net.server.stats_requests").inc()
        access = self.access_server
        depth, capacity = access.queue_state()
        document = {
            "role": "backend",
            "name": self.name,
            "sessions_served": self.sessions_served,
            "queue_depth": depth,
            "queue_capacity": capacity,
            "snapshot": access.metrics.snapshot(),
        }
        return StatsResponse(payload_json=json.dumps(document, default=str))

    def _telemetry(self, conn: _ClientConn, message: TelemetryRequest):
        """The distributed-trace scrape: flush the
        :class:`~repro.obs.collect.TelemetryBuffer` (finished spans +
        recent events, stamped with the service identity) and serialize
        its document; ``drain`` clears the buffer so a periodic scraper
        sees each span exactly once.  Without a buffer the answer is an
        empty document, so scrapers need no special-casing."""
        self.metrics.counter("net.server.telemetry_requests").inc()
        if self.telemetry is None:
            document = {
                "schema": "repro.telemetry/1",
                "service": self.name,
                "spans": [],
                "events": [],
                "dropped_spans": 0,
                "dropped_events": 0,
            }
        else:
            self.telemetry.flush()
            document = self.telemetry.document(drain=message.drain)
        return TelemetryResponse(
            payload_json=json.dumps(document, default=str)
        )

    def _arm_secure_idle(self, conn: _ClientConn) -> None:
        if conn.deadline is not None:
            conn.deadline.cancel()
        conn.deadline = self.loop.call_later(
            self.secure_idle_timeout_s,
            lambda c=conn: self._secure_idle_timeout(c),
        )

    def _secure_idle_timeout(self, conn: _ClientConn) -> None:
        if conn.closed or conn.state != _SECURE:
            return
        self.metrics.counter("access.idle_timeouts").inc()
        self._enqueue(conn, ErrorFrame(
            "timeout",
            f"secure channel idle for {self.secure_idle_timeout_s:.1f}s",
        ))
        self._close_after_flush(conn)

    def _handle_secure_frame(self, conn: _ClientConn, message) -> None:
        """One inbound frame on an open secure channel (loop thread —
        record crypto is a few HMACs, far below a loop tick)."""
        if not isinstance(message, RecordFrame):
            self._enqueue(conn, ErrorFrame(
                "protocol",
                f"expected RECORD, got {type(message).__name__}",
            ))
            self._close_after_flush(conn)
            return
        start = time.perf_counter()
        try:
            reply = conn.access.handle_record(message)
        except RecordRejected as exc:
            self.metrics.counter("access.records_rejected").inc()
            self.events.emit(
                "access_record_rejected", peer=conn.peername,
                error=str(exc),
            )
            self._enqueue(conn, ErrorFrame("record_rejected", str(exc)))
            self._close_after_flush(conn)
            return
        except AccessError as exc:
            self._enqueue(conn, ErrorFrame("access", str(exc)))
            self._close_after_flush(conn)
            return
        self.metrics.histogram("access.op_s").observe(
            time.perf_counter() - start
        )
        if reply is None:  # orderly "bye"
            self._close_conn(conn)
            return
        self._arm_secure_idle(conn)
        self._enqueue(conn, reply)

    def _send_shed(self, conn: _ClientConn, record) -> None:
        # Structured load shedding, mapped to a wire error frame.
        rejection = record.rejection
        self._enqueue(conn, ErrorFrame(
            "busy",
            f"{rejection.code}: queue "
            f"{rejection.queue_depth}/{rejection.queue_capacity}",
        ))
        self.metrics.counter("net.server.shed").inc()
        self._close_after_flush(conn)

    def _deliver_verdict(self, conn: _ClientConn, record) -> None:
        if conn.closed:
            return
        if conn.deadline is not None:
            conn.deadline.cancel()
        if record.state is SessionState.SHED:
            self._send_shed(conn, record)
            return
        # Count before sending: a client acting on the verdict must
        # never observe a stale sessions_served.
        self.sessions_served += 1
        self.metrics.counter("net.server.sessions").inc()
        if conn.hello_at is not None:
            trace_id = (
                conn.trace_parent.trace_id
                if conn.trace_parent is not None
                else getattr(
                    getattr(record, "trace", None), "trace_id", None
                )
            )
            self.metrics.histogram("net.session.latency").observe(
                time.monotonic() - conn.hello_at, trace_id=trace_id
            )
        key = getattr(record, "key", None)
        if record.state is SessionState.ESTABLISHED and key is not None:
            self._enqueue(conn, self._grant_ticket(key, record, conn.peer))
        self._enqueue(conn, Verdict(
            state=record.state.value,
            attempts=record.attempts,
            reason=record.failure_reason or "",
            session_id=record.session_id,
        ))
        self._close_after_flush(conn)

    def _grant_ticket(self, key, record, peer: str) -> TicketGrant:
        """Register a resumption ticket for one established session.

        Only the resumption secret derived from the agreed key
        (:func:`derive_resume_secret`) is stored, never the key itself.
        """
        ticket = self.key_store.issue(
            derive_resume_secret(key.to_bytes()),
            peer=peer,
            metadata={"session_id": record.session_id},
        )
        self.metrics.counter("access.grants").inc()
        self.events.emit(
            "access_ticket_granted", peer=peer, ticket_id=ticket.ticket_id,
            lifetime_s=ticket.lifetime_s,
        )
        return TicketGrant(
            ticket_id=ticket.ticket_id,
            expires_at=time.time() + ticket.lifetime_s,
            lifetime_s=ticket.lifetime_s,
        )

    def _verdict_timeout(
        self, conn: _ClientConn, budget: float, session_id: str
    ) -> None:
        if conn.closed or (conn.ticket is not None and conn.ticket.done()):
            return
        self._enqueue(conn, ErrorFrame(
            "timeout",
            f"session {session_id} did not finish within {budget}s",
        ))
        self._close_after_flush(conn)

    def _handshake_timeout(self, conn: _ClientConn) -> None:
        if conn.closed or conn.state != _HANDSHAKE:
            return
        self.metrics.counter("net.server.handshake_timeouts").inc()
        self.events.emit(
            "net_handshake_timeout", peer=conn.peername,
            deadline_s=self.handshake_timeout_s,
        )
        self._enqueue(conn, ErrorFrame(
            "timeout",
            f"no HELLO within {self.handshake_timeout_s:.1f}s",
        ))
        self._close_after_flush(conn)

    # -- write path (loop thread) ------------------------------------------

    def _enqueue(self, conn: _ClientConn, message, force: bool = False) -> None:
        """Loop-side send: encode and write through; EVENT_WRITE is
        armed only for a remainder."""
        if conn.closed:
            return
        start = time.perf_counter()
        data = frame_to_bytes(encode_message(message))
        encode_s = time.perf_counter() - start
        try:
            verdict = conn.outbound.write(conn.sock, data, force=force)
        except OSError as exc:
            self._transport_error(
                conn, ConnectionClosed(f"send failed: {exc}")
            )
            return
        if verdict == SEND_CLOSED:
            return
        if verdict == SEND_OVERFLOW:
            self._shed_backpressure(conn)
            return
        self._note_frame_sent(len(data), encode_s, conn.outbound.pending)
        if verdict == SEND_PENDING:
            self._ensure_writable(conn)

    def _shed_backpressure(self, conn: _ClientConn) -> None:
        """The bounded outbound buffer is full: the peer stopped
        reading.  Shed it with a terminal error frame (allowed past the
        bound) rather than buffering without limit."""
        if conn.closed or conn.state == _CLOSING:
            return
        self.metrics.counter("net.server.backpressure_shed").inc()
        self.events.emit(
            "net_backpressure_shed", peer=conn.peername,
            pending_bytes=conn.outbound.pending,
            bound=self.max_outbound_bytes,
        )
        self._enqueue(conn, ErrorFrame(
            "overloaded",
            f"outbound buffer exceeded {self.max_outbound_bytes} bytes; "
            "read faster or reconnect",
        ), force=True)
        self._close_after_flush(conn)

    def _ensure_writable(self, conn: _ClientConn) -> None:
        if conn.closed or conn.want_write:
            return
        if conn.outbound.pending == 0:
            # Raced with the flush (or with close): nothing to arm.
            if conn.state == _CLOSING:
                self._close_conn(conn)
            return
        conn.want_write = True
        events = EVENT_WRITE if conn.state == _CLOSING else (
            EVENT_READ | EVENT_WRITE
        )
        self.loop.modify(
            conn.sock, events, lambda m, c=conn: self._on_conn_ready(c, m)
        )

    def _close_after_flush(self, conn: _ClientConn) -> None:
        if conn.closed:
            return
        conn.state = _CLOSING
        if conn.outbound.pending == 0:
            self._close_conn(conn)
            return
        conn.want_write = False  # force re-arm with WRITE-only interest
        self._ensure_writable(conn)

    def _close_conn(self, conn: _ClientConn) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.outbound.close()
        if conn.deadline is not None:
            conn.deadline.cancel()
        self.loop.unregister(conn.sock)
        with contextlib.suppress(OSError):
            conn.sock.close()
        self._conns.discard(conn)
        conn.inbox.put(_CLOSED)
        self.metrics.gauge("net.conn.open").dec()
