"""WaveKey sharding gateway: one address in front of many backends.

:class:`WaveKeyGateway` accepts client connections on a single
listening socket, *peeks* the first frame to learn the session's
identity, picks a backend on a :class:`repro.cluster.ring.ShardRing`,
and then splices frames bidirectionally between client and backend on
its :class:`repro.net.eventloop.EventLoop` with
:class:`repro.net.splice.Splice` — the frame relay the fault-injection
proxy runs too — so a gateway hop costs one decode + one re-encode per
frame and no extra threads per connection.

Routing policy (bounded-load consistent hashing):

* the route key is ``"<sender>#<rng_seed>"`` from the HELLO frame —
  stable per device identity, spread across seeds;
* the ring's candidate order is walked until a backend with headroom
  (``in_flight < spill_inflight``) and no recent shed verdicts is
  found; if every candidate is saturated the *least-loaded* healthy
  backend takes the session rather than refusing it — the backend's
  own admission queue remains the real shedding authority;
* backends answering ``busy`` accumulate a shed score that steers new
  placements away until a session completes cleanly.

Membership is active: a prober thread scrapes every backend's
:class:`StatsRequest` endpoint each ``probe_interval_s`` (the same
exchange doubles as the metrics scrape feeding the fleet view).
Backends failing ``probe_fail_threshold`` consecutive probes — or
``eject_after_failures`` consecutive dials — are ejected from the
ring, redistributing their keyspace to the survivors; a later
successful probe re-admits them.  Every membership change emits a
``cluster.ring.rebalance`` event into the gateway's
:class:`repro.obs.EventLog` and bumps ``cluster.ring.rebalances``.

With ``replication_interval_s`` set, the prober thread doubles as a
**replication ferry**: each interval it pulls every backend's
ticket-replication delta into a relay :class:`ReplicationLog` (never
applied — the gateway holds no tickets) and pushes each backend the
entries it lacks, so grants and revocations reach every backend within
one ferry round without backends knowing each other's addresses.

State rules: all :class:`BackendState` and session mutation happens on
the loop thread; the prober reports its verdicts via
:meth:`EventLoop.call_soon`; the relay log is prober-thread-only.
"""

from __future__ import annotations

import functools
import json
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.errors import ConfigurationError, TransportError
from repro.net.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    ErrorFrame,
    FrameAssembler,
    FrameType,
    Hello,
    ReplDigest,
    ReplPull,
    ReplPush,
    ResumeRequest,
    RevokeNotice,
    StatsRequest,
    StatsResponse,
    TelemetryRequest,
    TelemetryResponse,
    Verdict,
    decode_payload,
    encode_message,
    frame_to_bytes,
)
from repro.net.connection import OutboundBuffer
from repro.net.eventloop import EVENT_READ, EVENT_WRITE, EventLoop
from repro.net.splice import Splice, accept_ready, close_socket, dial, listen
from repro.obs.collect import TELEMETRY_SCHEMA
from repro.obs.events import EventLog
from repro.obs.metrics import (
    MetricsRegistry,
    latency_buckets,
    merge_snapshots,
)
from repro.obs.tracing import parent_from_context, resolve_tracer
from repro.cluster.ring import ShardRing
from repro.cluster.stats import fetch_stats, fetch_telemetry
from repro.replica.log import ReplicationLog
from repro.replica.peer import pull_entries, push_entries

#: Event kind emitted on every ring-membership change.
REBALANCE_EVENT = "cluster.ring.rebalance"


def _parse_backend(spec: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    if isinstance(spec, tuple):
        host, port = spec
        return str(host), int(port)
    host, sep, port_text = str(spec).rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"backend {spec!r} must look like HOST:PORT"
        )
    try:
        return host, int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"backend {spec!r} has a non-integer port"
        ) from None


class BackendState:
    """Gateway-side view of one backend (loop-thread mutation only)."""

    __slots__ = (
        "address", "key", "healthy", "in_ring", "in_flight",
        "sessions_routed", "consecutive_failures", "probe_failures",
        "shed_score", "snapshot", "info",
    )

    def __init__(self, address: Tuple[str, int]):
        self.address = address
        self.key = f"{address[0]}:{address[1]}"
        self.healthy = True
        self.in_ring = False
        self.in_flight = 0
        self.sessions_routed = 0
        self.consecutive_failures = 0
        self.probe_failures = 0
        self.shed_score = 0
        self.snapshot: Optional[dict] = None  # last scraped metrics
        self.info: dict = {}                  # last scraped header fields


class _GatewaySession:
    """One client connection through the gateway (loop-thread only)."""

    __slots__ = (
        "client_sock", "assembler", "outbound", "backend", "route_key",
        "access_kind", "hello_bytes", "tried", "cancel_dial", "splice",
        "closed", "session_timer", "routed_at", "counted", "trace_parent",
        "route_span", "splice_span",
    )

    def __init__(self, client_sock, max_frame_bytes: int, max_pending: int):
        self.client_sock = client_sock
        self.assembler = FrameAssembler(max_frame_bytes)  # -> the splice
        self.outbound = OutboundBuffer(max_pending)  # one-shot replies
        self.backend: Optional[BackendState] = None
        self.route_key = ""
        self.access_kind = ""  # "resume"/"revoke" for ticket sessions
        self.hello_bytes = b""
        self.tried: Set[str] = set()
        self.cancel_dial = None  # set while a backend connect is in flight
        self.splice: Optional[Splice] = None  # once the backend answered
        self.closed = False
        self.session_timer = None
        self.routed_at = 0.0
        self.counted = False  # True once in_flight was incremented
        self.trace_parent = None  # TraceContext from the client's hello
        self.route_span = None    # cluster.route (hello -> backend dialed)
        self.splice_span = None   # cluster.splice (dialed -> close)


class WaveKeyGateway:
    """Consistent-hash sharding front end over WaveKey backends."""

    def __init__(
        self,
        backends: Iterable[Union[str, Tuple[str, int]]],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: str = "gateway",
        replicas: int = 64,
        connect_timeout_s: float = 3.0,
        handshake_timeout_s: float = 10.0,
        session_timeout_s: float = 120.0,
        probe_interval_s: float = 1.0,
        probe_timeout_s: float = 2.0,
        probe_fail_threshold: int = 2,
        eject_after_failures: int = 2,
        spill_inflight: int = 8,
        shed_penalty: int = 3,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        max_outbound_bytes: int = 1 << 20,
        health_checks: bool = True,
        metrics: MetricsRegistry = None,
        events: EventLog = None,
        tracer=None,
        telemetry=None,
        replication_interval_s: Optional[float] = None,
    ):
        addresses = [_parse_backend(spec) for spec in backends]
        if not addresses:
            raise ConfigurationError("a gateway needs at least one backend")
        self.name = name
        self.metrics = metrics or MetricsRegistry()
        self.events = events or EventLog()
        self.tracer = tracer
        self.telemetry = telemetry
        self.connect_timeout_s = float(connect_timeout_s)
        self.handshake_timeout_s = float(handshake_timeout_s)
        self.session_timeout_s = float(session_timeout_s)
        self.probe_interval_s = float(probe_interval_s)
        self.probe_timeout_s = float(probe_timeout_s)
        self.probe_fail_threshold = int(probe_fail_threshold)
        self.eject_after_failures = int(eject_after_failures)
        self.spill_inflight = int(spill_inflight)
        self.shed_penalty = int(shed_penalty)
        self.max_frame_bytes = int(max_frame_bytes)
        self.max_outbound_bytes = int(max_outbound_bytes)
        self.health_checks = bool(health_checks)
        if replication_interval_s is not None and replication_interval_s <= 0:
            raise ConfigurationError(
                "replication_interval_s must be positive"
            )
        self.replication_interval_s = replication_interval_s
        # Relay log (no store): the ferry holds entries it never
        # applies, so backends need no static peer lists — each
        # replication round pulls every backend's delta into the relay
        # and pushes each backend the relay entries it lacks.
        self._relay_log: Optional[ReplicationLog] = None
        if replication_interval_s is not None:
            self._relay_log = ReplicationLog(
                f"gateway/{name}", metrics=self.metrics
            )
        self._next_ferry_at = 0.0  # prober-thread only (monotonic)
        self._listen_host = host
        self._listen_port = int(port)
        self._backends: Dict[str, BackendState] = {}
        for address in addresses:
            state = BackendState(address)
            if state.key in self._backends:
                raise ConfigurationError(f"duplicate backend {state.key}")
            self._backends[state.key] = state
        self._ring = ShardRing(replicas=replicas)
        self._sessions: Set[_GatewaySession] = set()  # loop-thread only
        self._sock: Optional[socket.socket] = None
        self.loop: Optional[EventLoop] = None
        self.address: Optional[Tuple[str, int]] = None
        self.sessions_routed = 0
        self._running = False
        self._probe_thread: Optional[threading.Thread] = None
        self._probe_stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WaveKeyGateway":
        if self._running:
            return self
        self._sock = listen(self._listen_host, self._listen_port)
        self.address = self._sock.getsockname()[:2]
        self._running = True
        self.loop = EventLoop(
            name=f"wavekey-gw-{self.name}", metrics=self.metrics
        ).start()
        self.loop.call_soon(self._bootstrap_on_loop)
        if self.health_checks:
            self._probe_stop.clear()
            self._probe_thread = threading.Thread(
                target=self._probe_forever,
                name=f"wavekey-gw-{self.name}-probe",
                daemon=True,
            )
            self._probe_thread.start()
        return self

    def _bootstrap_on_loop(self) -> None:
        for backend in self._backends.values():
            self._join(backend, reason="startup")
        self.loop.register(
            self._sock, EVENT_READ, self._on_listener_ready
        )

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
        done = threading.Event()
        self.loop.call_soon(self._shutdown_on_loop, done)
        done.wait(timeout=5.0)
        self.loop.stop()

    def _shutdown_on_loop(self, done: threading.Event) -> None:
        try:
            self.loop.unregister(self._sock)
            self._sock.close()
            for session in list(self._sessions):
                self._close_session(session)
        finally:
            done.set()

    def __enter__(self) -> "WaveKeyGateway":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- fleet view --------------------------------------------------------

    def backend_states(self) -> Dict[str, BackendState]:
        return dict(self._backends)

    def fleet_snapshot(self) -> dict:
        """Gateway registry merged with the last scrape of every backend."""
        snapshots = [self.metrics.snapshot()]
        for backend in self._backends.values():
            if backend.snapshot:
                snapshots.append(backend.snapshot)
        return merge_snapshots(*snapshots)

    def fleet_document(self) -> dict:
        """The JSON document served for a gateway-directed StatsRequest."""
        entries: List[dict] = []
        for key in sorted(self._backends):
            backend = self._backends[key]
            entries.append({
                "backend": key,
                "healthy": backend.healthy,
                "in_ring": backend.in_ring,
                "in_flight": backend.in_flight,
                "sessions_routed": backend.sessions_routed,
                "shed_score": backend.shed_score,
                "share": round(self._ring.share(key), 6),
                "info": dict(backend.info),
            })
        document = {
            "role": "gateway",
            "name": self.name,
            "sessions_served": self.sessions_routed,
            "ring_size": len(self._ring),
            "backends": entries,
            "snapshot": self.fleet_snapshot(),
        }
        if self._relay_log is not None:
            document["replication"] = {
                "interval_s": self.replication_interval_s,
                **self._relay_log.status(),
            }
        return document

    def telemetry_document(self, drain: bool = False) -> dict:
        """The JSON document served for a gateway-directed
        TelemetryRequest: the gateway's own route/splice spans plus
        every span its prober drained from the backends — one scrape
        of the gateway suffices to stitch the whole fleet."""
        if self.telemetry is None:
            return {
                "schema": TELEMETRY_SCHEMA,
                "role": "gateway",
                "service": self.name,
                "spans": [],
                "events": [],
                "dropped_spans": 0,
                "dropped_events": 0,
            }
        self.telemetry.flush()
        document = self.telemetry.document(drain=drain)
        document["role"] = "gateway"
        return document

    # -- ring membership (loop thread) -------------------------------------

    def _join(self, backend: BackendState, reason: str) -> None:
        if backend.in_ring:
            return
        self._ring.add(backend.key)
        backend.in_ring = True
        backend.healthy = True
        backend.consecutive_failures = 0
        backend.probe_failures = 0
        backend.shed_score = 0
        self.metrics.counter("cluster.ring.rebalances").inc()
        self.events.emit(
            REBALANCE_EVENT,
            action="join",
            backend=backend.key,
            reason=reason,
            share_assigned=round(self._ring.share(backend.key), 4),
            ring_size=len(self._ring),
        )
        self._update_health_gauge()

    def _eject(self, backend: BackendState, reason: str) -> None:
        if not backend.in_ring:
            backend.healthy = False
            return
        share = self._ring.share(backend.key)
        self._ring.remove(backend.key)
        backend.in_ring = False
        backend.healthy = False
        self.metrics.counter("cluster.ring.rebalances").inc()
        self.events.emit(
            REBALANCE_EVENT,
            action="eject",
            backend=backend.key,
            reason=reason,
            share_redistributed=round(share, 4),
            ring_size=len(self._ring),
        )
        self._update_health_gauge()

    def _update_health_gauge(self) -> None:
        healthy = sum(1 for b in self._backends.values() if b.in_ring)
        self.metrics.gauge("cluster.backends.healthy").set(healthy)

    def _note_dial_failure(self, backend: BackendState, reason: str) -> None:
        backend.consecutive_failures += 1
        self.metrics.counter(
            "cluster.backend.dial_errors", labels={"backend": backend.key}
        ).inc()
        if backend.consecutive_failures >= self.eject_after_failures:
            self._eject(backend, reason=f"dial: {reason}")

    # -- probing (prober thread -> loop thread) ----------------------------

    def _probe_forever(self) -> None:
        while not self._probe_stop.is_set():
            for key, backend in list(self._backends.items()):
                host, port = backend.address
                try:
                    document = fetch_stats(
                        host, port, timeout_s=self.probe_timeout_s
                    )
                except Exception:  # any probe failure means "not healthy"
                    document = None
                if not self._running:
                    return
                self.loop.call_soon(self._on_probe_result, key, document)
                if self.telemetry is not None and document is not None:
                    # Piggyback the trace scrape on the health cadence;
                    # drain so every backend span is collected exactly
                    # once into the gateway's fleet buffer.
                    try:
                        scraped = fetch_telemetry(
                            host, port, drain=True,
                            timeout_s=self.probe_timeout_s,
                        )
                    except Exception:
                        scraped = None
                    if not self._running:
                        return
                    if scraped is not None:
                        self.loop.call_soon(
                            self._on_telemetry_result, key, scraped
                        )
            if self._relay_log is not None:
                now = time.monotonic()
                if now >= self._next_ferry_at:
                    self._ferry_replication()
                    self._next_ferry_at = now + self.replication_interval_s
            self._probe_stop.wait(self.probe_interval_s)

    def _ferry_replication(self) -> None:
        """One replication round over the fleet (prober thread).

        Phase 1 pulls every backend's delta into the relay log; phase 2
        pushes each backend the relay entries *it* lacks (its digest
        was learned in phase 1).  Any entry the relay has ever seen
        therefore reaches every live backend within one round, and a
        backend that was down simply catches up on its next round —
        no backend needs to know any other backend's address.
        """
        relay = self._relay_log
        digests: Dict[str, Dict[str, int]] = {}
        for key, backend in list(self._backends.items()):
            host, port = backend.address
            try:
                docs, remote_digest = pull_entries(
                    host, port,
                    sender=relay.origin,
                    digest=relay.digest(),
                    timeout_s=self.probe_timeout_s,
                )
            except Exception:
                self.metrics.counter(
                    "cluster.replica.ferry_errors",
                    labels={"backend": key, "phase": "pull"},
                ).inc()
                continue
            digests[key] = remote_digest
            if docs:
                outcomes = relay.ingest_documents(docs)
                self.metrics.counter(
                    "cluster.replica.ferried",
                    labels={"direction": "pulled"},
                ).inc(outcomes["new"])
        for key, remote_digest in digests.items():
            backend = self._backends.get(key)
            if backend is None:
                continue
            to_send = relay.missing_for(remote_digest)
            if not to_send:
                continue
            host, port = backend.address
            try:
                push_entries(
                    host, port,
                    sender=relay.origin,
                    entries=to_send,
                    timeout_s=self.probe_timeout_s,
                )
            except Exception:
                self.metrics.counter(
                    "cluster.replica.ferry_errors",
                    labels={"backend": key, "phase": "push"},
                ).inc()
                continue
            self.metrics.counter(
                "cluster.replica.ferried",
                labels={"direction": "pushed"},
            ).inc(len(to_send))
        self.metrics.counter("cluster.replica.ferry_rounds").inc()

    def _on_telemetry_result(self, key: str, document: dict) -> None:
        if self.telemetry is None:
            return
        spans = document.get("spans") or []
        if spans:
            self.metrics.counter(
                "cluster.telemetry.spans_scraped",
                labels={"backend": key},
            ).inc(len(spans))
        service = str(document.get("service") or key)
        self.telemetry.add_spans(spans, service=service)
        self.telemetry.add_events(document.get("events") or [])

    def _on_probe_result(self, key: str, document: Optional[dict]) -> None:
        backend = self._backends.get(key)
        if backend is None:
            return
        self.metrics.counter(
            "cluster.probes",
            labels={
                "backend": key,
                "result": "ok" if document is not None else "fail",
            },
        ).inc()
        if document is None:
            backend.probe_failures += 1
            if (
                backend.in_ring
                and backend.probe_failures >= self.probe_fail_threshold
            ):
                self._eject(backend, reason="probe")
            return
        backend.probe_failures = 0
        backend.consecutive_failures = 0
        snapshot = document.get("snapshot")
        if isinstance(snapshot, dict):
            backend.snapshot = snapshot
        backend.info = {
            field: document.get(field)
            for field in ("name", "sessions_served", "queue_depth",
                          "queue_capacity")
        }
        if not backend.in_ring:
            self._join(backend, reason="probe-recovered")

    # -- backend selection (loop thread) -----------------------------------

    def _select_backend(
        self, route_key: str, exclude: Set[str]
    ) -> Optional[BackendState]:
        candidates = [
            self._backends[key]
            for key in self._ring.candidates(route_key)
            if key not in exclude and self._backends[key].in_ring
        ]
        if not candidates:
            return None
        for backend in candidates:
            if (
                backend.in_flight < self.spill_inflight
                and backend.shed_score < self.shed_penalty
            ):
                if backend is not candidates[0]:
                    self.metrics.counter("cluster.route.spill").inc()
                return backend
        # Every candidate is at the soft bound (or shed-penalized):
        # spread rather than refuse — the backend's admission queue is
        # the real shedding authority.
        return min(candidates, key=lambda b: b.in_flight)

    # -- accept + hello (loop thread) --------------------------------------

    def _on_listener_ready(self, mask: int) -> None:
        for client_sock, _ in accept_ready(self._sock):
            session = _GatewaySession(
                client_sock, self.max_frame_bytes, self.max_outbound_bytes
            )
            self._sessions.add(session)
            self.loop.register(
                client_sock, EVENT_READ,
                lambda m, s=session: self._on_hello_readable(s),
            )
            session.session_timer = self.loop.call_later(
                self.handshake_timeout_s,
                lambda s=session: self._session_expired(s, "handshake"),
            )

    def _session_expired(self, session: _GatewaySession, phase: str) -> None:
        if session.closed:
            return
        self.metrics.counter(
            "cluster.session_timeouts", labels={"phase": phase}
        ).inc()
        self._close_session(session)

    def _on_hello_readable(self, session: _GatewaySession) -> None:
        if session.closed:
            return
        try:
            n = session.assembler.read_into(session.client_sock)
            frame = session.assembler.next_frame()
        except (BlockingIOError, InterruptedError):
            return
        except (OSError, TransportError):
            self._close_session(session)
            return
        if frame is None:
            if n == 0:
                self._close_session(session)
            return
        # The first frame decides the session; frames pipelined behind
        # a HELLO wait in the assembler for the splice.
        self.loop.unregister(session.client_sock)
        try:
            message = decode_payload(frame)
        except TransportError:
            self._close_session(session)
            return
        if isinstance(message, StatsRequest):
            self.metrics.counter("cluster.stats_requests").inc()
            self._reply(session, StatsResponse(
                payload_json=json.dumps(self.fleet_document(), default=str)
            ))
            return
        if isinstance(message, TelemetryRequest):
            self.metrics.counter("cluster.telemetry_requests").inc()
            self._reply(session, TelemetryResponse(
                payload_json=json.dumps(
                    self.telemetry_document(drain=message.drain),
                    default=str,
                )
            ))
            return
        if isinstance(message, (ReplDigest, ReplPull, ReplPush)):
            # The gateway is not a replica, but it answers the status
            # probe (``repro replica status GATEWAY``) with its relay
            # log's view; PULL/PUSH must target a backend directly.
            self._answer_replication(session, message)
            return
        if isinstance(message, (ResumeRequest, RevokeNotice)):
            # Ticket-identity routing: every operation on one ticket —
            # the resumption that uses it and the revocation that kills
            # it — hashes to the same backend, so even a fleet without
            # replication stays consistent while membership holds.
            # With replication on (``--replication-interval``) any
            # backend can honour the resume, so a miss on the routed
            # backend — post-rebalance, or an entry still in flight —
            # is a counted fallback (``cluster.route.resume_fallback``)
            # rather than a hard design limit; the client still falls
            # back to full establishment on ``ticket_unknown``.
            session.route_key = f"ticket#{message.ticket_id}"
            session.access_kind = (
                "resume" if isinstance(message, ResumeRequest) else "revoke"
            )
            self.metrics.counter(
                "cluster.route.access",
                labels={"kind": session.access_kind},
            ).inc()
        elif isinstance(message, Hello):
            session.route_key = f"{message.sender}#{message.rng_seed}"
        else:
            self._reply(session, ErrorFrame(
                "protocol", f"expected HELLO, got {type(message).__name__}"
            ))
            return
        session.trace_parent = parent_from_context(
            getattr(message, "trace_context", None)
        )
        tracer = resolve_tracer(self.tracer)
        if tracer.enabled:
            session.route_span = tracer.start_span(
                "cluster.route",
                parent=session.trace_parent,
                route_key=session.route_key,
                kind=type(message).__name__.lower(),
            )
        session.hello_bytes = frame_to_bytes(frame)
        self._start_dial(session)

    def _answer_replication(self, session: _GatewaySession, message) -> None:
        if isinstance(message, ReplDigest):
            if self._relay_log is None:
                reply = ErrorFrame(
                    "replication_disabled",
                    f"gateway {self.name} has no replication ferry "
                    "(start with replication_interval_s)",
                )
            else:
                document = self._relay_log.status()
                document["role"] = "gateway"
                reply = ReplDigest(
                    sender=f"gateway/{self.name}",
                    payload_json=json.dumps(document),
                )
            self.metrics.counter("cluster.replica.status_requests").inc()
        else:
            reply = ErrorFrame(
                "replication_misdirected",
                "the gateway ferries entries itself; send REPL_PULL/"
                "REPL_PUSH to a backend",
            )
        self._reply(session, reply)

    # -- backend dial (loop thread) ----------------------------------------

    def _start_dial(self, session: _GatewaySession) -> None:
        backend = self._select_backend(session.route_key, session.tried)
        if backend is None:
            self.metrics.counter("cluster.route.errors").inc()
            self._reply(session, ErrorFrame(
                "unavailable", "no healthy backend for this session"
            ))
            return
        if session.tried:
            self.metrics.counter("cluster.route.failover").inc()
        session.tried.add(backend.key)
        session.backend = backend
        session.cancel_dial = dial(
            self.loop, backend.address, self.connect_timeout_s,
            functools.partial(self._on_backend_dialed, session),
        )

    def _on_backend_dialed(
        self, session: _GatewaySession, sock, reason: str
    ) -> None:
        session.cancel_dial = None
        if sock is None:
            self._note_dial_failure(session.backend, reason)
            # Try the next ring candidate; _start_dial refuses the
            # session (counting cluster.route.errors) once every one
            # was tried.
            self._start_dial(session)
            return
        backend = session.backend
        backend.consecutive_failures = 0
        backend.in_flight += 1
        backend.sessions_routed += 1
        session.counted = True
        self.sessions_routed += 1
        self.metrics.counter(
            "cluster.sessions.routed", labels={"backend": backend.key}
        ).inc()
        self.metrics.gauge(
            "cluster.backend.in_flight", labels={"backend": backend.key}
        ).set(backend.in_flight)
        tracer = resolve_tracer(self.tracer)
        if session.route_span is not None:
            session.route_span.set_attribute("backend", backend.key)
            tracer.finish_span(session.route_span)
            session.route_span = None
        if tracer.enabled:
            session.splice_span = tracer.start_span(
                "cluster.splice",
                parent=session.trace_parent,
                backend=backend.key,
            )
        session.routed_at = time.monotonic()
        if session.session_timer is not None:
            session.session_timer.cancel()
        session.session_timer = self.loop.call_later(
            self.session_timeout_s,
            lambda s=session: self._session_expired(s, "splice"),
        )
        session.splice = Splice(
            self.loop, session.client_sock, sock,
            on_frame=functools.partial(self._relay_frame, session),
            on_close=functools.partial(self._on_splice_closed, session),
            max_frame_bytes=self.max_frame_bytes,
            assembler=session.assembler,
            sides=("client", "backend"),
        )
        # The held HELLO opens the backend conversation, then any
        # frames the client pipelined behind it follow in order.
        session.splice.start(session.hello_bytes)

    # -- splicing (loop thread) --------------------------------------------

    def _relay_frame(self, session: _GatewaySession, direction: str, frame):
        if direction == "s2c":
            self._observe_s2c_frame(session, frame)
        self.metrics.counter(
            "cluster.frames.relayed", labels={"direction": direction}
        ).inc()
        return (frame,), 0.0

    def _observe_s2c_frame(self, session: _GatewaySession, frame) -> None:
        """Steer future placements from this session's verdict frames."""
        backend = session.backend
        if frame.type == FrameType.VERDICT:
            try:
                verdict = decode_payload(frame)
            except TransportError:
                return
            if isinstance(verdict, Verdict):
                backend.shed_score = 0
                self.metrics.counter(
                    "cluster.sessions.verdicts",
                    labels={"backend": backend.key, "state": verdict.state},
                ).inc()
                if session.routed_at:
                    self.metrics.histogram(
                        "cluster.session_s",
                        bounds=latency_buckets(),
                        labels={"backend": backend.key},
                    ).observe(time.monotonic() - session.routed_at)
                    session.routed_at = 0.0
        elif frame.type == FrameType.ERROR:
            try:
                error = decode_payload(frame)
            except TransportError:
                return
            if isinstance(error, ErrorFrame) and error.code == "busy":
                backend.shed_score += 1
                self.metrics.counter(
                    "cluster.shed.observed", labels={"backend": backend.key}
                ).inc()
            elif (
                isinstance(error, ErrorFrame)
                and error.code == "ticket_unknown"
                and session.access_kind == "resume"
            ):
                # The routed backend could not honour the resume — the
                # client now falls back to full establishment.  With
                # replication on this counts propagation misses; with
                # it off, every post-rebalance resume lands here.
                self.metrics.counter(
                    "cluster.route.resume_fallback",
                    labels={"backend": backend.key},
                ).inc()
                self.events.emit(
                    "cluster_resume_fallback", backend=backend.key,
                    route_key=session.route_key,
                )

    def _on_splice_closed(
        self, session: _GatewaySession, where: Optional[str]
    ) -> None:
        # A client read or write failing is the client going away, not
        # a splice fault.
        if where not in (None, "client read", "client write"):
            self.metrics.counter(
                "cluster.splice_errors", labels={"where": where}
            ).inc()
        self._close_session(session)

    # -- one-shot replies + teardown (loop thread) -------------------------

    def _reply(self, session: _GatewaySession, message) -> None:
        """Answer a one-shot request, or refuse the session; the session
        closes once the reply is flushed."""
        data = frame_to_bytes(encode_message(message))
        session.outbound.append(data, force=True)
        self._flush_reply(session)

    def _flush_reply(self, session: _GatewaySession, mask: int = 0) -> None:
        try:
            drained = session.outbound.flush(session.client_sock)
        except OSError:
            drained = True
        if drained:
            self._close_session(session)
        elif not mask:  # not yet watching for writability
            self.loop.register(
                session.client_sock, EVENT_WRITE,
                lambda m, s=session: self._flush_reply(s, m),
            )

    def _close_session(self, session: _GatewaySession) -> None:
        if session.closed:
            return
        session.closed = True
        tracer = resolve_tracer(self.tracer)
        if session.route_span is not None:
            # The session never reached a backend: the route failed.
            tracer.finish_span(session.route_span, status="error")
            session.route_span = None
        if session.splice_span is not None:
            tracer.finish_span(session.splice_span)
            session.splice_span = None
        if session.session_timer is not None:
            session.session_timer.cancel()
        if session.cancel_dial is not None:
            session.cancel_dial()
        if session.splice is not None:
            session.splice.close()
        else:
            session.outbound.close()
            self.loop.unregister(session.client_sock)
            close_socket(session.client_sock)
        backend = session.backend
        if backend is not None and session.counted:
            backend.in_flight = max(0, backend.in_flight - 1)
            self.metrics.gauge(
                "cluster.backend.in_flight", labels={"backend": backend.key}
            ).set(backend.in_flight)
        self._sessions.discard(session)
