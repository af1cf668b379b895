"""Blocking client SDK: drive a key establishment from the device side.

:class:`WaveKeyNetClient` dials a :class:`repro.net.server.WaveKeyTCPServer`,
performs the hello/accept handshake, and then plays the mobile half of
the Fig. 4 protocol for every round the server grants: craft ``M_A``,
answer the server's announce, exchange ciphertexts, assemble the
preliminary key, send the reconciliation challenge, verify the HMAC
confirmation, and close the round with a mutual-confirmation ack.

Fault handling is the SDK contract:

* connect failures, read deadlines, oversized frames, undecodable
  bytes, and mid-session disconnects all surface as typed
  :class:`repro.errors.TransportError` subclasses;
* :meth:`WaveKeyNetClient.establish` retries the *whole* establishment
  (fresh connection, fresh server session) on transport errors, with
  bounded exponential backoff — protocol-level failures (keys differ,
  deadline breached, load shed) are returned as results, not retried,
  because the server already applied its own retry policy;
* every run emits client-side spans (``net.establish`` -> connect /
  hello / prepare / per-round stages) and frame/byte metrics when given
  a tracer or registry.

While it waits for each round's :class:`SeedGrant` (the gesture window,
in which the server acquires and encodes), the client fills a one-round
:class:`~repro.protocol.agreement.RoundStock`: the sequence pairs and
the sender tuple first, then receiver tuples a few at a time, with a
zero-timeout readability check between chunks so that a grant already
in never waits behind more than one chunk.  The stock is drawn from the
attempt's own streams, so the round sends the same bytes whether it was
full, partial or empty.  It is prepared for the key-seed length of the
last grant; a grant of another length or for another attempt, or the
end of the connection, discards it.  After a failed round the next
stock waits a moment before it starts, for the Verdict that ends a
session with no attempts left.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.access.channel import ClientAccessChannel, new_nonce
from repro.access.records import derive_resume_secret, revocation_tag
from repro.crypto.group import Group
from repro.crypto.numbers import WAVEKEY_GROUP_512
from repro.errors import (
    AccessError,
    ConfigurationError,
    ConnectionTimeout,
    GroupMismatch,
    KeyAgreementFailure,
    ProtocolError,
    TicketError,
    TicketExpired,
    TicketRevoked,
    TicketUnknown,
    TransportError,
    VersionMismatch,
)
from repro.net.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Accept,
    ErrorFrame,
    Hello,
    ResumeAccept,
    ResumeRequest,
    RevokeNotice,
    RoundResult,
    SeedGrant,
    TicketGrant,
    Verdict,
)
from repro.net.connection import (
    FrameConnection,
    RoundAborted,
    connect,
    run_round,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, current_context, resolve_tracer
from repro.protocol.agreement import (
    AgreementParty,
    KeyAgreementConfig,
    RoundStock,
    mobile_round,
)
from repro.utils.bits import BitSequence
from repro.utils.rng import child_rng


#: Receiver tuples prepared between two readability checks: one chunk
#: is the most a grant already in waits before the round starts.
_PREPARE_CHUNK = 4

#: The key-seed length a stock is prepared for before the first grant
#: tells the client the server's: ``l_s`` of the default bundle.
_FIRST_SEED_BITS = 36

#: How long a stock after a failed round waits for a frame before it
#: starts.  A session with no attempts left sends its Verdict within
#: about a millisecond of the failed round; a retry's grant needs a
#: fresh acquisition first, so the wait costs it nothing.
_RETRY_SETTLE_S = 0.002


def _parse_endpoint(spec: str) -> Tuple[str, int]:
    """Split ``"host:port"`` into a ``(host, port)`` pair."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"endpoint {spec!r} must look like HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"endpoint {spec!r} has a non-integer port"
        ) from None
    if not 0 < port < 65536:
        raise ConfigurationError(f"endpoint {spec!r} port out of range")
    return host, port


@dataclass(frozen=True)
class NetClientConfig:
    """Client-side knobs: identity, deadlines, and the retry policy.

    ``endpoints`` is an ordered list of fallback ``"host:port"``
    addresses tried *after* the primary endpoint: when the connect
    phase itself fails (refused, unreachable, timed out) the client
    rotates to the next address on the following dial instead of
    hammering the dead one.  Failures *after* a connection was
    established stick with the current endpoint — the server already
    holds session state worth retrying against.
    """

    name: str = "mobile"
    connect_timeout_s: float = 5.0
    read_timeout_s: float = 10.0
    establish_timeout_s: float = 60.0
    max_retries: int = 2
    backoff_initial_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 1.0
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    endpoints: Tuple[str, ...] = ()
    group: Group = WAVEKEY_GROUP_512

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("client name must be non-empty")
        object.__setattr__(self, "endpoints", tuple(self.endpoints))
        for spec in self.endpoints:
            _parse_endpoint(spec)
        if min(
            self.connect_timeout_s,
            self.read_timeout_s,
            self.establish_timeout_s,
        ) <= 0:
            raise ConfigurationError("timeouts must be > 0")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_initial_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")


@dataclass(frozen=True)
class ClientTicket:
    """Client-side resumption credential.

    Pairs the server's :class:`TicketGrant` with the resumption secret
    the client derived from its own copy of the agreed key — the
    secret never travels, so holding a :class:`ClientTicket` proves
    the holder completed (or was handed the outcome of) an agreement.
    Serializable via :meth:`to_json`/:meth:`from_json` so the CLI can
    park it on disk between invocations.
    """

    ticket_id: str
    resume_secret: bytes
    expires_at: float
    lifetime_s: float
    server: str = ""

    def to_json(self) -> str:
        return json.dumps({
            "ticket_id": self.ticket_id,
            "resume_secret": self.resume_secret.hex(),
            "expires_at": self.expires_at,
            "lifetime_s": self.lifetime_s,
            "server": self.server,
        })

    @staticmethod
    def from_json(text: str) -> "ClientTicket":
        try:
            data = json.loads(text)
            return ClientTicket(
                ticket_id=str(data["ticket_id"]),
                resume_secret=bytes.fromhex(str(data["resume_secret"])),
                expires_at=float(data["expires_at"]),
                lifetime_s=float(data["lifetime_s"]),
                server=str(data.get("server", "")),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise AccessError(f"malformed client ticket: {exc}") from exc


@dataclass
class EstablishmentResult:
    """Client-side view of one (possibly retried) establishment."""

    success: bool
    state: str
    session_id: str = ""
    key: Optional[BitSequence] = None
    attempts: int = 0          # server-side protocol attempts
    connects: int = 1          # connections dialed (1 + transport retries)
    elapsed_s: float = 0.0
    failure_reason: Optional[str] = None
    rounds: List[RoundResult] = field(default_factory=list)
    endpoint: str = ""         # address that served the final attempt
    ticket: Optional[ClientTicket] = None  # resumption credential


class _ConnectFailed(Exception):
    """The connect phase itself failed (eligible for endpoint failover)."""

    def __init__(self, cause: TransportError):
        super().__init__(str(cause))
        self.cause = cause


class WaveKeyNetClient:
    """Blocking establishment client for one server endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        config: NetClientConfig = None,
        *,
        metrics: MetricsRegistry = None,
        tracer: Tracer = None,
    ):
        self.host = host
        self.port = int(port)
        self.config = config or NetClientConfig()
        self.metrics = metrics
        self.tracer = tracer
        self._endpoints: List[Tuple[str, int]] = [(self.host, self.port)]
        for spec in self.config.endpoints:
            pair = _parse_endpoint(spec)
            if pair not in self._endpoints:
                self._endpoints.append(pair)
        # Each round's OT material is prepared while the client waits
        # for its grant; building MODP's fixed-base table and loading
        # OpenSSL here keeps those one-time costs out of the first
        # gesture window.
        self.config.group.power(1)
        self.config.group.ladder_key(1)
        # The key-seed length stocks are prepared for: the last grant's.
        self._seed_bits = _FIRST_SEED_BITS

    # -- public API --------------------------------------------------------

    def establish(
        self, rng_seed: int, dynamic: bool = False
    ) -> EstablishmentResult:
        """Run one full key establishment, retrying transport faults.

        Returns an :class:`EstablishmentResult` for every protocol-level
        verdict (established, failed, timed out, shed); raises the last
        :class:`TransportError` once the bounded retries are exhausted.
        """
        config = self.config
        tracer = resolve_tracer(self.tracer)
        start = time.monotonic()
        delay = config.backoff_initial_s
        last_error: Optional[TransportError] = None
        endpoint_index = 0
        with tracer.span(
            "net.establish", seed=rng_seed, server=f"{self.host}:{self.port}"
        ) as root:
            for dial in range(1 + config.max_retries):
                if dial:
                    if self.metrics is not None:
                        self.metrics.counter("net.client.retries").inc()
                    time.sleep(delay)
                    delay = min(
                        delay * config.backoff_multiplier,
                        config.backoff_max_s,
                    )
                host, port = self._endpoints[
                    endpoint_index % len(self._endpoints)
                ]
                try:
                    result = self._attempt(
                        host, port, rng_seed, dynamic, tracer
                    )
                    result.connects = dial + 1
                    result.elapsed_s = time.monotonic() - start
                    result.endpoint = f"{host}:{port}"
                    root.set_attribute("state", result.state)
                    root.set_attribute("connects", result.connects)
                    root.set_attribute("endpoint", result.endpoint)
                    return result
                except _ConnectFailed as exc:
                    last_error = exc.cause
                    if self.metrics is not None:
                        self.metrics.counter(
                            "net.client.transport_errors"
                        ).inc()
                    if len(self._endpoints) > 1:
                        endpoint_index += 1
                        if self.metrics is not None:
                            self.metrics.counter(
                                "net.client.failover"
                            ).inc()
                except TransportError as exc:
                    last_error = exc
                    if self.metrics is not None:
                        self.metrics.counter(
                            "net.client.transport_errors"
                        ).inc()
            root.set_attribute("state", "transport_error")
        raise last_error

    def open_channel(self, ticket: ClientTicket) -> ClientAccessChannel:
        """Resume a secure channel from a ticket — no gesture, no OT.

        Dials the primary endpoint, presents the ticket with a fresh
        nonce, verifies the server's proof that it holds the ticket's
        resumption secret, and returns the live channel.  Ticket
        rejections surface as the matching typed error
        (:class:`TicketUnknown` / :class:`TicketExpired` /
        :class:`TicketRevoked`); transport faults raise
        :class:`TransportError` so callers can fall back to
        :meth:`establish`.
        """
        config = self.config
        tracer = resolve_tracer(self.tracer)
        with tracer.span(
            "access.resume", ticket=ticket.ticket_id,
            server=f"{self.host}:{self.port}",
        ) as span:
            conn = connect(
                self.host,
                self.port,
                timeout_s=config.connect_timeout_s,
                max_frame_bytes=config.max_frame_bytes,
                read_timeout_s=config.read_timeout_s,
                metrics=self.metrics,
            )
            try:
                client_nonce = new_nonce()
                conn.send(ResumeRequest(
                    sender=config.name,
                    ticket_id=ticket.ticket_id,
                    client_nonce=client_nonce,
                    trace_context=current_context(service=config.name),
                ))
                answer = conn.recv()
                if isinstance(answer, ErrorFrame):
                    span.set_attribute("rejected", answer.code)
                    if self.metrics is not None:
                        self.metrics.counter(
                            "access.client.resume_rejected",
                            labels={"code": answer.code},
                        ).inc()
                    raise self._ticket_error(answer)
                if not isinstance(answer, ResumeAccept):
                    raise ProtocolError(
                        "expected RESUME_ACCEPT, got "
                        f"{type(answer).__name__}"
                    )
                _, records = ClientAccessChannel.complete_handshake(
                    ticket.resume_secret, client_nonce, answer
                )
            except BaseException:
                conn.close()
                raise
            span.set_attribute("channel", answer.channel_id)
            if self.metrics is not None:
                self.metrics.counter("access.client.resumed").inc()
            return ClientAccessChannel(
                conn, records, answer.channel_id, metrics=self.metrics
            )

    def revoke(self, ticket: ClientTicket) -> bool:
        """Kill a ticket server-side; returns True on the server's ack.

        Authenticated by the ticket's revocation key, so it works from
        any process holding the :class:`ClientTicket` — no secure
        channel required.  Raises the typed ticket error if the server
        no longer honours the id.
        """
        conn = connect(
            self.host,
            self.port,
            timeout_s=self.config.connect_timeout_s,
            max_frame_bytes=self.config.max_frame_bytes,
            read_timeout_s=self.config.read_timeout_s,
            metrics=self.metrics,
        )
        try:
            conn.send(RevokeNotice(
                ticket_id=ticket.ticket_id,
                tag=revocation_tag(
                    ticket.resume_secret, ticket.ticket_id
                ),
            ))
            answer = conn.recv()
        finally:
            conn.close()
        if isinstance(answer, ErrorFrame):
            raise self._ticket_error(answer)
        if isinstance(answer, RoundResult) and answer.success:
            if self.metrics is not None:
                self.metrics.counter("access.client.revoked").inc()
            return True
        raise ProtocolError(
            f"unexpected revocation reply {type(answer).__name__}"
        )

    @staticmethod
    def _ticket_error(error: ErrorFrame) -> Exception:
        """Map a wire error code back to the typed exception."""
        by_code = {
            TicketUnknown.wire_code: TicketUnknown,
            TicketExpired.wire_code: TicketExpired,
            TicketRevoked.wire_code: TicketRevoked,
        }
        exc_type = by_code.get(error.code)
        if exc_type is not None:
            return exc_type(error.detail)
        if error.code in ("resume_invalid", "revoke_auth"):
            return TicketError(f"{error.code}: {error.detail}")
        return ProtocolError(
            f"server error {error.code}: {error.detail}"
        )

    # -- one connection lifecycle ------------------------------------------

    def _attempt(
        self, host: str, port: int, rng_seed: int, dynamic: bool,
        tracer: Tracer,
    ) -> EstablishmentResult:
        config = self.config
        deadline = time.monotonic() + config.establish_timeout_s
        with tracer.span("net.connect", server=f"{host}:{port}"):
            try:
                conn = connect(
                    host,
                    port,
                    timeout_s=config.connect_timeout_s,
                    max_frame_bytes=config.max_frame_bytes,
                    read_timeout_s=config.read_timeout_s,
                    metrics=self.metrics,
                )
            except TransportError as exc:
                raise _ConnectFailed(exc) from exc
        try:
            with tracer.span("net.hello"):
                # Propagate the active trace (the span just opened, or
                # any caller-held one) so the server continues it.
                # The default group travels as an empty id so the Hello
                # stays byte-identical to the pre-negotiation wire.
                group_id = (
                    "" if config.group == WAVEKEY_GROUP_512
                    else config.group.name
                )
                conn.send(Hello(
                    sender=config.name, rng_seed=rng_seed, dynamic=dynamic,
                    trace_context=current_context(service=config.name),
                    group_id=group_id,
                ))
                answer = conn.recv()
            if isinstance(answer, ErrorFrame):
                return self._error_result(answer)
            if not isinstance(answer, Accept):
                raise ProtocolError(
                    f"expected ACCEPT, got {type(answer).__name__}"
                )
            if answer.version != PROTOCOL_VERSION:
                raise VersionMismatch(
                    f"server speaks protocol {answer.version}, client "
                    f"speaks {PROTOCOL_VERSION}"
                )
            accept = answer
            agreement_config = KeyAgreementConfig(
                key_length_bits=accept.key_length_bits,
                eta=accept.eta,
                group=config.group,
            )

            rounds: List[RoundResult] = []
            session_key: Optional[BitSequence] = None
            grant: Optional[TicketGrant] = None
            # The stock for attempt last_attempt + 1, prepared while no
            # round has confirmed (so another grant may come).
            last_attempt = 0
            stock: Optional[RoundStock] = None
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ConnectionTimeout(
                        f"no verdict within {config.establish_timeout_s}s"
                    )
                timeout_s = min(config.read_timeout_s, remaining)
                if stock is None and session_key is None:
                    stock = RoundStock(config.group, child_rng(
                        rng_seed, "net-client", last_attempt + 1
                    ))
                if stock is not None:
                    with tracer.span(
                        "net.prepare", group=config.group.name
                    ) as span:
                        self._prepare(
                            conn, stock, agreement_config,
                            settle=last_attempt > 0,
                        )
                        message = conn.recv(timeout_s=timeout_s)
                        span.set_attribute("ready", len(stock.receivers))
                else:
                    message = conn.recv(timeout_s=timeout_s)
                if isinstance(message, SeedGrant):
                    if (
                        stock is None
                        or message.attempt != last_attempt + 1
                        or len(message.seed) != self._seed_bits
                    ):
                        # The cold path: an empty stock of this attempt.
                        stock = RoundStock(config.group, child_rng(
                            rng_seed, "net-client", message.attempt
                        ))
                    self._seed_bits = len(message.seed)
                    session_key = self._run_round(
                        conn, accept, agreement_config, message, stock,
                        rounds, tracer,
                    )
                    last_attempt, stock = message.attempt, None
                elif isinstance(message, RoundResult):
                    rounds.append(message)
                elif isinstance(message, TicketGrant):
                    grant = message
                elif isinstance(message, Verdict):
                    return self._verdict_result(
                        message, accept, session_key, rounds, grant,
                        f"{host}:{port}",
                    )
                elif isinstance(message, ErrorFrame):
                    return self._error_result(message, rounds)
                else:
                    raise ProtocolError(
                        f"unexpected {type(message).__name__} "
                        "between rounds"
                    )
        finally:
            conn.close()

    def _error_result(
        self, error: ErrorFrame, rounds: List[RoundResult] = None
    ) -> EstablishmentResult:
        if error.code in ("busy", "timeout", "unavailable"):
            state = "shed" if error.code == "busy" else "timed_out"
            return EstablishmentResult(
                success=False,
                state=state,
                failure_reason=f"{error.code}: {error.detail}",
                rounds=rounds or [],
            )
        # Retrying against the same server cannot change its configured
        # group or protocol, so surface the typed error immediately.
        for typed in (GroupMismatch, VersionMismatch):
            if error.code == typed.wire_code:
                raise typed(
                    error.detail or f"server rejected the {error.code}"
                )
        raise ProtocolError(f"server error {error.code}: {error.detail}")

    def _verdict_result(
        self,
        verdict: Verdict,
        accept: Accept,
        session_key: Optional[BitSequence],
        rounds: List[RoundResult],
        grant: Optional[TicketGrant] = None,
        endpoint: str = "",
    ) -> EstablishmentResult:
        success = verdict.state == "established"
        if success and session_key is None:
            raise ProtocolError(
                "server reported establishment but no round completed "
                "on the client side"
            )
        ticket: Optional[ClientTicket] = None
        if success and grant is not None:
            # The grant names the ticket; the secret comes from the
            # client's own copy of the agreed key.
            ticket = ClientTicket(
                ticket_id=grant.ticket_id,
                resume_secret=derive_resume_secret(session_key.to_bytes()),
                expires_at=grant.expires_at,
                lifetime_s=grant.lifetime_s,
                server=endpoint,
            )
            if self.metrics is not None:
                self.metrics.counter("access.client.grants").inc()
        return EstablishmentResult(
            success=success,
            state=verdict.state,
            session_id=verdict.session_id or accept.session_id,
            key=session_key if success else None,
            attempts=verdict.attempts,
            failure_reason=verdict.reason or None,
            rounds=rounds,
            ticket=ticket,
        )

    # -- one protocol round ------------------------------------------------

    def _prepare(
        self,
        conn: FrameConnection,
        stock: RoundStock,
        agreement_config: KeyAgreementConfig,
        settle: bool,
    ) -> None:
        """Fill ``stock`` for the expected key-seed length until it is
        full or a frame is waiting: the sequence pairs and the sender
        tuple, which ``M_A`` needs, then receiver tuples a chunk at a
        time.  A ``settle`` stock, one after a failed round, first
        gives the Verdict that would make it moot
        :data:`_RETRY_SETTLE_S` to arrive."""
        if settle and stock.pairs is None and conn.readable(_RETRY_SETTLE_S):
            return
        l_s = self._seed_bits
        stock.prepare_pairs(l_s, agreement_config.segment_bits(l_s))
        stock.prepare_sender()
        while not conn.readable():
            missing = l_s - len(stock.receivers)
            if missing <= 0:
                return
            stock.prepare_receivers(min(_PREPARE_CHUNK, missing))

    def _run_round(
        self,
        conn: FrameConnection,
        accept: Accept,
        agreement_config: KeyAgreementConfig,
        grant: SeedGrant,
        stock: RoundStock,
        rounds: List[RoundResult],
        tracer: Tracer,
    ) -> Optional[BitSequence]:
        """Play the mobile side of one round on the attempt's ``stock``;
        returns the session key when this round's confirmation verified,
        else None.  The client has no protocol clock: only the server
        knows when the gesture started, and it checks the deadline."""
        party = AgreementParty(
            self.config.name,
            grant.seed,
            agreement_config,
            own_sequences_first=True,
            stock=stock,
        )
        with tracer.span("net.round", attempt=grant.attempt) as span:
            try:
                run_round(
                    mobile_round(party, accept.sender), conn, tracer=tracer
                )
            except RoundAborted as exc:
                rounds.append(exc.result)
                span.set_attribute("aborted", exc.result.reason)
                return None
            except KeyAgreementFailure as exc:
                # The round has told the server with ConfirmAck(ok=False).
                span.set_attribute("failure", str(exc))
                return None
            span.set_attribute("confirmed", True)
        return party.session_key()
