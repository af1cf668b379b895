"""Per-session state for the access-control server.

A session is one user at the reader: admission, a bounded number of
establishment attempts (gesture acquisition -> encoding -> OT
agreement), and a terminal state.  The :class:`SessionManager` owns the
registry, enforces legal state transitions, and emits every transition
to the structured event log so tests and operators can reconstruct any
session's history.
"""

from __future__ import annotations

import enum
import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ServiceError
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.utils.bits import BitSequence


class SessionState(enum.Enum):
    """Lifecycle of one key-establishment session."""

    QUEUED = "queued"          # admitted, waiting for a worker
    ENCODING = "encoding"      # acquiring and encoding the windows
    AGREEING = "agreeing"      # OT + reconciliation in flight
    ESTABLISHED = "established"  # terminal: key agreed
    FAILED = "failed"          # terminal: attempts exhausted
    TIMED_OUT = "timed_out"    # terminal: tau/session deadline violated
    SHED = "shed"              # terminal: rejected at admission

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {
    SessionState.ESTABLISHED,
    SessionState.FAILED,
    SessionState.TIMED_OUT,
    SessionState.SHED,
}

_LEGAL = {
    SessionState.QUEUED: {
        SessionState.ENCODING,
        SessionState.TIMED_OUT,
    },
    SessionState.ENCODING: {
        SessionState.AGREEING,
        SessionState.ENCODING,   # next attempt after a retry
        SessionState.FAILED,
        SessionState.TIMED_OUT,
    },
    SessionState.AGREEING: {
        SessionState.ESTABLISHED,
        SessionState.ENCODING,   # retry
        SessionState.FAILED,
        SessionState.TIMED_OUT,
    },
}

#: Finished sessions the registry keeps for :meth:`SessionManager.get`;
#: older ones are forgotten (their tickets still hold them).
FINISHED_SESSIONS_KEPT = 64

_id_counter = itertools.count(1)


def _next_session_id() -> str:
    return f"s{next(_id_counter):06d}"


@dataclass
class AccessRequest:
    """One user's key-establishment request.

    ``volunteer``/``device``/``tag``/``environment`` override the
    server's deployment defaults per session (a lineup service hands a
    fresh tag to every visitor); ``rng_seed`` makes the session's
    gesture and protocol randomness reproducible.  ``agreement_fn``
    (same signature as the server-wide one) replaces the in-process
    two-party agreement for this session only — the network front end
    uses it to run the exchange over the client's connection.
    ``trace_context`` (a :class:`repro.obs.tracing.TraceContext`
    extracted from the wire, or ``None``) parents the session's root
    span on the caller's distributed trace.
    """

    rng_seed: int
    volunteer: object = None
    device: object = None
    tag: object = None
    environment: object = None
    dynamic: bool = False
    agreement_fn: object = None
    trace_context: object = None
    session_id: str = field(default_factory=_next_session_id)


@dataclass(frozen=True)
class RejectionReason:
    """Structured load-shedding verdict attached to SHED sessions."""

    code: str                 # e.g. "queue_full"
    detail: str
    queue_depth: int
    queue_capacity: int


@dataclass
class SessionRecord:
    """Everything the server knows about one session."""

    session_id: str
    request: AccessRequest
    state: SessionState = SessionState.QUEUED
    attempts: int = 0
    key: Optional[BitSequence] = None
    failure_reason: Optional[str] = None
    rejection: Optional[RejectionReason] = None
    #: stage -> seconds; keys: queue_wait_s, encode_s, agree_s, total_s,
    #: and protocol_elapsed_s (the simulated protocol timeline).
    timings: Dict[str, float] = field(default_factory=dict)
    #: the session's root tracing span (None when tracing is off).
    trace: Optional[object] = None

    @property
    def success(self) -> bool:
        return self.state is SessionState.ESTABLISHED


class SessionTicket:
    """Caller-side handle: blocks on ``result()`` until terminal.

    Event-driven callers (the network front end's event loop) register
    :meth:`add_done_callback` instead of blocking a thread on
    :meth:`result`; callbacks fire on the thread that completed the
    session, so they must be cheap and must hand real work elsewhere.
    """

    def __init__(self, record: SessionRecord):
        self._record = record
        self._done = threading.Event()
        self._callbacks: List[object] = []
        self._lock = threading.Lock()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float = None) -> SessionRecord:
        if not self._done.wait(timeout):
            raise ServiceError(
                f"session {self._record.session_id} not finished in time"
            )
        return self._record

    def add_done_callback(self, callback) -> None:
        """Call ``callback(record)`` once the session is terminal.

        Fires immediately (on the caller's thread) when the session is
        already done; otherwise fires on the completing thread.  Late
        registrations never get lost — exactly-once per callback.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self._record)

    def _complete(self) -> None:
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
            self._done.set()
        for callback in callbacks:
            callback(self._record)


class SessionManager:
    """Registry + transition enforcement + event emission.

    The registry holds every live session plus the most recent
    :data:`FINISHED_SESSIONS_KEPT` finished ones.
    """

    def __init__(self, metrics: MetricsRegistry, events: EventLog):
        self.metrics = metrics
        self.events = events
        self._records: Dict[str, SessionRecord] = {}
        self._finished: "OrderedDict[str, SessionRecord]" = OrderedDict()
        self._tickets: Dict[str, SessionTicket] = {}
        self._lock = threading.Lock()

    def open(self, request: AccessRequest) -> SessionTicket:
        record = SessionRecord(
            session_id=request.session_id, request=request
        )
        ticket = SessionTicket(record)
        with self._lock:
            if (
                request.session_id in self._records
                or request.session_id in self._finished
            ):
                raise ServiceError(
                    f"duplicate session id {request.session_id!r}"
                )
            self._records[request.session_id] = record
            self._tickets[request.session_id] = ticket
        return ticket

    def _finish(self, record: SessionRecord) -> None:
        """Retire a terminal ``record`` to the bounded ring and release
        its waiting caller."""
        with self._lock:
            ticket = self._tickets.pop(record.session_id, None)
            if self._records.pop(record.session_id, None) is not None:
                # No attempt follows; a networked session's agreement
                # holds its connection (socket, buffers, inbox).
                record.request.agreement_fn = None
                self._finished[record.session_id] = record
                while len(self._finished) > FINISHED_SESSIONS_KEPT:
                    self._finished.popitem(last=False)
        if ticket is not None:
            ticket._complete()

    def transition(
        self, record: SessionRecord, new_state: SessionState, **fields
    ) -> None:
        """Move ``record`` to ``new_state``, emit the event, and update
        counters.  Raises :class:`ServiceError` on an illegal move."""
        old = record.state
        if new_state is not old and new_state not in _LEGAL.get(old, set()):
            raise ServiceError(
                f"illegal transition {old.value} -> {new_state.value} "
                f"for session {record.session_id}"
            )
        record.state = new_state
        self.events.emit(
            new_state.value, session_id=record.session_id, **fields
        )
        if new_state.terminal:
            self.metrics.counter(f"service.{new_state.value}").inc()
            self._finish(record)

    def shed(
        self, request: AccessRequest, rejection: RejectionReason
    ) -> SessionTicket:
        """Open and immediately terminate a session as SHED."""
        ticket = self.open(request)
        record = ticket._record
        record.rejection = rejection
        record.failure_reason = f"{rejection.code}: {rejection.detail}"
        record.state = SessionState.SHED
        self.events.emit(
            SessionState.SHED.value,
            session_id=record.session_id,
            code=rejection.code,
            queue_depth=rejection.queue_depth,
            queue_capacity=rejection.queue_capacity,
        )
        self.metrics.counter("service.shed").inc()
        self._finish(record)
        return ticket

    def abort(self, record: SessionRecord, reason: str) -> None:
        """Force a session to FAILED from *any* non-terminal state.

        Last-resort path for internal server errors; unlike
        :meth:`transition` it skips legality checks so the waiting
        caller is always released.
        """
        if record.state.terminal:
            return
        record.failure_reason = reason
        record.state = SessionState.FAILED
        self.events.emit(
            SessionState.FAILED.value,
            session_id=record.session_id,
            reason=reason,
            aborted=True,
        )
        self.metrics.counter("service.failed").inc()
        self._finish(record)

    def get(self, session_id: str) -> SessionRecord:
        with self._lock:
            record = self._records.get(session_id) or self._finished.get(
                session_id
            )
        if record is None:
            raise ServiceError(f"unknown session {session_id!r}")
        return record

    def records(self) -> List[SessionRecord]:
        """Retained finished sessions (oldest first), then live ones."""
        with self._lock:
            return [*self._finished.values(), *self._records.values()]

    def count(self, state: SessionState) -> int:
        return sum(1 for r in self.records() if r.state is state)
