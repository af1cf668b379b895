"""Unit tests for session state management."""

import pytest

from repro.errors import ServiceError
from repro.obs import EventLog, MetricsRegistry
from repro.service import sessions
from repro.service.sessions import (
    AccessRequest,
    RejectionReason,
    SessionManager,
    SessionState,
)


@pytest.fixture()
def manager():
    return SessionManager(MetricsRegistry(), EventLog())


def make_request(seed=0, session_id=None):
    if session_id is not None:
        return AccessRequest(rng_seed=seed, session_id=session_id)
    return AccessRequest(rng_seed=seed)


class TestTransitions:
    def test_happy_path_and_ticket_completion(self, manager):
        ticket = manager.open(make_request())
        record = ticket._record
        assert record.state is SessionState.QUEUED
        assert not ticket.done()
        for state in (
            SessionState.ENCODING,
            SessionState.AGREEING,
            SessionState.ESTABLISHED,
        ):
            manager.transition(record, state)
        assert ticket.done()
        assert record.success
        assert manager.metrics.counter("service.established").value == 1

    def test_illegal_transition_raises(self, manager):
        record = manager.open(make_request())._record
        with pytest.raises(ServiceError, match="illegal transition"):
            manager.transition(record, SessionState.AGREEING)

    def test_retry_loops_are_legal(self, manager):
        record = manager.open(make_request())._record
        manager.transition(record, SessionState.ENCODING)
        manager.transition(record, SessionState.ENCODING)  # acquire retry
        manager.transition(record, SessionState.AGREEING)
        manager.transition(record, SessionState.ENCODING)  # agreement retry
        assert record.state is SessionState.ENCODING

    def test_transitions_emit_events(self, manager):
        record = manager.open(make_request())._record
        manager.transition(record, SessionState.ENCODING, attempt=1)
        events = manager.events.query(
            kind="encoding", session_id=record.session_id
        )
        assert len(events) == 1
        assert events[0].fields["attempt"] == 1

    def test_result_blocks_until_terminal(self, manager):
        ticket = manager.open(make_request())
        with pytest.raises(ServiceError, match="not finished"):
            ticket.result(timeout=0.01)


class TestShedAndAbort:
    def test_shed_is_immediately_terminal(self, manager):
        rejection = RejectionReason(
            code="queue_full", detail="full", queue_depth=4, queue_capacity=4
        )
        ticket = manager.shed(make_request(), rejection)
        record = ticket.result(timeout=1.0)
        assert record.state is SessionState.SHED
        assert record.rejection.code == "queue_full"
        assert record.rejection.queue_depth == 4
        assert manager.metrics.counter("service.shed").value == 1
        events = manager.events.query(kind="shed")
        assert events and events[0].fields["code"] == "queue_full"

    def test_abort_from_any_state(self, manager):
        ticket = manager.open(make_request())
        record = ticket._record  # still QUEUED: FAILED is not legal here
        manager.abort(record, "internal: worker crashed")
        assert record.state is SessionState.FAILED
        assert ticket.result(timeout=1.0).failure_reason.startswith(
            "internal:"
        )

    def test_abort_ignores_terminal_sessions(self, manager):
        rejection = RejectionReason("queue_full", "full", 1, 1)
        record = manager.shed(make_request(), rejection)._record
        manager.abort(record, "should not apply")
        assert record.state is SessionState.SHED


class TestRegistry:
    def test_duplicate_session_id_rejected(self, manager):
        manager.open(make_request(session_id="dup"))
        with pytest.raises(ServiceError, match="duplicate"):
            manager.open(make_request(session_id="dup"))

    def test_get_and_count(self, manager):
        record = manager.open(make_request())._record
        assert manager.get(record.session_id) is record
        assert manager.count(SessionState.QUEUED) == 1
        with pytest.raises(ServiceError, match="unknown session"):
            manager.get("nope")

    def test_registry_keeps_live_and_recent_finished_sessions(
        self, manager, monkeypatch
    ):
        monkeypatch.setattr(sessions, "FINISHED_SESSIONS_KEPT", 2)
        live = manager.open(make_request())._record
        finished = []
        for seed in range(4):
            request = AccessRequest(rng_seed=seed, agreement_fn=object())
            record = manager.open(request)._record
            manager.abort(record, "done")
            finished.append(record)
        assert manager.records() == [*finished[-2:], live]
        assert manager.get(live.session_id) is live
        assert manager.get(finished[-1].session_id) is finished[-1]
        with pytest.raises(ServiceError, match="unknown session"):
            manager.get(finished[0].session_id)
        # a finished session no longer holds its agreement (and through
        # it, a networked session's connection)
        assert all(r.request.agreement_fn is None for r in finished)

    def test_session_ids_are_unique(self):
        ids = {make_request().session_id for _ in range(100)}
        assert len(ids) == 100
