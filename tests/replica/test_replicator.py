"""Replicator engine tests at the frame level.

Two engines exchange ``REPL_*`` frames through :meth:`Replicator.handle`
exactly as the front end dispatches them, covering the convergence
scenarios the wire tests cannot isolate: a rejoining node catching up
via digest pull, two partitions healing to one state, and the refusal
paths (invalid payloads, replication disabled).  One socket per test
in :class:`TestFrontEndDispatch` pins that the server's first-frame
dispatch reaches the engine."""

import json

import pytest

from repro.access.store import KeyStore
from repro.errors import TicketRevoked, TicketUnknown
from repro.net import WaveKeyTCPServer
from repro.net.codec import ErrorFrame, ReplDigest, ReplPull, ReplPush
from repro.net.connection import connect
from repro.obs.metrics import MetricsRegistry
from repro.replica import Replicator

from tests.net.conftest import make_access_server

SECRET = b"\x33" * 32


@pytest.fixture
def node_factory():
    nodes = []

    def make(key, **kwargs):
        metrics = MetricsRegistry()
        store = KeyStore(ttl_s=600.0, metrics=metrics)
        replicator = Replicator(
            store,
            anti_entropy_interval_s=60.0,  # threads stay idle
            metrics=metrics,
            **kwargs,
        )
        replicator.start(self_key=key)
        nodes.append(replicator)
        return store, replicator

    yield make
    for replicator in nodes:
        replicator.stop()


def pull_round(source, sink):
    """One sink-initiated anti-entropy round, handle-level.

    Mirrors :meth:`Replicator.sync_with`: the sink pulls the suffix it
    lacks (the source's digest rides the reply), then pushes back what
    the source lacks."""
    reply = source.handle(ReplPull(
        sender=sink.origin,
        payload_json=json.dumps({"digest": sink.log.digest()}),
    ))
    assert isinstance(reply, ReplPush), reply
    document = json.loads(reply.payload_json)
    sink.log.ingest_documents(document["entries"])
    missing = sink.log.missing_for(document["digest"])
    if missing:
        ack = source.handle(ReplPush(
            sender=sink.origin,
            payload_json=json.dumps(
                {"entries": [e.to_doc() for e in missing]}
            ),
        ))
        assert isinstance(ack, ReplDigest)


class TestCatchUp:
    def test_rejoining_node_catches_up_by_digest_pull(self, node_factory):
        a_store, a = node_factory("127.0.0.1:7001")
        tickets = [a_store.issue(SECRET, peer="m") for _ in range(3)]
        a_store.revoke(tickets[0].ticket_id)

        b_store, b = node_factory("127.0.0.1:7002")
        pull_round(a, b)

        assert b.log.digest() == a.log.digest()
        with pytest.raises(TicketRevoked):
            b_store.resume(tickets[0].ticket_id)
        for ticket in tickets[1:]:
            resumed = b_store.resume(ticket.ticket_id)
            assert resumed.resume_secret == SECRET

    def test_second_round_ships_nothing(self, node_factory):
        a_store, a = node_factory("127.0.0.1:7001")
        a_store.issue(SECRET, peer="m")
        _, b = node_factory("127.0.0.1:7002")
        pull_round(a, b)
        reply = a.handle(ReplPull(
            sender=b.origin,
            payload_json=json.dumps({"digest": b.log.digest()}),
        ))
        assert json.loads(reply.payload_json)["entries"] == []


class TestPartitionHeal:
    def test_divergent_nodes_converge_both_ways(self, node_factory):
        a_store, a = node_factory("127.0.0.1:7001")
        b_store, b = node_factory("127.0.0.1:7002")
        # partition: each side mutates alone
        ticket_a = a_store.issue(SECRET, peer="m")
        ticket_b = b_store.issue(SECRET, peer="m")
        # B revokes A's ticket it has never seen (client carried the
        # id across the partition) — tombstone-before-grant on B
        b_store.revoke(ticket_a.ticket_id)

        pull_round(a, b)  # heal: B pulls from A, pushes its own back
        assert a.log.digest() == b.log.digest()

        for store in (a_store, b_store):
            with pytest.raises(TicketRevoked):
                store.resume(ticket_a.ticket_id)
            assert store.resume(ticket_b.ticket_id) is not None

    def test_heal_is_idempotent(self, node_factory):
        a_store, a = node_factory("127.0.0.1:7001")
        b_store, b = node_factory("127.0.0.1:7002")
        ticket = a_store.issue(SECRET, peer="m")
        for _ in range(3):
            pull_round(a, b)
        assert b.log.entries_held() == a.log.entries_held() == 1
        assert b_store.resume(ticket.ticket_id).resumed == 1


class TestHandleSurface:
    def test_digest_probe_answers_status(self, node_factory):
        a_store, a = node_factory(
            "127.0.0.1:7001", peers=["127.0.0.1:7002"]
        )
        a_store.issue(SECRET, peer="m")
        reply = a.handle(ReplDigest(sender="probe", payload_json="{}"))
        assert isinstance(reply, ReplDigest)
        document = json.loads(reply.payload_json)
        assert document["origin"] == a.origin
        assert document["entries"] == 1
        assert document["peers"] == ["127.0.0.1:7002"]
        assert document["digest"] == {a.origin: 1}

    @pytest.mark.parametrize("payload", [
        "[]",                                  # not an object
        json.dumps({"digest": {"a": -2}}),     # negative high-water
    ])
    def test_invalid_pull_payload_refused(self, node_factory, payload):
        _, a = node_factory("127.0.0.1:7001")
        reply = a.handle(ReplPull(sender="x", payload_json=payload))
        assert isinstance(reply, ErrorFrame)
        assert reply.code == "replication_invalid"

    def test_push_without_entry_list_refused(self, node_factory):
        _, a = node_factory("127.0.0.1:7001")
        reply = a.handle(ReplPush(sender="x", payload_json="{}"))
        assert isinstance(reply, ErrorFrame)
        assert reply.code == "replication_invalid"

    def test_tampered_entries_are_dropped_not_fatal(self, node_factory):
        a_store, a = node_factory("127.0.0.1:7001")
        b_store, b = node_factory("127.0.0.1:7002")
        ticket = b_store.issue(SECRET, peer="m")
        docs = [e.to_doc() for e in b.log.missing_for({})]
        forged = dict(docs[0])
        forged["ticket_id"] = "f" * 32  # id no longer matches content
        reply = a.handle(ReplPush(
            sender=b.origin,
            payload_json=json.dumps({"entries": [forged, docs[0]]}),
        ))
        assert isinstance(reply, ReplDigest)  # batch survived
        assert a_store.peek(ticket.ticket_id) is not None
        assert a_store.peek("f" * 32) is None


class TestFrontEndDispatch:
    @staticmethod
    def ask_digest(tcp):
        conn = connect(*tcp.address, read_timeout_s=5.0)
        try:
            conn.send(ReplDigest(sender="probe", payload_json="{}"))
            return conn.recv()
        finally:
            conn.close()

    def test_non_replicating_front_end_refuses(self, tiny_bundle):
        with make_access_server(tiny_bundle) as access:
            with WaveKeyTCPServer(access) as tcp:
                reply = self.ask_digest(tcp)
        assert isinstance(reply, ErrorFrame)
        assert reply.code == "replication_disabled"
        counters = access.metrics.snapshot()["counters"]
        assert counters['replica.requests{outcome="disabled"}'] == 1

    def test_replicating_front_end_delegates(self, tiny_bundle):
        with make_access_server(tiny_bundle) as access:
            store = KeyStore(metrics=access.metrics)
            replicator = Replicator(store, anti_entropy_interval_s=60.0)
            with WaveKeyTCPServer(
                access, key_store=store, replicator=replicator
            ) as tcp:
                reply = self.ask_digest(tcp)
        assert isinstance(reply, ReplDigest)
        assert reply.sender == replicator.origin
