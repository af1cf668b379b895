"""Secure-access E2E over real sockets.

Acceptance flow from the PR issue: establish -> ticket grant -> resume
over a new connection -> authenticated ops -> revoke -> rejected
reconnect, plus the adversarial wire cases (replayed records, expired
tickets, forged revocations) and journal-backed server restart.
"""

import pytest

from repro.access.journal import TicketJournal
from repro.access.records import derive_channel_keys, derive_resume_secret
from repro.access.store import KeyStore
from repro.errors import (
    AccessError,
    TicketError,
    TicketExpired,
    TicketRevoked,
    TicketUnknown,
)
from repro.net import (
    ClientTicket,
    NetClientConfig,
    WaveKeyNetClient,
    WaveKeyTCPServer,
)
from repro.net.codec import (
    ErrorFrame,
    RecordFrame,
    ResumeAccept,
    ResumeRequest,
    RevokeNotice,
)
from repro.net.connection import connect
from repro.obs import MetricsRegistry, Tracer

from tests.net.conftest import make_access_server, matched_seed, pin_seeds

CLIENT_CFG = NetClientConfig(
    read_timeout_s=5.0, max_retries=1, backoff_initial_s=0.01
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def establish_with_ticket(tcp, metrics=None, tracer=None, rng_seed=11):
    host, port = tcp.address
    client = WaveKeyNetClient(
        host, port, CLIENT_CFG, metrics=metrics, tracer=tracer
    )
    result = client.establish(rng_seed=rng_seed)
    assert result.success
    assert result.ticket is not None, "no TicketGrant arrived"
    return client, result


def test_establish_resume_ops_revoke(tiny_bundle):
    """The full acceptance loop on the event-loop server."""
    metrics = MetricsRegistry()
    tracer = Tracer()
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access) as tcp:
            client, result = establish_with_ticket(
                tcp, metrics=metrics, tracer=tracer
            )
            ticket = result.ticket
            assert ticket.lifetime_s > 0
            assert ticket.server == "%s:%d" % tcp.address

            # the secret is derived, never wire-carried
            assert ticket.resume_secret == derive_resume_secret(
                result.key.to_bytes()
            )

            with client.open_channel(ticket) as channel:
                query = channel.request("query", target="door")
                assert query["allowed"] and query["peer"] == "mobile"
                assert query["resumed"] == 1
                opened = channel.request("open", target="door")
                assert opened["ok"] and opened["opened"]

            # second resumption of the same ticket works too
            with client.open_channel(ticket) as channel:
                assert channel.request("ping")["pong"] is True

            assert client.revoke(ticket) is True
            with pytest.raises(TicketRevoked):
                client.open_channel(ticket)

        counters = metrics.snapshot()["counters"]
        assert counters["access.client.grants"] == 1
        assert counters["access.client.resumed"] == 2
        assert counters["access.client.revoked"] == 1
        assert counters[
            'access.client.resume_rejected{code="ticket_revoked"}'
        ] == 1
        span_names = {s.name for s in tracer.finished_spans()}
        assert "access.resume" in span_names

    server_counters = access.metrics.snapshot()["counters"]
    assert server_counters["access.grants"] == 1
    assert server_counters['access.resume{outcome="ok"}'] == 2
    assert server_counters['access.ops{op="query",role="server"}'] == 1


def test_unknown_ticket_rejected(tiny_bundle):
    with make_access_server(tiny_bundle) as access:
        with WaveKeyTCPServer(access) as tcp:
            host, port = tcp.address
            client = WaveKeyNetClient(host, port, CLIENT_CFG)
            bogus = ClientTicket(
                ticket_id="00" * 16,
                resume_secret=b"\x07" * 32,
                expires_at=0.0,
                lifetime_s=60.0,
            )
            with pytest.raises(TicketUnknown):
                client.open_channel(bogus)


def test_expired_ticket_rejected(tiny_bundle):
    clock = FakeClock()
    store = KeyStore(ttl_s=30.0, clock=clock)
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, key_store=store) as tcp:
            client, result = establish_with_ticket(tcp)
            clock.now += 31.0
            with pytest.raises(TicketExpired):
                client.open_channel(result.ticket)


def test_forged_revocation_rejected(tiny_bundle):
    """A RevokeNotice without the ticket's revocation key must not
    kill the ticket."""
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access) as tcp:
            client, result = establish_with_ticket(tcp)
            ticket = result.ticket
            forged = ClientTicket(
                ticket_id=ticket.ticket_id,
                resume_secret=b"\x66" * 32,  # wrong secret
                expires_at=ticket.expires_at,
                lifetime_s=ticket.lifetime_s,
            )
            with pytest.raises(TicketError, match="revoke_auth"):
                client.revoke(forged)
            # the genuine ticket still resumes
            with client.open_channel(ticket) as channel:
                assert channel.request("ping")["pong"] is True


def test_replayed_record_rejected_over_wire(tiny_bundle):
    """Capture one sealed record and feed it twice: the server must
    reject the copy with a typed wire error and drop the channel."""
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access) as tcp:
            client, result = establish_with_ticket(tcp)
            ticket = result.ticket

            host, port = tcp.address
            conn = connect(host, port, timeout_s=5.0, read_timeout_s=5.0)
            try:
                client_nonce = b"\x21" * 16
                conn.send(ResumeRequest(
                    sender="mobile",
                    ticket_id=ticket.ticket_id,
                    client_nonce=client_nonce,
                ))
                accept = conn.recv()
                assert isinstance(accept, ResumeAccept)
                from repro.access.channel import ClientAccessChannel, encode_op

                _, records = ClientAccessChannel.complete_handshake(
                    ticket.resume_secret, client_nonce, accept
                )
                record = records.seal(encode_op("ping"))
                conn.send(record)
                reply = conn.recv()
                assert isinstance(reply, RecordFrame)

                conn.send(record)  # verbatim replay
                answer = conn.recv()
                assert isinstance(answer, ErrorFrame)
                assert answer.code == "record_rejected"
            finally:
                conn.close()

    counters = access.metrics.snapshot()["counters"]
    assert counters["access.records_rejected"] >= 1


def test_cross_channel_record_rejected(tiny_bundle):
    """A record sealed for one resumption fails authentication when
    injected into a different resumption of the same ticket."""
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access) as tcp:
            client, result = establish_with_ticket(tcp)
            ticket = result.ticket

            from repro.access.channel import encode_op
            from repro.access.records import CLIENT, RecordChannel

            stale_keys = derive_channel_keys(
                ticket.resume_secret, b"\x01" * 16, b"\x02" * 16
            )
            stale = RecordChannel(stale_keys, CLIENT).seal(encode_op("ping"))

            channel = client.open_channel(ticket)
            try:
                channel.conn.send(stale)
                answer = channel.conn.recv()
                assert isinstance(answer, ErrorFrame)
                assert answer.code == "record_rejected"
            finally:
                channel.conn.close()


def test_journal_recovery_across_restart(tiny_bundle, tmp_path):
    """Kill the server, restart with the same journal: live tickets
    keep resuming, revoked tickets stay dead."""
    journal_path = str(tmp_path / "tickets.journal")

    store = KeyStore(journal=TicketJournal(journal_path))
    store.recover()
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, matched_seed())
        with WaveKeyTCPServer(access, key_store=store) as tcp:
            client, live_result = establish_with_ticket(tcp)
            _, dead_result = establish_with_ticket(tcp, rng_seed=12)
            client.revoke(dead_result.ticket)
        store.close()

        # --- restart: fresh store, fresh server, same journal --------
        reborn = KeyStore(journal=TicketJournal(journal_path))
        assert reborn.recover() == 1
        with WaveKeyTCPServer(access, key_store=reborn) as tcp:
            host, port = tcp.address
            client = WaveKeyNetClient(host, port, CLIENT_CFG)
            with client.open_channel(live_result.ticket) as channel:
                reply = channel.request("query", target="door")
                assert reply["allowed"] is True
            with pytest.raises(TicketRevoked):
                client.open_channel(dead_result.ticket)
        reborn.close()


def test_client_ticket_json_roundtrip():
    ticket = ClientTicket(
        ticket_id="cd" * 16,
        resume_secret=b"\x55" * 32,
        expires_at=1.7e9,
        lifetime_s=3600.0,
        server="10.0.0.1:4321",
    )
    assert ClientTicket.from_json(ticket.to_json()) == ticket
    with pytest.raises(AccessError, match="malformed"):
        ClientTicket.from_json('{"ticket_id": "x"}')
