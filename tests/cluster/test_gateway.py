"""Gateway tests: ring-faithful routing, fleet stats, ejection.

Real sockets on loopback, real backends (tiny bundles, pinned seeds),
fast probe cadence so membership transitions land within seconds."""

import time

import pytest

from repro.cluster import (
    REBALANCE_EVENT,
    ShardRing,
    WaveKeyGateway,
    fetch_stats,
)
from repro.errors import TicketRevoked, TicketUnknown
from repro.net import NetClientConfig, WaveKeyNetClient

from tests.cluster.conftest import Fleet

FAST_PROBES = dict(
    probe_interval_s=0.2,
    probe_timeout_s=1.0,
    probe_fail_threshold=2,
    eject_after_failures=2,
    connect_timeout_s=1.0,
)


def establish(gateway, seed, max_retries=2):
    host, port = gateway.address
    client = WaveKeyNetClient(
        host, port, NetClientConfig(max_retries=max_retries)
    )
    return client.establish(rng_seed=seed)


def wait_for(predicate, timeout_s=8.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


class TestRouting:
    def test_sessions_follow_the_ring(self, fleet):
        with WaveKeyGateway(fleet.addresses, **FAST_PROBES) as gateway:
            reference = ShardRing(fleet.addresses)
            seeds = list(range(20, 32))
            for seed in seeds:
                result = establish(gateway, seed)
                assert result.success, result.failure_reason
            snapshot = gateway.metrics.snapshot()
            expected = {}
            for seed in seeds:
                owner = reference.lookup(f"mobile#{seed}")
                expected[owner] = expected.get(owner, 0) + 1
            for address in fleet.addresses:
                series = f'cluster.sessions.routed{{backend="{address}"}}'
                assert snapshot["counters"].get(series, 0) == (
                    expected.get(address, 0)
                ), "placement must match the reference ring"
            assert gateway.sessions_routed == len(seeds)

    def test_gateway_refuses_when_no_backend_is_reachable(self, fleet):
        # A port from the fleet's range that nothing listens on.
        dead = "127.0.0.1:9"
        gateway = WaveKeyGateway(
            [dead], health_checks=False, connect_timeout_s=1.0
        )
        with gateway:
            result = establish(gateway, seed=5, max_retries=0)
            assert not result.success
            assert "unavailable" in result.failure_reason
            snapshot = gateway.metrics.snapshot()
            assert snapshot["counters"].get("cluster.route.errors", 0) >= 1


class TestAccessRouting:
    """ResumeRequest / RevokeNotice route by ticket identity on the
    ring — not by the Hello-style sender#seed key."""

    def test_resume_and_revoke_through_single_backend_gateway(
        self, tiny_bundle
    ):
        fleet = Fleet(tiny_bundle, 1)
        try:
            with WaveKeyGateway(
                fleet.addresses, health_checks=False, connect_timeout_s=2.0
            ) as gateway:
                host, port = gateway.address
                client = WaveKeyNetClient(
                    host, port, NetClientConfig(max_retries=1)
                )
                result = client.establish(rng_seed=9)
                assert result.success and result.ticket is not None

                with client.open_channel(result.ticket) as channel:
                    assert channel.request("query")["allowed"] is True
                assert client.revoke(result.ticket) is True
                with pytest.raises(TicketRevoked):
                    client.open_channel(result.ticket)

                counters = gateway.metrics.snapshot()["counters"]
                assert counters[
                    'cluster.route.access{kind="resume"}'
                ] == 2
                assert counters[
                    'cluster.route.access{kind="revoke"}'
                ] == 1
        finally:
            fleet.close()

    def test_resume_miss_counts_as_fallback(self, tiny_bundle):
        """A resume the routed backend cannot honour must surface as
        ``cluster.route.resume_fallback`` plus its event — the signal
        operators watch to size replication intervals."""
        from repro.net import ClientTicket

        fleet = Fleet(tiny_bundle, 1)
        backend = fleet.addresses[0]
        try:
            with WaveKeyGateway(
                fleet.addresses, health_checks=False, connect_timeout_s=2.0
            ) as gateway:
                host, port = gateway.address
                client = WaveKeyNetClient(
                    host, port, NetClientConfig(max_retries=1)
                )
                bogus = ClientTicket(
                    ticket_id="00" * 16,
                    resume_secret=b"\x07" * 32,
                    expires_at=0.0,
                    lifetime_s=60.0,
                )
                with pytest.raises(TicketUnknown):
                    client.open_channel(bogus)
                counters = gateway.metrics.snapshot()["counters"]
                assert counters[
                    f'cluster.route.resume_fallback{{backend="{backend}"}}'
                ] == 1
                events = gateway.events.query(
                    kind="cluster_resume_fallback"
                )
                assert events and events[-1].fields["backend"] == backend
                # a revoke miss is the same wire error but NOT a
                # resume fallback — only resumes gate re-establishment
                with pytest.raises(TicketUnknown):
                    client.revoke(bogus)
                counters = gateway.metrics.snapshot()["counters"]
                assert counters[
                    f'cluster.route.resume_fallback{{backend="{backend}"}}'
                ] == 1
        finally:
            fleet.close()

    def test_resume_routing_is_ring_faithful(self, fleet):
        """Across a 3-backend fleet, a resume lands exactly where the
        ring sends ``ticket#<id>``: the issuer answers it, any other
        backend truthfully reports the ticket unknown."""
        reference = ShardRing(fleet.addresses)
        seed = 23
        with WaveKeyGateway(fleet.addresses, **FAST_PROBES) as gateway:
            host, port = gateway.address
            client = WaveKeyNetClient(
                host, port, NetClientConfig(max_retries=1)
            )
            result = client.establish(rng_seed=seed)
            assert result.success and result.ticket is not None
            ticket = result.ticket

            issuer = reference.lookup(f"mobile#{seed}")
            target = reference.lookup(f"ticket#{ticket.ticket_id}")
            if target == issuer:
                with client.open_channel(ticket) as channel:
                    assert channel.request("ping")["pong"] is True
            else:
                # This fleet does not replicate ticket state (see
                # tests/replica for fleets that do): a non-issuer
                # backend answers with the typed unknown error, the
                # client's cue to fall back to full establishment.
                with pytest.raises(TicketUnknown):
                    client.open_channel(ticket)
                fallback_counters = gateway.metrics.snapshot()["counters"]
                assert fallback_counters[
                    f'cluster.route.resume_fallback{{backend="{target}"}}'
                ] == 1
                fallback = client.establish(rng_seed=seed)
                assert fallback.success

            counters = gateway.metrics.snapshot()["counters"]
            assert counters['cluster.route.access{kind="resume"}'] == 1
            routed = counters.get(
                f'cluster.sessions.routed{{backend="{target}"}}', 0
            )
            assert routed >= 1, "resume must dial the ring owner"


class TestFleetStats:
    def test_backend_and_gateway_stats_roles(self, fleet):
        host, port = fleet.backends[0][1].address
        backend_doc = fetch_stats(host, port)
        assert backend_doc["role"] == "backend"
        assert backend_doc["queue_capacity"] > 0
        with WaveKeyGateway(fleet.addresses, **FAST_PROBES) as gateway:
            for seed in (41, 42, 43):
                assert establish(gateway, seed).success
            # One probe cycle populates every backend's scrape.
            assert wait_for(lambda: all(
                state.snapshot is not None
                for state in gateway.backend_states().values()
            ))
            # Scrapes refresh on the probe cadence, and a session can
            # finish faster than one probe interval — wait until the
            # last admission has been folded into the fleet view.
            assert wait_for(
                lambda: fetch_stats(*gateway.address)["snapshot"][
                    "counters"
                ].get("service.admitted", 0) >= 3
            )
            doc = fetch_stats(*gateway.address)
        assert doc["role"] == "gateway"
        assert doc["ring_size"] == 3
        entries = {e["backend"]: e for e in doc["backends"]}
        assert set(entries) == set(fleet.addresses)
        assert all(e["in_ring"] for e in entries.values())
        assert sum(e["share"] for e in entries.values()) == pytest.approx(
            1.0, abs=0.01
        )
        assert sum(e["sessions_routed"] for e in entries.values()) == 3
        merged = doc["snapshot"]
        routed = sum(
            count for series, count in merged["counters"].items()
            if series.startswith("cluster.sessions.routed")
        )
        assert routed == 3
        # The fleet view folds the backends' own service metrics in.
        assert merged["counters"].get("service.admitted", 0) >= 3
        assert any(
            series.startswith("cluster.session_s")
            for series in merged["histograms"]
        )


class TestMembership:
    def test_killed_backend_is_ejected_and_traffic_survives(self, fleet):
        with WaveKeyGateway(fleet.addresses, **FAST_PROBES) as gateway:
            assert establish(gateway, seed=7).success
            victim_key = fleet.addresses[0]
            fleet.kill(0)
            assert wait_for(lambda: any(
                e.fields.get("action") == "eject"
                and e.fields.get("backend") == victim_key
                for e in gateway.events.query(kind=REBALANCE_EVENT)
            )), "probes must eject the dead backend"
            doc = fetch_stats(*gateway.address)
            assert doc["ring_size"] == 2
            survivors = [
                e for e in doc["backends"] if e["backend"] != victim_key
            ]
            assert sum(e["share"] for e in survivors) == pytest.approx(
                1.0, abs=0.01
            )
            # Every post-rebalance session must route cleanly.
            before = gateway.metrics.snapshot()["counters"]
            for seed in range(60, 72):
                result = establish(gateway, seed)
                assert result.success, result.failure_reason
            after = gateway.metrics.snapshot()["counters"]
            assert after.get("cluster.route.errors", 0) == before.get(
                "cluster.route.errors", 0
            ), "no routing errors after the ring rebalanced"
            assert after.get(
                f'cluster.sessions.routed{{backend="{victim_key}"}}', 0
            ) == before.get(
                f'cluster.sessions.routed{{backend="{victim_key}"}}', 0
            ), "nothing routes to an ejected backend"

    def test_recovered_backend_rejoins_the_ring(self, fleet):
        with WaveKeyGateway(fleet.addresses, **FAST_PROBES) as gateway:
            victim_key = fleet.addresses[1]
            address = fleet.kill(1)
            assert wait_for(
                lambda: victim_key not in [
                    k for k, s in gateway.backend_states().items()
                    if s.in_ring
                ]
            )
            fleet.revive(1, address)
            assert wait_for(
                lambda: gateway.backend_states()[victim_key].in_ring
            ), "a healthy probe must re-admit the backend"
            joins = [
                e for e in gateway.events.query(kind=REBALANCE_EVENT)
                if e.fields.get("action") == "join"
                and e.fields.get("backend") == victim_key
                and e.fields.get("reason") == "probe-recovered"
            ]
            assert joins, "re-admission must be logged as a rebalance"


class TestSelectionPolicy:
    """Pure selection-logic tests over hand-set backend states."""

    @pytest.fixture
    def gateway(self):
        # Never started: only _select_backend and the ring are used.
        gateway = WaveKeyGateway(
            ["10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"],
            spill_inflight=2,
            shed_penalty=2,
            health_checks=False,
        )
        for backend in gateway._backends.values():
            gateway._ring.add(backend.key)
            backend.in_ring = True
        return gateway

    def _order(self, gateway, key="mobile#1"):
        return gateway._ring.candidates(key)

    def test_prefers_the_ring_owner(self, gateway):
        first = self._order(gateway)[0]
        chosen = gateway._select_backend("mobile#1", set())
        assert chosen.key == first

    def test_spills_when_owner_is_saturated(self, gateway):
        order = self._order(gateway)
        gateway._backends[order[0]].in_flight = 2  # == spill_inflight
        chosen = gateway._select_backend("mobile#1", set())
        assert chosen.key == order[1]
        counters = gateway.metrics.snapshot()["counters"]
        assert counters.get("cluster.route.spill", 0) == 1

    def test_shed_penalty_steers_away(self, gateway):
        order = self._order(gateway)
        gateway._backends[order[0]].shed_score = 2  # == shed_penalty
        chosen = gateway._select_backend("mobile#1", set())
        assert chosen.key == order[1]

    def test_all_saturated_takes_least_loaded(self, gateway):
        order = self._order(gateway)
        for key, in_flight in zip(order, (4, 2, 3)):
            gateway._backends[key].in_flight = in_flight
        chosen = gateway._select_backend("mobile#1", set())
        assert chosen.key == order[1]

    def test_exclusion_and_exhaustion(self, gateway):
        order = self._order(gateway)
        assert gateway._select_backend(
            "mobile#1", {order[0]}
        ).key == order[1]
        assert gateway._select_backend("mobile#1", set(order)) is None

    def test_ejected_backends_are_never_selected(self, gateway):
        order = self._order(gateway)
        gateway._ring.remove(order[0])
        gateway._backends[order[0]].in_ring = False
        chosen = gateway._select_backend("mobile#1", set())
        assert chosen.key != order[0]
