"""Replication convergence and overhead benchmarks.

The replica tier's two operational claims, measured over real sockets
on a three-backend mesh (tiny bundles, pinned seeds, so protocol
compute is small and constant across arms):

* **revocation latency** — a revocation issued on one backend while
  establishment load runs must be rejected by *every* backend within
  two anti-entropy rounds (``2 * interval``).  In practice the eager
  all-peer push lands it in milliseconds; the two-round bound is the
  worst case the design guarantees when pushes are lost.
* **establishment overhead** — replication rides the grant path as one
  in-memory log append plus an off-thread push enqueue; sequential
  establishment throughput with replication on must stay within 10%
  of the same fleet with it off (plus a small absolute allowance for
  1-core scheduler jitter on short runs).

Scaling: throughput sessions multiply by ``WAVEKEY_BENCH_SCALE``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_scale, pin_seeds
from repro.access.store import KeyStore
from repro.analysis import format_table
from repro.core.models import (
    WaveKeyModelBundle,
    build_decoder,
    build_imu_encoder,
    build_rf_encoder,
)
from repro.errors import TicketRevoked
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.replica import Replicator
from repro.service import ServiceConfig, WaveKeyAccessServer
from repro.utils.bits import BitSequence

#: Anti-entropy cadence under test; the claim is convergence < 2x this.
INTERVAL_S = 0.5

_PINNED_SEED = BitSequence.random(32, np.random.default_rng(61_001))

CLIENT_CFG = NetClientConfig(read_timeout_s=30.0)


def _tiny_bundle():
    return WaveKeyModelBundle(
        imu_encoder=build_imu_encoder(6, rng=0),
        rf_encoder=build_rf_encoder(6, rng=1),
        decoder=build_decoder(6, rng=2),
        n_bins=8,
        eta=0.2,
    )


def _fixed_acquire(request, rng):
    gen = np.random.default_rng(request.rng_seed)
    a_matrix = gen.normal(size=(50, 3))
    r_matrix = np.stack(
        [
            gen.uniform(-np.pi, np.pi, 100),
            np.abs(gen.normal(size=100)) + 0.5,
        ],
        axis=1,
    )
    return a_matrix, r_matrix


def _spawn_fleet(n, *, replicate, interval_s=INTERVAL_S):
    bundle = _tiny_bundle()
    fleet = []
    for _ in range(n):
        access = WaveKeyAccessServer(
            bundle, ServiceConfig(workers=2), acquire_fn=_fixed_acquire
        )
        access.start()
        pin_seeds(access, _PINNED_SEED)
        store = KeyStore(ttl_s=600.0, metrics=access.metrics)
        replicator = (
            Replicator(store, anti_entropy_interval_s=interval_s)
            if replicate
            else None
        )
        tcp = WaveKeyTCPServer(
            access, "127.0.0.1", 0, key_store=store, replicator=replicator
        )
        tcp.start()
        fleet.append((access, tcp, replicator))
    addresses = [
        f"{tcp.address[0]}:{tcp.address[1]}" for _, tcp, _ in fleet
    ]
    for _, tcp, replicator in fleet:
        if replicator is not None:
            self_key = f"{tcp.address[0]}:{tcp.address[1]}"
            replicator.set_peers(
                [a for a in addresses if a != self_key]
            )
    return fleet, addresses


def _close_fleet(fleet):
    for access, tcp, _ in fleet:
        tcp.stop()
        access.stop()


def _client(address):
    host, _, port = address.rpartition(":")
    return WaveKeyNetClient(host, int(port), CLIENT_CFG)


def _wait_for(predicate, timeout_s, detail):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {detail}")


def test_revocation_propagates_within_two_rounds():
    fleet, addresses = _spawn_fleet(3, replicate=True)
    stop = threading.Event()

    def establishment_load(address, seed_base):
        seed = seed_base
        while not stop.is_set():
            _client(address).establish(rng_seed=seed)
            seed += 1

    workers = [
        threading.Thread(
            target=establishment_load,
            args=(addresses[i], 7000 + 1000 * i),
            daemon=True,
        )
        for i in range(2)
    ]
    try:
        for worker in workers:
            worker.start()

        result = _client(addresses[0]).establish(rng_seed=11)
        assert result.success and result.ticket is not None
        ticket = result.ticket
        _wait_for(
            lambda: all(
                tcp.key_store.peek(ticket.ticket_id) is not None
                for _, tcp, _ in fleet
            ),
            timeout_s=10.0,
            detail="the grant to replicate to every backend",
        )

        def rejected(tcp):
            try:
                tcp.key_store.resume(ticket.ticket_id)
            except TicketRevoked:
                return True
            except Exception:
                return False
            return False

        start = time.perf_counter()
        assert _client(addresses[1]).revoke(ticket) is True
        elapsed = {}
        deadline = start + 2 * INTERVAL_S + 5.0  # measure past the bound
        pending = {i for i in range(3)}
        while pending and time.perf_counter() < deadline:
            for index in sorted(pending):
                if rejected(fleet[index][1]):
                    elapsed[index] = time.perf_counter() - start
                    pending.discard(index)
            time.sleep(0.001)
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=30.0)
        _close_fleet(fleet)

    assert not pending, f"backends {sorted(pending)} never saw the revoke"
    print()
    print(format_table(
        ["backend", "revocation visible after (ms)"],
        [
            [addresses[i], f"{1000 * elapsed[i]:.1f}"]
            for i in sorted(elapsed)
        ],
        title=(
            "revocation propagation under establishment load "
            f"(anti-entropy interval {INTERVAL_S}s, bound "
            f"{2 * INTERVAL_S}s)"
        ),
    ))
    worst = max(elapsed.values())
    assert worst < 2 * INTERVAL_S, (
        f"slowest backend saw the revocation after {worst:.3f}s; the "
        f"design bound is 2 rounds = {2 * INTERVAL_S}s"
    )


def test_replication_overhead_on_establishment_throughput():
    n = 6 * bench_scale()
    means = {}
    for label, replicate in (("off", False), ("on", True)):
        fleet, addresses = _spawn_fleet(3, replicate=replicate)
        try:
            warmup = _client(addresses[0]).establish(rng_seed=4999)
            assert warmup.success
            start = time.perf_counter()
            results = [
                _client(addresses[0]).establish(rng_seed=5000 + i)
                for i in range(n)
            ]
            means[label] = (time.perf_counter() - start) / n
        finally:
            _close_fleet(fleet)
        assert all(r.success for r in results), label

    print()
    print(format_table(
        ["replication", "per session (ms)", "sessions/s"],
        [
            [label, f"{1000 * mean:.1f}", f"{1 / mean:.1f}"]
            for label, mean in means.items()
        ],
        title=(
            f"establishment throughput, {n} sequential sessions "
            "against one backend of a 3-backend fleet"
        ),
    ))

    # The grant path's replication cost is one log append plus a
    # queue put; the pushes themselves ride a worker thread.  Within
    # 10%, plus a small absolute allowance for scheduler jitter.
    assert means["on"] <= 1.10 * means["off"] + 0.050, (
        f"replication on {means['on'] * 1000:.1f} ms/session vs "
        f"off {means['off'] * 1000:.1f} ms/session"
    )
