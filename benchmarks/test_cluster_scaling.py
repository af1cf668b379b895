"""Horizontal-scaling benchmarks for the sharding gateway.

A single Python backend is serial where it matters: acquisition and
protocol compute run under the access server's compute lock, so one
process's session throughput is bounded no matter how many clients
connect.  The gateway's claim is that backends shard that bound.

These benchmarks make the bound explicit and *wait-dominated* so they
measure routing, not host core count (CI runs on one core, where
CPU-bound work cannot scale): every backend's ``acquire_fn`` sleeps
``ACQUIRE_S`` under the compute lock — the serial floor per backend —
while seeds are pinned and bundles are tiny, so protocol compute is
negligible against it.

* **throughput scaling** — the same concurrent offered load against a
  1-backend and a 3-backend gateway: 3 backends must clear >= 2.5x the
  single-backend session throughput (ideal 3.0x; the gap is gateway
  overhead plus the GIL-bound protocol remainder);
* **mid-run backend kill** — a backend dies while sessions are in
  flight: every session must still complete (SDK transport retries
  plus gateway dial failover), the prober must emit a
  ``cluster.ring.rebalance`` ejection, surviving shares must cover the
  keyspace, and a post-rebalance wave must route with zero errors.

Scaling: session counts multiply by ``WAVEKEY_BENCH_SCALE``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_scale, pin_seeds
from repro.analysis import format_table
from repro.cluster import (
    REBALANCE_EVENT,
    ShardRing,
    WaveKeyGateway,
    fetch_stats,
)
from repro.core.models import (
    WaveKeyModelBundle,
    build_decoder,
    build_imu_encoder,
    build_rf_encoder,
)
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.service import ServiceConfig, WaveKeyAccessServer
from repro.utils.bits import BitSequence

ACQUIRE_S = 0.6     # serial floor per session per backend (GIL released)
CONCURRENCY = 12    # offered all at once: every backend's queue stays
                    # full, so per-backend walls have no idle gaps

# Short seeds keep the OT modexp count (one instance per key bit) small
# enough that per-session compute (~35 ms, GIL-bound) stays well under
# the acquisition wait, which is what actually shards across backends.
_PINNED_SEED = BitSequence.random(4, np.random.default_rng(52_001))


def _tiny_bundle():
    return WaveKeyModelBundle(
        imu_encoder=build_imu_encoder(6, rng=0),
        rf_encoder=build_rf_encoder(6, rng=1),
        decoder=build_decoder(6, rng=2),
        n_bins=8,
        eta=0.2,
    )


def _sleeping_acquire(request, rng):
    """Deterministic windows after a fixed wait: time.sleep drops the
    GIL, so backends wait in parallel while one core hosts them all."""
    time.sleep(ACQUIRE_S)
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


def _spawn_backend(bundle):
    access = WaveKeyAccessServer(
        bundle,
        ServiceConfig(workers=1, max_attempts=1),
        acquire_fn=_sleeping_acquire,
    )
    access.start()
    pin_seeds(access, _PINNED_SEED)
    tcp = WaveKeyTCPServer(access, "127.0.0.1", 0)
    tcp.start()
    return access, tcp


def _balanced_seeds(addresses, n_sessions, start=10_000):
    """Seeds whose ring placement spreads evenly over ``addresses``.

    Consistent hashing balances in expectation, not per small sample;
    a throughput benchmark with 12 sessions wants the offered load
    itself even, so the measured quantity is gateway + backend
    throughput rather than small-sample hash luck.  Seeds are taken in
    ring order and interleaved round-robin so no backend's share
    clusters at the tail of the work queue.
    """
    ring = ShardRing(addresses)
    quota = n_sessions // len(addresses)
    per_backend = {address: [] for address in addresses}
    seed = start
    while any(len(v) < quota for v in per_backend.values()):
        owner = ring.lookup(f"mobile#{seed}")
        if len(per_backend[owner]) < quota:
            per_backend[owner].append(seed)
        seed += 1
    interleaved = []
    for i in range(quota):
        for address in addresses:
            interleaved.append(per_backend[address][i])
    return interleaved


def _drive(gateway, seeds, max_retries=3):
    """Concurrent establishments through the gateway; returns results."""
    host, port = gateway.address
    config = NetClientConfig(
        max_retries=max_retries,
        read_timeout_s=30.0,
        establish_timeout_s=120.0,
    )
    results = [None] * len(seeds)
    errors = []
    queue = list(enumerate(seeds))
    lock = threading.Lock()

    def worker():
        while True:
            with lock:
                if not queue:
                    return
                index, seed = queue.pop(0)
            try:
                results[index] = WaveKeyNetClient(
                    host, port, config
                ).establish(rng_seed=seed)
            except Exception as exc:  # transport retries exhausted
                with lock:
                    errors.append((seed, exc))

    threads = [
        threading.Thread(target=worker, name=f"bench-client-{i}",
                         daemon=True)
        for i in range(CONCURRENCY)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return results, errors, elapsed


def test_three_backends_scale_session_throughput():
    n_sessions = 12 * bench_scale()
    bundle = _tiny_bundle()
    elapsed = {}
    rows = []
    for n_backends in (1, 3):
        backends = [_spawn_backend(bundle) for _ in range(n_backends)]
        addresses = [
            f"{tcp.address[0]}:{tcp.address[1]}" for _, tcp in backends
        ]
        try:
            with WaveKeyGateway(
                addresses,
                health_checks=False,  # membership is fixed here
            ) as gateway:
                # Warm every path (imports, first-connection setup)
                # before the measured window.
                warm, warm_errors, _ = _drive(gateway, [9000, 9001])
                assert not warm_errors and all(
                    r.success for r in warm
                ), "warmup sessions must establish"
                seeds = _balanced_seeds(addresses, n_sessions)
                results, errors, wall_s = _drive(gateway, seeds)
                assert not errors, f"transport failures: {errors}"
                assert all(r.success for r in results), (
                    [r.state for r in results if not r.success]
                )
                per_backend = {
                    series.split('backend="')[1].rstrip('"}'): count
                    for series, count in (
                        gateway.metrics.snapshot()["counters"].items()
                    )
                    if series.startswith("cluster.sessions.routed")
                }
        finally:
            for access, tcp in backends:
                tcp.stop()
                access.stop()
        elapsed[n_backends] = wall_s
        rows.append([
            f"{n_backends}", f"{wall_s:.2f}",
            f"{n_sessions / wall_s:.2f}",
            " ".join(
                str(per_backend.get(address, 0)) for address in addresses
            ),
        ])

    speedup = elapsed[1] / elapsed[3]
    print()
    print(format_table(
        ["backends", "wall (s)", "sessions/s", "per-backend split"],
        rows,
        title=(
            f"gateway throughput, {n_sessions} sessions, "
            f"{CONCURRENCY} concurrent clients, "
            f"{1000 * ACQUIRE_S:.0f} ms serial floor per session "
            f"(speedup {speedup:.2f}x)"
        ),
    ))
    assert speedup >= 2.5, (
        f"3 backends gave only {speedup:.2f}x over 1 backend "
        f"({elapsed[1]:.2f}s vs {elapsed[3]:.2f}s)"
    )


def test_mid_run_backend_kill_reroutes_without_errors():
    n_sessions = 9 * bench_scale()
    bundle = _tiny_bundle()
    backends = [_spawn_backend(bundle) for _ in range(3)]
    addresses = [
        f"{tcp.address[0]}:{tcp.address[1]}" for _, tcp in backends
    ]
    victim_key = addresses[0]
    try:
        with WaveKeyGateway(
            addresses,
            spill_inflight=1,
            probe_interval_s=0.2,
            probe_timeout_s=1.0,
            probe_fail_threshold=2,
            eject_after_failures=2,
            connect_timeout_s=1.0,
        ) as gateway:
            warm, warm_errors, _ = _drive(gateway, [9000, 9001, 9002])
            assert not warm_errors and all(r.success for r in warm)

            # The kill lands while this wave is mid-flight.
            seeds = [20_000 + i for i in range(n_sessions)]
            outcome = {}

            def wave():
                outcome["wave"] = _drive(gateway, seeds)

            runner = threading.Thread(target=wave, daemon=True)
            runner.start()
            time.sleep(ACQUIRE_S * 1.5)
            access, tcp = backends[0]
            tcp.stop()
            access.stop()
            backends[0] = None
            killed_at = time.perf_counter()
            runner.join(timeout=180.0)
            assert not runner.is_alive(), "kill wave never finished"
            results, errors, wave_s = outcome["wave"]

            # 1. Surviving sessions all complete (retries allowed).
            assert not errors, f"sessions lost to the kill: {errors}"
            assert all(r is not None and r.success for r in results), (
                [getattr(r, "state", None) for r in results]
            )

            # 2. The prober ejects the dead backend and logs it.
            deadline = time.monotonic() + 10.0
            ejections = []
            while time.monotonic() < deadline and not ejections:
                ejections = [
                    e for e in gateway.events.query(kind=REBALANCE_EVENT)
                    if e.fields.get("action") == "eject"
                    and e.fields.get("backend") == victim_key
                ]
                time.sleep(0.05)
            assert ejections, "no cluster.ring.rebalance ejection event"
            eject_s = time.perf_counter() - killed_at

            # 3. Survivors own the whole keyspace again.
            doc = fetch_stats(*gateway.address)
            assert doc["ring_size"] == 2
            survivor_share = sum(
                e["share"] for e in doc["backends"]
                if e["backend"] != victim_key
            )
            assert survivor_share == pytest.approx(1.0, abs=0.01)

            # 4. Post-rebalance traffic routes with zero errors and
            #    zero failovers: the ring no longer offers the corpse.
            before = gateway.metrics.snapshot()["counters"]
            post, post_errors, post_s = _drive(
                gateway, [30_000 + i for i in range(6 * bench_scale())]
            )
            assert not post_errors
            assert all(r.success for r in post)
            after = gateway.metrics.snapshot()["counters"]
            for series in ("cluster.route.errors", "cluster.route.failover"):
                assert after.get(series, 0) == before.get(series, 0), (
                    f"{series} moved after the rebalance"
                )
            assert after.get(
                f'cluster.sessions.routed{{backend="{victim_key}"}}', 0
            ) == before.get(
                f'cluster.sessions.routed{{backend="{victim_key}"}}', 0
            )
    finally:
        for pair in backends:
            if pair is None:
                continue
            access, tcp = pair
            tcp.stop()
            access.stop()

    print()
    print(format_table(
        ["phase", "sessions", "wall (s)", "result"],
        [
            ["kill wave", f"{n_sessions}", f"{wave_s:.2f}",
             "all established"],
            ["ejection", "-", f"{eject_s:.2f}", "rebalance event"],
            ["post-rebalance", f"{6 * bench_scale()}", f"{post_s:.2f}",
             "0 routing errors"],
        ],
        title=f"mid-run kill of {victim_key} (3-backend gateway)",
    ))
