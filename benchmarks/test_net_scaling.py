"""Connection-scaling benchmark for the event-loop network tier.

A thread-per-connection server pays one OS thread per socket for its
whole lifetime, so idle connections are the expensive case: a
thousand phones sitting in a lobby with the app open would cost a
thousand blocked threads.  The event-loop front end pins that cost:

* **idle scaling** — ``WAVEKEY_SCALE_CONNS`` idle connections (default
  1000, bounded by the fd rlimit; CI runs 256) are held open against
  one event-loop server while the process thread count is asserted
  flat: the network tier adds at most 2 threads over the bare access
  server, and opening every idle connection adds zero more.  Real
  establishments keep succeeding around the idlers (liveness).

Set ``WAVEKEY_SCALE_METRICS_OUT=FILE`` to dump the server's metrics
snapshot (loop health series included) as JSON — CI uploads it as the
``net-scale`` artifact.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import threading
import time

import numpy as np

from benchmarks.conftest import pin_seeds
from repro.analysis import format_table
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.service import ServiceConfig, WaveKeyAccessServer
from repro.utils.bits import BitSequence


def _fixed_acquire(request, rng):
    gen = np.random.default_rng(request.rng_seed)
    a_matrix = gen.normal(size=(200, 3))
    r_matrix = np.stack(
        [
            gen.uniform(-np.pi, np.pi, 400),
            np.abs(gen.normal(size=400)) + 0.5,
        ],
        axis=1,
    )
    return a_matrix, r_matrix


def _target_connections() -> int:
    """Requested idle-connection count, bounded by the fd rlimit (each
    loopback connection costs two descriptors in this process)."""
    requested = int(os.environ.get("WAVEKEY_SCALE_CONNS", "1000"))
    soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    budget = max(64, (soft - 256) // 2)
    return min(requested, budget)


def _wait_for(predicate, timeout_s, detail):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"{detail} not met within {timeout_s}s")


def test_idle_connections_scale_at_flat_thread_count(bundle):
    n_conns = _target_connections()
    seed = BitSequence.random(32, np.random.default_rng(41_001))
    workers = 2
    with WaveKeyAccessServer(
        bundle, ServiceConfig(workers=workers), acquire_fn=_fixed_acquire
    ) as server:
        pin_seeds(server, seed)
        threads_before_net = threading.active_count()
        # Idle connections must not be reaped mid-benchmark by the
        # hello deadline.
        with WaveKeyTCPServer(
            server, handshake_timeout_s=600.0
        ) as tcp:
            threads_with_net = threading.active_count()
            net_tier_threads = threads_with_net - threads_before_net
            host, port = tcp.address

            idle = []
            try:
                start = time.perf_counter()
                for i in range(n_conns):
                    idle.append(socket.create_connection((host, port)))
                    if i % 100 == 99:
                        time.sleep(0.01)  # let the accept loop drain
                _wait_for(
                    lambda: server.metrics.snapshot().get(
                        "gauges", {}
                    ).get("net.conn.open", 0) >= n_conns,
                    timeout_s=60.0,
                    detail=f"{n_conns} idle connections accepted",
                )
                accept_s = time.perf_counter() - start
                threads_at_peak = threading.active_count()

                # Liveness: establishments still complete while every
                # idle connection stays open.
                live_config = NetClientConfig(read_timeout_s=30.0)
                live = [
                    WaveKeyNetClient(
                        host, port, live_config
                    ).establish(rng_seed=3000 + i)
                    for i in range(3)
                ]
            finally:
                for sock in idle:
                    sock.close()

            print()
            print(format_table(
                ["idle conns", "net-tier threads", "threads at peak",
                 "accept (s)", "conns/s"],
                [[
                    f"{n_conns}", f"+{net_tier_threads}",
                    f"{threads_at_peak}", f"{accept_s:.2f}",
                    f"{n_conns / accept_s:.0f}",
                ]],
                title=(
                    f"idle-connection scaling, {workers} protocol workers "
                    f"(threads before net tier: {threads_before_net})"
                ),
            ))

            snapshot_out = os.environ.get("WAVEKEY_SCALE_METRICS_OUT")
            if snapshot_out:
                with open(snapshot_out, "w", encoding="utf-8") as fh:
                    json.dump(server.metrics.snapshot(), fh, indent=2,
                              default=str)

            # The network tier itself is a bounded number of threads...
            assert net_tier_threads <= 2, (
                f"event-loop front end added {net_tier_threads} threads"
            )
            # ...and idle connections add exactly zero more.
            assert threads_at_peak == threads_with_net, (
                f"thread count grew from {threads_with_net} to "
                f"{threads_at_peak} under {n_conns} idle connections"
            )
            assert all(r.success for r in live)

    assert n_conns >= 256, (
        f"fd rlimit capped the benchmark at {n_conns} connections"
    )
