"""Elliptic-curve OT vs the 512-bit MODP fast path.

Curve25519 gives the OT a ~128-bit security level where the 512-bit
simulation group offers far less; this benchmark answers what that
upgrade costs on this implementation.  Both groups run the identical
pooled batched-OT workload and identical end-to-end establishments, so
the recorded numbers are a like-for-like latency comparison:

* batched-OT microbenchmark — ``run_ot_round`` wall time per group,
  comb-only and pooled (per-OT latency in the table);
* end-to-end establishment — sessions through the access server with a
  live refill worker, per-establishment latency per group;
* pool exhaustion under the curve — a depth-2 pool against
  ~100-instance rounds must change zero session outcomes, exactly as
  the MODP fast path guarantees.

No speedup threshold is pinned between the groups (the curve is pure
Python field arithmetic; the MODP path rides C-accelerated ``pow``);
what is pinned is correctness parity and that the warm pool keeps the
curve's request-path cost bounded.

Scaling: 32 OT instances and 4 e2e sessions per WAVEKEY_BENCH_SCALE
unit.
"""

from __future__ import annotations

import time

from benchmarks.conftest import bench_scale
from repro.analysis import format_table
from repro.crypto import (
    CURVE25519_GROUP,
    OTMaterialPool,
    WAVEKEY_GROUP_512,
    run_ot_round,
)
from repro.protocol import KeyAgreementConfig
from repro.service import AccessRequest, ServiceConfig, WaveKeyAccessServer

#: (label, group, nominal security bits) rows of every comparison.
CONTENDERS = [
    ("modp512 fast path", WAVEKEY_GROUP_512, 56),
    ("curve25519", CURVE25519_GROUP, 128),
]


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_ot_latency_by_group():
    n = 32 * bench_scale()
    pairs = [(bytes([i % 251]), bytes([(i + 97) % 251])) for i in range(n)]
    choices = [i % 2 for i in range(n)]
    expected = [pairs[i][c] for i, c in enumerate(choices)]

    rows = []
    for label, group, security_bits in CONTENDERS:
        group.power(1)  # warm the fixed-base path outside the timed region

        def comb_only():
            assert run_ot_round(group, pairs, choices, 1, 2) == expected

        comb_s = _best_of(comb_only)

        def pooled():
            # A fresh prefilled pool per repeat: every instance must hit.
            pool = OTMaterialPool(depth=n, rng=3)
            pool.register(group)
            pool.fill()
            start = time.perf_counter()
            assert run_ot_round(
                group, pairs, choices, 1, 2, pool=pool
            ) == expected
            return time.perf_counter() - start

        pooled_s = min(pooled() for _ in range(3))
        rows.append([
            label, f"{security_bits}",
            f"{1e3 * comb_s / n:.3f}", f"{1e3 * pooled_s / n:.3f}",
        ])
        assert pooled_s < comb_s, (
            f"{label}: warm pool ({pooled_s:.3f}s) not faster than "
            f"inline comb ({comb_s:.3f}s)"
        )

    print()
    print(format_table(
        ["group", "sec bits", "per-OT comb (ms)", "per-OT pooled (ms)"],
        rows,
        title=f"batched OT, {n} instances per group",
    ))


def _serve_sessions(bundle, service_config, agreement_config, seeds):
    """Establish one session per seed; return (wall_s, records, counters)."""
    server = WaveKeyAccessServer(
        bundle, service_config, agreement_config=agreement_config
    )
    with server:
        if server.ot_pool is not None:
            server.ot_pool.fill()  # start warm, as a steady-state server is
        start = time.perf_counter()
        tickets = [
            server.submit(AccessRequest(rng_seed=seed)) for seed in seeds
        ]
        records = [t.result(timeout=240.0) for t in tickets]
        wall_s = time.perf_counter() - start
        counters = server.metrics.snapshot()["counters"]
    return wall_s, records, counters


def test_e2e_establishment_latency_by_group(bundle):
    n = 4 * bench_scale()
    seeds = [51_000 + i for i in range(n)]

    rows = []
    outcomes = {}
    for label, group, security_bits in CONTENDERS:
        wall_s, records, counters = _serve_sessions(
            bundle,
            ServiceConfig(workers=2, ot_pool_depth=256),
            KeyAgreementConfig(eta=bundle.eta, group=group),
            seeds,
        )
        hit_key = f'crypto.pool.hit{{group="{group.name}",kind="sender"}}'
        assert counters.get(hit_key, 0) > 0, (
            f"{label}: warm pool never hit — the server is not using it"
        )
        outcomes[group.name] = [r.success for r in records]
        rows.append([
            label, f"{security_bits}",
            f"{wall_s / n:.2f}", f"{n / wall_s:.2f}",
        ])

    # Same gestures, same encoders: the group changes arithmetic,
    # never outcomes.
    assert outcomes["curve25519"] == outcomes["wavekey-512"], (
        "switching the OT group changed session outcomes"
    )
    print()
    print(format_table(
        ["group", "sec bits", "s/establishment", "sessions/s"],
        rows,
        title=f"end-to-end establishment, {n} sessions per group",
    ))


def test_curve_pool_exhaustion_degrades_gracefully(bundle):
    """Depth-2 pool under curve25519: throughput may suffer, session
    outcomes must not change."""
    n = 3 * bench_scale()
    seeds = [52_000 + i for i in range(n)]
    config = KeyAgreementConfig(eta=bundle.eta, group=CURVE25519_GROUP)

    _, baseline_records, _ = _serve_sessions(
        bundle, ServiceConfig(workers=2, ot_pool_depth=0), config, seeds,
    )
    _, starved_records, counters = _serve_sessions(
        bundle, ServiceConfig(workers=2, ot_pool_depth=2), config, seeds,
    )

    # A round takes one sender tuple but ~100 receiver tuples: the
    # receiver stock is the one a depth-2 pool starves.
    misses = counters.get(
        'crypto.pool.miss{group="curve25519",kind="receiver"}', 0
    )
    assert misses > 0, "depth-2 pool never missed — benchmark is broken"
    assert [r.success for r in starved_records] == [
        r.success for r in baseline_records
    ], "curve pool exhaustion changed session outcomes"
    assert not any(
        r.failure_reason and "pool" in r.failure_reason.lower()
        for r in starved_records
    )
