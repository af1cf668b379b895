"""OT fast path: fixed-base comb + warm material pool vs the naive path.

One WaveKey establishment runs a round of ~100 Chou-Orlandi OT
instances in each direction, and the naive arithmetic spends four
full-width modular exponentiations (plus one inverse) per instance.
The fast path stacks three standard levers:

* **fixed-base comb** tables for every ``g^x`` (one multiplication per
  exponent digit, no squarings), beside OpenSSL's modexp for the
  variable-base products (``Group.exp_many``);
* **short secret exponents** (256-bit for the 512-bit simulation group,
  RFC 7919 s5.2) halving every comb power;
* the **warm material pool** moving both fixed-base exponentiations and
  the sender's second-key factor off the request path entirely.

Three measurements:

* batched-OT microbenchmark — ``run_ot_round`` wall time, naive vs
  comb-only vs pooled (pinned: pooled >= 2.5x naive);
* end-to-end establishment throughput through the access server with a
  live refill worker, fast vs naive configuration;
* pool exhaustion — a depth-2 pool against ~100-instance rounds must
  degrade to inline compute (counted misses) with zero failed sessions.

Thresholds relax via ``WAVEKEY_OT_FASTPATH_MIN_SPEEDUP`` /
``WAVEKEY_OT_FASTPATH_MIN_E2E_GAIN`` so shared CI boxes don't flake.

Scaling: 96 OT instances and 6 e2e sessions per WAVEKEY_BENCH_SCALE
unit.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import bench_scale
from repro.analysis import format_table
from repro.crypto import OTMaterialPool, WAVEKEY_GROUP_512, run_ot_round
from repro.protocol import KeyAgreementConfig
from repro.service import AccessRequest, ServiceConfig, WaveKeyAccessServer

#: The seed-exact reference configuration every speedup is measured
#: against: built-in ``pow``, full-width exponent draws.
NAIVE_GROUP = WAVEKEY_GROUP_512.with_comb(False).with_exponent_bits(None)
#: The shipped fast path (comb + 256-bit exponents).
FAST_GROUP = WAVEKEY_GROUP_512


def _min_speedup() -> float:
    return float(os.environ.get("WAVEKEY_OT_FASTPATH_MIN_SPEEDUP", "2.5"))


def _min_e2e_gain() -> float:
    return float(os.environ.get("WAVEKEY_OT_FASTPATH_MIN_E2E_GAIN", "1.15"))


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batched_ot_speedup():
    n = 96 * bench_scale()
    pairs = [(bytes([i % 251]), bytes([(i + 97) % 251])) for i in range(n)]
    choices = [i % 2 for i in range(n)]
    expected = [pairs[i][c] for i, c in enumerate(choices)]

    def naive():
        assert run_ot_round(NAIVE_GROUP, pairs, choices, 1, 2) == expected

    def comb_only():
        assert run_ot_round(FAST_GROUP, pairs, choices, 1, 2) == expected

    FAST_GROUP.comb()  # build tables outside the timed region
    naive_s = _best_of(naive)
    comb_s = _best_of(comb_only)

    def pooled():
        # A fresh prefilled pool per repeat: every instance must hit.
        pool = OTMaterialPool(depth=n, rng=3)
        pool.register(FAST_GROUP)
        pool.fill()
        start = time.perf_counter()
        assert run_ot_round(
            FAST_GROUP, pairs, choices, 1, 2, pool=pool
        ) == expected
        return time.perf_counter() - start

    pooled_s = min(pooled() for _ in range(3))

    comb_x = naive_s / comb_s
    pooled_x = naive_s / pooled_s
    print()
    print(format_table(
        ["path", "wall (ms)", "OT/s", "speedup"],
        [
            ["naive (pow, full-width)", f"{naive_s * 1e3:.1f}",
             f"{n / naive_s:.0f}", "1.00x"],
            ["comb + short exponents", f"{comb_s * 1e3:.1f}",
             f"{n / comb_s:.0f}", f"{comb_x:.2f}x"],
            ["comb + warm pool", f"{pooled_s * 1e3:.1f}",
             f"{n / pooled_s:.0f}", f"{pooled_x:.2f}x"],
        ],
        title=f"batched OT, {n} instances",
    ))

    assert pooled_x >= _min_speedup(), (
        f"pooled batched OT is {pooled_x:.2f}x the naive path, below the "
        f"required {_min_speedup():.2f}x"
    )
    assert comb_s < naive_s, (
        f"comb-only path ({comb_s:.3f}s) not faster than naive "
        f"({naive_s:.3f}s)"
    )


def _serve_sessions(bundle, service_config, agreement_config, seeds):
    """Establish one session per seed; return (wall_s, outcomes)."""
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
        records = [t.result(timeout=120.0) for t in tickets]
        wall_s = time.perf_counter() - start
        counters = server.metrics.snapshot()["counters"]
    return wall_s, records, counters


def test_e2e_establishment_gain(bundle):
    n = 6 * bench_scale()
    seeds = [41_000 + i for i in range(n)]

    naive_s, naive_records, _ = _serve_sessions(
        bundle,
        ServiceConfig(workers=2, ot_pool_depth=0),
        KeyAgreementConfig(eta=bundle.eta, group=NAIVE_GROUP),
        seeds,
    )
    fast_s, fast_records, counters = _serve_sessions(
        bundle,
        ServiceConfig(workers=2, ot_pool_depth=256),
        KeyAgreementConfig(eta=bundle.eta, group=FAST_GROUP),
        seeds,
    )

    # Same gestures, same encoders: the fast path changes arithmetic,
    # never outcomes.
    assert [r.success for r in fast_records] == [
        r.success for r in naive_records
    ]
    assert counters.get(
        'crypto.pool.hit{group="wavekey-512",kind="sender"}', 0
    ) > 0

    gain = naive_s / fast_s
    print()
    print(format_table(
        ["config", "wall (s)", "sessions/s", "gain"],
        [
            ["naive group, no pool", f"{naive_s:.2f}",
             f"{n / naive_s:.2f}", "1.00x"],
            ["fast path + warm pool", f"{fast_s:.2f}",
             f"{n / fast_s:.2f}", f"{gain:.2f}x"],
        ],
        title=f"end-to-end establishment, {n} sessions",
    ))

    assert gain >= _min_e2e_gain(), (
        f"fast-path server is {gain:.2f}x the naive server, below the "
        f"required {_min_e2e_gain():.2f}x"
    )


def test_pool_exhaustion_degrades_gracefully(bundle):
    """A hopelessly undersized pool must cost throughput, never sessions."""
    n = 4 * bench_scale()
    seeds = [42_000 + i for i in range(n)]

    _, baseline_records, _ = _serve_sessions(
        bundle,
        ServiceConfig(workers=2, ot_pool_depth=0),
        KeyAgreementConfig(eta=bundle.eta, group=FAST_GROUP),
        seeds,
    )
    # Depth 2 against ~100 OT instances per session: essentially every
    # receiver take is a miss, computed inline.  (A round takes one
    # sender tuple, which the refill worker may keep up with.)
    _, starved_records, counters = _serve_sessions(
        bundle,
        ServiceConfig(workers=2, ot_pool_depth=2),
        KeyAgreementConfig(eta=bundle.eta, group=FAST_GROUP),
        seeds,
    )

    misses = counters.get(
        'crypto.pool.miss{group="wavekey-512",kind="receiver"}', 0
    )
    assert misses > 0, "depth-2 pool never missed — benchmark is broken"
    assert [r.success for r in starved_records] == [
        r.success for r in baseline_records
    ], "pool exhaustion changed session outcomes"
    assert not any(
        r.failure_reason and "pool" in r.failure_reason.lower()
        for r in starved_records
    )
