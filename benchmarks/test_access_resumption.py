"""Access extension: ticket resumption vs full establishment.

WaveKey's mobile ad-hoc story needs re-access to be cheap: the gesture
and the ~100-modexp OT exchange happen once, and every later visit
rides the resumption ticket (:mod:`repro.access`).  This benchmark
pins that payoff over real loopback sockets:

* full establishment — client SDK -> TCP server -> worker pool, the
  complete gesture/OT/reconciliation pipeline per session;
* ticket resumption — ``open_channel`` (nonce handshake, four HKDF
  expansions, two HMACs) plus one authenticated ``query`` op.

The acceptance bar is resumption >= 5x faster per session; measured
ratios on loopback are orders of magnitude beyond it, so the assert
holds on any CI box.  Scaling: 6 resumes per WAVEKEY_BENCH_SCALE unit.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import bench_scale, pin_seeds
from repro.analysis import format_table
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.service import ServiceConfig, WaveKeyAccessServer
from repro.utils.bits import BitSequence

RESUMES = 6
ESTABLISHMENTS = 2

#: The issue's acceptance floor; loopback measurements clear it by
#: two to three orders of magnitude.
MIN_SPEEDUP = 5.0


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


def test_resumption_beats_full_establishment(bundle):
    n_establish = ESTABLISHMENTS * bench_scale()
    n_resume = RESUMES * bench_scale()
    seed = BitSequence.random(32, np.random.default_rng(50_001))

    with WaveKeyAccessServer(
        bundle, ServiceConfig(workers=2), acquire_fn=_fixed_acquire
    ) as server:
        pin_seeds(server, seed)
        with WaveKeyTCPServer(server) as tcp:
            client = WaveKeyNetClient(
                *tcp.address, NetClientConfig(read_timeout_s=30.0)
            )

            establish_times = []
            ticket = None
            for i in range(n_establish):
                start = time.perf_counter()
                result = client.establish(rng_seed=2000 + i)
                establish_times.append(time.perf_counter() - start)
                assert result.success
                assert result.ticket is not None
                ticket = result.ticket

            resume_times = []
            for _ in range(n_resume):
                start = time.perf_counter()
                with client.open_channel(ticket) as channel:
                    reply = channel.request("query", target="door")
                resume_times.append(time.perf_counter() - start)
                assert reply["allowed"] is True

    establish_s = sum(establish_times) / len(establish_times)
    resume_s = sum(resume_times) / len(resume_times)
    speedup = establish_s / resume_s

    print()
    print(format_table(
        ["path", "sessions", "mean (ms)", "speedup"],
        [
            ["full establishment", f"{n_establish}",
             f"{1000 * establish_s:.1f}", "1.0x"],
            ["ticket resume + query", f"{n_resume}",
             f"{1000 * resume_s:.2f}", f"{speedup:.0f}x"],
        ],
        title="secure re-access: agreement vs resumption (loopback)",
    ))
    assert speedup >= MIN_SPEEDUP, (
        f"resumption only {speedup:.1f}x faster than establishment "
        f"(floor {MIN_SPEEDUP}x)"
    )
