"""Disabled-instrumentation overhead on the batched encoder path.

The observability hooks (span context managers, ``resolve_tracer``,
labeled-metrics emission, the ``Sequential.profiler`` attribute check)
sit directly on the encoder path; this benchmark measures them on the
stacked encoder forward inside :meth:`KeySeedPipeline.imu_keyseeds`.  This benchmark
pins the design contract from ``repro.obs``: with no tracer, no
metrics registry, and no profiler attached, the instrumented pipeline
must cost within a few percent of the bare normalize -> forward ->
quantize loop it wraps.

Methodology: interleaved min-of-N timing (alternating measurements of
the two variants so drift hits both equally; the minimum is the
classic low-noise estimator for "how fast can this code go").
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import pin_seeds
from repro.core import KeySeedPipeline
from repro.datasets.normalization import normalize_imu_matrix

BATCH = 64
ROUNDS = 15


@pytest.fixture(scope="module")
def matrices(bundle):
    rng = np.random.default_rng(11)
    return [rng.normal(size=(200, 3)) for _ in range(BATCH)]


def baseline_keyseeds(bundle, quantizer, mats):
    """The exact work of ``imu_keyseeds`` with zero instrumentation.

    ``quantizer`` is hoisted by the caller because ``bundle.quantizer``
    is a constructing property and the pipeline caches it once.
    """
    x = np.stack([normalize_imu_matrix(a) for a in mats])
    features = bundle.imu_encoder.forward(x)
    return [quantizer.quantize(f) for f in features]


def test_disabled_instrumentation_overhead_is_negligible(bundle, matrices):
    pipeline = KeySeedPipeline(bundle)  # no tracer, no metrics
    assert pipeline.profiler is None
    quantizer = bundle.quantizer

    # warm-up: touch every code path once before timing
    reference = baseline_keyseeds(bundle, quantizer, matrices)
    instrumented = pipeline.imu_keyseeds(matrices)
    assert instrumented == reference  # same seeds, always

    base_min = float("inf")
    obs_min = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        baseline_keyseeds(bundle, quantizer, matrices)
        base_min = min(base_min, time.perf_counter() - start)

        start = time.perf_counter()
        pipeline.imu_keyseeds(matrices)
        obs_min = min(obs_min, time.perf_counter() - start)

    overhead = obs_min / base_min - 1.0
    print(
        f"\nbatched encoder path (batch={BATCH}): "
        f"baseline {base_min * 1000:.2f} ms, "
        f"instrumented {obs_min * 1000:.2f} ms, "
        f"overhead {overhead * 100:+.2f}%"
    )
    assert overhead < 0.05, (
        f"disabled instrumentation costs {overhead * 100:.1f}% "
        f"(budget: 5%)"
    )


# -- distributed tracing + telemetry scraping on the session path ------------


SESSIONS = 6


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


def _min_session_s(bundle, n, traced: bool) -> float:
    """Min per-session wall time over ``n`` loopback establishments.

    ``traced=True`` is the full tentpole pipeline: client root spans
    with wire-propagated context, a server tracer feeding a
    :class:`TelemetryBuffer` on a fast flush timer, and one
    ``drain=True`` telemetry scrape per session (far more often than
    the gateway's probe cadence would)."""
    from repro.cluster.stats import fetch_telemetry
    from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
    from repro.obs import TelemetryBuffer, Tracer
    from repro.service import ServiceConfig, WaveKeyAccessServer
    from repro.utils.bits import BitSequence

    seed = BitSequence.random(32, np.random.default_rng(40_003))
    server_tracer = Tracer() if traced else None
    with WaveKeyAccessServer(
        bundle,
        ServiceConfig(workers=2, queue_capacity=2 * n),
        acquire_fn=_fixed_acquire,
        tracer=server_tracer,
    ) as server:
        pin_seeds(server, seed)
        telemetry = (
            TelemetryBuffer(
                "backend", tracer=server_tracer, events=server.events
            )
            if traced else None
        )
        with WaveKeyTCPServer(
            server, telemetry=telemetry, telemetry_flush_interval_s=0.05
        ) as tcp:
            config = NetClientConfig(read_timeout_s=30.0)
            best = float("inf")
            for i in range(n):
                client_tracer = Tracer(enabled=traced)
                client = WaveKeyNetClient(
                    *tcp.address, config, tracer=client_tracer
                )
                start = time.perf_counter()
                result = client.establish(rng_seed=3000 + i)
                if traced:
                    fetch_telemetry(*tcp.address, drain=True)
                best = min(best, time.perf_counter() - start)
                assert result.success
    return best


def test_tracing_and_scrape_overhead_on_loopback_sessions(bundle):
    """The tentpole's runtime cost contract: wire trace context, span
    recording across the worker-pool handoff, the telemetry flush
    timer, AND a per-session drain scrape together must cost <5% of a
    loopback establishment (which OT group arithmetic dominates)."""
    n = SESSIONS
    # warm-up one session per variant, then measure interleaved-ish
    _min_session_s(bundle, 1, traced=False)
    bare_s = _min_session_s(bundle, n, traced=False)
    traced_s = _min_session_s(bundle, n, traced=True)
    overhead = traced_s / bare_s - 1.0
    print(
        f"\nloopback establishment: bare {bare_s * 1000:.1f} ms, "
        f"traced+scraped {traced_s * 1000:.1f} ms, "
        f"overhead {overhead * 100:+.2f}% (n={n}, min estimator)"
    )
    # 5% relative budget plus 10 ms absolute slack so a sub-200 ms
    # session on a noisy CI box cannot flake the pin
    assert traced_s < bare_s * 1.05 + 0.010, (
        f"tracing+scrape costs {overhead * 100:.1f}% per session "
        f"(budget: 5%)"
    )
