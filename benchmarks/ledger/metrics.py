"""Every metric the ledger reports: names, units, and how each is
computed from a measured pass.

End-to-end metrics come from an untraced pass.  Per-layer metrics come
from three sources: the layer replay (:mod:`benchmarks.ledger.replay`),
metrics-registry deltas over an untraced window, and self times of the
spans a traced window recorded.  A per-layer metric reads 0 on a
workload that never enters its layer.
"""

from __future__ import annotations

import statistics
from typing import Dict

from benchmarks.ledger import replay as replaylib
from benchmarks.ledger import spans as spanlib
from benchmarks.ledger.stats import counter_sum, percentile, tail_quantile

#: End-to-end metrics, in BENCHMARK.json order: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("sut_cpu_ms_per_op", "ms"),
    ("sut_rss_mb", "MB"),
)

#: Encoder layers whose achieved GFLOP/s the replay reports: the ones
#: doing nearly all of the arithmetic.
NN_LAYERS = ("imu.conv1", "imu.conv2", "imu.fc",
             "rf.conv1", "rf.conv2", "rf.fc")

#: Spans whose p50 self time the traced run reports, per process role.
SPAN_METRICS = (
    ("client", "net.connect"), ("client", "net.hello"),
    ("client", "net.round"), ("client", "net.ot.announce"),
    ("client", "net.ot.respond"), ("client", "net.ot.ciphertexts"),
    ("client", "net.ot.assemble"), ("client", "net.reconcile"),
    ("client", "access.resume"),
    ("backend", "session"), ("backend", "enqueue"),
    ("backend", "acquire"), ("backend", "encode"), ("backend", "ot"),
    ("backend", "net.agreement"), ("backend", "net.seed_grant"),
    ("backend", "net.ot.announce"), ("backend", "net.ot.respond"),
    ("backend", "net.ot.ciphertexts"), ("backend", "net.ot.assemble"),
    ("backend", "net.reconcile"), ("backend", "access.resume.accept"),
    ("backend", "access.op"),
    ("gateway", "cluster.route"), ("gateway", "cluster.splice"),
)

#: Per-layer metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("gesture.acquire_ms", "ms"),
    ("nn.imu_en_ms", "ms"),
    ("nn.rf_en_ms", "ms"),
    *((f"nn.layer.{layer}_gflops", "GFLOP/s") for layer in NN_LAYERS),
    ("quantize.ms", "ms"),
    *((f"protocol.{phase}_ms.{group}.{mode}", "ms")
      for group in replaylib.GROUPS for mode in ("cold", "warm")
      for phase in replaylib.PHASES),
    ("protocol.reconcile_ms", "ms"),
    *((f"crypto.pool.fill_ms_per_tuple.{group}", "ms")
      for group in replaylib.GROUPS),
    *((f"net.{way}_us.{frame}", "us")
      for frame in replaylib.FRAMES for way in ("encode", "decode")),
    ("service.encode_p50_ms", "ms"),
    ("service.agree_p50_ms", "ms"),
    ("service.attempts_per_session", "count"),
    *((f"crypto.pool.miss_per_op.{group}.{kind}", "1/op")
      for group in replaylib.GROUPS for kind in ("sender", "receiver")),
    ("net.frames_per_op", "1/op"),
    ("net.bytes_per_op", "B/op"),
    ("net.loop.dispatch_lag_p99_ms", "ms"),
    ("net.loop.wakeup_latency_p99_ms", "ms"),
    ("access.op_p50_ms", "ms"),
    ("replica.resume_miss", "count"),
    ("cluster.route.resume_fallback", "count"),
    *((f"span.{role}.{name}_ms", "ms") for role, name in SPAN_METRICS),
    ("cluster.hop_ms", "ms"),
    ("bench.op_p99_ms", "ms"),
    ("bench.late_p99_ms", "ms"),
    ("bench.client_cpu_ms_per_op", "ms"),
    ("bench.timeouts_per_establish", "1/op"),
    ("trace.unexplained_fraction", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans_dropped", "count"),
)


def end_to_end(workload, measured) -> Dict[str, float]:
    ops = measured.ops
    return {
        "setup_s": statistics.median(measured.setup_s),
        "op_p50_ms": 1000 * measured.p(0.5),
        "op_tail_ms": 1000 * measured.p(workload.tail_q),
        "ops_per_s": ops / measured.window.elapsed_s,
        "sut_cpu_ms_per_op": 1000 * measured.sut_cpu_s / ops,
        "sut_rss_mb": measured.sut_rss_mb,
    }


def tail_supported(workload, measured) -> bool:
    """Whether the window held ten samples beyond the tail percentile."""
    q = tail_quantile(measured.ops)
    return q is not None and q >= workload.tail_q


def stats_layers(measured) -> Dict[str, float]:
    """Per-layer numbers from the window's metrics-registry deltas."""
    from repro.crypto.group import resolve_group
    from repro.obs import snapshot_percentile

    delta, ops = measured.stats_delta, max(1, measured.ops)

    def hist_ms(name: str, q: float) -> float:
        hist = delta["histograms"].get(name)
        if not hist or hist["count"] <= 0:
            return 0.0
        return 1000 * snapshot_percentile(hist, q)

    def count(name: str, **labels) -> float:
        return counter_sum(delta, name, **labels)

    admitted = count("service.admitted")
    out = {
        "service.encode_p50_ms": hist_ms("service.encode_s", 0.5),
        "service.agree_p50_ms": hist_ms("service.agree_s", 0.5),
        "service.attempts_per_session": (
            count("service.attempts") / admitted if admitted else 0.0
        ),
    }
    for group in replaylib.GROUPS:
        group_id = resolve_group(group).name
        for kind in ("sender", "receiver"):
            out[f"crypto.pool.miss_per_op.{group}.{kind}"] = count(
                "crypto.pool.miss", group=group_id, kind=kind
            ) / ops
    out["net.frames_per_op"] = (
        count("net.frames_sent", endpoint="server")
        + count("net.frames_received", endpoint="server")
    ) / ops
    out["net.bytes_per_op"] = (
        count("net.bytes_sent", endpoint="server")
        + count("net.bytes_received", endpoint="server")
    ) / ops
    out["net.loop.dispatch_lag_p99_ms"] = hist_ms("net.loop.dispatch_lag_s",
                                                  0.99)
    out["net.loop.wakeup_latency_p99_ms"] = hist_ms(
        "net.loop.wakeup_latency_s", 0.99
    )
    out["access.op_p50_ms"] = hist_ms("access.op_s", 0.5)
    out["replica.resume_miss"] = count("replica.resume.miss")
    out["cluster.route.resume_fallback"] = counter_sum(
        measured.gateway_delta, "cluster.route.resume_fallback"
    )
    out["bench.op_p99_ms"] = 1000 * measured.p(0.99)
    lateness = measured.window.lateness
    out["bench.late_p99_ms"] = (
        1000 * percentile(lateness, 0.99) if lateness else 0.0
    )
    out["bench.client_cpu_ms_per_op"] = 1000 * measured.client_cpu_s / ops
    establishes = measured.establishes
    out["bench.timeouts_per_establish"] = (
        establishes.timeouts / max(1, establishes.attempted)
    )
    return out


def trace_layers(traced, untraced) -> Dict[str, float]:
    """Per-layer numbers from the traced pass's spans."""
    table = spanlib.self_time_table(traced.spans)
    out = {}
    for role, name in SPAN_METRICS:
        values = table.get(f"{role}.{name}")
        out[f"span.{role}.{name}_ms"] = (
            1000 * statistics.median(values) if values else 0.0
        )
    hops = spanlib.hop_times(traced.spans)
    out["cluster.hop_ms"] = 1000 * statistics.median(hops) if hops else 0.0
    missing, total = spanlib.unexplained(traced.spans)
    out["trace.unexplained_fraction"] = missing / total if total else 0.0
    out["trace.overhead"] = traced.p(0.5) / untraced.p(0.5) - 1.0
    out["trace.spans_dropped"] = float(traced.spans_dropped)
    return out
