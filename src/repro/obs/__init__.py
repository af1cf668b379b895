"""`repro.obs` — shared observability for the key-agreement stack.

Three instruments, designed to be threaded through every layer of the
reproduction and to cost (almost) nothing when switched off:

* **tracing** (:mod:`repro.obs.tracing`) — hierarchical spans with a
  thread-local active-span stack, explicit parent handoff for
  cross-thread work (the service's worker threads),
  JSONL export, and an ASCII tree renderer;
* **metrics** (:mod:`repro.obs.metrics`) — labeled counters, gauges and
  histograms in a registry with merge-able snapshots and
  Prometheus-style text exposition (plus the ring-buffer
  :class:`EventLog` in :mod:`repro.obs.events`);
* **profiling** (:mod:`repro.obs.profiling`) — opt-in per-layer forward
  timing and FLOP estimates for :mod:`repro.nn` containers.

Quick start::

    from repro.obs import Tracer, use_default_tracer, format_trace_tree

    tracer = Tracer()
    with use_default_tracer(tracer):
        system.establish_key(rng=7)     # library code traces itself
    print(format_trace_tree(tracer.finished_spans()))
"""

from repro.obs.collect import (
    TELEMETRY_SCHEMA,
    TelemetryBuffer,
    event_to_dict,
    filter_trace,
    format_stitched,
    hop_breakdown,
    stitch,
    trace_ids,
)
from repro.obs.events import EventLog, ServiceEvent
from repro.obs.metrics import (
    EXEMPLAR_PERCENTILE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    byte_buckets,
    latency_buckets,
    wakeup_buckets,
    merge_snapshots,
    normalize_snapshot,
    render_prometheus,
    snapshot_percentile,
)
from repro.obs.profiling import LayerProfiler, LayerStats, flop_estimate
from repro.obs.tracing import (
    NULL_TRACER,
    Span,
    TraceContext,
    Tracer,
    current_context,
    current_span,
    current_tracer,
    format_trace_tree,
    get_default_tracer,
    load_trace_jsonl,
    parent_from_context,
    resolve_tracer,
    set_default_tracer,
    use_default_tracer,
)

__all__ = [
    "Counter",
    "EXEMPLAR_PERCENTILE",
    "EventLog",
    "Gauge",
    "Histogram",
    "TELEMETRY_SCHEMA",
    "TelemetryBuffer",
    "TraceContext",
    "current_context",
    "event_to_dict",
    "filter_trace",
    "format_stitched",
    "hop_breakdown",
    "parent_from_context",
    "stitch",
    "trace_ids",
    "LayerProfiler",
    "LayerStats",
    "MetricsRegistry",
    "NULL_TRACER",
    "ServiceEvent",
    "Span",
    "Tracer",
    "current_span",
    "current_tracer",
    "flop_estimate",
    "format_trace_tree",
    "get_default_tracer",
    "byte_buckets",
    "latency_buckets",
    "wakeup_buckets",
    "load_trace_jsonl",
    "merge_snapshots",
    "normalize_snapshot",
    "render_prometheus",
    "snapshot_percentile",
    "resolve_tracer",
    "set_default_tracer",
    "use_default_tracer",
]
