"""Labeled metrics: counters, gauges, histograms, and a registry.

One registry shared by the service layer and the core pipeline:

* every metric may carry a fixed **label set** (``{"encoder": "imu_en"}``)
  — the registry memoizes one series per ``(name, labels)`` pair;
* snapshots are plain dicts, **merge-able** across processes or runs
  with :func:`merge_snapshots` (counters add, histogram buckets add,
  gauges keep the latest value);
* the whole registry renders as **Prometheus-style text exposition**
  (:meth:`MetricsRegistry.render_prometheus`), the format the
  ``repro obs metrics`` CLI command prints.

:class:`Histogram.percentile` interpolates linearly *within* the bucket
holding the requested rank (rather than reporting the bucket's upper
edge) and reports the true observed maximum for ranks that land in the
overflow bucket.

Histograms additionally retain one **tail exemplar** per series: an
observation passed with a ``trace_id`` that lands at or above the
series' configured percentile (:data:`EXEMPLAR_PERCENTILE` by default)
keeps that trace id alongside its value — highest value wins.  The
exemplar rides snapshots, survives :func:`merge_snapshots` (highest
value across the fleet wins), and surfaces in the Prometheus
exposition as an OpenMetrics-style ``# {trace_id="..."}`` annotation,
so a tail-latency spike links directly to its distributed trace.

Well-known series families registered by the stack include the
service-layer ``service.*`` counters/latencies, per-encoder
``pipeline.*`` series, and the warm-OT-pool family emitted by
:class:`repro.crypto.pool.OTMaterialPool`: ``crypto.pool.hit`` /
``crypto.pool.miss`` counters labeled by material kind,
``crypto.pool.depth`` gauges labeled by kind and group, the
``crypto.pool.produced`` counter, and the ``crypto.pool.refill_s``
histogram timing each background refill pass.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

Labels = Optional[Dict[str, str]]

#: Default tail percentile above which a traced observation is retained
#: as the series' exemplar.
EXEMPLAR_PERCENTILE = 0.99


def _series_key(name: str, labels: Labels) -> str:
    """Canonical series identifier: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    body = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{body}}}"


class Counter:
    """A monotonically increasing, thread-safe counter."""

    def __init__(self, name: str, labels: Labels = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(f"{self.name}: counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A thread-safe value that can move both ways (queue depth &c.)."""

    def __init__(self, name: str, labels: Labels = None):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


def latency_buckets() -> Tuple[float, ...]:
    """Default histogram bounds: 100 us .. 60 s, roughly log-spaced."""
    return (
        1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 60.0,
    )


def wakeup_buckets() -> Tuple[float, ...]:
    """Histogram bounds for event-loop wakeup/dispatch latencies: these
    are microsecond-scale on an idle loop, so the default latency
    buckets would dump everything into the first bin."""
    return (
        1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0,
    )


def byte_buckets() -> Tuple[float, ...]:
    """Histogram bounds for buffer/queue depths in bytes: 64 B .. 16 MiB,
    power-of-four spaced (outbound wire buffers, frame sizes)."""
    return tuple(float(64 << (2 * i)) for i in range(10))


class Histogram:
    """A fixed-bucket histogram with interpolated percentiles.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything larger.  Percentiles
    interpolate linearly inside the bucket holding the requested rank
    (the first bucket's lower edge is 0), clamped to the observed
    min/max; ranks landing in the overflow bucket report the true
    observed maximum.
    """

    def __init__(
        self,
        name: str,
        bounds: Sequence[float] = None,
        labels: Labels = None,
        exemplar_percentile: float = EXEMPLAR_PERCENTILE,
    ):
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.bounds: Tuple[float, ...] = tuple(
            float(b) for b in (bounds or latency_buckets())
        )
        if not self.bounds or list(self.bounds) != sorted(self.bounds):
            raise ConfigurationError(
                f"{name}: histogram bounds must be ascending and non-empty"
            )
        if not (0.0 < exemplar_percentile <= 1.0):
            raise ConfigurationError(
                f"{name}: exemplar_percentile must be in (0, 1]"
            )
        self.exemplar_percentile = float(exemplar_percentile)
        self._counts = [0] * (len(self.bounds) + 1)
        self._total = 0.0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._exemplar: Optional[Dict[str, object]] = None
        self._lock = threading.Lock()

    def observe(self, value: float, trace_id: str = None) -> None:
        """Record ``value``; with ``trace_id``, a tail observation (at
        or above :attr:`exemplar_percentile`) is retained as the
        series' exemplar — highest value wins."""
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._total += value
            self._count += 1
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)
            if trace_id and (
                self._exemplar is None
                or value >= self._exemplar["value"]
            ):
                threshold = self._percentile_locked(
                    self.exemplar_percentile
                )
                if value >= threshold:
                    self._exemplar = {
                        "value": value, "trace_id": str(trace_id),
                    }

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._total

    @property
    def mean(self) -> float:
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Linearly interpolated ``q``-quantile estimate (0 < q <= 1)."""
        if not (0.0 < q <= 1.0):
            raise ConfigurationError(f"{self.name}: quantile must be in (0, 1]")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for i, n in enumerate(self._counts):
            if cumulative + n >= rank and n > 0:
                if i == len(self.bounds):
                    # Overflow bucket: the only honest point estimate
                    # is the true observed maximum.
                    return self._max
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                estimate = lower + (rank - cumulative) / n * (
                    upper - lower
                )
                if self._min is not None:
                    estimate = max(estimate, self._min)
                if self._max is not None:
                    estimate = min(estimate, self._max)
                return estimate
            cumulative += n
        return self._max if self._max is not None else 0.0

    @property
    def exemplar(self) -> Optional[Dict[str, object]]:
        """The retained tail exemplar (``{"value", "trace_id"}``)."""
        with self._lock:
            return dict(self._exemplar) if self._exemplar else None

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            snap = {
                "count": self._count,
                "total": self._total,
                "mean": self._total / self._count if self._count else 0.0,
                "min": self._min,
                "max": self._max,
                "buckets": dict(zip(self.bounds, self._counts)),
                "overflow": self._counts[-1],
            }
            if self._exemplar is not None:
                snap["exemplar"] = dict(self._exemplar)
            return snap


class MetricsRegistry:
    """Namespace of labeled counters/gauges/histograms with one-call
    snapshots and Prometheus-style text exposition."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, labels: Labels = None) -> Counter:
        key = _series_key(name, labels)
        with self._lock:
            if key not in self._counters:
                self._counters[key] = Counter(name, labels)
            return self._counters[key]

    def gauge(self, name: str, labels: Labels = None) -> Gauge:
        key = _series_key(name, labels)
        with self._lock:
            if key not in self._gauges:
                self._gauges[key] = Gauge(name, labels)
            return self._gauges[key]

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = None,
        labels: Labels = None,
        exemplar_percentile: float = EXEMPLAR_PERCENTILE,
    ) -> Histogram:
        key = _series_key(name, labels)
        with self._lock:
            if key not in self._histograms:
                self._histograms[key] = Histogram(
                    name, bounds, labels,
                    exemplar_percentile=exemplar_percentile,
                )
            return self._histograms[key]

    def snapshot(self) -> Dict[str, object]:
        """All metric values as one nested dict (for tests / CLI).

        Keys are series identifiers — the bare metric name, or
        ``name{k="v"}`` for labeled series — so snapshots of disjoint
        label sets merge without collisions.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        snap: Dict[str, object] = {
            "counters": {k: c.value for k, c in counters.items()},
            "histograms": {k: h.snapshot() for k, h in histograms.items()},
        }
        if gauges:
            snap["gauges"] = {k: g.value for k, g in gauges.items()}
        return snap

    def render_prometheus(self) -> str:
        return render_prometheus(self.snapshot())


# -- snapshot-level operations ----------------------------------------------


def normalize_snapshot(snapshot: Dict[str, object]) -> Dict[str, object]:
    """Repair a snapshot that crossed a JSON boundary, in place.

    JSON stringifies histogram bucket bounds (``0.1`` -> ``"0.1"``),
    which would make :func:`merge_snapshots` see different bucket sets
    when merging a deserialized snapshot with a live one.  Scrapers and
    the CLI call this after ``json.loads`` so bounds compare equal
    again.  Returns the snapshot for chaining.
    """
    for hist in snapshot.get("histograms", {}).values():
        buckets = hist.get("buckets")
        if buckets:
            hist["buckets"] = {
                float(bound): count for bound, count in buckets.items()
            }
    return snapshot


def snapshot_percentile(hist: Dict[str, object], q: float) -> float:
    """:meth:`Histogram.percentile` over a histogram *snapshot* dict.

    Merged fleet snapshots are plain dicts with no live
    :class:`Histogram` behind them; this applies the same
    within-bucket linear interpolation (clamped to the recorded
    min/max, overflow ranks reporting the recorded maximum) so
    percentiles of merged data match what a single registry holding
    all the observations would report.
    """
    if not (0.0 < q <= 1.0):
        raise ConfigurationError("quantile must be in (0, 1]")
    count = hist.get("count", 0)
    if not count:
        return 0.0
    bounds = sorted(hist["buckets"])
    counts = [hist["buckets"][b] for b in bounds]
    counts.append(hist.get("overflow", 0))
    rank = q * count
    cumulative = 0
    for i, n in enumerate(counts):
        if cumulative + n >= rank and n > 0:
            if i == len(bounds):
                return hist["max"]
            lower = bounds[i - 1] if i > 0 else 0.0
            estimate = lower + (rank - cumulative) / n * (bounds[i] - lower)
            if hist.get("min") is not None:
                estimate = max(estimate, hist["min"])
            if hist.get("max") is not None:
                estimate = min(estimate, hist["max"])
            return estimate
        cumulative += n
    return hist["max"] if hist.get("max") is not None else 0.0


def merge_snapshots(*snapshots: Dict[str, object]) -> Dict[str, object]:
    """Combine registry snapshots: counters and histogram buckets add,
    gauges keep the last snapshot's value.  Shapes must agree where
    series collide (same histogram bounds)."""
    merged: Dict[str, object] = {"counters": {}, "histograms": {}}
    gauges: Dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key, value in snap.get("gauges", {}).items():
            gauges[key] = value
        for key, hist in snap.get("histograms", {}).items():
            into = merged["histograms"].get(key)
            if into is None:
                into = {
                    "count": hist["count"],
                    "total": hist["total"],
                    "mean": hist["mean"],
                    "min": hist["min"],
                    "max": hist["max"],
                    "buckets": dict(hist["buckets"]),
                    "overflow": hist["overflow"],
                }
                if hist.get("exemplar"):
                    into["exemplar"] = dict(hist["exemplar"])
                merged["histograms"][key] = into
                continue
            if set(into["buckets"]) != set(hist["buckets"]):
                raise ConfigurationError(
                    f"{key}: cannot merge histograms with different bounds"
                )
            into["count"] += hist["count"]
            into["total"] += hist["total"]
            into["mean"] = (
                into["total"] / into["count"] if into["count"] else 0.0
            )
            for edge, n in hist["buckets"].items():
                into["buckets"][edge] += n
            into["overflow"] += hist["overflow"]
            mins = [m for m in (into["min"], hist["min"]) if m is not None]
            maxes = [m for m in (into["max"], hist["max"]) if m is not None]
            into["min"] = min(mins) if mins else None
            into["max"] = max(maxes) if maxes else None
            # One exemplar per series fleet-wide: the worst (highest
            # valued) traced tail observation wins.
            exemplars = [
                e for e in (into.get("exemplar"), hist.get("exemplar")) if e
            ]
            if exemplars:
                into["exemplar"] = dict(
                    max(exemplars, key=lambda e: e["value"])
                )
    if gauges:
        merged["gauges"] = gauges
    return merged


def _split_series_key(key: str) -> Tuple[str, str]:
    """``name{k="v"}`` -> (mangled metric name, ``{k="v"}`` or '')."""
    if "{" in key:
        name, _, labels = key.partition("{")
        label_block = "{" + labels
    else:
        name, label_block = key, ""
    mangled = "".join(
        c if (c.isalnum() or c == "_") else "_" for c in name
    )
    return mangled, label_block


def _merge_label_block(block: str, extra: str) -> str:
    """Insert ``extra`` (e.g. ``le="0.1"``) into a label block."""
    if not block:
        return "{" + extra + "}"
    return block[:-1] + "," + extra + "}"


def render_prometheus(snapshot: Dict[str, object]) -> str:
    """Prometheus text-exposition rendering of a registry snapshot.

    Metric names are mangled to ``[a-zA-Z0-9_]``; histograms emit the
    standard cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count``.
    """
    lines: List[str] = []
    typed: Dict[str, str] = {}

    def declare(name: str, kind: str) -> None:
        if typed.get(name) != kind:
            typed[name] = kind
            lines.append(f"# TYPE {name} {kind}")

    for key in sorted(snapshot.get("counters", {})):
        name, labels = _split_series_key(key)
        declare(name, "counter")
        lines.append(f"{name}{labels} {snapshot['counters'][key]}")
    for key in sorted(snapshot.get("gauges", {})):
        name, labels = _split_series_key(key)
        declare(name, "gauge")
        lines.append(f"{name}{labels} {snapshot['gauges'][key]}")
    for key in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][key]
        name, labels = _split_series_key(key)
        declare(name, "histogram")
        exemplar = hist.get("exemplar")

        def exemplar_suffix(edge) -> str:
            # OpenMetrics-style exemplar annotation on the bucket that
            # contains the retained tail observation.
            if not exemplar:
                return ""
            value = exemplar["value"]
            if edge != "+Inf" and value > edge:
                return ""
            return (
                f' # {{trace_id="{exemplar["trace_id"]}"}} {value}'
            )

        cumulative = 0
        annotated = False
        for edge in sorted(hist["buckets"]):
            cumulative += hist["buckets"][edge]
            le = _merge_label_block(labels, f'le="{edge}"')
            suffix = "" if annotated else exemplar_suffix(edge)
            annotated = annotated or bool(suffix)
            lines.append(f"{name}_bucket{le} {cumulative}{suffix}")
        cumulative += hist["overflow"]
        le = _merge_label_block(labels, 'le="+Inf"')
        suffix = "" if annotated else exemplar_suffix("+Inf")
        lines.append(f"{name}_bucket{le} {cumulative}{suffix}")
        lines.append(f"{name}_sum{labels} {hist['total']}")
        lines.append(f"{name}_count{labels} {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
