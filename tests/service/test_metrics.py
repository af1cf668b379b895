"""Unit tests for the service observability primitives."""

import threading

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Counter,
    EventLog,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increments(self):
        with pytest.raises(ConfigurationError):
            Counter("x").inc(-1)

    def test_concurrent_increments_are_not_lost(self):
        counter = Counter("x")

        def spin():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestHistogram:
    def test_mean_count_total(self):
        hist = Histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 2.0, 3.5):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == pytest.approx(6.0)
        assert hist.mean == pytest.approx(2.0)

    def test_percentile_interpolates_within_bucket(self):
        hist = Histogram("h", bounds=(0.01, 0.1, 1.0))
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(0.5)
        # p50 falls at rank 50 of 99 observations inside [0, 0.01).
        assert hist.percentile(0.5) == pytest.approx(50 / 99 * 0.01)
        assert hist.percentile(0.99) == pytest.approx(0.01)
        # The top percentile lands in [0.1, 1.0); interpolation is
        # clamped to the largest observed value.
        assert hist.percentile(1.0) == pytest.approx(0.5)

    def test_percentile_pins_uniform_distribution(self):
        # Regression: uniform 1..100 against decade bounds must report
        # p50/p99 near the true order statistics, not bucket edges.
        hist = Histogram(
            "h", bounds=tuple(float(b) for b in range(10, 101, 10))
        )
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.percentile(0.5) == pytest.approx(50.0)
        assert hist.percentile(0.99) == pytest.approx(99.0)

    def test_percentile_overflow_reports_true_max(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        hist.observe(42.0)
        assert hist.percentile(0.99) == pytest.approx(42.0)

    def test_overflow_bucket_and_snapshot(self):
        hist = Histogram("h", bounds=(1.0,))
        hist.observe(0.5)
        hist.observe(42.0)
        snap = hist.snapshot()
        assert snap["overflow"] == 1
        assert snap["buckets"][1.0] == 1
        assert snap["min"] == 0.5
        assert snap["max"] == 42.0

    def test_empty_histogram(self):
        hist = Histogram("h")
        assert hist.mean == 0.0
        assert hist.percentile(0.5) == 0.0

    def test_rejects_bad_bounds_and_quantiles(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", bounds=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram("h").percentile(0.0)


class TestEventLog:
    def test_emit_and_query_by_kind_and_session(self):
        log = EventLog()
        log.emit("admitted", session_id="s1")
        log.emit("admitted", session_id="s2")
        log.emit("established", session_id="s1", elapsed_s=2.0)
        assert len(log) == 3
        assert [e.session_id for e in log.query(kind="admitted")] == [
            "s1", "s2",
        ]
        s1 = log.query(session_id="s1")
        assert [e.kind for e in s1] == ["admitted", "established"]
        assert s1[1].fields["elapsed_s"] == 2.0

    def test_sequence_numbers_are_ordered(self):
        log = EventLog()
        for i in range(5):
            log.emit("tick", n=i)
        seqs = [e.seq for e in log.query()]
        assert seqs == sorted(seqs)

    def test_capacity_drops_and_counts(self):
        log = EventLog(capacity=2)
        log.emit("a")
        log.emit("b")
        log.emit("c")
        assert len(log) == 2
        assert log.dropped == 1


class TestMetricsRegistry:
    def test_counter_and_histogram_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.histogram("latency").observe(0.05)
        snap = registry.snapshot()
        assert snap["counters"] == {"requests": 3}
        assert snap["histograms"]["latency"]["count"] == 1
