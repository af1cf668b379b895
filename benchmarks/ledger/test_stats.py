"""Self-tests of the ledger's numeric rules (run with
``PYTHONPATH=src python -m pytest benchmarks/ledger``)."""

import contextlib
import statistics
import time

import pytest

from benchmarks.ledger.stats import (
    OpenLoopSchedule,
    counter_sum,
    hist_delta,
    percentile,
    snapshot_delta,
    spread,
    sum_delta,
    tail_quantile,
)
from benchmarks.ledger.workloads import WORKLOADS, Gate, LoadGenerator, Tally


@pytest.mark.parametrize("n, q", [
    (19, None),     # 9.5 beyond the median: nothing is reportable
    (20, 0.5),
    (39, 0.5),
    (40, 0.75),
    (99, 0.75),     # 9.9 beyond p90 is not ten
    (100, 0.9),
    (200, 0.95),
    (1000, 0.99),
    (10000, 0.999),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_quantile(n) == q


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_spread_uses_the_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.4]
    q1, median, q3 = statistics.quantiles(values, n=4)
    entry = spread(values)
    assert entry["median"] == median
    assert entry["spread"] == pytest.approx((q3 - q1) / median)


def test_open_loop_lateness_counts_from_the_due_time():
    schedule = OpenLoopSchedule(start=100.0, rate_hz=10.0)
    assert schedule.due(0) == 100.0
    assert schedule.due(3) == pytest.approx(100.3)
    schedule.began(0, 100.0)       # on time
    schedule.began(1, 100.25)      # stalled behind op 0
    schedule.began(2, 100.19)      # woke early
    assert schedule.lateness == pytest.approx([0.0, 0.15, 0.0])


def test_open_loop_op_latency_includes_the_wait_since_due():
    """An op begun late is charged from its due time, not its start."""

    class Channel:
        def request(self, op):
            return {"ok": True, "allowed": True}

    class Client:
        def open_channel(self, ticket):
            return contextlib.nullcontext(Channel())

    gen = LoadGenerator(WORKLOADS["mixed-rw"], fleet=None, gate=Gate(None),
                    seed=1)
    tally = Tally()
    due = time.monotonic() - 0.2
    gen.resume(Client(), object(), tally, due=due)
    gen.resume(Client(), object(), tally)
    assert tally.attempted == 2 and tally.failed == 0
    assert tally.samples[0] >= 0.2 > tally.samples[1]


def test_snapshot_delta_keeps_only_the_window():
    from repro.obs import MetricsRegistry, snapshot_percentile

    registry = MetricsRegistry()
    hist = registry.histogram("service.encode_s")
    counter = registry.counter("crypto.pool.miss",
                               labels={"group": "g", "kind": "sender"})
    for value in (0.0005, 0.0005, 2.0):     # before the window
        hist.observe(value)
    counter.inc(5)
    before = registry.snapshot()
    for value in (0.02, 0.02, 0.02, 0.025):
        hist.observe(value)
    counter.inc(2)
    registry.counter("crypto.pool.miss",
                     labels={"group": "g", "kind": "receiver"}).inc(1)
    delta = snapshot_delta(before, registry.snapshot())

    window = delta["histograms"]["service.encode_s"]
    assert window["count"] == 4
    assert window["total"] == pytest.approx(0.085)
    assert window["overflow"] == 0
    assert sum(window["buckets"].values()) == 4
    assert 0.01 < snapshot_percentile(window, 0.5) <= 0.03
    assert counter_sum(delta, "crypto.pool.miss", kind="sender") == 2
    assert counter_sum(delta, "crypto.pool.miss", group="g") == 3
    assert counter_sum(delta, "crypto.pool.hit") == 0


def test_hist_delta_of_a_series_born_in_the_window():
    after = {"count": 2, "total": 3.0, "buckets": {1.0: 1, 3.0: 1},
             "overflow": 0, "min": 1.0, "max": 2.0}
    delta = hist_delta(None, after)
    assert delta["count"] == 2 and delta["buckets"] == {1.0: 1, 3.0: 1}
    assert delta["min"] is None and delta["max"] == 2.0


def test_sum_delta_adds_processes():
    one = {"counters": {"a": 1}, "histograms": {"h": {
        "count": 1, "total": 1.0, "buckets": {1.0: 1}, "overflow": 0,
        "min": None, "max": 1.0}}}
    two = {"counters": {"a": 2, "b": 1}, "histograms": {"h": {
        "count": 2, "total": 5.0, "buckets": {1.0: 0}, "overflow": 2,
        "min": None, "max": 3.0}}}
    total = sum_delta([one, two])
    assert total["counters"] == {"a": 3, "b": 1}
    assert total["histograms"]["h"]["count"] == 3
    assert total["histograms"]["h"]["overflow"] == 2
    assert total["histograms"]["h"]["max"] == 3.0
    assert one["histograms"]["h"]["count"] == 1     # inputs untouched
