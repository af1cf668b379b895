"""Self-tests of self time, unexplained time and hop time on synthetic
span trees."""

import pytest

from benchmarks.ledger.spans import (
    covered,
    hop_times,
    self_time_table,
    self_times,
    unexplained,
)


def span(name, sid, parent, start, end, service="client", trace="t1"):
    return {"name": name, "span_id": sid, "parent_id": parent,
            "trace_id": trace, "start_s": start, "end_s": end,
            "service": service}


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8), (9, 20)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(-5, 1)], 0, 10) == 1


def test_self_time_subtracts_same_process_children_only():
    spans = [
        span("root", "r", None, 0.0, 10.0),
        span("a", "a", "r", 1.0, 3.0),
        span("b", "b", "r", 2.0, 5.0),          # overlaps a
        span("c", "c", "r", 7.0, 8.0),
        # Another process parents under the root: its clock is its own,
        # so it never eats into the root's self time.
        span("remote", "x", "r", 0.0, 9.0, service="backend:1"),
    ]
    selfs = self_times(spans)
    assert selfs["r"] == pytest.approx(5.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["x"] == pytest.approx(9.0)
    table = self_time_table(spans)
    assert table["backend.remote"] == [pytest.approx(9.0)]
    assert sorted(table) == ["backend.remote", "client.a", "client.b",
                             "client.c", "client.root"]


def test_unfinished_spans_are_ignored():
    spans = [span("root", "r", None, 0.0, None), span("a", "a", "r", 1, 2)]
    assert "r" not in self_times(spans)


def establish_trace(trace="t1"):
    """bench.establish over 10 s: connect, hello and one 4 s round are
    covered client-side; the backend's acquire/encode (2.5 s) fill part
    of the 4 s the client waited for its SeedGrant."""
    return [
        span("bench.establish", "r", None, 0.0, 10.0, trace=trace),
        span("net.establish", "e", "r", 0.0, 10.0, trace=trace),
        span("net.connect", "c", "e", 0.0, 1.0, trace=trace),
        span("net.hello", "h", "e", 1.0, 2.0, trace=trace),
        span("net.round", "n", "e", 5.0, 9.0, trace=trace),
        span("net.ot.announce", "o1", "n", 5.0, 7.0, trace=trace),
        span("net.reconcile", "o2", "n", 7.0, 9.0, trace=trace),
        span("session", "s", "h", 100.0, 108.0, "backend:1", trace),
        span("acquire", "q", "s", 100.0, 102.0, "backend:1", trace),
        span("encode", "k", "s", 102.0, 102.5, "backend:1", trace),
        span("ot", "t", "s", 103.0, 107.0, "backend:1", trace),
    ]


def test_unexplained_is_the_uncovered_client_wait():
    missing, total = unexplained(establish_trace())
    assert total == pytest.approx(10.0)
    assert missing == pytest.approx(10.0 - 6.0 - 2.5)


def test_unexplained_sums_over_traces_and_floors_at_zero():
    covered_op = [
        span("bench.resume", "r2", None, 0.0, 1.0, trace="t2"),
        span("access.resume", "a2", "r2", 0.0, 1.0, trace="t2"),
    ]
    missing, total = unexplained(establish_trace() + covered_op)
    assert (missing, total) == (pytest.approx(1.5), pytest.approx(11.0))
    # Remote fillers longer than the client's gap explain all of it.
    spans = establish_trace()
    spans[-2]["end_s"] = 110.0
    assert unexplained(spans)[0] == 0.0


def test_hop_is_client_resume_time_not_spent_in_the_backend():
    spans = [
        span("bench.resume", "r", None, 0.0, 3.0),
        span("access.resume", "a", "r", 0.0, 1.5),
        span("bench.query", "q", "r", 1.5, 2.5),
        span("cluster.route", "g", "a", 50.0, 50.2, "gateway"),
        span("access.resume.accept", "b", "a", 70.0, 70.4, "backend:2"),
        span("access.op", "o", "a", 71.0, 71.3, "backend:2"),
        # An establishment trace has no resume: no hop.
        *establish_trace("t9"),
    ]
    assert hop_times(spans) == [pytest.approx(2.5 - 0.7)]
