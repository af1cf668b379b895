"""Span arithmetic for the traced run: self time, per-name tables,
the unexplained share of client-observed op time, and the gateway hop.

Spans are the dicts :meth:`repro.obs.Span.to_dict` produces, stamped
with the ``service`` of the process that recorded them (``client`` for
the load generator, ``backend:<port>`` and ``gateway`` for the system
under test).  Timestamps are process-local, so intervals are only ever
intersected within one service; across services only durations are
compared.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

CLIENT = "client"

#: Client spans that root one benchmark op.
OP_ROOTS = ("bench.establish", "bench.resume")

#: Backend spans that run while the client waits outside any client
#: span: the wait between Hello and each round's SeedGrant.
GAP_FILLERS = ("enqueue", "acquire", "encode")


def role(service: str) -> str:
    """``backend:41234`` -> ``backend``: the metric name of a process."""
    return str(service).split(":", 1)[0]


def duration(span: dict) -> float:
    return float(span["end_s"]) - float(span["start_s"])


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _finished(spans: Iterable[dict]) -> List[dict]:
    return [s for s in spans if s.get("end_s") is not None]


def _children(spans: Sequence[dict]) -> Dict[Tuple[str, str], List[dict]]:
    """Same-service children keyed by ``(service, parent span id)``."""
    kids: Dict[Tuple[str, str], List[dict]] = defaultdict(list)
    for span in spans:
        if span.get("parent_id") is not None:
            kids[(span["service"], str(span["parent_id"]))].append(span)
    return kids


def self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Span id -> duration minus the part its same-process children
    cover."""
    spans = _finished(spans)
    kids = _children(spans)
    out: Dict[str, float] = {}
    for span in spans:
        lo, hi = float(span["start_s"]), float(span["end_s"])
        inner = kids.get((span["service"], str(span["span_id"])), [])
        out[str(span["span_id"])] = (hi - lo) - covered(
            ((float(k["start_s"]), float(k["end_s"])) for k in inner), lo, hi
        )
    return out


def self_time_table(spans: Iterable[dict]) -> Dict[str, List[float]]:
    """``<role>.<span name>`` -> self times in seconds."""
    spans = _finished(spans)
    selfs = self_times(spans)
    table: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        key = f"{role(span['service'])}.{span['name']}"
        table[key].append(selfs[str(span["span_id"])])
    return table


def _by_trace(spans: Iterable[dict]) -> Dict[str, List[dict]]:
    traces: Dict[str, List[dict]] = defaultdict(list)
    for span in _finished(spans):
        traces[str(span["trace_id"])].append(span)
    return traces


def _client_leaves(root: dict, trace: Sequence[dict]) -> List[dict]:
    kids = _children([s for s in trace if s["service"] == CLIENT])
    leaves, stack = [], list(kids.get((CLIENT, str(root["span_id"])), []))
    while stack:
        span = stack.pop()
        below = kids.get((CLIENT, str(span["span_id"])), [])
        if below:
            stack.extend(below)
        else:
            leaves.append(span)
    return leaves


def unexplained(spans: Iterable[dict]) -> Tuple[float, float]:
    """``(unexplained seconds, op seconds)`` over every benchmark op.

    An op's unexplained time is its client root's duration minus the
    union of the client leaf spans below it, less the durations of the
    backend spans that fill the client's waits for a SeedGrant
    (:data:`GAP_FILLERS`).
    """
    missing = total = 0.0
    for trace in _by_trace(spans).values():
        remote = sum(
            duration(s) for s in trace
            if s["service"] != CLIENT and s["name"] in GAP_FILLERS
        )
        for root in trace:
            if root["service"] != CLIENT or root["name"] not in OP_ROOTS:
                continue
            lo, hi = float(root["start_s"]), float(root["end_s"])
            leaves = _client_leaves(root, trace)
            gap = (hi - lo) - covered(
                ((float(s["start_s"]), float(s["end_s"])) for s in leaves),
                lo, hi,
            )
            missing += max(0.0, gap - remote)
            total += hi - lo
    return missing, total


def hop_times(spans: Iterable[dict]) -> List[float]:
    """Per resume op: client ``access.resume`` + ``bench.query`` minus
    the backend's ``access.resume.accept`` + ``access.op`` — the time the
    op spent between the processes (loopback, gateway, codec, loop)."""
    hops = []
    for trace in _by_trace(spans).values():
        names = defaultdict(float)
        for span in trace:
            names[(role(span["service"]), span["name"])] += duration(span)
        client = names[(CLIENT, "access.resume")] + names[
            (CLIENT, "bench.query")
        ]
        backend = names[("backend", "access.resume.accept")] + names[
            ("backend", "access.op")
        ]
        if client and backend:
            hops.append(client - backend)
    return hops
