"""Pure numeric helpers of the ledger: percentiles, spreads, snapshot
deltas and open-loop due-time accounting.

Nothing here touches a socket or a process, so the self-tests can pin
every rule on synthetic data.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)

#: Samples a tail percentile needs beyond it to be reported.
TAIL_MIN_BEYOND = 10


def tail_quantile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it
    in a sample of ``n``; None when even the median has fewer."""
    best = None
    for q in TAIL_LADDER:
        if n * (1.0 - q) >= TAIL_MIN_BEYOND - 1e-9:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile of ``values`` (0 <= q <= 1)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the quartile distance as a share of the
    median, with quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
    }


# -- metrics-registry snapshots -------------------------------------------


def hist_delta(before: Optional[dict], after: Optional[dict]) -> dict:
    """Observations a histogram snapshot gained between two scrapes.

    Bucket counts, count, total and overflow subtract.  The window's own
    min is unknowable, so it is dropped; the later max stays as an upper
    bound so an overflow-bucket percentile still has a value.
    """
    after = after or {"count": 0, "total": 0.0, "buckets": {}, "overflow": 0}
    before = before or {}
    prior = before.get("buckets", {})
    buckets = {
        edge: n - prior.get(edge, 0)
        for edge, n in after.get("buckets", {}).items()
    }
    count = after.get("count", 0) - before.get("count", 0)
    return {
        "count": count,
        "total": after.get("total", 0.0) - before.get("total", 0.0),
        "buckets": buckets,
        "overflow": after.get("overflow", 0) - before.get("overflow", 0),
        "min": None,
        "max": after.get("max") if count else None,
    }


def snapshot_delta(before: dict, after: dict) -> dict:
    """Counters and histograms a registry snapshot gained in a window."""
    counters = {
        key: value - before.get("counters", {}).get(key, 0)
        for key, value in after.get("counters", {}).items()
    }
    histograms = {
        key: hist_delta(before.get("histograms", {}).get(key), hist)
        for key, hist in after.get("histograms", {}).items()
    }
    return {"counters": counters, "histograms": histograms}


def sum_delta(deltas: Sequence[dict]) -> dict:
    """Add the window deltas of several processes series by series."""
    counters: Dict[str, float] = {}
    histograms: Dict[str, dict] = {}
    for delta in deltas:
        for key, value in delta["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, hist in delta["histograms"].items():
            into = histograms.get(key)
            if into is None:
                histograms[key] = {
                    **hist, "buckets": dict(hist["buckets"]),
                }
                continue
            into["count"] += hist["count"]
            into["total"] += hist["total"]
            into["overflow"] += hist["overflow"]
            for edge, n in hist["buckets"].items():
                into["buckets"][edge] = into["buckets"].get(edge, 0) + n
            maxes = [m for m in (into["max"], hist["max"]) if m is not None]
            into["max"] = max(maxes) if maxes else None
    return {"counters": counters, "histograms": histograms}


def counter_sum(delta: dict, name: str, **labels: str) -> float:
    """Sum of every series of counter ``name`` whose labels include
    ``labels`` (series keys look like ``name{k="v",...}``)."""
    total = 0.0
    for key, value in delta["counters"].items():
        base, _, body = key.partition("{")
        if base != name:
            continue
        if all(f'{k}="{v}"' in body for k, v in labels.items()):
            total += value
    return total


# -- open-loop load --------------------------------------------------------


class OpenLoopSchedule:
    """Due times of an open-loop generator and how late it ran.

    Op ``k`` is due at ``start + k / rate``.  Ops are timed from their
    due time, so a stall also charges the ops queued behind it;
    lateness is how far after its due time the generator began an op.
    """

    def __init__(self, start: float, rate_hz: float):
        if rate_hz <= 0:
            raise ValueError("rate must be > 0")
        self.start = start
        self.interval = 1.0 / rate_hz
        self.lateness: List[float] = []

    def due(self, k: int) -> float:
        return self.start + k * self.interval

    def began(self, k: int, when: float) -> None:
        self.lateness.append(max(0.0, when - self.due(k)))
