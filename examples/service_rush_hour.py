#!/usr/bin/env python
"""Rush hour at the access-control server.

The paper's deployment contexts (a line-up service desk, a door reader)
serve *queues* of users, not one at a time.  This example brings up the
concurrent :class:`repro.service.WaveKeyAccessServer` — per-session
encoder inference on each worker, bounded admission queue,
tau-deadline enforcement, bounded retries — and throws a burst of sessions at it, twice:

1. a comfortable burst the server absorbs completely;
2. an overload burst against a deliberately tiny admission queue, to
   show structured load shedding in action.

Afterwards it prints the server's own telemetry: terminal-state
counters, stage latency histograms, and a reconstructed timeline for
one session pulled from the structured event log.

Run:  python examples/service_rush_hour.py
"""

from __future__ import annotations

import sys

import repro
from repro.service import (
    LoadProfile,
    ServiceConfig,
    WaveKeyAccessServer,
    run_load,
)


def show_report(title, report):
    print(title)
    print("-" * 64)
    for line in report.summary_lines():
        print(f"  {line}")
    print()


def show_metrics(server):
    snapshot = server.metrics.snapshot()
    print("terminal-state counters")
    print("-" * 64)
    for name in sorted(snapshot["counters"]):
        if name.startswith("service."):
            print(f"  {name:26s} {snapshot['counters'][name]}")
    print()
    print("stage latencies (mean)")
    print("-" * 64)
    for name in ("service.queue_wait_s", "service.encode_s",
                 "service.agree_s", "service.total_s"):
        hist = snapshot["histograms"].get(name)
        if hist and hist["count"]:
            print(f"  {name:26s} {hist['mean'] * 1000:8.1f} ms "
                  f"(n={hist['count']})")
    print()


def show_one_timeline(server):
    established = server.events.query(kind="established")
    if not established:
        return
    session_id = established[0].session_id
    print(f"event timeline for {session_id}")
    print("-" * 64)
    for event in server.events.query(session_id=session_id):
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(event.fields.items())
        )
        print(f"  t={event.t_s * 1000:8.1f} ms  {event.kind:14s} {detail}")
    print()


def main() -> int:
    bundle = repro.load_default_bundle()

    print("WaveKey access-control server: rush hour")
    print("=" * 64)
    print()

    config = ServiceConfig(
        workers=2,
        queue_capacity=32,
        max_attempts=2,
    )
    with WaveKeyAccessServer(bundle, config) as server:
        report = run_load(
            server, LoadProfile(sessions=10, rng_seed=2024)
        )
        show_report("burst within capacity (10 sessions)", report)
        show_metrics(server)
        show_one_timeline(server)

    # Same offered load against a deliberately tiny admission queue:
    # the surplus is shed immediately with a structured reason instead
    # of waiting forever.
    tight = ServiceConfig(
        workers=1,
        queue_capacity=2,
        max_attempts=1,
    )
    with WaveKeyAccessServer(bundle, tight) as server:
        report = run_load(
            server, LoadProfile(sessions=10, rng_seed=2025)
        )
        show_report("overload burst (queue capacity 2)", report)
        for record in report.records:
            if record.rejection is not None:
                print(f"  {record.session_id} shed: "
                      f"code={record.rejection.code} "
                      f"depth={record.rejection.queue_depth}/"
                      f"{record.rejection.queue_capacity}")
        print()

    return 0


if __name__ == "__main__":
    sys.exit(main())
