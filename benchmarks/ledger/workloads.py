"""The four workloads and the load generator that drives them.

One load-generator process drives the SUT through the public client
SDK only (``WaveKeyNetClient.establish``, ``open_channel``,
``revoke``), from at most two threads with at most two connections
open.  Every establishment uses real acquisition on the server; the
server receives only the session seeds derived here from ``--seed``.
The backends run one attempt per session, so an establishment is one
gesture's worth of work: with the default three, how many attempts a
session took was a property of its seed, and the latency of a set of
sessions a seed-dependent mix of one, two and three attempts.

A session the server ends ``timed_out`` missed the tau deadline because
the host was busy, not because of its seed: the client's Curve25519
announce alone takes ~30 ms of the 120 ms.  On a 2-core host, M_A
reached the server at a median 2037 ms (deadline 2120) when idle, 2071
ms beside two busy-looping processes and 2124 ms beside four, where 20
of 35 tries timed out and 5 tries in a row did too.  The op tries that
seed again until ESTABLISH_BUDGET_S has passed, so a timeout shows as
latency and in ``bench.timeouts_per_establish``, not as a failed op or
a failed set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from benchmarks.ledger import spans as spanlib
from benchmarks.ledger.stats import (
    OpenLoopSchedule,
    percentile,
    snapshot_delta,
    sum_delta,
)
from benchmarks.ledger.sut import Fleet, make_run_dir, remove_run_dir

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Seconds one establishment op keeps trying: a try the server ends
#: ``timed_out`` (or sheds) is made again with the same seed, as a user
#: would, until this much time has passed since the op began.
ESTABLISH_BUDGET_S = 20.0

#: Seconds between telemetry drains in the traced run (the SUT rings
#: hold 4096 spans).
DRAIN_INTERVAL_S = 0.5

#: Open-loop rates of ``mixed-rw``.
READ_RATE_HZ = 100.0
WRITE_RATE_HZ = 1.0
REVOKE_EVERY = 4
REVOKE_AFTER_S = 2.0

#: Seconds a pre-granted ticket may take to replicate before it
#: resumes through the gateway.
REPLICATION_WAIT_S = 15.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                 # "establish" | "resume" | "mixed"
    tail_q: float             # op_tail_ms percentile
    group: str = "modp512"
    backends: int = 1
    gateway: bool = False
    journal: bool = False
    clients: int = 1
    pregrant: int = 0

    @property
    def group_id(self) -> str:
        from repro.crypto.group import resolve_group

        return resolve_group(self.group).name


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "establish-modp",
        "Table III path on the default MODP group: acquisition, encoders "
        "and OT do the work; the control where curve work must not move",
        kind="establish", tail_q=0.9,
    ),
    Workload(
        "establish-curve",
        "same path over Curve25519, where curve field arithmetic "
        "dominates; one client, since two breach tau from load alone",
        kind="establish", tail_q=0.75, group="curve25519",
    ),
    # One client: with two, an op mostly measured how long it queued
    # behind the other in the 4 processes sharing 2 cores (p50 3.1 vs
    # 1.9 ms), and p99 followed the host's load (5-18 ms over ten seeds).
    # p90 is the highest percentile whose ten-seed spread stayed near
    # the median's.
    Workload(
        "resume-gateway",
        "ticket resumes through the gateway over 2 replicating backends: "
        "no OT; codec, event loop, route/splice and the access handshake",
        kind="resume", tail_q=0.9, backends=2, gateway=True, clients=1,
        pregrant=16,
    ),
    # Run by ``run``/``trace`` but not declared in BENCHMARK.json: each
    # write stalls the open-loop reads due during it, and a slower host
    # makes the stall both longer and more often overlapped, so reads
    # cascade.  Over four seeds minutes apart the share of reads slower
    # than twice the median went 22-41 % and p50 1.9-5.9 ms.
    Workload(
        "mixed-rw",
        "open-loop resumes beside 1/s establishments, grants journaled "
        "and revoked: a change that stalls one side shows on the other",
        kind="mixed", tail_q=0.75, journal=True, clients=2, pregrant=16,
    ),
)}


def session_seed(seed: int, index: int) -> int:
    """The ``index``-th session seed of the stream ``seed`` makes."""
    from repro.utils.rng import derive_seed

    return derive_seed(seed, "ledger", index)


class Gate:
    """Correctness checks: every failure names the op it caught."""

    def __init__(self, pins: Optional[str]):
        self.pins = pins           # one letter per session index, or None
        self.failures: List[str] = []
        self.verdicts: List[Tuple[int, str]] = []
        self._lock = threading.Lock()

    def fail(self, op: str, detail: str) -> None:
        with self._lock:
            self.failures.append(f"{op}: {detail}")

    def verdict(self, index: int, state: str) -> None:
        """Check a non-timed-out verdict against its pin."""
        with self._lock:
            self.verdicts.append((index, state))
        if self.pins is None:
            return
        if index >= len(self.pins):
            self.fail(f"establish #{index}",
                      f"no pinned verdict (only {len(self.pins)} pinned)")
        elif state[0].upper() != self.pins[index]:
            self.fail(f"establish #{index}",
                      f"verdict {state}, pinned {self.pins[index]}")

    def digest(self) -> str:
        text = "".join(f"{i}:{s}\n" for i, s in sorted(self.verdicts))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


class Tally:
    """Thread-safe op accounting for one timed window (or set-up)."""

    def __init__(self):
        self.samples: List[float] = []     # op latencies, seconds
        self.attempted = 0
        self.failed = 0
        self.timeouts = 0                  # tries made again, not ops
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def timed_out(self) -> None:
        with self._lock:
            self.timeouts += 1

    def ok(self, latency_s: float) -> None:
        with self._lock:
            self.samples.append(latency_s)
            self.attempted += 1

    def error(self, message: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    def expected(self) -> None:
        """An op that ended in the rejection the workload provoked."""
        with self._lock:
            self.attempted += 1


class LoadGenerator:
    """One SUT, its client SDK and the op helpers every workload uses."""

    def __init__(self, workload: Workload, fleet: Fleet, gate: Gate,
                 seed: int, tracer=None):
        self.workload = workload
        self.fleet = fleet
        self.gate = gate
        self.seed = seed
        self.tracer = tracer
        self._next = 1             # session 0 is the warm-up
        self._lock = threading.Lock()
        self.revoked: set = set()

    def client(self, name: str = "mobile"):
        from repro.crypto.group import resolve_group
        from repro.net import NetClientConfig, WaveKeyNetClient

        host, port = self.fleet.front
        return WaveKeyNetClient(
            host, port,
            NetClientConfig(name=name,
                            group=resolve_group(self.workload.group)),
            tracer=self.tracer,
        )

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def take_seed(self) -> Tuple[int, int]:
        with self._lock:
            index = self._next
            self._next += 1
        return index, session_seed(self.seed, index)

    # -- ops ---------------------------------------------------------------

    def establish(self, client, tally: Tally, index: int = None,
                  due: float = None):
        """One establishment; returns its ticket when it established."""
        from repro.errors import WaveKeyError

        if index is None:
            index, rng_seed = self.take_seed()
        else:
            rng_seed = session_seed(self.seed, index)
        start = time.monotonic() if due is None else due
        give_up = time.monotonic() + ESTABLISH_BUDGET_S
        while True:
            try:
                with self.span("bench.establish"):
                    result = client.establish(rng_seed)
            except (WaveKeyError, OSError) as exc:
                tally.error(f"establish #{index}: {exc!r}")
                return None
            if result.state not in ("timed_out", "shed"):
                break
            tally.timed_out()
            if time.monotonic() >= give_up:
                tally.error(f"establish #{index}: {result.state} "
                            f"({result.failure_reason}) on every try "
                            f"for {ESTABLISH_BUDGET_S:g} s")
                return None
        elapsed = time.monotonic() - start
        self.gate.verdict(index, result.state)
        tally.ok(elapsed)
        if result.success and result.ticket is None:
            self.gate.fail(f"establish #{index}", "established, no ticket")
        return result.ticket

    def resume(self, client, ticket, tally: Tally,
               due: float = None) -> None:
        """open_channel + query + close."""
        from repro.errors import TicketRevoked, WaveKeyError

        start = time.monotonic() if due is None else due
        try:
            with self.span("bench.resume"):
                with client.open_channel(ticket) as channel:
                    with self.span("bench.query"):
                        reply = channel.request("query")
        except TicketRevoked as exc:
            if ticket.ticket_id in self.revoked:
                tally.expected()
            else:
                tally.error(f"resume {ticket.ticket_id}: {exc!r}")
            return
        except (WaveKeyError, OSError) as exc:
            tally.error(f"resume {ticket.ticket_id}: {exc!r}")
            return
        if reply.get("allowed") is not True:
            self.gate.fail(f"query {ticket.ticket_id}",
                           f"answered {reply!r}")
        tally.ok(time.monotonic() - start)

    def revoke(self, client, ticket, tally: Tally) -> None:
        from repro.errors import WaveKeyError

        self.revoked.add(ticket.ticket_id)
        try:
            with self.span("bench.revoke"):
                client.revoke(ticket)
        except (WaveKeyError, OSError) as exc:
            tally.error(f"revoke {ticket.ticket_id}: {exc!r}")

    # -- set-up and checks -------------------------------------------------

    def warm_up(self) -> None:
        tally = Tally()
        self.establish(self.client(), tally, index=0)
        if tally.failed:
            raise RuntimeError(f"warm-up failed: {tally.errors}")

    def pregrant(self, count: int, threads: int) -> list:
        """Establish until ``count`` tickets are granted."""
        tickets: List[Tuple[int, object]] = []
        tally = Tally()

        def grant(name: str) -> None:
            client = self.client(name)
            while True:
                with self._lock:
                    if len(tickets) >= count or tally.attempted > 20 * count:
                        return
                index, _ = self.take_seed()
                ticket = self.establish(client, tally, index=index)
                if ticket is not None:
                    with self._lock:
                        tickets.append((index, ticket))

        _run_threads([lambda i=i: grant(f"bench-{i}") for i in range(threads)])
        if len(tickets) < count:
            raise RuntimeError(
                f"pre-grant got {len(tickets)}/{count} tickets: {tally.errors}"
            )
        return [t for _, t in sorted(tickets, key=lambda p: p[0])][:count]

    def await_replication(self, tickets: list) -> None:
        """Resume every ticket once through the front door, waiting out
        replication lag (TicketUnknown) before timing starts."""
        from repro.errors import TicketUnknown

        client = self.client()
        deadline = time.monotonic() + REPLICATION_WAIT_S
        for ticket in tickets:
            while True:
                try:
                    with client.open_channel(ticket) as channel:
                        channel.request("query")
                    break
                except TicketUnknown:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)

    def check_tickets(self, tickets: list) -> None:
        """After the window: each live ticket resumes (proving both ends
        derived the same key) and each revoked one is refused."""
        from repro.errors import TicketRevoked, WaveKeyError

        client = self.client()
        for ticket in tickets:
            op = f"post-window resume {ticket.ticket_id}"
            try:
                with client.open_channel(ticket) as channel:
                    reply = channel.request("query")
            except TicketRevoked:
                if ticket.ticket_id not in self.revoked:
                    self.gate.fail(op, "live ticket refused as revoked")
                continue
            except (WaveKeyError, OSError) as exc:
                self.gate.fail(op, repr(exc))
                continue
            if ticket.ticket_id in self.revoked:
                self.gate.fail(op, "revoked ticket still resumes")
            elif reply.get("allowed") is not True:
                self.gate.fail(op, f"answered {reply!r}")


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


# -- timed windows ------------------------------------------------------------


@dataclass
class Window:
    tally: Tally              # the workload's primary ops
    tickets: list             # every ticket the post-window check covers
    lateness: List[float]     # open-loop generator lateness, seconds
    writes: Optional[Tally] = None
    elapsed_s: float = 0.0


def _establish_window(gen: LoadGenerator, deadline: float, _tickets) -> Window:
    tally, granted = Tally(), []

    def loop() -> None:
        client = gen.client()
        while time.monotonic() < deadline:
            ticket = gen.establish(client, tally)
            if ticket is not None:
                granted.append(ticket)

    _run_threads([loop])
    return Window(tally, granted, [])


def _resume_window(gen: LoadGenerator, deadline: float, tickets) -> Window:
    tally, clients = Tally(), gen.workload.clients

    def loop(i: int) -> None:
        client, k = gen.client(f"bench-{i}"), i
        while time.monotonic() < deadline:
            gen.resume(client, tickets[k % len(tickets)], tally)
            k += clients

    _run_threads([lambda i=i: loop(i) for i in range(clients)])
    return Window(tally, list(tickets), [])


def _mixed_window(gen: LoadGenerator, deadline: float, tickets) -> Window:
    """Open loop: a reader resuming at READ_RATE_HZ over the live ticket
    set, a writer establishing at WRITE_RATE_HZ and revoking every
    REVOKE_EVERY-th new ticket REVOKE_AFTER_S after its grant."""
    reads, writes = Tally(), Tally()
    live, granted = list(tickets), list(tickets)
    lock = threading.Lock()
    start = time.monotonic()
    schedule = OpenLoopSchedule(start, READ_RATE_HZ)
    pick = random.Random(session_seed(gen.seed, -1))
    pending: List[Tuple[float, object]] = []

    def reader() -> None:
        client, k = gen.client("reader"), 0
        while schedule.due(k) < deadline:
            _sleep_until(schedule.due(k))
            with lock:
                ticket = live[pick.randrange(len(live))]
            schedule.began(k, time.monotonic())
            gen.resume(client, ticket, reads, due=schedule.due(k))
            k += 1

    def revoke(client, ticket) -> None:
        with lock:
            live.remove(ticket)
        gen.revoke(client, ticket, writes)

    def writer() -> None:
        client, j, grants = gen.client("writer"), 0, 0
        while True:
            due = start + j / WRITE_RATE_HZ
            if pending and pending[0][0] <= min(due, deadline):
                at, ticket = pending.pop(0)
                _sleep_until(at)
                revoke(client, ticket)
                continue
            if due >= deadline:
                break
            _sleep_until(due)
            ticket = gen.establish(client, writes, due=due)
            j += 1
            if ticket is None:
                continue
            grants += 1
            with lock:
                live.append(ticket)
                granted.append(ticket)
            if grants % REVOKE_EVERY == 0:
                pending.append((time.monotonic() + REVOKE_AFTER_S, ticket))
        # Revocations that fell due after the window still happen, so
        # the post-window check covers every fourth grant.
        for _, ticket in pending:
            revoke(client, ticket)

    _run_threads([reader, writer])
    return Window(reads, granted, schedule.lateness, writes)


def _sleep_until(when: float) -> None:
    delay = when - time.monotonic()
    if delay > 0:
        time.sleep(delay)


WINDOWS = {
    "establish": _establish_window,
    "resume": _resume_window,
    "mixed": _mixed_window,
}


# -- one pass: set-up, window, checks -----------------------------------------


@dataclass
class Pass:
    """What one pass over a workload measured."""

    setup_s: List[float]
    window: Window
    sut_cpu_s: float
    client_cpu_s: float
    sut_rss_mb: float
    stats_delta: dict          # summed backend snapshot delta
    gateway_delta: dict
    spans: List[dict]
    spans_dropped: int

    @property
    def ops(self) -> int:
        return len(self.window.tally.samples)

    def p(self, q: float) -> float:
        return percentile(self.window.tally.samples, q)

    @property
    def establishes(self) -> Tally:
        """The window's establishment ops (none on ``resume``)."""
        return self.window.writes or self.window.tally


def run_pass(workload: Workload, seed: int, seconds: float, gate: Gate,
             setups: int = 1, traced: bool = False) -> Pass:
    """Set the SUT up ``setups`` times (keeping the last), pre-grant,
    run the timed window, check outputs and tear down."""
    run_dir = make_run_dir()
    fleet = None
    try:
        setup_times = []
        for k in range(setups):
            began = time.monotonic()
            setup_dir = run_dir / f"setup-{k}"
            setup_dir.mkdir()
            fleet = Fleet(workload, setup_dir, telemetry=traced)
            fleet.start()
            LoadGenerator(workload, fleet, gate, seed).warm_up()
            setup_times.append(time.monotonic() - began)
            if k < setups - 1:
                fleet.close()
        return _measure(workload, fleet, seed, seconds, gate, traced,
                        setup_times)
    finally:
        if fleet is not None:
            fleet.close()
        remove_run_dir(run_dir)


def _measure(workload, fleet, seed, seconds, gate, traced, setup_times):
    from repro.obs import Tracer

    tracer = Tracer() if traced else None
    gen = LoadGenerator(workload, fleet, gate, seed, tracer)
    tickets = []
    if workload.pregrant:
        tickets = gen.pregrant(workload.pregrant, workload.clients)
        if workload.gateway:
            gen.await_replication(tickets)
    # The warm-up and pre-grants drained the pools; on resume-gateway
    # their refill otherwise slowed the first ~1500 resumes (p90 4.6-6.1
    # against 2.3-2.9 ms after).
    fleet.wait_pools_full()
    collector = _SpanCollector(fleet) if traced else None
    if collector is not None:
        collector.drain(keep=False)   # set-up spans are not the window's
        tracer.reset()
    before = fleet.stats()
    sut_cpu0, client_cpu0 = fleet.cpu_seconds(), time.process_time()
    start = time.monotonic()
    deadline = start + seconds
    windows: List[Window] = []
    worker = threading.Thread(
        target=lambda: windows.append(
            WINDOWS[workload.kind](gen, deadline, tickets)
        ),
        daemon=True,
    )
    worker.start()
    while worker.is_alive():
        worker.join(DRAIN_INTERVAL_S)
        if collector is not None and worker.is_alive():
            collector.drain()
    if not windows:
        raise RuntimeError(f"{workload.name}: load generator died")
    window = windows[0]
    window.elapsed_s = time.monotonic() - start
    sut_cpu = fleet.cpu_seconds() - sut_cpu0
    client_cpu = time.process_time() - client_cpu0
    after = fleet.stats()
    spans, dropped = [], 0
    if collector is not None:
        collector.drain()
        spans = collector.spans + [
            dict(s, service=spanlib.CLIENT) for s in tracer.to_dicts()
        ]
        dropped = collector.dropped + tracer.dropped
        gen.tracer = None          # the checks below are not traced
    gen.check_tickets(window.tickets)
    n = len(fleet.backends)
    backend_delta = sum_delta([
        snapshot_delta(b["snapshot"], a["snapshot"])
        for b, a in zip(before[:n], after[:n])
    ])
    gateway_delta = (
        snapshot_delta(before[n]["snapshot"], after[n]["snapshot"])
        if workload.gateway else {"counters": {}, "histograms": {}}
    )
    return Pass(
        setup_s=setup_times,
        window=window,
        sut_cpu_s=sut_cpu,
        client_cpu_s=client_cpu,
        sut_rss_mb=fleet.peak_rss_mb(),
        stats_delta=backend_delta,
        gateway_delta=gateway_delta,
        spans=spans,
        spans_dropped=dropped,
    )


class _SpanCollector:
    """Drains every SUT telemetry ring (``fetch_telemetry(drain=True)``)
    and keeps the spans, de-duplicated by span id."""

    def __init__(self, fleet: Fleet):
        self.fleet = fleet
        self.by_id: Dict[str, dict] = {}
        self.dropped_by: Dict[str, int] = {}

    def drain(self, keep: bool = True) -> None:
        from repro.cluster import fetch_telemetry

        for process in self.fleet.processes:
            document = fetch_telemetry(*process.address, drain=True)
            self.dropped_by[process.name] = int(
                document.get("dropped_spans", 0)
            )
            if keep:
                for span in document["spans"]:
                    self.by_id.setdefault(str(span["span_id"]), span)

    @property
    def spans(self) -> List[dict]:
        return list(self.by_id.values())

    @property
    def dropped(self) -> int:
        return sum(self.dropped_by.values())


def replay_seeds(seed: int, count: int) -> List[int]:
    """The workload's own session seeds the layer replay runs on."""
    return [session_seed(seed, i) for i in range(1, count + 1)]
