"""A single-threaded ``selectors`` event loop for the network tier.

One thread owns every socket: readiness events from a
:class:`selectors.DefaultSelector` drive per-connection callbacks, a
self-pipe lets other threads (protocol workers, ticket completion
callbacks) schedule work onto the loop, and a timer heap provides
cancellable deadlines (handshake timeouts, verdict budgets, delayed
fault injection).  The front ends built on it —
:class:`repro.net.server.WaveKeyTCPServer`,
:class:`repro.net.proxy.FaultInjectionProxy` and
:class:`repro.cluster.gateway.WaveKeyGateway`, which share the
listen / accept / dial helpers of :mod:`repro.net.splice` — keep
thousands of idle connections at a constant thread count.

Threading contract:

* :meth:`EventLoop.register` / :meth:`unregister` / :meth:`call_later`
  are **loop-thread only** — connection state machines run exclusively
  on the loop;
* :meth:`call_soon` is the **thread-safe** entry: it enqueues a
  callback and wakes the loop via the self-pipe;
* callbacks must never block: protocol compute stays on the access
  server's worker pool, and socket writes go through bounded outbound
  buffers that write each frame to the non-blocking socket on the
  producing thread; a remainder the kernel would not take is flushed
  on writability.  A worker's frame therefore never waits for a loop
  tick; only its verdict callbacks and partial-write handoffs do.

When given a :class:`MetricsRegistry` the loop emits its own health
series: ``net.loop.wakeup_latency_s`` (self-pipe wake -> drain, the
cross-thread handoff cost of ``call_soon``), ``net.loop.dispatch_lag_s``
(readiness report -> handler entry within one tick), ``net.loop.ticks``
and ``net.loop.callback_errors``.
"""

from __future__ import annotations

import heapq
import itertools
import os
import selectors
import threading
import time
from collections import deque
from typing import Callable, Optional

from repro.errors import ServiceError
from repro.obs.metrics import MetricsRegistry, wakeup_buckets

#: Re-exported so front ends do not import ``selectors`` themselves.
EVENT_READ = selectors.EVENT_READ
EVENT_WRITE = selectors.EVENT_WRITE


class Deadline:
    """A cancellable timer handle returned by :meth:`EventLoop.call_later`."""

    __slots__ = ("when", "callback", "cancelled")

    def __init__(self, when: float, callback: Callable[[], None]):
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EventLoop:
    """Selector + self-pipe + timer heap, on one daemon thread."""

    def __init__(
        self,
        *,
        name: str = "wavekey-net-loop",
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.name = name
        self.metrics = metrics
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        self._wake_lock = threading.Lock()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._selector.register(self._wake_r, EVENT_READ, self._drain_wakeups)
        self._pending: deque = deque()
        self._pending_lock = threading.Lock()
        self._wake_stamps: deque = deque()
        self._timers: list = []
        self._timer_seq = itertools.count()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._dead_this_tick: set = set()

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "EventLoop":
        if self._running:
            raise ServiceError("event loop already started")
        self._running = True
        self._thread = threading.Thread(
            target=self._run, name=self.name, daemon=True
        )
        self._thread.start()
        return self

    def stop(self, join_timeout_s: float = 5.0) -> None:
        if not self._running:
            return
        self._running = False
        self.wake()
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=join_timeout_s)
        try:
            self._selector.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass
        self._selector.close()
        # Invalidate the write end under the wake lock BEFORE closing:
        # late wakers (worker completions, probes) must see -1, never a
        # recycled fd.  Writing the wake byte into whatever socket
        # inherits the fd number would inject 0x00 into that stream.
        with self._wake_lock:
            wake_w, self._wake_w = self._wake_w, -1
        os.close(self._wake_r)
        os.close(wake_w)

    def assert_loop_thread(self) -> None:
        if self._running and threading.current_thread() is not self._thread:
            raise ServiceError(
                "selector state may only be touched from the loop thread; "
                "use call_soon() to get there"
            )

    # -- selector management (loop thread only) ----------------------------

    def register(self, sock, events: int, callback) -> None:
        """Watch ``sock``; ``callback(mask)`` runs on readiness."""
        self.assert_loop_thread()
        self._selector.register(sock, events, callback)
        self._dead_this_tick.discard(sock.fileno())

    def modify(self, sock, events: int, callback) -> None:
        self.assert_loop_thread()
        self._selector.modify(sock, events, callback)

    def unregister(self, sock) -> None:
        self.assert_loop_thread()
        try:
            self._dead_this_tick.add(sock.fileno())
        except (OSError, ValueError):
            pass
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass

    def call_later(
        self, delay_s: float, callback: Callable[[], None]
    ) -> Deadline:
        """Schedule ``callback()`` on the loop after ``delay_s``."""
        self.assert_loop_thread()
        deadline = Deadline(time.monotonic() + max(0.0, delay_s), callback)
        heapq.heappush(
            self._timers, (deadline.when, next(self._timer_seq), deadline)
        )
        return deadline

    # -- cross-thread entry points -----------------------------------------

    def call_soon(self, callback, *args) -> None:
        """Thread-safe: run ``callback(*args)`` on the next loop tick."""
        with self._pending_lock:
            self._pending.append((callback, args))
        self.wake()

    def wake(self) -> None:
        """Interrupt a blocked ``select`` from any thread."""
        self._wake_stamps.append(time.perf_counter())
        # The lock pins the fd across the write: without it a stop()
        # racing this call can close the pipe and let the OS recycle
        # the fd number for a fresh TCP socket, and the wake byte
        # becomes a stray 0x00 in the middle of that connection's
        # stream (observed as frame desync under backend churn).
        with self._wake_lock:
            if self._wake_w < 0:
                return  # loop torn down: nothing left to wake
            try:
                os.write(self._wake_w, b"\x00")
            except (BlockingIOError, InterruptedError):
                pass  # pipe full: a wakeup is already pending

    # -- internals ---------------------------------------------------------

    def _drain_wakeups(self, mask: int) -> None:
        try:
            drained = os.read(self._wake_r, 4096)
        except (BlockingIOError, InterruptedError):
            return
        if self.metrics is not None and drained:
            now = time.perf_counter()
            hist = self.metrics.histogram(
                "net.loop.wakeup_latency_s", bounds=wakeup_buckets()
            )
            for _ in range(min(len(drained), len(self._wake_stamps))):
                hist.observe(now - self._wake_stamps.popleft())
        else:
            for _ in range(len(drained)):
                if self._wake_stamps:
                    self._wake_stamps.popleft()

    def _next_timeout(self) -> Optional[float]:
        while self._timers and self._timers[0][2].cancelled:
            heapq.heappop(self._timers)
        if not self._timers:
            return None
        return max(0.0, self._timers[0][0] - time.monotonic())

    def _run_callback(self, callback, *args) -> None:
        try:
            callback(*args)
        except Exception as exc:  # noqa: BLE001 — the loop must survive
            if self.metrics is not None:
                self.metrics.counter("net.loop.callback_errors").inc()
            # Last-resort visibility without assuming a logger exists.
            import sys

            print(
                f"[{self.name}] callback error: {exc!r}", file=sys.stderr
            )

    def _run(self) -> None:
        dispatch_hist = (
            self.metrics.histogram(
                "net.loop.dispatch_lag_s", bounds=wakeup_buckets()
            )
            if self.metrics is not None
            else None
        )
        tick_counter = (
            self.metrics.counter("net.loop.ticks")
            if self.metrics is not None
            else None
        )
        while self._running:
            try:
                events = self._selector.select(self._next_timeout())
            except OSError:
                continue  # fd closed under us during shutdown
            if not self._running:
                break
            if tick_counter is not None:
                tick_counter.inc()
            self._dead_this_tick.clear()
            ready_at = time.perf_counter()
            for key, mask in events:
                if key.fd in self._dead_this_tick:
                    continue  # closed by an earlier callback this tick
                if dispatch_hist is not None:
                    dispatch_hist.observe(time.perf_counter() - ready_at)
                self._run_callback(key.data, mask)
            now = time.monotonic()
            while self._timers and self._timers[0][0] <= now:
                _, _, deadline = heapq.heappop(self._timers)
                if not deadline.cancelled:
                    self._run_callback(deadline.callback)
            while True:
                with self._pending_lock:
                    if not self._pending:
                        break
                    callback, args = self._pending.popleft()
                self._run_callback(callback, *args)
