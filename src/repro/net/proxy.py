"""Fault-injection TCP proxy: the simulated adversary hooks on a real wire.

:class:`FaultInjectionProxy` sits between a :class:`WaveKeyNetClient`
and a :class:`WaveKeyTCPServer`, relaying frames in both directions.
Because it reads whole frames (not byte streams), faults operate at the
protocol granularity the paper's SV-A/SV-C experiments reason about:

* **tap** — observe every frame (direction, type, payload) without
  modifying it: the passive eavesdropper;
* **drop** — swallow selected frames: the peer's read deadline fires
  and surfaces as :class:`ConnectionTimeout`;
* **corrupt** — flip payload bytes: the receiver raises
  :class:`DecodeError`;
* **delay** — hold frames: announce-phase delays breach the paper's
  ``2 s + tau`` deadline on the server's protocol clock;
* **reorder** — hold one frame and release it after the next: the
  strict alternating exchange rejects it as a :class:`ProtocolError`.

An ``interceptor(direction, frame) -> (frames, delay_s)`` decides what
to forward; the helpers below build the common ones.  Directions are
``"c2s"`` (client-to-server) and ``"s2c"``.

The proxy runs on one :class:`repro.net.eventloop.EventLoop` thread:
each accepted client gets a non-blocking upstream dial and then a
:class:`repro.net.splice.Splice`, whose per-frame hook runs the taps
and the interceptor.  A delay pauses its direction until the held
frames are released, so delays keep frame order.
"""

from __future__ import annotations

import functools
import socket
import threading
from typing import Callable, Iterable, List, Optional, Tuple

from repro.net.codec import DEFAULT_MAX_FRAME_BYTES, Frame, FrameType
from repro.net.eventloop import EVENT_READ, EventLoop
from repro.net.splice import Splice, accept_ready, close_socket, dial, listen

#: interceptor signature: (direction, frame) -> (frames_to_forward, delay_s)
Interceptor = Callable[[str, Frame], Tuple[List[Frame], float]]

#: tap signature: (direction, frame) -> None
Tap = Callable[[str, Frame], None]


def _forward(direction: str, frame: Frame) -> Tuple[List[Frame], float]:
    return [frame], 0.0


def _matches(frame: Frame, types: Optional[Iterable[FrameType]]) -> bool:
    return types is None or frame.type in set(types)


def drop_frames(
    types: Iterable[FrameType] = None, count: int = 1
) -> Interceptor:
    """Swallow the first ``count`` matching frames (any direction)."""
    remaining = [count]

    def interceptor(direction: str, frame: Frame):
        if remaining[0] > 0 and _matches(frame, types):
            remaining[0] -= 1
            return [], 0.0
        return [frame], 0.0

    return interceptor


def corrupt_frames(
    types: Iterable[FrameType] = None, count: int = 1
) -> Interceptor:
    """Flip the first payload byte of ``count`` matching frames.

    For every ``sender``-carrying message byte 0 is the high byte of
    the sender-length prefix, so the flip yields an impossible string
    length and a deterministic :class:`DecodeError` at the receiver.
    """
    remaining = [count]

    def interceptor(direction: str, frame: Frame):
        if remaining[0] > 0 and _matches(frame, types) and frame.payload:
            remaining[0] -= 1
            payload = bytes([frame.payload[0] ^ 0xFF]) + frame.payload[1:]
            return [Frame(frame.type, payload)], 0.0
        return [frame], 0.0

    return interceptor


def delay_frames(
    delay_s: float, types: Iterable[FrameType] = None, count: int = None
) -> Interceptor:
    """Hold matching frames for ``delay_s`` before forwarding them."""
    remaining = [count]

    def interceptor(direction: str, frame: Frame):
        if _matches(frame, types) and (
            remaining[0] is None or remaining[0] > 0
        ):
            if remaining[0] is not None:
                remaining[0] -= 1
            return [frame], delay_s
        return [frame], 0.0

    return interceptor


def reorder_once(types: Iterable[FrameType] = None) -> Interceptor:
    """Hold the first matching frame and emit it *after* the next frame
    in the same direction — a one-shot swap."""
    held: dict = {}
    done = [False]

    def interceptor(direction: str, frame: Frame):
        if done[0]:
            return [frame], 0.0
        if direction in held:
            done[0] = True
            return [frame, held.pop(direction)], 0.0
        if _matches(frame, types):
            held[direction] = frame
            return [], 0.0
        return [frame], 0.0

    return interceptor


class FaultInjectionProxy:
    """A frame-granular TCP relay with pluggable fault injection.

    Listener, relays, timers, and fault delays all run on a single
    event-loop thread regardless of connection count.
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        listen_host: str = "127.0.0.1",
        listen_port: int = 0,
        *,
        taps: List[Tap] = None,
        interceptor: Interceptor = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ):
        self.upstream = upstream
        self.taps = list(taps or [])
        self.interceptor = interceptor or _forward
        self.max_frame_bytes = int(max_frame_bytes)
        self._listen_host = listen_host
        self._listen_port = listen_port
        self._sock: Optional[socket.socket] = None
        self._dials: dict = {}      # client socket -> cancel its dial
        self._splices: set = set()  # both loop-thread only
        self._running = False
        self.loop: Optional[EventLoop] = None
        self.address: Optional[Tuple[str, int]] = None
        self.forwarded = 0
        self.dropped = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FaultInjectionProxy":
        self._sock = listen(self._listen_host, self._listen_port)
        self.address = self._sock.getsockname()[:2]
        self._running = True
        self.loop = EventLoop(name="wavekey-proxy-loop").start()
        self.loop.call_soon(
            self.loop.register, self._sock, EVENT_READ,
            self._on_listener_ready,
        )
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        done = threading.Event()
        self.loop.call_soon(self._shutdown_on_loop, done)
        done.wait(timeout=5.0)
        self.loop.stop()

    def _shutdown_on_loop(self, done: threading.Event) -> None:
        try:
            self.loop.unregister(self._sock)
            self._sock.close()
            for client_sock, cancel_dial in list(self._dials.items()):
                cancel_dial()
                close_socket(client_sock)
            for splice in list(self._splices):
                splice.close()
        finally:
            done.set()

    def __enter__(self) -> "FaultInjectionProxy":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- relaying (loop thread) --------------------------------------------

    def _on_listener_ready(self, mask: int) -> None:
        # Until the upstream connect completes, the kernel queues
        # whatever the client sends.
        for client_sock, _ in accept_ready(self._sock):
            self._dials[client_sock] = dial(
                self.loop, self.upstream, None,
                functools.partial(self._on_upstream_dialed, client_sock),
            )

    def _on_upstream_dialed(self, client_sock, server_sock, reason) -> None:
        del self._dials[client_sock]
        if server_sock is None:
            close_socket(client_sock)
            return
        splice = Splice(
            self.loop, client_sock, server_sock,
            on_frame=self._on_frame,
            on_close=lambda where: self._splices.discard(splice),
            max_frame_bytes=self.max_frame_bytes,
        )
        self._splices.add(splice)
        splice.start()

    def _on_frame(self, direction: str, frame: Frame):
        for tap in self.taps:
            tap(direction, frame)
        frames, delay_s = self.interceptor(direction, frame)
        if frames:
            self.forwarded += len(frames)
        else:
            self.dropped += 1
        return frames, delay_s
