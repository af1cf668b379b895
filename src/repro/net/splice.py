"""The frame splice, plus the listen / accept / dial helpers the
event-loop front ends share.

:class:`Splice` pumps frames both ways between two connected
non-blocking sockets on an :class:`repro.net.eventloop.EventLoop`; it
is the relay of both :class:`repro.net.proxy.FaultInjectionProxy` and
:class:`repro.cluster.gateway.WaveKeyGateway`.  Each direction
(``"c2s"``: client socket to server socket, and ``"s2c"``) passes every
frame through one hook, ``on_frame(direction, frame) -> (frames,
delay_s)``.  A positive delay holds the frames on a loop timer and
pauses reads in that direction meanwhile, so order holds.  What one
drain forwards goes out as one write-through
:meth:`OutboundBuffer.write` in the same tick; ``EVENT_WRITE`` is armed
only for a remainder the kernel would not take.  EOF either way stops
reading, flushes both buffers, then closes both sockets, so it never
overtakes a held or unflushed frame; a malformed stream or a socket
error closes at once.  ``on_close(where)`` runs once: ``None`` for an
orderly close, else ``"<side> read"``, ``"<side> write"`` or
``"<side> stream"``.
"""

from __future__ import annotations

import contextlib
import errno
import socket
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.errors import TransportError
from repro.net.codec import Frame, FrameAssembler, frame_to_bytes
from repro.net.connection import OutboundBuffer
from repro.net.eventloop import EVENT_READ, EVENT_WRITE, EventLoop

_CONNECTING = (0, errno.EINPROGRESS, errno.EWOULDBLOCK)


def close_socket(sock: socket.socket) -> None:
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


def _nodelay(sock: socket.socket) -> None:
    # The protocol is strict request/response: coalescing small frames
    # only adds round trips.
    with contextlib.suppress(OSError):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def listen(host: str, port: int, backlog: int = 128) -> socket.socket:
    """A bound, listening, non-blocking TCP socket."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    sock.setblocking(False)
    return sock


def accept_ready(listener: socket.socket) -> Iterator[tuple]:
    """Every connection waiting on ``listener``, non-blocking, Nagle off."""
    while True:
        try:
            sock, addr = listener.accept()
        except OSError:
            return  # nothing more waiting, or the listener was closed
        sock.setblocking(False)
        _nodelay(sock)
        yield sock, addr


def dial(
    loop: EventLoop,
    address: Tuple[str, int],
    timeout_s: Optional[float],
    on_done: Callable[[Optional[socket.socket], str], None],
) -> Callable[[], None]:
    """Connect to ``address`` without blocking the loop (loop thread).

    ``on_done(sock, "")`` gets the connected non-blocking socket (Nagle
    off); ``on_done(None, reason)`` reports a failed connect or one
    outliving ``timeout_s`` (``None`` leaves the deadline to the
    kernel).  It runs once, never inside this call, and never after the
    returned cancel function (which closes the socket) was called."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setblocking(False)
    _nodelay(sock)
    timer = None

    def finish(failure: str, notify: bool = True) -> None:
        nonlocal on_done, timer
        callback, on_done = on_done, None
        if callback is None:
            return
        if timer is not None:
            timer.cancel()
            timer = None  # the timer's callback refers back to us
        loop.unregister(sock)
        if failure:
            close_socket(sock)
        if notify:
            callback(None if failure else sock, failure)

    def on_writable(mask: int) -> None:
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        finish(f"errno {err}" if err else "")

    err = sock.connect_ex(address)
    if err not in _CONNECTING:
        loop.call_soon(finish, f"errno {err}")
    else:
        loop.register(sock, EVENT_WRITE, on_writable)
        if timeout_s is not None:
            timer = loop.call_later(
                timeout_s, lambda: finish("connect timeout")
            )
    return lambda: finish("cancelled", notify=False)


class _Direction:
    """Frames assembled from ``src``, written through to ``reverse.src``."""

    __slots__ = (
        "name", "side", "src", "assembler", "outbound", "reverse", "paused",
        "eof", "events", "callback",
    )

    def __init__(self, splice, name, side, src, assembler):
        self.name = name
        self.side = side  # what ``src`` is, for on_close
        self.src = src
        self.assembler = assembler
        # Every write is forced (frames already read must be relayed),
        # so the buffer's bound is nominal.
        self.outbound = OutboundBuffer()
        self.reverse: Optional["_Direction"] = None
        self.paused = False  # held frames block this direction
        self.eof = False
        self.events = 0  # what ``src`` is registered for; 0: unregistered
        self.callback = lambda mask: splice._on_ready(self, mask)


class Splice:
    """Frames both ways between two connected sockets (loop-thread only).

    The sockets arrive unregistered from the loop, and the splice owns
    them from then on.  ``assembler`` hands over the client's reader
    with whatever it already buffered; ``sides`` names the two sockets
    in ``where``.
    """

    def __init__(
        self,
        loop: EventLoop,
        client: socket.socket,
        server: socket.socket,
        *,
        on_frame: Callable[[str, Frame], Tuple[Sequence[Frame], float]],
        on_close: Callable[[Optional[str]], None],
        max_frame_bytes: int,
        assembler: FrameAssembler = None,
        sides: Tuple[str, str] = ("client", "server"),
    ):
        self.loop = loop
        c2s = _Direction(
            self, "c2s", sides[0], client,
            assembler or FrameAssembler(max_frame_bytes),
        )
        s2c = _Direction(
            self, "s2c", sides[1], server, FrameAssembler(max_frame_bytes)
        )
        c2s.reverse, s2c.reverse = s2c, c2s
        self._dirs = (c2s, s2c)
        self._on_frame = on_frame
        self._on_close = on_close
        self._held = 0  # timers holding frames
        self._closing = False
        self.closed = False

    def start(self, preface: bytes = b"") -> None:
        """Write ``preface`` and the frames the client assembler holds
        to the server, then watch both sockets."""
        self._drain(self._dirs[0], [preface] if preface else [])

    def close(self, where: Optional[str] = None) -> None:
        """Drop whatever is queued, close both sockets, report once."""
        if self.closed:
            return
        self.closed = True
        for d in self._dirs:
            d.outbound.close()
            if d.events:
                self.loop.unregister(d.src)
            close_socket(d.src)
        on_close = self._on_close
        # Drop the references that form cycles (directions to each
        # other and to the splice, hooks to their owner), so a closed
        # splice is freed at once instead of by the cyclic collector.
        for d in self._dirs:
            d.reverse = d.callback = None
        self._on_frame = self._on_close = None
        on_close(where)

    def _on_ready(self, d: _Direction, mask: int) -> None:
        if self.closed:
            return
        if mask & EVENT_WRITE:
            try:
                d.reverse.outbound.flush(d.src)
            except OSError:
                self.close(f"{d.side} write")
                return
        if mask & EVENT_READ and not (d.paused or self._closing):
            for _ in range(16):
                try:
                    n = d.assembler.read_into(d.src)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    self.close(f"{d.side} read")
                    return
                if n == 0:
                    d.eof = True
                    break
        self._drain(d, [])  # after a flush alone too: re-arms, may close

    def _drain(self, d: _Direction, out: list) -> None:
        """Pass assembled frames through the hook and write what it
        forwards in one go, until the assembler runs dry or a delay
        pauses the direction."""
        while not d.paused:
            try:
                frame = d.assembler.next_frame()
            except TransportError:
                # The byte stream itself is malformed; nothing sane can
                # be forwarded past this point.
                self.close(f"{d.side} stream")
                return
            if frame is None:
                break
            frames, delay_s = self._on_frame(d.name, frame)
            encoded = [frame_to_bytes(f) for f in frames]
            if encoded and delay_s > 0:
                d.paused = True
                self._held += 1
                self.loop.call_later(
                    delay_s, lambda: self._release(d, encoded)
                )
                break
            out.extend(encoded)
        if out:
            try:
                d.outbound.write(d.reverse.src, b"".join(out), force=True)
            except OSError:
                self.close(f"{d.reverse.side} write")
                return
        if d.eof and not d.paused:
            self._closing = True
        self._watch(d)
        self._watch(d.reverse)
        if (
            self._closing
            and not self._held
            and not any(x.outbound.pending for x in self._dirs)
        ):
            self.close()

    def _release(self, d: _Direction, encoded: list) -> None:
        self._held -= 1
        if not self.closed:
            # The held frames go first; frames buffered behind them, and
            # an EOF seen meanwhile, follow through the same drain.
            d.paused = False
            self._drain(d, encoded)

    def _watch(self, d: _Direction) -> None:
        """Arm ``d.src`` for reads while ``d`` may read, and for writes
        while the reverse direction holds a remainder for it."""
        events = 0
        if not (d.paused or d.eof or self._closing):
            events |= EVENT_READ
        if d.reverse.outbound.pending > 0:
            events |= EVENT_WRITE
        if events == d.events:
            return
        if not events:
            self.loop.unregister(d.src)
        elif d.events:
            self.loop.modify(d.src, events, d.callback)
        else:
            self.loop.register(d.src, events, d.callback)
        d.events = events
