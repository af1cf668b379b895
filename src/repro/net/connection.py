"""A socket speaking the WaveKey frame codec.

:class:`FrameConnection` is the client side of the wire: it owns one
TCP socket and turns it into a typed message stream, ``send(message)``
/ ``recv(timeout)`` with per-call read deadlines, max-frame
enforcement, and a write lock so concurrent senders never interleave
frame bytes.  All failures are typed
:class:`repro.errors.TransportError` subclasses so callers can retry
transport faults without swallowing protocol errors.

When given a :class:`MetricsRegistry`, the connection emits frame/byte
counters and encode/decode latency histograms labeled
``{"endpoint": "client"}``; the server's event loop emits the same
series under ``"server"`` — the wire-level half of the observability
story.  :class:`OutboundBuffer` is the non-blocking write side of the
event-loop front ends: a producer writes each frame through it on its
own thread, and only a remainder the kernel would not take waits for
the loop's writability event.  :func:`run_round` drives one side of a
key-agreement round over a connection, or over anything with its
``send``/``recv`` pair.
"""

from __future__ import annotations

import contextlib
import select
import socket
import time
from typing import Optional, Tuple

from repro.errors import (
    ConnectionClosed,
    ConnectionTimeout,
    ProtocolError,
    TransportError,
)
from repro.net.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    ErrorFrame,
    Frame,
    RoundResult,
    decode_payload,
    encode_message,
    frame_to_bytes,
    read_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import resolve_tracer
from repro.protocol.agreement import Send, Stage, charged

import threading

_UNSET = object()
_LABELS = {"endpoint": "client"}


def connect(
    host: str,
    port: int,
    timeout_s: float = 5.0,
    **kwargs,
) -> "FrameConnection":
    """Dial ``host:port`` and wrap the socket; connection failures and
    connect deadlines surface as typed transport errors."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout_s)
    except socket.timeout as exc:
        raise ConnectionTimeout(
            f"connect to {host}:{port} timed out after {timeout_s}s"
        ) from exc
    except OSError as exc:
        raise TransportError(f"connect to {host}:{port} failed: {exc}")
    return FrameConnection(sock, **kwargs)


class FrameConnection:
    """One framed, typed, metered TCP connection."""

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        read_timeout_s: float = 10.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._sock = sock
        self.max_frame_bytes = int(max_frame_bytes)
        self.read_timeout_s = float(read_timeout_s)
        self.metrics = metrics
        self._write_lock = threading.Lock()
        self._rx_buf = bytearray(4096)
        self._closed = False
        # Disable Nagle: the protocol is strict request/response, so
        # coalescing 40-byte frames only adds RTTs.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def readable(self, timeout_s: float = 0.0) -> bool:
        """Whether a read would start without waiting: a ``select`` on
        the socket, zero-timeout unless ``timeout_s`` allows a wait.
        Exact, because :meth:`_recv_exactly` never reads ahead, so no
        received byte sits in a user-space buffer.  A peer's close also
        reads as readable; a closed connection reads as not readable."""
        if self._closed:
            return False
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout_s)
        except (OSError, ValueError):
            return False
        return bool(ready)

    def __enter__(self) -> "FrameConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def peername(self) -> Tuple[str, int]:
        try:
            return self._sock.getpeername()
        except OSError:
            return ("?", 0)

    # -- sending -----------------------------------------------------------

    def send(self, message) -> None:
        """Encode and write one message (thread-safe)."""
        start = time.perf_counter()
        data = frame_to_bytes(encode_message(message))
        encode_s = time.perf_counter() - start
        try:
            with self._write_lock:
                self._sock.sendall(data)
        except socket.timeout as exc:
            raise ConnectionTimeout(f"send timed out: {exc}") from exc
        except OSError as exc:
            raise ConnectionClosed(f"send failed: {exc}") from exc
        if self.metrics is not None:
            self.metrics.counter(
                "net.frames_sent", labels=_LABELS
            ).inc()
            self.metrics.counter(
                "net.bytes_sent", labels=_LABELS
            ).inc(len(data))
            self.metrics.histogram(
                "net.encode_s", labels=_LABELS
            ).observe(encode_s)

    # -- receiving ---------------------------------------------------------

    def _recv_exactly(self, n: int) -> bytes:
        # recv_into a reusable per-connection buffer: no per-chunk bytes
        # objects and no b"".join — one copy out at the end, which the
        # decoders need as immutable bytes anyway.
        if len(self._rx_buf) < n:
            self._rx_buf = bytearray(max(n, 2 * len(self._rx_buf)))
        view = memoryview(self._rx_buf)
        got = 0
        while got < n:
            try:
                nread = self._sock.recv_into(view[got:n])
            except socket.timeout as exc:
                raise ConnectionTimeout(
                    f"read timed out after {self._sock.gettimeout()}s "
                    f"waiting for {n - got}/{n} bytes"
                ) from exc
            except OSError as exc:
                raise ConnectionClosed(f"read failed: {exc}") from exc
            if not nread:
                raise ConnectionClosed(
                    f"peer closed the connection with {n - got}/{n} "
                    "bytes outstanding"
                )
            got += nread
        return bytes(view[:n])

    def recv_frame(self, timeout_s: float = _UNSET) -> Frame:
        """Read one raw frame, enforcing the read deadline and frame
        size limit."""
        if timeout_s is _UNSET:
            timeout_s = self.read_timeout_s
        self._sock.settimeout(timeout_s)
        return read_frame(self._recv_exactly, self.max_frame_bytes)

    def recv(self, timeout_s: float = _UNSET):
        """Read and decode one message."""
        frame = self.recv_frame(timeout_s)
        start = time.perf_counter()
        message = decode_payload(frame)
        decode_s = time.perf_counter() - start
        if self.metrics is not None:
            self.metrics.counter(
                "net.frames_received", labels=_LABELS
            ).inc()
            self.metrics.counter(
                "net.bytes_received", labels=_LABELS
            ).inc(len(frame.payload) + HEADER_BYTES)
            self.metrics.histogram(
                "net.decode_s", labels=_LABELS
            ).observe(decode_s)
        return message


#: OutboundBuffer.append / write verdicts.
SEND_OK = "ok"
SEND_PENDING = "pending"
SEND_OVERFLOW = "overflow"
SEND_CLOSED = "closed"


class OutboundBuffer:
    """A bounded, thread-safe, non-blocking send queue for one socket.

    Producers (protocol workers, the event loop itself) ``write`` each
    encoded frame through the buffer: under the buffer's lock the frame
    is appended and as much as the kernel accepts goes to the
    non-blocking socket at once, on the producer's thread.  Only a
    remainder stays queued (:data:`SEND_PENDING`); the owner then arms
    writability and the event loop ``flush``\\ es it, handling partial
    writes with a ``memoryview`` offset instead of re-slicing the
    buffer.  One lock orders every write, so bytes leave in append
    order whichever thread produced them.

    The bound is the backpressure contract: a peer that stops reading
    accumulates at most ``max_pending_bytes`` server-side, after which
    ``write`` reports :data:`SEND_OVERFLOW` and the connection owner
    sheds the client with a wire error frame (``force=True`` bypasses
    the bound for exactly that terminal error frame).

    ``close`` discards whatever is queued and refuses further appends,
    so a closed buffer never touches its socket again: an owner that
    closes the buffer before the socket guarantees that no producer
    writes to a closed (or recycled) file descriptor.
    """

    def __init__(self, max_pending_bytes: int = 1 << 20):
        self.max_pending_bytes = int(max_pending_bytes)
        self._buf = bytearray()
        self._offset = 0
        self._closed = False
        self._lock = threading.Lock()

    @property
    def pending(self) -> int:
        """Bytes queued but not yet accepted by the kernel."""
        with self._lock:
            return len(self._buf) - self._offset

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def append(self, data: bytes, force: bool = False) -> str:
        """Queue ``data`` without writing; returns one of the
        ``SEND_*`` verdicts (:data:`SEND_OK` when queued)."""
        with self._lock:
            return self._append_locked(data, force)

    def write(
        self, sock: socket.socket, data: bytes, force: bool = False
    ) -> str:
        """Append ``data`` and write the queue to ``sock`` now.

        Returns :data:`SEND_OK` when the kernel took everything,
        :data:`SEND_PENDING` when a remainder is left for :meth:`flush`,
        or :data:`SEND_OVERFLOW` / :data:`SEND_CLOSED` with nothing
        queued or written.  Socket errors other than would-block
        propagate as :class:`OSError`.
        """
        with self._lock:
            verdict = self._append_locked(data, force)
            if verdict != SEND_OK:
                return verdict
            return SEND_OK if self._drain_locked(sock) else SEND_PENDING

    def flush(self, sock: socket.socket) -> bool:
        """Write as much as the kernel accepts; True when drained.  A
        closed buffer holds nothing and writes nothing."""
        with self._lock:
            return self._drain_locked(sock)

    def close(self) -> None:
        """Drop what is queued and refuse further appends (the
        connection is going away)."""
        with self._lock:
            self._closed = True
            del self._buf[:]
            self._offset = 0

    def _append_locked(self, data: bytes, force: bool) -> str:
        if self._closed:
            return SEND_CLOSED
        pending = len(self._buf) - self._offset
        if not force and pending + len(data) > self.max_pending_bytes:
            return SEND_OVERFLOW
        self._buf += data
        return SEND_OK

    def _drain_locked(self, sock: socket.socket) -> bool:
        while self._offset < len(self._buf):
            view = memoryview(self._buf)[self._offset:]
            try:
                sent = sock.send(view)
            except (BlockingIOError, InterruptedError):
                return False
            finally:
                view.release()
            self._offset += sent
        # Fully drained: recycle the buffer in place.
        del self._buf[:]
        self._offset = 0
        return True


# -- one key-agreement round over a connection ------------------------------


class RoundAborted(ProtocolError):
    """A :class:`RoundResult` (the server ending the round early) came
    where a round frame was expected; ``result`` carries it."""

    def __init__(self, expected: type, result: RoundResult):
        super().__init__(f"expected {expected.__name__}, got RoundResult")
        self.result = result


def run_round(steps, conn, clock=None, tracer=None) -> None:
    """Drive a role's steps (``mobile_round`` or ``server_round`` of
    :mod:`repro.protocol.agreement`) over ``conn``'s ``send``/``recv``,
    one ``net.<stage>`` span per top-level stage.  With a ``clock``,
    every role segment, send and wait is charged to it; a wait is
    charged before the role resumes, so its deadline check counts it."""
    tracer = resolve_tracer(tracer)
    reply = None
    with contextlib.ExitStack() as stage:
        while True:
            try:
                with charged(clock):
                    step = steps.send(reply)
            except StopIteration:
                return
            reply = None
            if isinstance(step, Stage):
                if not step.nested:
                    stage.close()
                    stage.enter_context(tracer.span(f"net.{step.name}"))
            elif isinstance(step, Send):
                with charged(clock):
                    conn.send(step.message)
            else:
                with charged(clock):
                    reply = conn.recv()
                if isinstance(reply, ErrorFrame):
                    raise ProtocolError(
                        f"peer error {reply.code}: {reply.detail}"
                    )
                if isinstance(reply, RoundResult):
                    raise RoundAborted(step.cls, reply)
