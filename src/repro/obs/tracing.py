"""Hierarchical span tracing for the key-agreement stack.

A :class:`Span` is one timed operation (an encoder forward, an OT
exchange, a whole session); a :class:`Tracer` collects finished spans
and hands out new ones.  Parentage is resolved three ways, in priority
order:

1. an explicit ``parent=`` span — how the server hands a session's root
   span from the submitting thread to its worker thread;
2. the thread-local *active-span stack* — ``with tracer.span(...)``
   pushes the span for the duration of the block, so nested library
   code (pipeline, protocol, per-layer profiler) lands under the caller
   without ever seeing the tracer object;
3. nothing — the span becomes the root of a new trace.

The active stack also carries the tracer itself: library code calls
:func:`resolve_tracer` with whatever it was (not) given and inherits
the tracer of the innermost active span, falling back to the process
default (:func:`set_default_tracer`) and finally to a disabled
singleton whose spans are free no-ops.

Traces export as JSONL (one span per line) and render as ASCII trees
via :func:`format_trace_tree` — the artifact the ``repro obs trace``
CLI command prints.

Traces also cross *process* boundaries: :class:`TraceContext` is the
portable (trace_id, parent span_id, sampled, service) tuple a client
injects into its ``Hello``/``ResumeRequest`` wire frames and a server
extracts on the far side.  A ``TraceContext`` is accepted anywhere a
``parent=`` span is (it duck-types ``trace_id``/``span_id``), so the
receiving process continues the caller's trace instead of minting its
own root.  To keep ids collision-free across processes, every tracer
salts its ids with a random per-instance tag.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError

_UNSET = object()


@dataclass
class Span:
    """One timed, attributed operation within a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str]
    start_s: float
    end_s: Optional[float] = None
    status: str = "ok"
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    def set_attribute(self, key: str, value: object) -> "Span":
        self.attributes[key] = value
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Span":
        return cls(
            name=str(payload["name"]),
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            start_s=float(payload["start_s"]),
            end_s=(
                float(payload["end_s"])
                if payload.get("end_s") is not None
                else None
            ),
            status=str(payload.get("status", "ok")),
            attributes=dict(payload.get("attributes", {})),
        )


class _NullSpan:
    """Inert stand-in handed out by a disabled tracer."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"
    attributes: Dict[str, object] = {}
    duration_s = None
    finished = False

    def set_attribute(self, key, value):
        return self

    def __bool__(self):
        return False


NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class TraceContext:
    """The portable cross-process slice of an active span.

    Carried as an optional field on ``Hello``/``ResumeRequest`` wire
    frames: ``trace_id`` names the distributed trace, ``span_id`` the
    sender's span the receiver should parent under, ``sampled`` whether
    the sender is actually recording (an unsampled context is ignored),
    and ``service`` the sender's service identity (annotation only —
    never affects parentage).  Duck-types as a ``parent=`` argument to
    :meth:`Tracer.start_span`.
    """

    trace_id: str
    span_id: str
    sampled: bool = True
    service: str = ""

    def __bool__(self) -> bool:
        return bool(self.trace_id and self.span_id)

    @property
    def usable(self) -> bool:
        """True when a receiver should parent work under this context."""
        return self.sampled and bool(self)

    @classmethod
    def from_span(
        cls, span, service: str = ""
    ) -> Optional["TraceContext"]:
        """The context describing ``span``, or ``None`` for null/absent
        spans (a disabled tracer propagates nothing)."""
        if span is None or span is NULL_SPAN or isinstance(span, _NullSpan):
            return None
        return cls(
            trace_id=span.trace_id,
            span_id=span.span_id,
            sampled=True,
            service=service,
        )


def current_context(service: str = "") -> Optional[TraceContext]:
    """The :class:`TraceContext` of this thread's innermost active
    span, ready to inject into an outgoing frame; ``None`` when no
    span is active (nothing to propagate)."""
    return TraceContext.from_span(current_span(), service=service)


def parent_from_context(context) -> Optional[TraceContext]:
    """Normalize an extracted wire context into a ``parent=`` value:
    the context itself when usable, else ``None`` (mint a new root)."""
    if isinstance(context, TraceContext) and context.usable:
        return context
    return None

# One process-wide active-span stack per thread.  Entries are
# ``(tracer, span)`` so nested code can recover both.
_tls = threading.local()


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def current_span() -> Optional[Span]:
    """The innermost active span on this thread, if any."""
    stack = _stack()
    return stack[-1][1] if stack else None


def current_tracer() -> Optional["Tracer"]:
    """The tracer owning the innermost active span on this thread."""
    stack = _stack()
    return stack[-1][0] if stack else None


class _ActiveSpan:
    """Context manager that opens a span and keeps the stack honest."""

    __slots__ = ("_tracer", "_name", "_parent", "_attributes", "span")

    def __init__(self, tracer, name, parent, attributes):
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attributes = attributes
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = self._tracer.start_span(
            self._name, parent=self._parent, **self._attributes
        )
        _stack().append((self._tracer, self.span))
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _stack()
        if stack and stack[-1][1] is self.span:
            stack.pop()
        status = "ok"
        if exc is not None:
            status = "error"
            self.span.set_attribute("error", repr(exc))
        self._tracer.finish_span(self.span, status=status)
        return False


class _Activation:
    """Push an existing (unfinished) span onto this thread's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    def __enter__(self):
        _stack().append((self._tracer, self._span))
        return self._span

    def __exit__(self, *exc_info) -> bool:
        stack = _stack()
        if stack and stack[-1][1] is self._span:
            stack.pop()
        return False


class _NullContext:
    """Free context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Creates, finishes, and stores spans; thread-safe.

    ``enabled=False`` turns every operation into a near-free no-op —
    the mode every hot path runs in unless an operator asks for a
    trace.  ``max_spans`` bounds memory; past it new spans are counted
    in :attr:`dropped` instead of stored.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 200_000):
        if max_spans < 1:
            raise ConfigurationError("max_spans must be >= 1")
        self.enabled = bool(enabled)
        self.max_spans = int(max_spans)
        self._spans: List[Span] = []
        self._dropped = 0
        # Random per-tracer salt: ids stay unique across the processes
        # of a distributed trace, so stitching by trace_id never merges
        # unrelated traces and parent links never collide.
        self._tag = os.urandom(3).hex()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- span creation -----------------------------------------------------

    def start_span(self, name: str, parent=_UNSET, **attributes) -> Span:
        """Open a span without activating it (explicit cross-thread
        handoff); pair with :meth:`finish_span`."""
        if not self.enabled:
            return NULL_SPAN
        if parent is _UNSET:
            parent = current_span()
        if parent is None or parent is NULL_SPAN or isinstance(
            parent, _NullSpan
        ):
            parent_id = None
            trace_id = f"t{self._tag}-{next(self._trace_ids):04d}"
        else:
            parent_id = parent.span_id
            trace_id = parent.trace_id
        return Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{self._tag}-{next(self._span_ids):06d}",
            parent_id=parent_id,
            start_s=time.monotonic(),
            attributes=dict(attributes),
        )

    def finish_span(self, span, status: str = "ok") -> None:
        if not self.enabled or span is NULL_SPAN or isinstance(
            span, _NullSpan
        ):
            return
        if span.end_s is None:
            span.end_s = time.monotonic()
        span.status = status
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self._dropped += 1
            else:
                self._spans.append(span)

    def span(self, name: str, parent=_UNSET, **attributes):
        """``with tracer.span("encode") as s:`` — activate on this
        thread for the duration of the block."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _ActiveSpan(self, name, parent, attributes)

    def activate(self, span):
        """Re-activate an existing span on this thread (the worker-side
        half of an explicit parent handoff); does not finish it."""
        if not self.enabled or span is NULL_SPAN or isinstance(
            span, _NullSpan
        ):
            return _NULL_CONTEXT
        return _Activation(self, span)

    def record_span(
        self,
        name: str,
        parent=None,
        start_s: float = None,
        end_s: float = None,
        status: str = "ok",
        **attributes,
    ) -> Span:
        """Record a retroactive, already-elapsed span (e.g. queue wait
        measured from stored timestamps)."""
        if not self.enabled:
            return NULL_SPAN
        span = self.start_span(name, parent=parent, **attributes)
        if start_s is not None:
            span.start_s = float(start_s)
        span.end_s = float(end_s) if end_s is not None else time.monotonic()
        self.finish_span(span, status=status)
        return span

    # -- inspection / export -----------------------------------------------

    def finished_spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def reset(self) -> None:
        with self._lock:
            self._spans = []
            self._dropped = 0

    def to_dicts(self) -> List[Dict[str, object]]:
        return [span.to_dict() for span in self.finished_spans()]

    def export_jsonl(self, path: str) -> int:
        """Write one JSON object per finished span; returns the count."""
        spans = self.to_dicts()
        with open(path, "w", encoding="utf-8") as fh:
            for payload in spans:
                fh.write(json.dumps(payload, default=str) + "\n")
        return len(spans)


#: Disabled singleton used wherever no tracer was configured.
NULL_TRACER = Tracer(enabled=False)

_default_lock = threading.Lock()
_default_tracer: Tracer = NULL_TRACER


def get_default_tracer() -> Tracer:
    """The process-wide fallback tracer (disabled unless configured)."""
    return _default_tracer


def set_default_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the process default; returns the previous
    one so callers can restore it."""
    global _default_tracer
    with _default_lock:
        previous = _default_tracer
        _default_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


class use_default_tracer:
    """``with use_default_tracer(t):`` — scoped default-tracer swap."""

    def __init__(self, tracer: Optional[Tracer]):
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = set_default_tracer(self._tracer)
        return get_default_tracer()

    def __exit__(self, *exc_info) -> bool:
        set_default_tracer(self._previous)
        return False


def resolve_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """The tracer instrumented library code should use *right now*:
    the explicit one, else the innermost active span's, else the
    process default."""
    if tracer is not None:
        return tracer
    active = current_tracer()
    if active is not None:
        return active
    return _default_tracer


# -- trace loading / rendering ---------------------------------------------


def load_trace_jsonl(path: str) -> List[Span]:
    """Parse a trace file written by :meth:`Tracer.export_jsonl`."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def _format_attributes(span: Span) -> str:
    shown = {
        k: v
        for k, v in span.attributes.items()
        if not isinstance(v, (dict, list, tuple))
    }
    if not shown:
        return ""
    body = " ".join(f"{k}={v}" for k, v in sorted(shown.items()))
    return f"  [{body}]"


def format_trace_tree(
    spans: Sequence[Union[Span, Dict[str, object]]]
) -> str:
    """Render spans as per-trace ASCII trees with durations.

    Accepts :class:`Span` objects or the dicts produced by
    :meth:`Span.to_dict` / :func:`load_trace_jsonl`.  Spans whose
    parent is missing from the input are promoted to roots so partial
    traces still render.
    """
    normalized = [
        s if isinstance(s, Span) else Span.from_dict(s) for s in spans
    ]
    if not normalized:
        return "(no spans)"
    by_id = {s.span_id: s for s in normalized}
    children: Dict[Optional[str], List[Span]] = {}
    roots: List[Span] = []
    for span in normalized:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: s.start_s)
    roots.sort(key=lambda s: (s.trace_id, s.start_s))

    lines: List[str] = []

    def duration(span: Span) -> str:
        if span.duration_s is None:
            return "(open)"
        return f"({span.duration_s * 1000:.2f} ms)"

    def walk(span: Span, prefix: str, is_last: bool) -> None:
        connector = "└─ " if is_last else "├─ "
        status = "" if span.status == "ok" else f" !{span.status}"
        lines.append(
            f"{prefix}{connector}{span.name} {duration(span)}"
            f"{status}{_format_attributes(span)}"
        )
        child_prefix = prefix + ("   " if is_last else "│  ")
        kids = children.get(span.span_id, [])
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1)

    current_trace = None
    for root in roots:
        if root.trace_id != current_trace:
            current_trace = root.trace_id
            lines.append(f"trace {current_trace}")
        walk(root, "", True)
    return "\n".join(lines)
