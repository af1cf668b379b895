"""Concurrent WaveKey access-control service.

The deployment layer of the reproduction: a server that admits many
concurrent key-establishment sessions, encodes each session's window on
its worker, enforces the paper's tau deadline plus a wall-clock session
budget, retries failed gestures a bounded number of times, sheds load
past queue capacity with structured rejections, and exposes counters /
latency histograms / a queryable event log.

Quick start::

    from repro.core.pretrained import load_default_bundle
    from repro.service import (
        AccessRequest, LoadProfile, WaveKeyAccessServer, run_load,
    )

    with WaveKeyAccessServer(load_default_bundle()) as server:
        record = server.establish(AccessRequest(rng_seed=7))
        report = run_load(server, LoadProfile(sessions=32))
"""

from repro.obs.events import EventLog, ServiceEvent
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.service.config import ServiceConfig
from repro.service.loadgen import LoadProfile, LoadReport, run_load
from repro.service.server import WaveKeyAccessServer
from repro.service.sessions import (
    AccessRequest,
    RejectionReason,
    SessionManager,
    SessionRecord,
    SessionState,
    SessionTicket,
)

__all__ = [
    "AccessRequest",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LoadProfile",
    "LoadReport",
    "MetricsRegistry",
    "RejectionReason",
    "ServiceConfig",
    "ServiceEvent",
    "SessionManager",
    "SessionRecord",
    "SessionState",
    "SessionTicket",
    "WaveKeyAccessServer",
    "run_load",
]
