"""repro.net — the key-agreement protocol on a real wire.

Everything below the process boundary that PR 1's in-process service
left simulated:

* :mod:`repro.net.codec` — versioned binary codec: length-prefixed
  frames, message-type tags, and round-trip serialization for every
  protocol dataclass plus the session-control frames (hello, accept,
  seed grant, round result, verdict, error);
* :mod:`repro.net.connection` — the client's socket wrapper speaking
  that codec with read deadlines, max-frame enforcement, zero-copy
  buffered reads and frame/byte metrics, plus the bounded
  non-blocking :class:`OutboundBuffer` the server writes through;
* :mod:`repro.net.eventloop` — a single-threaded ``selectors`` event
  loop (self-pipe wakeups, timer heap, loop health metrics) shared by
  the server, proxy and gateway front ends;
* :mod:`repro.net.splice` — their listen / accept / dial helpers and
  the frame relay the proxy and the gateway both run;
* :mod:`repro.net.server` — the event-loop TCP front end over
  :class:`repro.service.WaveKeyAccessServer`: :class:`WaveKeyTCPServer`
  keeps a constant thread count at any connection count and offloads
  protocol compute to the access server's workers; sessions feed
  through the existing admission queue and workers, load
  shedding maps to wire error frames;
* :mod:`repro.net.client` — a blocking client SDK driving a full
  establishment from the device side, with connect/read timeouts and
  bounded exponential-backoff retries; after a successful agreement
  it holds a :class:`ClientTicket` and can reopen a secure channel
  (:meth:`WaveKeyNetClient.open_channel`) or revoke the ticket
  without re-running the gesture/OT exchange (:mod:`repro.access`);
* :mod:`repro.net.proxy` — a fault-injection TCP proxy porting the
  simulated adversary hooks (tap, delay, drop, corrupt, reorder) to
  real connections, so SV-A/SV-C experiments run over loopback.

Quick start (loopback)::

    from repro.core.pretrained import load_default_bundle
    from repro.net import WaveKeyTCPServer, WaveKeyNetClient
    from repro.service import WaveKeyAccessServer

    with WaveKeyAccessServer(load_default_bundle()) as access:
        with WaveKeyTCPServer(access, "127.0.0.1", 0) as tcp:
            host, port = tcp.address
            client = WaveKeyNetClient(host, port)
            result = client.establish(rng_seed=7)
            assert result.success
"""

from repro.net.client import (
    ClientTicket,
    EstablishmentResult,
    NetClientConfig,
    WaveKeyNetClient,
)
from repro.net.codec import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Frame,
    FrameAssembler,
    FrameType,
    RecordFrame,
    ReplDigest,
    ReplPull,
    ReplPush,
    ResumeAccept,
    ResumeRequest,
    RevokeNotice,
    StatsRequest,
    StatsResponse,
    TicketGrant,
    decode_payload,
    encode_message,
    frame_to_bytes,
    framing_overhead,
)
from repro.net.connection import FrameConnection, OutboundBuffer
from repro.net.eventloop import EventLoop
from repro.net.proxy import (
    FaultInjectionProxy,
    corrupt_frames,
    delay_frames,
    drop_frames,
    reorder_once,
)
from repro.net.server import WaveKeyTCPServer

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ClientTicket",
    "EstablishmentResult",
    "EventLoop",
    "FaultInjectionProxy",
    "Frame",
    "FrameAssembler",
    "FrameConnection",
    "FrameType",
    "NetClientConfig",
    "OutboundBuffer",
    "RecordFrame",
    "ReplDigest",
    "ReplPull",
    "ReplPush",
    "ResumeAccept",
    "ResumeRequest",
    "RevokeNotice",
    "StatsRequest",
    "StatsResponse",
    "TicketGrant",
    "WaveKeyNetClient",
    "WaveKeyTCPServer",
    "corrupt_frames",
    "decode_payload",
    "delay_frames",
    "drop_frames",
    "encode_message",
    "frame_to_bytes",
    "framing_overhead",
    "reorder_once",
]
