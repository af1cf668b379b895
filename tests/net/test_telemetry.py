"""Distributed-trace wire propagation and telemetry scraping E2E.

Real sockets, two tracers (client's and server's): the client's root
span id travels inside ``Hello``/``ResumeRequest``, the backend
continues the trace through the worker-pool handoff, and the
``TELEMETRY_REQUEST`` scrape returns a document that stitches back
into one tree under the client's trace id.
"""

import time

import pytest

from repro.cluster.stats import fetch_telemetry
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.obs import TelemetryBuffer, Tracer, format_stitched, stitch
from repro.obs.collect import TELEMETRY_SCHEMA
from repro.service import ServiceConfig, WaveKeyAccessServer

from tests.net.conftest import fixed_acquire, matched_seed, pin_seeds

CLIENT_CFG = NetClientConfig(
    read_timeout_s=5.0, max_retries=1, backoff_initial_s=0.01
)


@pytest.fixture()
def traced_access(tiny_bundle):
    """An access server with its own tracer (distinct from any
    client's, as in separate processes)."""
    server = WaveKeyAccessServer(
        tiny_bundle,
        ServiceConfig(workers=2),
        acquire_fn=fixed_acquire,
        tracer=Tracer(),
    )
    pin_seeds(server, matched_seed())
    with server:
        yield server


def spans_by_name(tracer):
    return {s.name: s for s in tracer.finished_spans()}


def wait_for_buffered_span(telemetry, name, timeout_s=5.0):
    """The session root finishes on a worker thread after the verdict
    is already on the wire — poll the buffer instead of racing it."""
    deadline = time.monotonic() + timeout_s
    while True:
        telemetry.flush()
        doc = telemetry.document()
        if any(s["name"] == name for s in doc["spans"]):
            return doc
        assert time.monotonic() < deadline, f"no finished {name!r} span"
        time.sleep(0.02)


def test_establish_continues_client_trace(traced_access):
    client_tracer = Tracer()
    telemetry = TelemetryBuffer(
        "backend", tracer=traced_access.tracer, events=traced_access.events
    )
    with WaveKeyTCPServer(traced_access, telemetry=telemetry) as tcp:
        host, port = tcp.address
        client = WaveKeyNetClient(
            host, port, CLIENT_CFG, tracer=client_tracer
        )
        assert client.establish(rng_seed=11).success

    client_spans = spans_by_name(client_tracer)
    root = client_spans["net.establish"]
    hello = client_spans["net.hello"]
    assert hello.trace_id == root.trace_id

    doc = wait_for_buffered_span(telemetry, "session")
    assert doc["schema"] == TELEMETRY_SCHEMA
    server_spans = {s["name"]: s for s in doc["spans"]}
    session = server_spans["session"]
    # the server-side session tree lives in the CLIENT's trace and
    # hangs off the span that carried the Hello
    assert session["trace_id"] == root.trace_id
    assert session["parent_id"] == hello.span_id
    assert session["service"] == "backend"
    for stage in ("enqueue", "acquire"):
        assert server_spans[stage]["trace_id"] == root.trace_id


def test_resume_continues_client_trace(traced_access):
    client_tracer = Tracer()
    telemetry = TelemetryBuffer("backend", tracer=traced_access.tracer)
    with WaveKeyTCPServer(traced_access, telemetry=telemetry) as tcp:
        host, port = tcp.address
        client = WaveKeyNetClient(
            host, port, CLIENT_CFG, tracer=client_tracer
        )
        result = client.establish(rng_seed=11)
        assert result.ticket is not None
        with client.open_channel(result.ticket) as channel:
            assert channel.request("ping")["pong"] is True

    resume_root = spans_by_name(client_tracer)["access.resume"]
    doc = wait_for_buffered_span(telemetry, "access.op")
    server_spans = {
        s["name"]: s for s in doc["spans"]
        if s["trace_id"] == resume_root.trace_id
    }
    accept = server_spans["access.resume.accept"]
    assert accept["parent_id"] == resume_root.span_id
    op = server_spans["access.op"]
    assert op["parent_id"] == resume_root.span_id
    assert op["attributes"]["op"] == "ping"


def test_telemetry_scrape_over_wire_and_drain(traced_access):
    client_tracer = Tracer()
    telemetry = TelemetryBuffer(
        "backend", tracer=traced_access.tracer, events=traced_access.events
    )
    with WaveKeyTCPServer(traced_access, telemetry=telemetry) as tcp:
        host, port = tcp.address
        client = WaveKeyNetClient(
            host, port, CLIENT_CFG, tracer=client_tracer
        )
        assert client.establish(rng_seed=11).success

        deadline = time.monotonic() + 5.0
        while True:  # peek until the worker finishes the session root
            doc = fetch_telemetry(host, port)
            if any(s["name"] == "session" for s in doc["spans"]):
                break
            assert time.monotonic() < deadline, "session span never scraped"
            time.sleep(0.05)
        assert doc["schema"] == TELEMETRY_SCHEMA
        assert doc["service"] == "backend"
        assert doc["events"], "server events should ride the document"

        # drain semantics: the ring is now empty until new work lands
        fetch_telemetry(host, port, drain=True)
        again = fetch_telemetry(host, port, drain=True)
        assert again["spans"] == []

        # a telemetry scrape is not a session
        counters = tcp.metrics.snapshot()["counters"]
        assert counters["net.server.telemetry_requests"] >= 3
        assert tcp.sessions_served == 1

    # the scraped document stitches with the client's local spans into
    # exactly one tree spanning both services
    root = spans_by_name(client_tracer)["net.establish"]
    stitched = stitch(
        [doc],
        extra_spans=client_tracer.finished_spans(),
        extra_service="client",
    )
    trace_spans = [
        s for s in stitched["spans"] if s["trace_id"] == root.trace_id
    ]
    assert {s["service"] for s in trace_spans} == {"client", "backend"}
    text = format_stitched(stitched)
    assert "net.establish" in text
    assert "@backend" in text and "@client" in text
    assert "cross-hop latency breakdown:" in text


def test_contextless_hello_still_served(traced_access):
    """A pre-trace client (tracer disabled -> no wire context) gets a
    session and the server mints its own root trace."""
    telemetry = TelemetryBuffer("backend", tracer=traced_access.tracer)
    with WaveKeyTCPServer(traced_access, telemetry=telemetry) as tcp:
        host, port = tcp.address
        client = WaveKeyNetClient(
            host, port, CLIENT_CFG, tracer=Tracer(enabled=False)
        )
        assert client.establish(rng_seed=11).success
    doc = wait_for_buffered_span(telemetry, "session")
    sessions = [s for s in doc["spans"] if s["name"] == "session"]
    assert sessions and sessions[0]["parent_id"] is None
