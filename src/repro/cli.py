"""Command-line interface.

Usage (after ``pip install -e .``)::

    repro establish [--seed N] [--dynamic] [--distance M] [--trace-out F]
    repro establish --connect HOST:PORT [--seed N]
    repro inspect
    repro attack {guess,mimic,spoof} [--trials N]
    repro serve [--dry-run] [--workers N] [--queue-capacity N] ...
    repro serve --listen HOST:PORT [--port-file F] [--sessions N]
                [--ticket-journal F] [--ticket-ttl S]
    repro access grant --connect HOST:PORT --ticket-file F [--seed N]
    repro access {query,open} --connect HOST:PORT --ticket-file F
                 [--target NAME]
    repro access revoke --connect HOST:PORT --ticket-file F
    repro loadgen [--sessions N] [--rate HZ] [--seed N]
    repro loadgen --connect HOST:PORT [--sessions N]
    repro cluster serve --backend HOST:PORT [--backend HOST:PORT ...]
                        [--listen HOST:PORT] [--port-file F]
    repro cluster metrics HOST:PORT [--json FILE]
    repro obs trace TRACE.jsonl
    repro obs metrics METRICS.json

``establish`` runs one end-to-end key establishment against the
pretrained bundle and prints the outcome; ``inspect`` summarizes the
shipped bundle's operating point; ``attack`` runs a small campaign of
the chosen attack and reports its success rate; ``serve`` brings up the
concurrent access-control server (:mod:`repro.service`) and processes a
burst of synthetic sessions; ``loadgen`` drives a server with a
configurable offered load and prints the load report.

Networked mode (:mod:`repro.net`): ``serve --listen HOST:PORT`` puts
the access server on a TCP socket (port 0 picks a free port;
``--port-file`` writes the bound address for scripts), and
``establish``/``loadgen`` with ``--connect HOST:PORT`` run real
client sessions against it over the wire.  Connections are served by
a single ``selectors`` event loop.

Secure access (:mod:`repro.access`): ``access grant`` runs one
establishment and parks the resumption ticket in ``--ticket-file``;
``access query``/``access open`` reopen a secure channel from that
ticket — no gesture, no OT — and run the authenticated op over the
encrypted record layer; ``access revoke`` kills the ticket server-side
so later resumptions fail with a typed error.  ``serve
--ticket-journal FILE`` persists the server's key store so a restart
honours live tickets and still rejects revoked ones.

Clustered mode (:mod:`repro.cluster`): ``cluster serve`` runs the
consistent-hash sharding gateway over one or more ``--backend``
addresses (see ``scripts/run_cluster.py`` for a one-command local
fleet), and ``cluster metrics HOST:PORT`` scrapes any front end —
against a gateway it prints the per-backend fleet table and the
*merged* metrics snapshot.  ``loadgen --connect`` pointed at a gateway
appends a per-backend breakdown (sessions routed, p50/p99 latency per
shard) to its report.

Observability: ``--trace-out FILE`` on ``establish``/``serve``/
``loadgen`` exports the run's span trace as JSONL, ``--metrics-out
FILE`` dumps the metrics-registry snapshot as JSON, and ``--profile``
enables per-layer encoder profiling (printed after the run and, with
tracing on, attached as per-layer child spans).  ``repro obs trace``
renders a trace file as ASCII span trees; ``repro obs metrics`` renders
a snapshot file as Prometheus-style text exposition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.attacks import (
    GestureMimicryAttack,
    RandomGuessAttack,
    SignalSpoofingAttack,
)
from repro.core import KeySeedPipeline, WaveKeySystem
from repro.core.pretrained import load_default_bundle
from repro.errors import AccessError, WaveKeyError
from repro.gesture import default_volunteers
from repro.imu import default_mobile_devices
from repro.protocol import KeyAgreementConfig
from repro.rfid import ChannelGeometry, default_environments, default_tags
from repro.utils.rng import child_rng


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="WaveKey reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_args(p):
        p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="export the run's span trace as JSONL")
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="dump the metrics-registry snapshot as JSON")
        p.add_argument("--profile", action="store_true",
                       help="record per-layer encoder forward timings")

    establish = sub.add_parser(
        "establish", help="run one end-to-end key establishment"
    )
    establish.add_argument("--seed", type=int, default=7)
    establish.add_argument("--dynamic", action="store_true",
                           help="people walking around the reader")
    establish.add_argument("--distance", type=float, default=5.0,
                           help="user-to-antenna distance in metres")
    establish.add_argument("--azimuth", type=float, default=0.0,
                           help="user azimuth in degrees")
    establish.add_argument("--key-bits", type=int, default=256)
    establish.add_argument(
        "--group", choices=("modp512", "curve25519"), default="modp512",
        help="OT group: 512-bit MODP (wire-compatible default) or "
             "Curve25519")
    establish.add_argument("--connect", metavar="HOST:PORT", default=None,
                           help="establish against a networked server "
                                "instead of running in-process")
    add_obs_args(establish)

    sub.add_parser("inspect", help="summarize the pretrained bundle")

    attack = sub.add_parser("attack", help="run an attack campaign")
    attack.add_argument("kind", choices=("guess", "mimic", "spoof"))
    attack.add_argument("--trials", type=int, default=10)
    attack.add_argument("--seed", type=int, default=1)

    def add_service_args(p):
        add_obs_args(p)
        p.add_argument("--workers", type=int, default=2)
        p.add_argument("--queue-capacity", type=int, default=32)
        p.add_argument("--max-attempts", type=int, default=3)
        p.add_argument("--session-deadline", type=float, default=30.0,
                       help="wall-clock budget per session in seconds")
        p.add_argument("--ot-pool-depth", type=int, default=256,
                       help="warm OT material pool depth per kind "
                            "(0 disables the pool)")
        p.add_argument("--ot-pool-refill", type=float, default=0.05,
                       metavar="SECONDS",
                       help="idle poll interval of the OT pool's "
                            "background refill worker")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--group", choices=("modp512", "curve25519"),
            default="modp512",
            help="OT group: 512-bit MODP (wire-compatible default) or "
                 "Curve25519")

    serve = sub.add_parser(
        "serve", help="run the concurrent access-control server"
    )
    add_service_args(serve)
    serve.add_argument("--sessions", type=int, default=8,
                       help="synthetic sessions to serve before exiting; "
                            "with --listen, networked sessions to serve "
                            "(0 = run until interrupted)")
    serve.add_argument("--dry-run", action="store_true",
                       help="validate config and print the operating "
                            "point without serving")
    serve.add_argument("--listen", metavar="HOST:PORT", default=None,
                       help="serve real clients on a TCP socket "
                            "(port 0 picks a free port)")
    serve.add_argument("--port-file", metavar="FILE", default=None,
                       help="with --listen, write the bound HOST:PORT "
                            "to FILE once listening")
    serve.add_argument("--ticket-journal", metavar="FILE", default=None,
                       help="with --listen, persist resumption tickets "
                            "to an append-only journal (recovered on "
                            "restart)")
    serve.add_argument("--ticket-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="with --listen, resumption-ticket lifetime "
                            "(default 3600)")
    serve.add_argument("--telemetry", action="store_true",
                       help="with --listen, trace every session and "
                            "answer TELEMETRY_REQUEST scrapes with "
                            "buffered spans and events")
    serve.add_argument("--replicate", action="store_true",
                       help="with --listen, replicate ticket state: "
                            "answer REPL_* exchanges and push local "
                            "grants/revocations to peers")
    serve.add_argument("--peer", action="append", default=None,
                       metavar="HOST:PORT",
                       help="with --replicate, a peer backend to "
                            "anti-entropy with directly (repeat per "
                            "peer; omit when a gateway ferries)")
    serve.add_argument("--replication-interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="with --replicate, seconds between "
                            "anti-entropy rounds (default 0.5)")

    access = sub.add_parser(
        "access",
        help="secure-channel ops over a resumed WaveKey session",
    )
    access_sub = access.add_subparsers(dest="access_command", required=True)

    def add_access_args(p, with_target=False):
        p.add_argument("--connect", metavar="HOST:PORT", required=True,
                       help="networked WaveKey server (or gateway)")
        p.add_argument("--ticket-file", metavar="FILE", required=True,
                       help="resumption-ticket file")
        p.add_argument("--name", default="mobile",
                       help="client identity presented to the server")
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="dump the client metrics snapshot as JSON")
        p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="export the client's span trace as JSONL "
                            "(stitchable with --stitch)")
        if with_target:
            p.add_argument("--target", default="door",
                           help="resource the op addresses")

    access_grant = access_sub.add_parser(
        "grant",
        help="run one establishment and save the resumption ticket",
    )
    add_access_args(access_grant)
    access_grant.add_argument("--seed", type=int, default=7)
    access_grant.add_argument("--dynamic", action="store_true")
    add_access_args(access_sub.add_parser(
        "query", help="ask what the ticket's key may access",
    ), with_target=True)
    add_access_args(access_sub.add_parser(
        "open", help="actuate the RFID-protected resource",
    ), with_target=True)
    add_access_args(access_sub.add_parser(
        "revoke", help="kill the ticket server-side",
    ))

    loadgen = sub.add_parser(
        "loadgen", help="drive a server with synthetic offered load"
    )
    add_service_args(loadgen)
    loadgen.add_argument("--sessions", type=int, default=16)
    loadgen.add_argument("--rate", type=float, default=0.0,
                         help="arrival rate in sessions/s (0 = burst)")
    loadgen.add_argument("--dynamic", action="store_true")
    loadgen.add_argument("--connect", metavar="HOST:PORT", default=None,
                         help="drive a networked server over TCP instead "
                              "of an in-process one")

    cluster = sub.add_parser(
        "cluster", help="run or inspect a sharded multi-backend fleet"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command",
                                         required=True)
    cluster_serve = cluster_sub.add_parser(
        "serve", help="run the consistent-hash sharding gateway"
    )
    cluster_serve.add_argument(
        "--backend", action="append", required=True, metavar="HOST:PORT",
        help="backend server address (repeat for each backend)")
    cluster_serve.add_argument("--listen", metavar="HOST:PORT",
                               default="127.0.0.1:0",
                               help="gateway listen address "
                                    "(port 0 picks a free port)")
    cluster_serve.add_argument("--port-file", metavar="FILE", default=None,
                               help="write the bound HOST:PORT to FILE "
                                    "once listening")
    cluster_serve.add_argument("--sessions", type=int, default=0,
                               help="sessions to route before exiting "
                                    "(0 = run until interrupted)")
    cluster_serve.add_argument("--replicas", type=int, default=64,
                               help="virtual nodes per backend on the ring")
    cluster_serve.add_argument("--probe-interval", type=float, default=1.0,
                               help="seconds between backend health probes")
    cluster_serve.add_argument("--spill-inflight", type=int, default=8,
                               help="per-backend in-flight soft bound "
                                    "before spilling to the next candidate")
    cluster_serve.add_argument("--metrics-out", metavar="FILE", default=None,
                               help="dump the merged fleet snapshot as "
                                    "JSON on exit")
    cluster_serve.add_argument("--telemetry", action="store_true",
                               help="trace route/splice per session, scrape "
                                    "backend telemetry on the probe cadence, "
                                    "and answer TELEMETRY_REQUEST scrapes")
    cluster_serve.add_argument("--replication-interval", type=float,
                               default=None, metavar="SECONDS",
                               help="ferry ticket-replication entries "
                                    "between backends every SECONDS "
                                    "(off unless set; backends need "
                                    "--replicate)")
    cluster_metrics = cluster_sub.add_parser(
        "metrics",
        help="scrape a front end and render its metrics snapshot",
    )
    cluster_metrics.add_argument("target", metavar="HOST:PORT",
                                 help="gateway or backend to scrape")
    cluster_metrics.add_argument("--json", metavar="FILE", default=None,
                                 help="also dump the raw stats document "
                                      "as JSON")

    replica = sub.add_parser(
        "replica", help="inspect ticket-state replication"
    )
    replica_sub = replica.add_subparsers(dest="replica_command",
                                         required=True)
    replica_status = replica_sub.add_parser(
        "status",
        help="scrape a backend's (or gateway relay's) replication "
             "digest and entry count",
    )
    replica_status.add_argument("target", metavar="HOST:PORT",
                                help="replicating backend or gateway")
    replica_status.add_argument("--json", metavar="FILE", default=None,
                                help="also dump the raw status document "
                                     "as JSON")

    obs = sub.add_parser(
        "obs", help="inspect exported traces and metric snapshots"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_trace = obs_sub.add_parser(
        "trace", help="render a JSONL trace file as span trees"
    )
    obs_trace.add_argument("path", nargs="?", default=None,
                           help="trace file from --trace-out (optional "
                                "with --stitch)")
    obs_trace.add_argument("--session", default=None,
                           help="only render the trace containing this "
                                "session id")
    obs_trace.add_argument("--stitch", nargs="+", default=None,
                           metavar="HOST:PORT",
                           help="scrape these front ends' telemetry and "
                                "stitch their spans (plus any local trace "
                                "file) into cross-process trees")
    obs_trace.add_argument("--drain", action="store_true",
                           help="with --stitch, clear each scraped buffer "
                                "(spans are collected exactly once)")
    obs_metrics = obs_sub.add_parser(
        "metrics",
        help="render a metrics snapshot as Prometheus-style text",
    )
    obs_metrics.add_argument("path", help="snapshot file from --metrics-out")
    return parser


def _obs_session(args):
    """Tracer/profiler setup requested by --trace-out / --profile."""
    from repro.obs import Tracer

    tracer = Tracer() if (args.trace_out or args.profile) else None
    return tracer


def _finish_obs(args, tracer, metrics, profiler, out) -> None:
    if args.trace_out and tracer is not None:
        count = tracer.export_jsonl(args.trace_out)
        print(f"trace: {count} spans -> {args.trace_out}", file=out)
    if args.metrics_out and metrics is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(metrics.snapshot(), fh, indent=2, default=str)
        print(f"metrics snapshot -> {args.metrics_out}", file=out)
    if args.profile and profiler is not None:
        print("per-layer profile:", file=out)
        for line in profiler.report_lines():
            print(f"  {line}", file=out)


def _write_port_file(path: str, bound: str) -> None:
    """Atomically publish the bound address: scripts polling the file
    must never observe a partial write, so the text lands in a temp
    file first and ``os.replace`` swaps it in whole."""
    temp_path = f"{path}.tmp.{os.getpid()}"
    with open(temp_path, "w", encoding="utf-8") as fh:
        fh.write(bound + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(temp_path, path)


def _parse_hostport(value: str):
    from repro.errors import ConfigurationError

    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigurationError(
            f"expected HOST:PORT, got {value!r}"
        )
    return host, int(port)


def _resolved_group(args):
    from repro.crypto.group import resolve_group

    return resolve_group(getattr(args, "group", "modp512"))


def _agreement_config(args, bundle) -> KeyAgreementConfig:
    """Agreement config for a served command, honouring ``--group``."""
    return KeyAgreementConfig(eta=bundle.eta, group=_resolved_group(args))


def _cmd_establish_net(args, out) -> int:
    from repro.net import NetClientConfig, WaveKeyNetClient
    from repro.obs import use_default_tracer
    from repro.obs.metrics import MetricsRegistry

    host, port = _parse_hostport(args.connect)
    metrics = MetricsRegistry()
    tracer = _obs_session(args)
    client = WaveKeyNetClient(
        host, port, NetClientConfig(group=_resolved_group(args)),
        metrics=metrics, tracer=tracer
    )
    with use_default_tracer(tracer):
        result = client.establish(args.seed, dynamic=args.dynamic)
    print(f"session {result.session_id}: {result.state} "
          f"(attempts {result.attempts}, connects {result.connects}, "
          f"{result.elapsed_s:.2f} s)", file=out)
    _finish_obs(args, tracer, metrics, None, out)
    if result.success:
        print(f"key ({len(result.key)} bits): "
              f"{result.key.to_bytes().hex()}", file=out)
        return 0
    print(f"FAILED: {result.failure_reason}", file=out)
    return 1


def _cmd_establish(args, out) -> int:
    from repro.obs import use_default_tracer
    from repro.obs.metrics import MetricsRegistry

    if args.connect:
        return _cmd_establish_net(args, out)
    bundle = load_default_bundle()
    metrics = MetricsRegistry()
    system = WaveKeySystem(
        bundle,
        geometry=ChannelGeometry(
            user_distance_m=args.distance, user_azimuth_deg=args.azimuth
        ),
        agreement_config=KeyAgreementConfig(
            key_length_bits=args.key_bits, eta=bundle.eta,
            group=_resolved_group(args),
        ),
    )
    system.pipeline.metrics = metrics
    tracer = _obs_session(args)
    profiler = (
        system.pipeline.enable_profiling(tracer=tracer)
        if args.profile else None
    )
    from repro.obs import NULL_TRACER

    root_tracer = tracer or NULL_TRACER
    with use_default_tracer(tracer):
        with root_tracer.span("establish", seed=args.seed):
            result = system.establish_key(
                rng=args.seed, dynamic=args.dynamic
            )
    print(f"seed mismatch: {100 * result.seed_mismatch_rate:.1f}% "
          f"(eta {100 * bundle.eta:.1f}%)", file=out)
    print(f"elapsed: {result.elapsed_s:.2f} s", file=out)
    _finish_obs(args, tracer, metrics, profiler, out)
    if result.success:
        print(f"key ({len(result.key)} bits): "
              f"{result.key.to_bytes().hex()}", file=out)
        return 0
    print(f"FAILED: {result.failure_reason}", file=out)
    return 1


def _cmd_inspect(out) -> int:
    bundle = load_default_bundle()
    pipeline = KeySeedPipeline(bundle)
    print("WaveKey pretrained bundle", file=out)
    print(f"  latent width l_f : {bundle.latent_width}", file=out)
    print(f"  bins N_b         : {bundle.n_bins}", file=out)
    print(f"  seed length l_s  : {pipeline.seed_length} bits", file=out)
    print(f"  ECC rate eta     : {bundle.eta:.4f}", file=out)
    guess = RandomGuessAttack(bundle.eta).analytic_success(
        pipeline.seed_length
    )
    print(f"  Eq. 4 guess prob : {guess:.3e}", file=out)
    return 0


def _cmd_attack(args, out) -> int:
    bundle = load_default_bundle()
    pipeline = KeySeedPipeline(bundle)
    if args.kind == "guess":
        rng = np.random.default_rng(args.seed)
        from repro.utils.bits import BitSequence

        victims = [
            BitSequence.random(pipeline.seed_length, rng)
            for _ in range(max(1, args.trials // 10))
        ]
        outcome = RandomGuessAttack(bundle.eta).run(
            victims, guesses_per_victim=10, rng=args.seed
        )
    elif args.kind == "mimic":
        attack = GestureMimicryAttack(
            pipeline=pipeline,
            eta=bundle.eta,
            device=default_mobile_devices()[3],
            tag=default_tags()[0],
            environment=default_environments()[0],
        )
        outcome = attack.run(
            victims=default_volunteers()[:2],
            imitators=default_volunteers()[:3],
            gestures_per_victim=max(1, args.trials // 4),
            rng=args.seed,
        )
    else:
        attack = SignalSpoofingAttack(
            pipeline=pipeline,
            agreement_config=KeyAgreementConfig(
                key_length_bits=256, eta=bundle.eta
            ),
            device=default_mobile_devices()[3],
            tag=default_tags()[0],
            environment=default_environments()[0],
        )
        outcome = attack.run(
            victim=default_volunteers()[0],
            attacker_style=default_volunteers()[1],
            n_instances=args.trials,
            rng=args.seed,
        )
    print(f"{outcome.attack}: {outcome.n_successes}/{outcome.n_trials} "
          f"succeeded ({100 * outcome.success_rate:.2f}%)", file=out)
    return 0 if outcome.n_successes == 0 else 2


def _service_config(args):
    from repro.service import ServiceConfig

    return ServiceConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_attempts=args.max_attempts,
        session_deadline_s=args.session_deadline,
        ot_pool_depth=args.ot_pool_depth,
        ot_pool_refill_s=args.ot_pool_refill,
    )


def _print_service_header(config, bundle, out) -> None:
    print("WaveKey access-control server", file=out)
    print(f"  workers          : {config.workers}", file=out)
    print(f"  queue capacity   : {config.queue_capacity}", file=out)
    print(f"  max attempts     : {config.max_attempts}", file=out)
    print(f"  session deadline : {config.session_deadline_s:.1f} s",
          file=out)
    pool = (f"depth {config.ot_pool_depth}"
            if config.ot_pool_depth > 0 else "disabled")
    print(f"  OT pool          : {pool}", file=out)
    print(f"  bundle eta       : {bundle.eta:.4f}", file=out)


def _print_service_metrics(server, out) -> None:
    snapshot = server.metrics.snapshot()
    print("counters:", file=out)
    for name in sorted(snapshot["counters"]):
        print(f"  {name:28s} {snapshot['counters'][name]}", file=out)
    interesting = ("service.encode_s", "service.agree_s", "service.total_s")
    for name in interesting:
        hist = snapshot["histograms"].get(name)
        if hist and hist["count"]:
            print(f"  {name:28s} mean {hist['mean'] * 1000:8.1f} ms  "
                  f"n={hist['count']}", file=out)


def _build_key_store(args, server, out):
    """Key store for serve --listen, honouring --ticket-journal/--ttl.

    Returns None when neither flag was given so the front end keeps
    its default in-memory store.
    """
    if not (args.ticket_journal or args.ticket_ttl):
        return None
    from repro.access import KeyStore, TicketJournal
    from repro.access.store import DEFAULT_TTL_S

    journal = (
        TicketJournal(args.ticket_journal)
        if args.ticket_journal else None
    )
    store = KeyStore(
        ttl_s=args.ticket_ttl or DEFAULT_TTL_S,
        journal=journal,
        metrics=server.metrics,
    )
    if journal is not None:
        recovered = store.recover()
        print(f"ticket journal {args.ticket_journal}: "
              f"{recovered} live ticket(s) recovered", file=out)
    return store


def _cmd_serve_net(args, config, bundle, out) -> int:
    import signal
    import time

    from repro.net import WaveKeyTCPServer
    from repro.service import WaveKeyAccessServer

    # Graceful shutdown on SIGTERM too: CI smoke jobs run the server
    # as a background shell job, where SIGINT arrives ignored, and we
    # still want the metrics snapshot / journal flush on the way out.
    def _term_handler(signum, frame):
        raise KeyboardInterrupt

    previous_term = None
    try:
        previous_term = signal.signal(signal.SIGTERM, _term_handler)
    except ValueError:
        pass  # not the main thread; fall back to default delivery

    host, port = _parse_hostport(args.listen)
    tracer = _obs_session(args)
    if getattr(args, "telemetry", False) and tracer is None:
        from repro.obs import Tracer

        tracer = Tracer()
    with WaveKeyAccessServer(
        bundle, config, agreement_config=_agreement_config(args, bundle),
        tracer=tracer,
    ) as server:
        profiler = (
            server.pipeline.enable_profiling(tracer=tracer)
            if args.profile else None
        )
        telemetry = None
        if getattr(args, "telemetry", False):
            from repro.obs import TelemetryBuffer

            telemetry = TelemetryBuffer(
                "backend", tracer=tracer, events=server.events
            )
        key_store = _build_key_store(args, server, out)
        replicator = None
        if getattr(args, "replicate", False):
            from repro.access import KeyStore
            from repro.replica import Replicator

            if key_store is None:
                # Replication needs the front end and the replicator
                # to share one store; materialise the default here.
                key_store = KeyStore(metrics=server.metrics)
            replicator = Replicator(
                key_store,
                peers=args.peer or (),
                anti_entropy_interval_s=args.replication_interval,
                tracer=tracer,
            )
        with WaveKeyTCPServer(
            server, host, port, key_store=key_store, telemetry=telemetry,
            replicator=replicator,
        ) as tcp:
            bound = f"{tcp.address[0]}:{tcp.address[1]}"
            if telemetry is not None:
                # The bound port is the service identity clients see.
                telemetry.service = f"backend:{tcp.address[1]}"
            if replicator is not None:
                print(f"replicating as {replicator.origin} "
                      f"({len(replicator.peers)} static peer(s))",
                      file=out, flush=True)
            print(f"listening on {bound}", file=out, flush=True)
            if args.port_file:
                _write_port_file(args.port_file, bound)
            try:
                while (
                    args.sessions <= 0
                    or tcp.sessions_served < args.sessions
                ):
                    time.sleep(0.05)
            except KeyboardInterrupt:
                pass
            served = tcp.sessions_served
        if key_store is not None:
            key_store.close()
        _print_service_metrics(server, out)
        _finish_obs(args, tracer, server.metrics, profiler, out)
    if previous_term is not None:
        signal.signal(signal.SIGTERM, previous_term)
    print(f"served {served} networked sessions", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    from repro.service import (
        AccessRequest, WaveKeyAccessServer,
    )
    from repro.utils.rng import derive_seed

    config = _service_config(args)
    bundle = load_default_bundle()
    if args.dry_run:
        _print_service_header(config, bundle, out)
        print("dry run: configuration OK, not serving", file=out)
        return 0
    _print_service_header(config, bundle, out)
    if args.listen:
        return _cmd_serve_net(args, config, bundle, out)
    tracer = _obs_session(args)
    with WaveKeyAccessServer(
        bundle, config, agreement_config=_agreement_config(args, bundle),
        tracer=tracer,
    ) as server:
        profiler = (
            server.pipeline.enable_profiling(tracer=tracer)
            if args.profile else None
        )
        tickets = [
            server.submit(
                AccessRequest(rng_seed=derive_seed(args.seed, "serve", i))
            )
            for i in range(args.sessions)
        ]
        established = 0
        for ticket in tickets:
            record = ticket.result()
            established += record.success
            status = record.state.value
            detail = "" if record.success else f"  ({record.failure_reason})"
            print(f"  {record.session_id}: {status}{detail}", file=out)
        _print_service_metrics(server, out)
        _finish_obs(args, tracer, server.metrics, profiler, out)
    print(f"established {established}/{args.sessions}", file=out)
    return 0 if established else 1


def _cmd_access(args, out) -> int:
    from repro.net import ClientTicket, NetClientConfig, WaveKeyNetClient
    from repro.obs.metrics import MetricsRegistry

    host, port = _parse_hostport(args.connect)
    metrics = MetricsRegistry()
    tracer = None
    if getattr(args, "trace_out", None):
        from repro.obs import Tracer

        tracer = Tracer()
    client = WaveKeyNetClient(
        host, port, NetClientConfig(name=args.name), metrics=metrics,
        tracer=tracer,
    )

    def finish(rc: int) -> int:
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(metrics.snapshot(), fh, indent=2, default=str)
            print(f"metrics snapshot -> {args.metrics_out}", file=out)
        if tracer is not None:
            count = tracer.export_jsonl(args.trace_out)
            print(f"trace: {count} spans -> {args.trace_out}", file=out)
        return rc

    if args.access_command == "grant":
        result = client.establish(args.seed, dynamic=args.dynamic)
        if not result.success:
            print(f"FAILED ({result.state}): {result.failure_reason}",
                  file=out)
            return finish(1)
        if result.ticket is None:
            print("established, but the server issued no resumption "
                  "ticket", file=out)
            return finish(1)
        with open(args.ticket_file, "w", encoding="utf-8") as fh:
            fh.write(result.ticket.to_json() + "\n")
        print(f"established in {result.elapsed_s:.2f} s; ticket "
              f"{result.ticket.ticket_id} "
              f"(lifetime {result.ticket.lifetime_s:.0f} s) "
              f"-> {args.ticket_file}", file=out)
        return finish(0)

    try:
        with open(args.ticket_file, "r", encoding="utf-8") as fh:
            ticket = ClientTicket.from_json(fh.read())
    except OSError as exc:
        raise AccessError(
            f"cannot read ticket file {args.ticket_file}: {exc.strerror}"
        ) from exc

    if args.access_command == "revoke":
        client.revoke(ticket)
        print(f"ticket {ticket.ticket_id} revoked", file=out)
        return finish(0)

    with client.open_channel(ticket) as channel:
        reply = channel.request(args.access_command, target=args.target)
    print(json.dumps(reply, indent=2, sort_keys=True), file=out)
    return finish(0 if reply.get("ok") else 1)


def _cmd_cluster_serve(args, out) -> int:
    import time

    from repro.cluster import REBALANCE_EVENT, WaveKeyGateway

    host, port = _parse_hostport(args.listen)
    tracer = telemetry = None
    if getattr(args, "telemetry", False):
        from repro.obs import TelemetryBuffer, Tracer

        tracer = Tracer()
        telemetry = TelemetryBuffer("gateway", tracer=tracer)
    gateway = WaveKeyGateway(
        args.backend,
        host,
        port,
        replicas=args.replicas,
        probe_interval_s=args.probe_interval,
        spill_inflight=args.spill_inflight,
        tracer=tracer,
        telemetry=telemetry,
        replication_interval_s=args.replication_interval,
    )
    if telemetry is not None:
        telemetry.events = gateway.events
    with gateway:
        bound = f"{gateway.address[0]}:{gateway.address[1]}"
        print(f"gateway on {bound} over {len(args.backend)} backend(s)",
              file=out, flush=True)
        if args.port_file:
            _write_port_file(args.port_file, bound)
        try:
            while (
                args.sessions <= 0
                or gateway.sessions_routed < args.sessions
            ):
                time.sleep(0.05)
        except KeyboardInterrupt:
            pass
        routed = gateway.sessions_routed
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                json.dump(gateway.fleet_snapshot(), fh, indent=2,
                          default=str)
            print(f"fleet snapshot -> {args.metrics_out}", file=out)
        rebalances = gateway.events.query(kind=REBALANCE_EVENT)
        for event in rebalances:
            fields = event.fields
            print(f"  rebalance t={event.t_s:7.2f}s "
                  f"{fields.get('action'):5s} {fields.get('backend')} "
                  f"({fields.get('reason')}) ring={fields.get('ring_size')}",
                  file=out)
    print(f"routed {routed} sessions", file=out)
    return 0


def _cmd_cluster_metrics(args, out) -> int:
    from repro.cluster import fetch_stats
    from repro.obs import render_prometheus

    host, port = _parse_hostport(args.target)
    document = fetch_stats(host, port)
    role = document.get("role", "?")
    print(f"{role} {document.get('name', '?')} at {host}:{port}", file=out)
    if role == "gateway":
        print(f"ring size: {document.get('ring_size')}  "
              f"sessions routed: {document.get('sessions_served')}",
              file=out)
        for entry in document.get("backends", []):
            status = "in-ring" if entry.get("in_ring") else "EJECTED"
            print(f"  {entry.get('backend'):21s} {status:8s} "
                  f"share {entry.get('share', 0.0):6.3f}  "
                  f"in-flight {entry.get('in_flight', 0):3d}  "
                  f"routed {entry.get('sessions_routed', 0)}", file=out)
    else:
        print(f"sessions served: {document.get('sessions_served')}  "
              f"queue {document.get('queue_depth')}/"
              f"{document.get('queue_capacity')}", file=out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, default=str)
        print(f"stats document -> {args.json}", file=out)
    snapshot = document.get("snapshot")
    if isinstance(snapshot, dict):
        print(render_prometheus(snapshot), file=out)
    return 0


def _cmd_replica_status(args, out) -> int:
    from repro.replica import fetch_replica_status

    host, port = _parse_hostport(args.target)
    document = fetch_replica_status(host, port)
    role = document.get("role", "backend")
    print(f"{role} {document.get('origin', '?')} at {host}:{port}",
          file=out)
    print(f"entries held: {document.get('entries', 0)}", file=out)
    digest = document.get("digest") or {}
    if digest:
        print("high-water digest:", file=out)
        for origin in sorted(digest):
            print(f"  {origin:40s} seq {digest[origin]}", file=out)
    else:
        print("high-water digest: (empty)", file=out)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, default=str)
        print(f"status document -> {args.json}", file=out)
    return 0


def _print_gateway_breakdown(host, port, out) -> None:
    """If the loadgen target is a gateway, append a per-shard report."""
    from repro.cluster import fetch_stats
    from repro.obs import snapshot_percentile

    try:
        document = fetch_stats(host, port, timeout_s=2.0)
    except WaveKeyError:
        return  # plain backend predating stats, or target gone
    if document.get("role") != "gateway":
        return
    histograms = (document.get("snapshot") or {}).get("histograms", {})
    print("per-backend breakdown (gateway fleet view):", file=out)
    for entry in document.get("backends", []):
        key = entry.get("backend", "?")
        series = f'cluster.session_s{{backend="{key}"}}'
        hist = histograms.get(series)
        if hist and hist.get("count"):
            p50 = snapshot_percentile(hist, 0.50)
            p99 = snapshot_percentile(hist, 0.99)
            latency = (f"p50 {1000 * p50:7.1f} ms  "
                       f"p99 {1000 * p99:7.1f} ms")
        else:
            latency = "no completed sessions"
        print(f"  {key:21s} routed {entry.get('sessions_routed', 0):4d}  "
              f"{latency}", file=out)


def _cmd_loadgen_net(args, out) -> int:
    import threading
    import time

    from repro.errors import TransportError
    from repro.net import NetClientConfig, WaveKeyNetClient
    from repro.obs.metrics import MetricsRegistry
    from repro.utils.rng import derive_seed

    host, port = _parse_hostport(args.connect)
    metrics = MetricsRegistry()
    client_config = NetClientConfig(group=_resolved_group(args))
    results = []
    lock = threading.Lock()

    def one(i: int) -> None:
        client = WaveKeyNetClient(
            host, port, client_config, metrics=metrics
        )
        try:
            result = client.establish(
                derive_seed(args.seed, "loadgen", i),
                dynamic=args.dynamic,
            )
            state, elapsed = result.state, result.elapsed_s
        except TransportError as exc:
            state, elapsed = f"transport_error ({exc})", 0.0
        with lock:
            results.append((state, elapsed))

    started = time.monotonic()
    threads = []
    for i in range(args.sessions):
        thread = threading.Thread(
            target=one, args=(i,), name=f"loadgen-{i}", daemon=True
        )
        thread.start()
        threads.append(thread)
        if args.rate > 0:
            time.sleep(1.0 / args.rate)
    for thread in threads:
        thread.join()
    wall_s = time.monotonic() - started

    by_state: dict = {}
    for state, _ in results:
        by_state[state] = by_state.get(state, 0) + 1
    established = by_state.get("established", 0)
    print(f"networked load: {args.sessions} sessions against "
          f"{host}:{port} in {wall_s:.2f} s", file=out)
    for state in sorted(by_state):
        print(f"  {state:16s} {by_state[state]}", file=out)
    done = [e for s, e in results if s == "established"]
    if done:
        print(f"  mean establish latency: "
              f"{1000 * sum(done) / len(done):.1f} ms", file=out)
    _print_gateway_breakdown(host, port, out)
    _finish_obs(args, None, metrics, None, out)
    return 0 if established else 1


def _cmd_loadgen(args, out) -> int:
    from repro.service import LoadProfile, WaveKeyAccessServer, run_load

    if args.connect:
        return _cmd_loadgen_net(args, out)
    config = _service_config(args)
    bundle = load_default_bundle()
    profile = LoadProfile(
        sessions=args.sessions,
        arrival_rate_hz=args.rate,
        rng_seed=args.seed,
        dynamic=args.dynamic,
    )
    _print_service_header(config, bundle, out)
    tracer = _obs_session(args)
    with WaveKeyAccessServer(
        bundle, config, agreement_config=_agreement_config(args, bundle),
        tracer=tracer,
    ) as server:
        profiler = (
            server.pipeline.enable_profiling(tracer=tracer)
            if args.profile else None
        )
        report = run_load(server, profile)
        for line in report.summary_lines():
            print(line, file=out)
        _print_service_metrics(server, out)
        _finish_obs(args, tracer, server.metrics, profiler, out)
    return 0 if report.established else 1


def _cmd_obs_trace(args, out) -> int:
    from repro.obs import format_trace_tree, load_trace_jsonl

    if args.stitch:
        return _cmd_obs_trace_stitch(args, out)
    if not args.path:
        print("error: a trace file or --stitch HOST:PORT is required",
              file=out)
        return 2
    spans = load_trace_jsonl(args.path)
    if args.session is not None:
        keep = {
            s.trace_id for s in spans
            if s.attributes.get("session_id") == args.session
        }
        spans = [s for s in spans if s.trace_id in keep]
        if not spans:
            print(f"no spans for session {args.session!r}", file=out)
            return 1
    print(format_trace_tree(spans), file=out)
    return 0


def _cmd_obs_trace_stitch(args, out) -> int:
    """Scrape telemetry from live front ends and render the stitched
    cross-process traces (``repro obs trace --stitch HOST:PORT ...``)."""
    from repro.cluster import fetch_telemetry
    from repro.obs import (
        format_stitched,
        load_trace_jsonl,
        stitch,
        trace_ids,
    )

    documents = []
    for endpoint in args.stitch:
        host, port = _parse_hostport(endpoint)
        try:
            document = fetch_telemetry(host, port, drain=args.drain)
        except WaveKeyError as exc:
            print(f"error: scrape {endpoint}: {exc}", file=out)
            return 3
        documents.append(document)
        print(f"scraped {endpoint}: {len(document.get('spans', []))} "
              f"span(s) from {document.get('service', '?')}", file=out)
    extra = load_trace_jsonl(args.path) if args.path else []
    stitched = stitch(documents, extra_spans=extra, extra_service="client")
    if args.session is not None:
        keep = {
            str(s.get("trace_id")) for s in stitched["spans"]
            if (s.get("attributes") or {}).get("session_id") == args.session
        }
        stitched["spans"] = [
            s for s in stitched["spans"]
            if str(s.get("trace_id")) in keep
        ]
        if not stitched["spans"]:
            print(f"no spans for session {args.session!r}", file=out)
            return 1
    count = len(stitched["spans"])
    traces = trace_ids(stitched["spans"])
    print(f"stitched {count} span(s) across {len(traces)} trace(s)",
          file=out)
    print(format_stitched(stitched), file=out)
    return 0


def _cmd_obs_metrics(args, out) -> int:
    from repro.obs import normalize_snapshot, render_prometheus

    with open(args.path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    # JSON stringifies histogram bucket bounds; normalize_snapshot
    # restores floats so cumulative ``le`` buckets render in order.
    print(render_prometheus(normalize_snapshot(snapshot)), file=out)
    return 0


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "establish":
            return _cmd_establish(args, out)
        if args.command == "inspect":
            return _cmd_inspect(out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "access":
            return _cmd_access(args, out)
        if args.command == "loadgen":
            return _cmd_loadgen(args, out)
        if args.command == "cluster":
            if args.cluster_command == "serve":
                return _cmd_cluster_serve(args, out)
            return _cmd_cluster_metrics(args, out)
        if args.command == "replica":
            return _cmd_replica_status(args, out)
        if args.command == "obs":
            if args.obs_command == "trace":
                return _cmd_obs_trace(args, out)
            return _cmd_obs_metrics(args, out)
        return _cmd_attack(args, out)
    except WaveKeyError as exc:
        print(f"error: {exc}", file=out)
        return 3
    except BrokenPipeError:
        # Downstream `head`/pager closed the pipe mid-print: the unix
        # norm is a silent exit.  Point stdout at devnull so the
        # interpreter's shutdown flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
