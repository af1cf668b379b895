"""Net extension: loopback TCP establishment vs in-process baseline.

The ``repro.net`` wire (PR 3) adds binary encode/decode and real socket
hops to every protocol message.  This benchmark pins that overhead:

* per-message codec cost — encode+frame+decode round trips per second
  for a realistic ``M_E`` (the largest protocol message);
* per-session overhead — N establishments through the TCP front end
  (client SDK -> codec -> loopback socket -> access server) vs N through
  the same access server called in-process, identical pinned seeds.

The assertions are deliberately loose (CI machines vary); the printed
numbers feed EXPERIMENTS.md.  Scaling: 8 sessions per
WAVEKEY_BENCH_SCALE unit.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import bench_scale, pin_seeds
from repro.analysis import format_table
from repro.net import WaveKeyNetClient, WaveKeyTCPServer, NetClientConfig
from repro.net.codec import Hello, decode_payload, encode_message, \
    frame_to_bytes
from repro.net.connection import FrameConnection, connect  # noqa: F401
from repro.protocol.agreement import AgreementParty, KeyAgreementConfig
from repro.service import AccessRequest, ServiceConfig, WaveKeyAccessServer
from repro.utils.bits import BitSequence

SESSIONS = 8


def _fixed_acquire(request, rng):
    gen = np.random.default_rng(request.rng_seed)
    a_matrix = gen.normal(size=(200, 3))
    r_matrix = np.stack(
        [
            gen.uniform(-np.pi, np.pi, 400),
            np.abs(gen.normal(size=400)) + 0.5,
        ],
        axis=1,
    )
    return a_matrix, r_matrix


def test_codec_throughput(bundle):
    """Encode/decode rate for the largest protocol message (M_E)."""
    rng = np.random.default_rng(40_001)
    config = KeyAgreementConfig(key_length_bits=256, eta=bundle.eta)
    seed = BitSequence.random(48, rng)
    a = AgreementParty("mobile", seed, config, rng=rng)
    b = AgreementParty("server", seed, config, rng=rng,
                       own_sequences_first=False)
    batch = a.craft_ciphertexts(b.craft_response(a.craft_announce()))

    n = 200 * bench_scale()
    start = time.perf_counter()
    for _ in range(n):
        data = frame_to_bytes(encode_message(batch))
    encode_s = (time.perf_counter() - start) / n
    frame = encode_message(batch)
    start = time.perf_counter()
    for _ in range(n):
        decode_payload(frame)
    decode_s = (time.perf_counter() - start) / n

    print()
    print(format_table(
        ["direction", "per msg (us)", "msgs/s", "bytes"],
        [
            ["encode M_E", f"{encode_s * 1e6:.0f}",
             f"{1 / encode_s:.0f}", f"{len(data)}"],
            ["decode M_E", f"{decode_s * 1e6:.0f}",
             f"{1 / decode_s:.0f}", f"{len(data)}"],
        ],
        title=f"codec throughput, l_s={len(seed)} ciphertext batch",
    ))
    # Codec work must be negligible next to the OT arithmetic
    # (hundreds of ms per session): well under a millisecond each way.
    assert encode_s < 5e-3
    assert decode_s < 5e-3


def test_nodelay_keeps_roundtrips_under_nagle_delay(bundle):
    """Both ends set TCP_NODELAY, so a small request/response exchange
    (bad-version HELLO -> ERROR frame) round-trips in well under the
    ~40 ms Nagle + delayed-ACK coalescing would impose on loopback."""
    with WaveKeyAccessServer(
        bundle, ServiceConfig(workers=1), acquire_fn=_fixed_acquire
    ) as server:
        with WaveKeyTCPServer(server) as tcp:
            rtts = []
            for i in range(20 * bench_scale() + 1):
                conn = connect(*tcp.address, read_timeout_s=5.0)
                start = time.perf_counter()
                conn.send(Hello(sender="probe", rng_seed=i, version=99))
                error = conn.recv()
                elapsed = time.perf_counter() - start
                conn.close()
                assert error.code == "version"
                if i > 0:  # first exchange absorbs warmup
                    rtts.append(elapsed)

    rtts.sort()
    mean_s = sum(rtts) / len(rtts)
    median_s = rtts[len(rtts) // 2]
    print()
    print(format_table(
        ["metric", "ms"],
        [
            ["median RTT", f"{1000 * median_s:.3f}"],
            ["mean RTT", f"{1000 * mean_s:.3f}"],
            ["p max RTT", f"{1000 * rtts[-1]:.3f}"],
        ],
        title=f"hello->error wire round trip, {len(rtts)} exchanges",
    ))
    # With Nagle active, the ~40 ms coalescing delay would dominate
    # every exchange; with TCP_NODELAY a loopback round trip is
    # sub-millisecond, so even a noisy CI box stays far below it.
    assert mean_s < 0.040, f"mean RTT {1000 * mean_s:.1f} ms"


def test_loopback_overhead_vs_in_process(bundle):
    n = SESSIONS * bench_scale()
    seed = BitSequence.random(32, np.random.default_rng(40_002))
    service_config = ServiceConfig(workers=2, queue_capacity=2 * n)

    # --- in-process baseline: same access server, direct submission.
    with WaveKeyAccessServer(
        bundle, service_config, acquire_fn=_fixed_acquire
    ) as server:
        pin_seeds(server, seed)
        start = time.perf_counter()
        tickets = [
            server.submit(AccessRequest(rng_seed=1000 + i))
            for i in range(n)
        ]
        records = [t.result(timeout=120.0) for t in tickets]
        in_process_s = time.perf_counter() - start
    assert all(r.success for r in records)

    # --- loopback TCP: same server behind the wire, client SDK driving.
    with WaveKeyAccessServer(
        bundle, service_config, acquire_fn=_fixed_acquire
    ) as server:
        pin_seeds(server, seed)
        with WaveKeyTCPServer(server) as tcp:
            client_config = NetClientConfig(read_timeout_s=30.0)
            start = time.perf_counter()
            results = [
                WaveKeyNetClient(
                    *tcp.address, client_config
                ).establish(rng_seed=2000 + i)
                for i in range(n)
            ]
            loopback_s = time.perf_counter() - start
        counters = server.metrics.snapshot()["counters"]
    assert all(r.success for r in results)

    per_session_in = in_process_s / n
    per_session_net = loopback_s / n
    overhead_ms = 1000 * (per_session_net - per_session_in)
    frames = counters['net.frames_received{endpoint="server"}']
    rx_bytes = counters['net.bytes_received{endpoint="server"}']

    print()
    print(format_table(
        ["mode", "total (s)", "per session (ms)", "sessions/s"],
        [
            ["in-process", f"{in_process_s:.2f}",
             f"{1000 * per_session_in:.1f}", f"{n / in_process_s:.1f}"],
            ["loopback TCP", f"{loopback_s:.2f}",
             f"{1000 * per_session_net:.1f}", f"{n / loopback_s:.1f}"],
        ],
        title=(
            f"establishment, {n} sequential sessions "
            f"(wire overhead {overhead_ms:+.1f} ms/session, "
            f"{frames / n:.0f} frames, {rx_bytes / n / 1024:.1f} KiB "
            "received per session)"
        ),
    ))

    # Loose pin: the wire must not dominate.  A full OT establishment
    # is hundreds of ms of group arithmetic; codec + loopback TCP per
    # session must stay within 4x of in-process end to end.
    assert per_session_net < 4 * per_session_in + 0.25, (
        f"loopback session cost {per_session_net:.3f}s vs in-process "
        f"{per_session_in:.3f}s — wire overhead out of bounds"
    )
