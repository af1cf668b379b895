"""Layer replay: the busy time of each layer's public calls, timed from
the ledger's own files on a workload's own session seeds.

The replay mirrors what a backend does for attempt 1 of a session —
the same default device, tag and environment, the same rng paths — so
its inputs are the workload's inputs.  Each number is the median over
the replayed seeds.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Sequence

#: Codec frames timed, by ledger name.
FRAMES = ("hello", "m_a", "m_b", "m_e", "challenge", "resume_request",
          "resume_accept", "record")

#: Calls per codec timing; the per-call time is their mean.
CODEC_REPS = 200

#: Tuples per kind the pool-fill timing produces.
FILL_DEPTH = 16

GROUPS = ("modp512", "curve25519")
PHASES = ("announce", "respond", "ciphertexts", "assemble")


def _timed(fn: Callable[[], object]):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _median_ms(values: Sequence[float]) -> float:
    return 1000 * statistics.median(values)


def acquire(rng_seed: int):
    """Attempt 1 of a session's acquisition, as the backend runs it."""
    from repro.datasets.generation import generate_sample
    from repro.gesture import default_volunteers, sample_gesture
    from repro.imu import default_mobile_devices
    from repro.rfid import ChannelGeometry, default_environments, default_tags
    from repro.utils.rng import child_rng

    rng = child_rng(child_rng(rng_seed, "attempt", 1), "acquire")
    trajectory = sample_gesture(default_volunteers()[0],
                                child_rng(rng, "gesture"))
    return generate_sample(
        trajectory, default_mobile_devices()[3], default_tags()[0],
        default_environments()[0], geometry=ChannelGeometry(),
        rng=child_rng(rng, "sample"),
    )


def replay(rng_seeds: Sequence[int], codec_group: str) -> Dict[str, float]:
    """Every replay (R) per-layer metric; ``codec_group`` is the group
    whose OT elements the codec frames carry."""
    from repro.core import KeySeedPipeline
    from repro.core.pretrained import load_default_bundle
    from repro.datasets.normalization import (
        normalize_imu_matrix,
        normalize_rfid_matrix,
    )

    bundle = load_default_bundle()
    pipeline = KeySeedPipeline(bundle)
    out: Dict[str, float] = {}

    acquire_s, samples = [], []
    for rng_seed in rng_seeds:
        elapsed, sample = _timed(lambda: acquire(rng_seed))
        acquire_s.append(elapsed)
        samples.append(sample)
    out["gesture.acquire_ms"] = _median_ms(acquire_s)

    imu_s, rf_s, quant_s, seeds = [], [], [], []
    for sample in samples:
        x_imu = normalize_imu_matrix(sample.a_matrix)[None]
        x_rf = normalize_rfid_matrix(sample.r_matrix)[None]
        elapsed, f_imu = _timed(lambda: bundle.imu_encoder.forward(x_imu))
        imu_s.append(elapsed)
        elapsed, f_rf = _timed(lambda: bundle.rf_encoder.forward(x_rf))
        rf_s.append(elapsed)
        elapsed, s_m = _timed(lambda: bundle.quantizer.quantize(f_imu[0]))
        quant_s.append(elapsed)
        seeds.append((s_m, bundle.quantizer.quantize(f_rf[0])))
    out["nn.imu_en_ms"] = _median_ms(imu_s)
    out["nn.rf_en_ms"] = _median_ms(rf_s)
    out["quantize.ms"] = _median_ms(quant_s)

    profiler = pipeline.enable_profiling()
    try:
        for sample in samples:
            pipeline.imu_keyseed(sample.a_matrix)
            pipeline.rfid_keyseed(sample.r_matrix)
        layer_stats = profiler.stats()
    finally:
        pipeline.disable_profiling()
    for key, stats in sorted(layer_stats.items()):
        layer = key.split("/", 1)[1]
        out[f"nn.layer.{layer}_gflops"] = (
            stats["total_flops"] / stats["total_s"] / 1e9
            if stats["total_s"] else 0.0
        )

    messages = {}
    for group in GROUPS:
        for warm in (False, True):
            phases = _protocol(seeds, rng_seeds, group, warm, bundle.eta)
            mode = "warm" if warm else "cold"
            for phase in PHASES:
                out[f"protocol.{phase}_ms.{group}.{mode}"] = _median_ms(
                    phases[phase]
                )
            if not warm:
                if group == codec_group:
                    messages = phases["messages"]
                if group == GROUPS[0]:
                    out["protocol.reconcile_ms"] = _median_ms(
                        phases["reconcile"]
                    )
        out[f"crypto.pool.fill_ms_per_tuple.{group}"] = _fill_ms(group)

    for frame, message in _frames(messages, rng_seeds[0]).items():
        encode_us, decode_us = _codec_us(message)
        out[f"net.encode_us.{frame}"] = encode_us
        out[f"net.decode_us.{frame}"] = decode_us
    return out


def _protocol(seeds, rng_seeds, group_name: str, warm: bool,
              eta: float) -> dict:
    """Time each OT phase and reconciliation of one party per seed."""
    from repro.crypto.group import resolve_group
    from repro.crypto.pool import OTMaterialPool
    from repro.errors import KeyAgreementFailure
    from repro.protocol import KeyAgreementConfig
    from repro.protocol.agreement import AgreementParty
    from repro.utils.rng import child_rng

    group = resolve_group(group_name)
    config = KeyAgreementConfig(eta=eta, group=group)
    phases: Dict[str, List[float]] = {p: [] for p in PHASES}
    phases["reconcile"] = []
    for (s_m, s_r), rng_seed in zip(seeds, rng_seeds):
        pool = None
        if warm:
            # Both parties draw from it: l_s tuples of each kind apiece.
            pool = OTMaterialPool(depth=2 * len(s_m))
            pool.fill(group)
        mobile = AgreementParty(
            "mobile", s_m, config, rng=child_rng(rng_seed, "replay", "m"),
            own_sequences_first=True, pool=pool,
        )
        server = AgreementParty(
            "server", s_r, config, rng=child_rng(rng_seed, "replay", "s"),
            own_sequences_first=False, pool=pool,
        )
        elapsed, m_a = _timed(mobile.craft_announce)
        phases["announce"].append(elapsed)
        s_a = server.craft_announce()
        elapsed, m_b = _timed(lambda: mobile.craft_response(s_a))
        phases["respond"].append(elapsed)
        s_b = server.craft_response(m_a)
        elapsed, m_e = _timed(lambda: mobile.craft_ciphertexts(s_b))
        phases["ciphertexts"].append(elapsed)
        s_e = server.craft_ciphertexts(m_b)

        def assemble():
            mobile.receive_ciphertexts(s_e)
            mobile.build_preliminary_key()

        phases["assemble"].append(_timed(assemble)[0])
        server.receive_ciphertexts(m_e)
        server.build_preliminary_key()

        def reconcile():
            challenge = mobile.craft_challenge()
            try:
                mobile.verify_confirmation(server.answer_challenge(challenge))
            except KeyAgreementFailure:
                pass   # a seed pair beyond the ECC radius still costs this
            return challenge

        elapsed, challenge = _timed(reconcile)
        phases["reconcile"].append(elapsed)
        phases["messages"] = {"m_a": m_a, "m_b": m_b, "m_e": m_e,
                              "challenge": challenge}
    return phases


def _fill_ms(group_name: str) -> float:
    """``OTMaterialPool.fill`` time per tuple produced."""
    from repro.crypto.group import resolve_group
    from repro.crypto.pool import OTMaterialPool

    pool = OTMaterialPool(depth=FILL_DEPTH)
    elapsed, produced = _timed(lambda: pool.fill(resolve_group(group_name)))
    return 1000 * elapsed / produced


def _frames(protocol_messages: dict, rng_seed: int) -> dict:
    from repro.net import RecordFrame, ResumeAccept, ResumeRequest
    from repro.net.codec import Hello
    from repro.obs.tracing import TraceContext

    context = TraceContext("t000000-0001", "s000000-000001", True, "mobile")
    blob = random.Random(rng_seed).randbytes
    return {
        "hello": Hello(sender="mobile", rng_seed=rng_seed,
                       trace_context=context),
        **protocol_messages,
        "resume_request": ResumeRequest(
            sender="mobile", ticket_id="t" * 32, client_nonce=blob(16),
            trace_context=context,
        ),
        "resume_accept": ResumeAccept(
            sender="backend", channel_id="c" * 16,
            server_nonce=blob(16), tag=blob(32),
        ),
        "record": RecordFrame(seq=1, ciphertext=blob(96), tag=blob(32)),
    }


def _codec_us(message):
    """Mean microseconds per encode (``encode_message`` +
    ``frame_to_bytes``) and per ``decode_payload`` of ``message``."""
    from repro.net import decode_payload, encode_message, frame_to_bytes

    frame = encode_message(message)
    start = time.perf_counter()
    for _ in range(CODEC_REPS):
        frame_to_bytes(encode_message(message))
    encode_s = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(CODEC_REPS):
        decode_payload(frame)
    decode_s = time.perf_counter() - start
    return 1e6 * encode_s / CODEC_REPS, 1e6 * decode_s / CODEC_REPS
