"""Trace-context propagation across the server's thread boundaries.

The submitting thread and the server's worker threads all contribute
spans to a session's trace; these tests pin the invariant that every
session ends up with ONE complete span tree — session root with
enqueue/acquire/encode/ot children, the pipeline's encoder spans under
encode — even when several sessions run on concurrent workers.
"""

import threading

import numpy as np
import pytest

from repro.crypto import generate_dh_group
from repro.obs import Tracer
from repro.protocol import KeyAgreementConfig, run_key_agreement
from repro.service import AccessRequest, ServiceConfig, WaveKeyAccessServer
from repro.utils.bits import BitSequence

from tests.service.test_server import (  # noqa: F401  (fixture re-use)
    fixed_acquire,
    ok_outcome,
    tiny_bundle,
)


def spans_by_trace(tracer):
    grouped = {}
    for span in tracer.finished_spans():
        grouped.setdefault(span.trace_id, []).append(span)
    return grouped


class TestSessionSpanTrees:
    def test_concurrent_sessions_each_get_one_complete_tree(
        self, tiny_bundle
    ):
        tracer = Tracer()
        gate = threading.Event()

        def gated_agreement(*args, **kwargs):
            gate.wait(10.0)
            return ok_outcome(kwargs["clock"])

        config = ServiceConfig(workers=4)
        server = WaveKeyAccessServer(
            tiny_bundle, config,
            acquire_fn=fixed_acquire,
            agreement_fn=gated_agreement,
            tracer=tracer,
        )
        with server:
            tickets = [
                server.submit(AccessRequest(rng_seed=i)) for i in range(4)
            ]
            gate.set()
            records = [t.result(timeout=30) for t in tickets]
        assert all(r.success for r in records)

        traces = spans_by_trace(tracer)
        roots = {
            trace_id: [s for s in spans if s.parent_id is None]
            for trace_id, spans in traces.items()
        }
        session_roots = {
            trace_id: rs[0]
            for trace_id, rs in roots.items()
            if rs and rs[0].name == "session"
        }
        # one trace per session, each with exactly one root
        assert len(session_roots) == 4
        assert {
            r.attributes["session_id"] for r in session_roots.values()
        } == {rec.session_id for rec in records}

        for trace_id, root in session_roots.items():
            spans = traces[trace_id]
            children = [s for s in spans if s.parent_id == root.span_id]
            names = [s.name for s in children]
            # flat stage chain under the session root
            for stage in ("enqueue", "acquire", "encode", "ot"):
                assert stage in names, (
                    f"{root.attributes['session_id']}: missing {stage} "
                    f"in {names}"
                )
            assert root.status == "ok"
            assert root.attributes["state"] == "established"
            # the encoder calls must land under THIS session's encode
            # span
            encode = next(s for s in children if s.name == "encode")
            encoder_spans = [
                s for s in spans if s.parent_id == encode.span_id
            ]
            encoder_names = {s.name for s in encoder_spans}
            assert "pipeline.imu_keyseed" in encoder_names
            assert "pipeline.rfid_keyseed" in encoder_names

    def test_tracing_off_leaves_no_spans_and_no_trace(self, tiny_bundle):
        server = WaveKeyAccessServer(
            tiny_bundle, ServiceConfig(workers=2),
            acquire_fn=fixed_acquire,
            agreement_fn=lambda *a, **kw: ok_outcome(kw["clock"]),
        )
        with server:
            record = server.establish(AccessRequest(rng_seed=1), timeout=30)
        assert record.success
        assert record.trace is None


class TestProtocolSpanNesting:
    def test_agreement_nests_under_active_caller_span(self):
        tracer = Tracer()
        rng = np.random.default_rng(3)
        seed = BitSequence.random(64, rng)
        # Small DH group + generous tau: this test pins span nesting,
        # not timing, and must not flake when the wall-clocked OT
        # crafting runs on a loaded machine.
        config = KeyAgreementConfig(
            key_length_bits=32, eta=0.25, tau_s=30.0,
            group=generate_dh_group(96, rng=99),
        )
        with tracer.span("ot") as ot_span:
            outcome = run_key_agreement(
                seed, BitSequence(seed.array), config=config, rng=rng
            )
        assert outcome.success
        spans = {s.name: s for s in tracer.finished_spans()}
        agreement = spans["agreement"]
        assert agreement.parent_id == ot_span.span_id
        assert agreement.trace_id == ot_span.trace_id
        # the protocol's own stages hang off the agreement span
        assert spans["ot.announce"].parent_id == agreement.span_id
        assert spans["reconcile"].parent_id == agreement.span_id
        assert (
            spans["reconcile.confirm"].parent_id == spans["reconcile"].span_id
        )
