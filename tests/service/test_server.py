"""Service-level tests for the concurrent access-control server.

These use a small untrained bundle (the server does not care about key
quality) plus injected acquisition/agreement functions, so every path —
establishment, tau-deadline timeout, bounded retries, wall-clock budget,
load shedding — is deterministic and fast.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.models import (
    WaveKeyModelBundle,
    build_decoder,
    build_imu_encoder,
    build_rf_encoder,
)
from repro.errors import ServiceError, SimulationError
from repro.protocol import SimulatedTransport
from repro.protocol.agreement import KeyAgreementOutcome
from repro.service import (
    AccessRequest,
    ServiceConfig,
    SessionState,
    WaveKeyAccessServer,
)
from repro.utils.bits import BitSequence


@pytest.fixture(scope="module")
def tiny_bundle():
    return WaveKeyModelBundle(
        imu_encoder=build_imu_encoder(6, rng=0),
        rf_encoder=build_rf_encoder(6, rng=1),
        decoder=build_decoder(6, rng=2),
        n_bins=8,
        eta=0.2,
    )


def fixed_acquire(request, rng):
    """Deterministic sensor windows with valid shapes/ranges."""
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


def ok_outcome(clock):
    key = BitSequence.random(128, np.random.default_rng(1))
    return KeyAgreementOutcome(
        success=True,
        mobile_key=key,
        server_key=key,
        elapsed_s=clock.now,
        failure_reason=None,
        seed_mismatch_bits=0,
    )


def failed_outcome(clock, reason="agreement: confirmation HMACs differ"):
    return KeyAgreementOutcome(
        success=False,
        mobile_key=None,
        server_key=None,
        elapsed_s=clock.now,
        failure_reason=reason,
        seed_mismatch_bits=9,
    )


def make_server(tiny_bundle, config=None, **kwargs):
    kwargs.setdefault("acquire_fn", fixed_acquire)
    return WaveKeyAccessServer(
        tiny_bundle, config or ServiceConfig(workers=2), **kwargs
    )


class TestEstablishment:
    def test_successful_session(self, tiny_bundle):
        server = make_server(
            tiny_bundle,
            agreement_fn=lambda *a, **kw: ok_outcome(kw["clock"]),
        )
        with server:
            record = server.establish(AccessRequest(rng_seed=1), timeout=30)
        assert record.state is SessionState.ESTABLISHED
        assert record.success
        assert record.key is not None and len(record.key) == 128
        assert record.attempts == 1
        for stage in ("queue_wait_s", "encode_s", "agree_s", "total_s"):
            assert record.timings[stage] >= 0.0
        kinds = [
            e.kind for e in server.events.query(session_id=record.session_id)
        ]
        assert kinds == [
            "admitted", "encoding", "encoded", "agreeing", "established",
        ]
        counters = server.metrics.snapshot()["counters"]
        assert counters["service.admitted"] == 1
        assert counters["service.established"] == 1
        assert server.metrics.histogram("service.total_s").count == 1

    def test_served_seeds_are_the_pipelines_seeds(self, tiny_bundle):
        """The worker encodes inline: the seeds handed to agreement are
        exactly imu_keyseed / rfid_keyseed of the acquired windows."""
        seen = {}

        def recording_agreement(seed_m, seed_r, **kwargs):
            seen["seeds"] = (seed_m, seed_r)
            return ok_outcome(kwargs["clock"])

        with make_server(
            tiny_bundle, agreement_fn=recording_agreement
        ) as server:
            record = server.establish(AccessRequest(rng_seed=9), timeout=30)
        assert record.success
        a_matrix, r_matrix = fixed_acquire(record.request, None)
        seed_m, seed_r = seen["seeds"]
        assert np.array_equal(
            seed_m.array, server.pipeline.imu_keyseed(a_matrix).array
        )
        assert np.array_equal(
            seed_r.array, server.pipeline.rfid_keyseed(r_matrix).array
        )

    def test_tau_is_charged_the_slower_encoder(self, tiny_bundle):
        """encoder_latency_s is the slower encoder call's time: at least
        a 5 ms stub's sleep, at most the whole encode stage."""
        seed = BitSequence.random(32, np.random.default_rng(3))

        def slow_keyseed(matrix):
            time.sleep(0.005)
            return seed

        server = make_server(
            tiny_bundle,
            ServiceConfig(workers=1),
            agreement_fn=lambda *a, **kw: ok_outcome(kw["clock"]),
        )
        server.pipeline.imu_keyseed = slow_keyseed
        with server:
            record = server.establish(AccessRequest(rng_seed=8), timeout=30)
        assert record.success
        latency = record.timings["encoder_latency_s"]
        assert 0.005 <= latency <= record.timings["encode_s"]


class TestTauDeadline:
    def test_slow_transport_times_out_the_protocol(self, tiny_bundle):
        # 1 s per message: M_A arrives at ~3 s >> the 2.12 s deadline.
        server = make_server(
            tiny_bundle,
            ServiceConfig(workers=1),
            transport_factory=lambda: SimulatedTransport(base_latency_s=1.0),
        )
        with server:
            record = server.establish(AccessRequest(rng_seed=2), timeout=60)
        assert record.state is SessionState.TIMED_OUT
        assert record.failure_reason.startswith("deadline:")
        assert record.attempts == 1  # deadline misses are not retried
        events = server.events.query(
            kind="timed_out", session_id=record.session_id
        )
        assert events and events[0].fields["code"] == "tau_deadline"
        counters = server.metrics.snapshot()["counters"]
        assert counters["service.timed_out"] == 1
        assert counters.get("service.retries", 0) == 0

    def test_retry_on_timeout_can_be_enabled(self, tiny_bundle):
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return failed_outcome(
                    kwargs["clock"], reason="deadline: M_A late"
                )
            return ok_outcome(kwargs["clock"])

        config = ServiceConfig(workers=1, retry_on_timeout=True)
        with make_server(tiny_bundle, config, agreement_fn=flaky) as server:
            record = server.establish(AccessRequest(rng_seed=3), timeout=30)
        assert record.success
        assert record.attempts == 2


class TestRetries:
    def test_fails_then_succeeds(self, tiny_bundle):
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) < 3:
                return failed_outcome(kwargs["clock"])
            return ok_outcome(kwargs["clock"])

        config = ServiceConfig(workers=1, max_attempts=3)
        with make_server(tiny_bundle, config, agreement_fn=flaky) as server:
            record = server.establish(AccessRequest(rng_seed=4), timeout=30)
        assert record.success
        assert record.attempts == 3
        counters = server.metrics.snapshot()["counters"]
        assert counters["service.retries"] == 2
        assert counters["service.attempts"] == 3
        retries = server.events.query(
            kind="retry", session_id=record.session_id
        )
        assert [e.fields["attempt"] for e in retries] == [2, 3]

    def test_attempts_exhausted_reports_failure(self, tiny_bundle):
        config = ServiceConfig(workers=1, max_attempts=2)
        server = make_server(
            tiny_bundle,
            config,
            agreement_fn=lambda *a, **kw: failed_outcome(kw["clock"]),
        )
        with server:
            record = server.establish(AccessRequest(rng_seed=5), timeout=30)
        assert record.state is SessionState.FAILED
        assert record.attempts == 2
        assert record.failure_reason.startswith("agreement:")
        assert server.metrics.snapshot()["counters"]["service.failed"] == 1

    def test_acquisition_errors_are_retried(self, tiny_bundle):
        calls = []

        def flaky_acquire(request, rng):
            calls.append(1)
            if len(calls) == 1:
                raise SimulationError("tag read glitch")
            return fixed_acquire(request, rng)

        server = make_server(
            tiny_bundle,
            ServiceConfig(workers=1),
            acquire_fn=flaky_acquire,
            agreement_fn=lambda *a, **kw: ok_outcome(kw["clock"]),
        )
        with server:
            record = server.establish(AccessRequest(rng_seed=6), timeout=30)
        assert record.success
        assert record.attempts == 2


class TestLoadShedding:
    def test_overload_sheds_with_structured_reason(self, tiny_bundle):
        gate = threading.Event()
        entered = threading.Event()

        def gated_agreement(*args, **kwargs):
            entered.set()
            gate.wait(10.0)
            return ok_outcome(kwargs["clock"])

        config = ServiceConfig(workers=1, queue_capacity=2)
        with make_server(
            tiny_bundle, config, agreement_fn=gated_agreement
        ) as server:
            first = server.submit(AccessRequest(rng_seed=10))
            assert entered.wait(10.0)  # worker is now pinned in agreement
            queued = [
                server.submit(AccessRequest(rng_seed=11 + i))
                for i in range(2)
            ]
            shed = server.submit(AccessRequest(rng_seed=13))
            shed_record = shed.result(timeout=5.0)
            assert shed_record.state is SessionState.SHED
            assert shed_record.rejection.code == "queue_full"
            assert shed_record.rejection.queue_depth == 2
            assert shed_record.rejection.queue_capacity == 2
            gate.set()
            assert first.result(timeout=30).success
            assert all(t.result(timeout=30).success for t in queued)
        counters = server.metrics.snapshot()["counters"]
        assert counters["service.shed"] == 1
        assert counters["service.established"] == 3
        shed_events = server.events.query(kind="shed")
        assert shed_events and shed_events[0].fields["code"] == "queue_full"


class TestWallClockDeadline:
    def test_slow_acquisition_exhausts_session_budget(self, tiny_bundle):
        def slow_acquire(request, rng):
            time.sleep(0.1)
            return fixed_acquire(request, rng)

        config = ServiceConfig(workers=1, session_deadline_s=0.05)
        agreement_calls = []
        server = make_server(
            tiny_bundle,
            config,
            acquire_fn=slow_acquire,
            agreement_fn=lambda *a, **kw: agreement_calls.append(1),
        )
        with server:
            record = server.establish(AccessRequest(rng_seed=20), timeout=30)
        assert record.state is SessionState.TIMED_OUT
        assert record.failure_reason.startswith("session_deadline:")
        assert not agreement_calls
        events = server.events.query(kind="timed_out")
        assert events[0].fields["code"] == "session_deadline"


class TestLifecycle:
    def test_submit_requires_running_server(self, tiny_bundle):
        server = make_server(tiny_bundle)
        with pytest.raises(ServiceError, match="not running"):
            server.submit(AccessRequest(rng_seed=1))
        server.start()
        server.stop()
        with pytest.raises(ServiceError, match="not running"):
            server.submit(AccessRequest(rng_seed=1))

    def test_ot_pool_lifecycle_follows_server(self, tiny_bundle):
        server = make_server(
            tiny_bundle,
            ServiceConfig(workers=1, ot_pool_depth=4),
            agreement_fn=lambda *a, **kw: ok_outcome(kw["clock"]),
        )
        assert server.ot_pool is not None
        assert not server.ot_pool._running
        with server:
            assert server.ot_pool._running
            deadline = time.monotonic() + 5.0
            group = server.agreement_config.group
            while server.ot_pool.depths(group) != (4, 4):
                if time.monotonic() > deadline:
                    pytest.fail("pool never refilled to depth")
                time.sleep(0.01)
        assert not server.ot_pool._running

    def test_ot_pool_disabled_by_config(self, tiny_bundle):
        server = make_server(
            tiny_bundle, ServiceConfig(workers=1, ot_pool_depth=0)
        )
        assert server.ot_pool is None

    def test_pool_kwarg_gated_on_capability_marker(self, tiny_bundle):
        """Injected agreement functions that never heard of the pool
        keep their exact signatures; opted-in functions receive it."""
        seen = {}

        def plain_fn(s_m, s_r, *, config, transport, clock, rng):
            seen["plain"] = True
            return ok_outcome(clock)

        def pooled_fn(s_m, s_r, *, config, transport, clock, rng, pool):
            seen["pool"] = pool
            return ok_outcome(clock)

        pooled_fn.accepts_ot_pool = True

        server = make_server(
            tiny_bundle,
            ServiceConfig(workers=1, ot_pool_depth=4),
            agreement_fn=plain_fn,
        )
        with server:
            assert server.establish(
                AccessRequest(rng_seed=1), timeout=30
            ).success
            server._agreement_fn = pooled_fn
            assert server.establish(
                AccessRequest(rng_seed=2), timeout=30
            ).success
        assert seen["plain"] is True
        assert seen["pool"] is server.ot_pool

    def test_internal_errors_fail_the_session_not_the_worker(
        self, tiny_bundle
    ):
        def broken_acquire(request, rng):
            raise RuntimeError("unexpected")

        server = make_server(
            tiny_bundle, ServiceConfig(workers=1), acquire_fn=broken_acquire
        )
        with server:
            record = server.establish(AccessRequest(rng_seed=1), timeout=30)
            assert record.state is SessionState.FAILED
            assert record.failure_reason.startswith("internal:")
            # The worker survived; a healthy session still completes.
            server._acquire_fn = fixed_acquire
            server._agreement_fn = lambda *a, **kw: ok_outcome(kw["clock"])
            record2 = server.establish(AccessRequest(rng_seed=2), timeout=30)
        assert record2.success
