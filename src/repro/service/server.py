"""The concurrent WaveKey access-control server.

:class:`WaveKeyAccessServer` is the deployment story of the paper's
contexts (lineup service, access control) as an actual server: many
users present gestures concurrently, each admitted session runs the full
pipeline — gesture acquisition, IMU/RF encoding, bidirectional-OT key
agreement.  Each worker encodes its own session's window inline, as the
paper's mobile (IMU-En) and reader (RF-En) each encode one window.

Operational behaviour:

* **admission control** — a bounded queue; submissions past capacity are
  load-shed immediately with a structured :class:`RejectionReason`;
* **tau-deadline enforcement** — each session carries a
  :class:`ProtocolClock`; the slower encoder's compute time counts
  against the paper's ``2 s + tau`` announce deadline, so a slow
  encoder surfaces as protocol timeouts exactly as it would on a real
  reader;
* **bounded retries** — failed agreements retry the gesture up to
  ``max_attempts``, as the paper's deployments do;
* **observability** — counters, stage latency histograms
  (enqueue -> encode -> OT -> done), and a structured event log.
"""

from __future__ import annotations

import contextlib
import queue
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.core.models import WaveKeyModelBundle
from repro.core.pipeline import KeySeedPipeline
from repro.crypto.pool import OTMaterialPool
from repro.datasets.generation import generate_sample
from repro.errors import ServiceError, SimulationError
from repro.gesture import default_volunteers, sample_gesture
from repro.imu import default_mobile_devices
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NULL_TRACER as _NO_TRACE
from repro.obs.tracing import Tracer, resolve_tracer
from repro.protocol import (
    KeyAgreementConfig,
    ProtocolClock,
    run_key_agreement,
)
from repro.rfid import ChannelGeometry, default_environments, default_tags
from repro.service.config import ServiceConfig
from repro.service.sessions import (
    AccessRequest,
    RejectionReason,
    SessionManager,
    SessionRecord,
    SessionState,
    SessionTicket,
)
from repro.utils.rng import child_rng


class WaveKeyAccessServer:
    """Concurrent key-establishment server over one trained bundle.

    ``acquire_fn`` and ``agreement_fn`` default to the real simulation
    and protocol; tests inject deterministic substitutes to drive the
    retry/timeout/shedding paths without Monte-Carlo noise.
    """

    def __init__(
        self,
        bundle: WaveKeyModelBundle,
        config: ServiceConfig = None,
        *,
        device=None,
        tag=None,
        environment=None,
        geometry: ChannelGeometry = None,
        agreement_config: KeyAgreementConfig = None,
        transport_factory: Callable[[], object] = None,
        acquire_fn: Callable = None,
        agreement_fn: Callable = None,
        tracer: Tracer = None,
    ):
        self.bundle = bundle
        self.config = config or ServiceConfig()
        self.metrics = MetricsRegistry()
        self.tracer = tracer
        # The pipeline shares the server's registry, so its labeled
        # per-encoder series land next to the service counters.
        self.pipeline = KeySeedPipeline(bundle, metrics=self.metrics)
        self.device = device or default_mobile_devices()[3]
        self.tag = tag or default_tags()[0]
        self.environment = environment or default_environments()[0]
        self.geometry = geometry or ChannelGeometry()
        self.agreement_config = agreement_config or KeyAgreementConfig(
            eta=bundle.eta
        )
        self.transport_factory = transport_factory
        self._acquire_fn = acquire_fn or self._acquire
        self._agreement_fn = agreement_fn or run_key_agreement
        # Warm OT material, produced off the request path by the pool's
        # refill worker.  Only agreement functions that advertise
        # ``accepts_ot_pool`` receive it — injected test doubles and
        # older callables keep their exact signatures.
        self.ot_pool: Optional[OTMaterialPool] = None
        if self.config.ot_pool_depth > 0:
            self.ot_pool = OTMaterialPool(
                depth=self.config.ot_pool_depth,
                low_watermark=self.config.ot_pool_low_watermark,
                refill_interval_s=self.config.ot_pool_refill_s,
                metrics=self.metrics,
                tracer=tracer,
            )
            self.ot_pool.register(self.agreement_config.group)

        self.events = EventLog()
        self.sessions = SessionManager(self.metrics, self.events)
        self._queue: "queue.Queue[Optional[SessionRecord]]" = queue.Queue()
        self._admission_lock = threading.Lock()
        # The OT exchange wall-clocks its big-int crafting into the
        # simulated timeline (ProtocolClock.measure).  That arithmetic
        # is pure Python, so the GIL serializes it across workers anyway
        # — running agreements "concurrently" would only charge every
        # in-flight protocol for its rivals' CPU time and spuriously
        # breach the tau deadline.  Acquisition shares the lock for the
        # same reason, from the other side: the gesture/DSP simulation
        # is host-side work a real device would do on its own silicon,
        # and letting it steal the GIL mid-craft would again bill one
        # session's protocol for another's simulation.  Encoding stays
        # outside the lock: one window is about a millisecond of numpy,
        # whose BLAS calls release the GIL anyway, while taking the lock
        # would stall it behind another session's whole agreement.
        self._compute_lock = threading.Lock()
        self._pending = 0
        self._workers: List[threading.Thread] = []
        self._running = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WaveKeyAccessServer":
        if self._running:
            raise ServiceError("server already started")
        self._running = True
        if self.ot_pool is not None:
            # Fill before any session is admitted: run in the background,
            # the initial 2 x depth tuples hold the GIL beside a fresh
            # server's first rounds and push their M_A past 2 s + tau.
            self.ot_pool.fill()
            self.ot_pool.start()
        for i in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"wavekey-worker-{i}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        self.events.emit(
            "server_started",
            workers=self.config.workers,
            queue_capacity=self.config.queue_capacity,
        )
        return self

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        for _ in self._workers:
            self._queue.put(None)
        for worker in self._workers:
            worker.join()
        self._workers = []
        if self.ot_pool is not None:
            self.ot_pool.stop()
        self.events.emit("server_stopped")

    def __enter__(self) -> "WaveKeyAccessServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- admission ---------------------------------------------------------

    def submit(self, request: AccessRequest) -> SessionTicket:
        """Admit (or shed) one session; never blocks on a full queue."""
        if not self._running:
            raise ServiceError("server is not running")
        with self._admission_lock:
            depth = self._pending
            if depth >= self.config.queue_capacity:
                return self.sessions.shed(
                    request,
                    RejectionReason(
                        code="queue_full",
                        detail=(
                            f"admission queue at capacity "
                            f"({depth}/{self.config.queue_capacity})"
                        ),
                        queue_depth=depth,
                        queue_capacity=self.config.queue_capacity,
                    ),
                )
            ticket = self.sessions.open(request)
            record = ticket._record
            record.timings["admitted_at"] = time.monotonic()
            tracer = self._tracer()
            if tracer.enabled:
                # Parent on the caller's distributed trace context when
                # the request carried one; a fresh root otherwise.
                record.trace = tracer.start_span(
                    "session",
                    parent=getattr(request, "trace_context", None),
                    session_id=record.session_id,
                )
            self._pending += 1
            self._queue.put(record)
        self.metrics.counter("service.admitted").inc()
        self.metrics.gauge("service.queue_depth").set(depth + 1)
        self.events.emit(
            "admitted", session_id=record.session_id, queue_depth=depth + 1
        )
        return ticket

    def establish(
        self, request: AccessRequest, timeout: float = None
    ) -> SessionRecord:
        """Blocking convenience: submit and wait for the terminal record."""
        return self.submit(request).result(timeout)

    def queue_state(self) -> Tuple[int, int]:
        """Current admission-queue ``(depth, capacity)``.

        The cluster tier scrapes this through the wire stats exchange:
        a backend running near capacity sheds, and the gateway folds
        that pressure into its routing weights rather than discovering
        it one ``busy`` frame at a time.
        """
        with self._admission_lock:
            return self._pending, self.config.queue_capacity

    # -- session processing ------------------------------------------------

    def _tracer(self) -> Tracer:
        return resolve_tracer(self.tracer)

    def _worker_loop(self) -> None:
        while True:
            record = self._queue.get()
            if record is None:
                return
            with self._admission_lock:
                self._pending -= 1
                self.metrics.gauge("service.queue_depth").set(self._pending)
            try:
                self._process(record)
            except Exception as exc:  # noqa: BLE001 — never kill a worker
                self.sessions.abort(record, f"internal: {exc}")
                if record.trace is not None and not record.trace.finished:
                    self._tracer().finish_span(record.trace, status="error")

    def _deadline_left(self, record: SessionRecord) -> float:
        spent = time.monotonic() - record.timings["admitted_at"]
        return self.config.session_deadline_s - spent

    def _time_out(
        self, record: SessionRecord, code: str, stage: str, detail: str
    ) -> None:
        record.failure_reason = f"{code}: {detail}"
        self.sessions.transition(
            record, SessionState.TIMED_OUT,
            code=code, stage=stage, detail=detail,
        )

    def _finish_timings(self, record: SessionRecord) -> None:
        total = time.monotonic() - record.timings.pop("admitted_at")
        record.timings["total_s"] = total
        self.metrics.histogram("service.total_s").observe(total)
        if record.trace is not None:
            record.trace.set_attribute("state", record.state.value)
            record.trace.set_attribute("attempts", record.attempts)
            if record.failure_reason:
                record.trace.set_attribute("failure", record.failure_reason)
            self._tracer().finish_span(
                record.trace,
                status="ok" if record.success else "error",
            )

    def _process(self, record: SessionRecord) -> None:
        request = record.request
        tracer = self._tracer()
        root = record.trace
        pickup = time.monotonic()
        queue_wait = pickup - record.timings["admitted_at"]
        record.timings["queue_wait_s"] = queue_wait
        self.metrics.histogram("service.queue_wait_s").observe(queue_wait)
        if root is not None:
            # Retroactive: the wait already happened, on another thread.
            tracer.record_span(
                "enqueue", parent=root,
                start_s=record.timings["admitted_at"], end_s=pickup,
            )

        if self._deadline_left(record) <= 0:
            self._time_out(
                record, "session_deadline", "queue",
                f"waited {queue_wait * 1000:.1f} ms in the admission queue",
            )
            self._finish_timings(record)
            return

        for attempt in range(1, self.config.max_attempts + 1):
            record.attempts = attempt
            self.metrics.counter("service.attempts").inc()
            if attempt > 1:
                self.metrics.counter("service.retries").inc()
                self.events.emit(
                    "retry", session_id=record.session_id, attempt=attempt
                )
            rng = child_rng(request.rng_seed, "attempt", attempt)
            self.sessions.transition(
                record, SessionState.ENCODING, attempt=attempt
            )

            # The protocol clock starts at the gesture start; acquisition
            # occupies the 2 s window, after which the encoders must
            # produce the key-seed before the announce deadline (2 + tau).
            clock = ProtocolClock(
                start_s=self.agreement_config.gesture_window_s
            )

            # Stage spans hang directly under the session root so every
            # attempt's enqueue -> encode -> agreement chain reads off
            # one flat tree level.  ``stages`` is the disabled tracer
            # when the session has no root (tracing off at admission).
            stages = tracer if root is not None else _NO_TRACE

            try:
                with stages.span("acquire", parent=root, attempt=attempt):
                    with self._compute_lock:
                        a_matrix, r_matrix = self._acquire_fn(
                            request, child_rng(rng, "acquire")
                        )
            except SimulationError as exc:
                record.failure_reason = f"acquisition: {exc}"
                self.events.emit(
                    "attempt_failed", session_id=record.session_id,
                    attempt=attempt, reason=record.failure_reason,
                )
                continue

            if self._deadline_left(record) <= 0:
                self._time_out(
                    record, "session_deadline", "encode",
                    "wall-clock budget exhausted before encoding",
                )
                self._finish_timings(record)
                return
            with stages.span("encode", parent=root, attempt=attempt):
                encode_start = time.monotonic()
                seed_m = self.pipeline.imu_keyseed(a_matrix)
                rf_start = time.monotonic()
                seed_r = self.pipeline.rfid_keyseed(r_matrix)
                rf_end = time.monotonic()
            encode_s = time.monotonic() - encode_start
            record.timings["encode_s"] = encode_s
            self.metrics.histogram("service.encode_s").observe(encode_s)
            # The mobile encodes IMU while the reader encodes RF, so the
            # slower chain gates the announce: tau is charged the slower
            # call, not the two calls' sum.
            encoder_latency = max(rf_start - encode_start, rf_end - rf_start)
            record.timings["encoder_latency_s"] = encoder_latency
            self.metrics.histogram("service.encoder_latency_s").observe(
                encoder_latency
            )
            clock.advance(encoder_latency)
            self.events.emit(
                "encoded", session_id=record.session_id, attempt=attempt,
                encode_s=encode_s,
            )

            self.sessions.transition(
                record, SessionState.AGREEING, attempt=attempt
            )
            transport = (
                self.transport_factory()
                if self.transport_factory is not None
                else None
            )
            agree_start = time.monotonic()
            agreement_fn = request.agreement_fn or self._agreement_fn
            # An agreement_fn that blocks on I/O (the network front end)
            # opts out of the compute lock via ``hold_compute_lock``:
            # holding it across socket waits would serialize every other
            # session behind the slowest client.
            compute_lock = (
                self._compute_lock
                if getattr(agreement_fn, "hold_compute_lock", True)
                else contextlib.nullcontext()
            )
            # The "ot" span is active on this thread while the protocol
            # runs, so run_key_agreement's own "agreement" span (and its
            # ot.*/reconcile children) nest under it via the active-span
            # stack — no tracer plumbing through injected agreement_fns.
            agree_kwargs = {}
            if self.ot_pool is not None and getattr(
                agreement_fn, "accepts_ot_pool", False
            ):
                agree_kwargs["pool"] = self.ot_pool
            with stages.span("ot", parent=root, attempt=attempt) as ot_span:
                with compute_lock:
                    outcome = agreement_fn(
                        seed_m,
                        seed_r,
                        config=self.agreement_config,
                        transport=transport,
                        clock=clock,
                        rng=child_rng(rng, "agreement"),
                        **agree_kwargs,
                    )
                ot_span.set_attribute("success", outcome.success)
            agree_s = time.monotonic() - agree_start
            record.timings["agree_s"] = agree_s
            record.timings["protocol_elapsed_s"] = outcome.elapsed_s
            self.metrics.histogram("service.agree_s").observe(agree_s)

            if outcome.success:
                record.key = outcome.mobile_key
                record.failure_reason = None
                self.sessions.transition(
                    record, SessionState.ESTABLISHED,
                    attempt=attempt, elapsed_s=outcome.elapsed_s,
                )
                self._finish_timings(record)
                return

            record.failure_reason = outcome.failure_reason or "keys differ"
            timed_out = record.failure_reason.startswith("deadline")
            self.events.emit(
                "attempt_failed", session_id=record.session_id,
                attempt=attempt, reason=record.failure_reason,
                timed_out=timed_out,
            )
            if timed_out and not self.config.retry_on_timeout:
                self.sessions.transition(
                    record, SessionState.TIMED_OUT,
                    code="tau_deadline", stage="agreement",
                    detail=record.failure_reason,
                )
                self._finish_timings(record)
                return
            if self._deadline_left(record) <= 0:
                self._time_out(
                    record, "session_deadline", "retry",
                    "wall-clock budget exhausted between attempts",
                )
                self._finish_timings(record)
                return

        self.sessions.transition(
            record, SessionState.FAILED,
            attempts=record.attempts, reason=record.failure_reason,
        )
        self._finish_timings(record)

    # -- default acquisition ----------------------------------------------

    def _acquire(self, request: AccessRequest, rng):
        """Simulate one gesture observed by both sensor chains."""
        volunteer = request.volunteer or default_volunteers()[0]
        trajectory = sample_gesture(volunteer, child_rng(rng, "gesture"))
        sample = generate_sample(
            trajectory,
            request.device or self.device,
            request.tag or self.tag,
            request.environment or self.environment,
            dynamic=request.dynamic,
            geometry=self.geometry,
            rng=child_rng(rng, "sample"),
        )
        return sample.a_matrix, sample.r_matrix
