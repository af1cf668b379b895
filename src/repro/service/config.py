"""Server tuning knobs.

One frozen dataclass holds every operational parameter of the
access-control server: worker-pool width, admission-queue depth, retry
bounds, the wall-clock session deadline, and the warm OT pool.
Protocol-level parameters (key length, eta, the tau deadline) stay in :class:`repro.protocol.KeyAgreementConfig` — the service config
only governs *how* sessions are scheduled, never the cryptography.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ServiceConfig:
    """Operational parameters of :class:`WaveKeyAccessServer`.

    Attributes
    ----------
    workers:
        Session-processing threads.  Each worker drives one session at a
        time through acquisition -> encode -> key agreement.
    queue_capacity:
        Bound on sessions admitted but not yet picked up by a worker.
        Submissions beyond it are load-shed with a structured
        :class:`RejectionReason` instead of queueing without bound.
    max_attempts:
        Total establishment attempts per session (first try + retries).
        The paper's deployments retry the gesture when agreement fails;
        the bound keeps a hopeless session from looping forever.
    retry_on_timeout:
        Whether a tau-deadline violation inside the protocol is retried
        like any other failure (default: no — a deadline miss under load
        will usually repeat, so the session reports TIMED_OUT).
    session_deadline_s:
        Wall-clock budget per session measured from admission; exceeded
        budgets end the session as TIMED_OUT at the next checkpoint.
    ot_pool_depth:
        High watermark of the warm OT material pool: precomputed
        sender/receiver exponent tuples held per kind for the agreement
        group (:class:`repro.crypto.pool.OTMaterialPool`).  ``0``
        disables the pool entirely — every OT instance exponentiates
        inline, as the protocol always still can.
    ot_pool_low_watermark:
        Refill trigger depth; ``None`` means ``ot_pool_depth // 2``.
    ot_pool_refill_s:
        Idle poll interval of the pool's background refill worker (the
        worker is additionally woken immediately whenever a take
        drains a stock below the low watermark).
    """

    workers: int = 2
    queue_capacity: int = 32
    max_attempts: int = 3
    retry_on_timeout: bool = False
    session_deadline_s: float = 30.0
    ot_pool_depth: int = 256
    ot_pool_low_watermark: Optional[int] = None
    ot_pool_refill_s: float = 0.05

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.session_deadline_s <= 0:
            raise ConfigurationError("session_deadline_s must be > 0")
        if self.ot_pool_depth < 0:
            raise ConfigurationError("ot_pool_depth must be >= 0")
        if self.ot_pool_low_watermark is not None and not (
            0 <= self.ot_pool_low_watermark < max(self.ot_pool_depth, 1)
        ):
            raise ConfigurationError(
                "ot_pool_low_watermark must be in [0, ot_pool_depth)"
            )
        if self.ot_pool_refill_s <= 0:
            raise ConfigurationError("ot_pool_refill_s must be > 0")
