"""Key-seed generation pipeline (paper SIV-C).

:class:`KeySeedPipeline` is the deployable inference path: sensor matrix
-> normalization -> encoder -> equiprobable quantization -> gray-coded
key-seed.  The mobile device runs the IMU side, the RFID server runs the
RF side, each producing an ``l_s``-bit :class:`BitSequence`.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.models import WaveKeyModelBundle
from repro.datasets.normalization import (
    normalize_imu_matrix,
    normalize_rfid_matrix,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import LayerProfiler
from repro.obs.tracing import Tracer, resolve_tracer
from repro.utils.bits import BitSequence


class KeySeedPipeline:
    """Inference-time wrapper around a trained model bundle.

    Observability is opt-in and inherited: spans go to ``tracer`` when
    given, else to the caller's active tracer (so a server's session
    spans pick up the encoder calls without plumbing); labeled per-encoder metrics land in
    ``metrics`` when a registry is supplied (the access-control server
    passes its own, giving service and pipeline one shared registry).
    """

    def __init__(
        self,
        bundle: WaveKeyModelBundle,
        tracer: Tracer = None,
        metrics: MetricsRegistry = None,
    ):
        self.bundle = bundle
        self.quantizer = bundle.quantizer
        self.tracer = tracer
        self.metrics = metrics
        self._profiler: Optional[LayerProfiler] = None

    # -- observability -------------------------------------------------------

    def enable_profiling(self, tracer: Tracer = None) -> LayerProfiler:
        """Attach one shared per-layer profiler to both encoders."""
        profiler = LayerProfiler(tracer=tracer or self.tracer)
        self.bundle.imu_encoder.profiler = profiler
        self.bundle.rf_encoder.profiler = profiler
        self._profiler = profiler
        return profiler

    def disable_profiling(self) -> None:
        self.bundle.imu_encoder.profiler = None
        self.bundle.rf_encoder.profiler = None
        self._profiler = None

    @property
    def profiler(self) -> Optional[LayerProfiler]:
        return self._profiler

    def _observe(self, encoder: str, n_windows: int, elapsed_s: float):
        if self.metrics is not None:
            labels = {"encoder": encoder}
            self.metrics.counter("pipeline.windows", labels=labels).inc(
                n_windows
            )
            self.metrics.histogram(
                "pipeline.encode_s", labels=labels
            ).observe(elapsed_s)

    @property
    def seed_length(self) -> int:
        """``l_s``: key-seed length in bits."""
        return self.bundle.seed_length

    # -- latent features -----------------------------------------------------

    def imu_features(self, a_matrix: np.ndarray) -> np.ndarray:
        """``f_M``: latent feature vector from an A matrix (200x3)."""
        x = normalize_imu_matrix(a_matrix)[None]
        return self.bundle.imu_encoder.forward(x)[0]

    def rfid_features(self, r_matrix: np.ndarray) -> np.ndarray:
        """``f_R``: latent feature vector from an R matrix (400x2)."""
        x = normalize_rfid_matrix(r_matrix)[None]
        return self.bundle.rf_encoder.forward(x)[0]

    # -- key seeds -------------------------------------------------------------

    def imu_keyseed(self, a_matrix: np.ndarray) -> BitSequence:
        """``S_M``: the mobile device's key-seed."""
        tracer = resolve_tracer(self.tracer)
        start = time.monotonic()
        with tracer.span("pipeline.imu_keyseed"):
            seed = self.quantizer.quantize(self.imu_features(a_matrix))
        self._observe("imu_en", 1, time.monotonic() - start)
        return seed

    def rfid_keyseed(self, r_matrix: np.ndarray) -> BitSequence:
        """``S_R``: the RFID server's key-seed."""
        tracer = resolve_tracer(self.tracer)
        start = time.monotonic()
        with tracer.span("pipeline.rfid_keyseed"):
            seed = self.quantizer.quantize(self.rfid_features(r_matrix))
        self._observe("rf_en", 1, time.monotonic() - start)
        return seed

    # -- batch evaluation -----------------------------------------------------

    def imu_keyseeds(self, a_matrices) -> list:
        """``S_M`` for many A matrices through ONE encoder forward pass.

        ``a_matrices`` is any sequence/stack of (200, 3) matrices; the
        hyperparameter studies score whole datasets through this path
        (:meth:`batch_seed_pairs`, :meth:`seed_mismatch_rates`).
        """
        tracer = resolve_tracer(self.tracer)
        start = time.monotonic()
        with tracer.span(
            "pipeline.imu_keyseeds", batch_size=len(a_matrices)
        ):
            x = np.stack([normalize_imu_matrix(a) for a in a_matrices])
            features = self.bundle.imu_encoder.forward(x)
            seeds = [self.quantizer.quantize(f) for f in features]
        self._observe("imu_en", len(seeds), time.monotonic() - start)
        return seeds

    def rfid_keyseeds(self, r_matrices) -> list:
        """``S_R`` for many R matrices through ONE encoder forward pass."""
        tracer = resolve_tracer(self.tracer)
        start = time.monotonic()
        with tracer.span(
            "pipeline.rfid_keyseeds", batch_size=len(r_matrices)
        ):
            x = np.stack([normalize_rfid_matrix(r) for r in r_matrices])
            features = self.bundle.rf_encoder.forward(x)
            seeds = [self.quantizer.quantize(f) for f in features]
        self._observe("rf_en", len(seeds), time.monotonic() - start)
        return seeds

    def batch_seed_pairs(
        self, a_matrices: np.ndarray, r_matrices: np.ndarray
    ):
        """Key-seed pairs for stacked matrices (hyperparameter studies).

        ``a_matrices``: (N, 200, 3); ``r_matrices``: (N, 400, 2).
        Returns a list of ``(S_M, S_R)`` tuples.
        """
        seeds_m = self.imu_keyseeds(a_matrices)
        seeds_r = self.rfid_keyseeds(r_matrices)
        return list(zip(seeds_m, seeds_r))

    def seed_mismatch_rates(
        self, a_matrices: np.ndarray, r_matrices: np.ndarray
    ) -> np.ndarray:
        """Per-sample bit-mismatch rate between ``S_M`` and ``S_R``."""
        pairs = self.batch_seed_pairs(a_matrices, r_matrices)
        return np.array([s_m.mismatch_rate(s_r) for s_m, s_r in pairs])
