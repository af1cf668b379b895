"""Shared fixtures for the benchmark harness.

Every benchmark reproduces one table or figure from the paper's
evaluation (SVI); the mapping is recorded in DESIGN.md and the measured
numbers in EXPERIMENTS.md.  All benchmarks run against the shipped
pretrained bundle (built by ``scripts/train_default_bundle.py``) so the
reported numbers correspond to one fixed model, as in the paper.

Trial counts are scaled down from the paper's (hundreds of human
gestures per cell) to keep the full suite in the minutes range; each
module documents its scaling.  Set ``WAVEKEY_BENCH_SCALE`` > 1 to grow
the counts toward paper scale.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import KeySeedPipeline, WaveKeySystem
from repro.core.pretrained import has_default_bundle, load_default_bundle
from repro.protocol import KeyAgreementConfig


def pin_seeds(server, seed):
    """Make ``server``'s encoders emit ``seed`` for every window, so
    each agreement succeeds and a benchmark times the stack around it."""
    server.pipeline.imu_keyseed = lambda a_matrix: seed
    server.pipeline.rfid_keyseed = lambda r_matrix: seed


def bench_scale() -> int:
    """Trial-count multiplier (env: WAVEKEY_BENCH_SCALE)."""
    return max(1, int(os.environ.get("WAVEKEY_BENCH_SCALE", "1")))


@pytest.fixture(scope="session")
def bundle():
    if not has_default_bundle():
        pytest.skip(
            "pretrained bundle missing: run scripts/train_default_bundle.py"
        )
    return load_default_bundle()


@pytest.fixture(scope="session")
def pipeline(bundle):
    return KeySeedPipeline(bundle)


@pytest.fixture(scope="session")
def agreement_config(bundle):
    return KeyAgreementConfig(key_length_bits=256, eta=bundle.eta)


@pytest.fixture(scope="session")
def system(bundle, agreement_config):
    return WaveKeySystem(bundle, agreement_config=agreement_config)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240707)
