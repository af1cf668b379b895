"""Shared fixtures for the networked-stack tests.

A tiny untrained bundle (key quality is irrelevant here) plus injected
deterministic acquisition, and encoder overrides that pin the encoded
seeds — so agreement success/failure over the wire is controlled
exactly, never Monte-Carlo."""

import time

import numpy as np
import pytest

from repro.core.models import (
    WaveKeyModelBundle,
    build_decoder,
    build_imu_encoder,
    build_rf_encoder,
)
from repro.service import ServiceConfig, WaveKeyAccessServer
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


def make_access_server(bundle, agreement_config=None, **config_kwargs):
    config_kwargs.setdefault("workers", 2)
    return WaveKeyAccessServer(
        bundle,
        ServiceConfig(**config_kwargs),
        acquire_fn=fixed_acquire,
        agreement_config=agreement_config,
    )


def pin_seeds(access_server, mobile_seed, server_seed=None):
    """Force the server's encoders to emit fixed seeds: identical seeds
    guarantee agreement, seeds differing beyond the ECC radius
    guarantee failure."""
    server_seed = server_seed if server_seed is not None else mobile_seed
    access_server.pipeline.imu_keyseed = lambda a_matrix: mobile_seed
    access_server.pipeline.rfid_keyseed = lambda r_matrix: server_seed


def matched_seed(bits=32, rng_seed=7):
    return BitSequence.random(bits, np.random.default_rng(rng_seed))


def mismatched_seeds(bits=32, flips=20, rng_seed=7):
    """A seed pair whose hamming distance far exceeds the tolerated
    reconciliation radius (eta=0.2 over 32 bits tolerates 6 flips)."""
    base = matched_seed(bits, rng_seed)
    flipped = list(base)
    for i in range(flips):
        flipped[i] ^= 1
    return base, BitSequence(flipped)


def wait_for(predicate, timeout_s=5.0, detail="condition"):
    """Poll ``predicate`` until it holds; fail after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"{detail} not met within {timeout_s}s")
