"""Fixtures for gateway tests: a small in-process fleet.

Backends are real :class:`WaveKeyTCPServer` front ends over tiny
untrained bundles with pinned seeds (agreement always succeeds,
deterministically); the gateway in front of them probes fast so
membership changes resolve within test timeouts."""

import numpy as np
import pytest

from repro.core.models import (
    WaveKeyModelBundle,
    build_decoder,
    build_imu_encoder,
    build_rf_encoder,
)
from repro.net import WaveKeyTCPServer
from repro.service import ServiceConfig, WaveKeyAccessServer
from repro.utils.bits import BitSequence

from tests.net.conftest import fixed_acquire, pin_seeds


@pytest.fixture(scope="module")
def tiny_bundle():
    return WaveKeyModelBundle(
        imu_encoder=build_imu_encoder(6, rng=0),
        rf_encoder=build_rf_encoder(6, rng=1),
        decoder=build_decoder(6, rng=2),
        n_bins=8,
        eta=0.2,
    )


class Fleet:
    """N started backends plus their addresses, with kill/revive."""

    def __init__(self, bundle, n, **config_kwargs):
        self.bundle = bundle
        self.backends = []  # (access, tcp) pairs, index-stable
        config_kwargs.setdefault("workers", 1)
        self._config_kwargs = config_kwargs
        for _ in range(n):
            self.backends.append(self._spawn("127.0.0.1", 0))

    def _spawn(self, host, port):
        access = WaveKeyAccessServer(
            self.bundle,
            ServiceConfig(**self._config_kwargs),
            acquire_fn=fixed_acquire,
        )
        access.start()
        seed = BitSequence.random(32, np.random.default_rng(7))
        pin_seeds(access, seed)
        tcp = WaveKeyTCPServer(access, host, port)
        tcp.start()
        return access, tcp

    @property
    def addresses(self):
        return [
            f"{tcp.address[0]}:{tcp.address[1]}"
            for _, tcp in self.backends
        ]

    def kill(self, index):
        access, tcp = self.backends[index]
        address = tcp.address
        tcp.stop()
        access.stop()
        self.backends[index] = None
        return address

    def revive(self, index, address):
        self.backends[index] = self._spawn(address[0], address[1])

    def close(self):
        for pair in self.backends:
            if pair is None:
                continue
            access, tcp = pair
            tcp.stop()
            access.stop()


@pytest.fixture
def fleet(tiny_bundle):
    fleet = Fleet(tiny_bundle, 3)
    yield fleet
    fleet.close()
