"""Fixtures for ticket-replication tests.

A replicating fleet mirrors the cluster fixtures (tiny untrained
bundle, pinned seeds, real sockets) but every backend carries a
:class:`Replicator`; peers are wired after start so each backend knows
the others' bound addresses (direct mesh, no gateway required)."""

import numpy as np
import pytest

from repro.access.store import KeyStore
from repro.core.models import (
    WaveKeyModelBundle,
    build_decoder,
    build_imu_encoder,
    build_rf_encoder,
)
from repro.net import WaveKeyTCPServer
from repro.replica import Replicator
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


class ReplicatedFleet:
    """N replicating backends in a full mesh, with kill/revive."""

    def __init__(self, bundle, n, *, anti_entropy_interval_s=0.1,
                 ticket_ttl_s=600.0):
        self.bundle = bundle
        self.anti_entropy_interval_s = anti_entropy_interval_s
        self.ticket_ttl_s = ticket_ttl_s
        self.backends = []  # (access, tcp, replicator), index-stable
        for _ in range(n):
            self.backends.append(self._spawn("127.0.0.1", 0))
        self.rewire()

    def _spawn(self, host, port):
        access = WaveKeyAccessServer(
            self.bundle,
            ServiceConfig(workers=1),
            acquire_fn=fixed_acquire,
        )
        access.start()
        seed = BitSequence.random(32, np.random.default_rng(7))
        pin_seeds(access, seed)
        store = KeyStore(ttl_s=self.ticket_ttl_s, metrics=access.metrics)
        replicator = Replicator(
            store, anti_entropy_interval_s=self.anti_entropy_interval_s
        )
        tcp = WaveKeyTCPServer(
            access, host, port, key_store=store, replicator=replicator
        )
        tcp.start()
        return access, tcp, replicator

    def rewire(self):
        """Give every live backend the full current peer list."""
        addresses = self.addresses
        for entry in self.backends:
            if entry is None:
                continue
            _, tcp, replicator = entry
            self_key = f"{tcp.address[0]}:{tcp.address[1]}"
            replicator.set_peers(
                [a for a in addresses if a != self_key]
            )

    @property
    def addresses(self):
        return [
            f"{tcp.address[0]}:{tcp.address[1]}"
            for entry in self.backends
            if entry is not None
            for _, tcp, _ in [entry]
        ]

    def store(self, index):
        return self.backends[index][1].key_store

    def kill(self, index):
        access, tcp, _ = self.backends[index]
        address = tcp.address
        tcp.stop()
        access.stop()
        self.backends[index] = None
        return address

    def revive(self, index, address):
        self.backends[index] = self._spawn(address[0], address[1])
        self.rewire()

    def close(self):
        for entry in self.backends:
            if entry is None:
                continue
            access, tcp, _ = entry
            tcp.stop()
            access.stop()


@pytest.fixture
def replicated_fleet(tiny_bundle):
    fleet = ReplicatedFleet(tiny_bundle, 3)
    yield fleet
    fleet.close()
