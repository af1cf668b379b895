"""The mobile prepares its OT material while it waits for the grant.

:class:`WaveKeyNetClient` fills a one-round
:class:`~repro.protocol.agreement.RoundStock` between ``Hello`` (or a
failed round) and the next ``SeedGrant``.  The stock is drawn from the
attempt's own streams, so the client's ``M_A`` and ``M_B`` are the
bytes a stock-free party sends, however many tuples were ready.  These
tests pin that byte identity against a real loopback server, the
one-chunk bound when a grant is already in, the discard of a stock
prepared for another attempt, single use, and the readability probe
the fill loop stops on.
"""

import socket

import pytest

from repro.crypto import CURVE25519_GROUP
from repro.crypto.numbers import WAVEKEY_GROUP_512
from repro.errors import ConfigurationError, CryptoError, TransportError
from repro.net import NetClientConfig, WaveKeyNetClient, WaveKeyTCPServer
from repro.net import client as net_client
from repro.net import server as net_server
from repro.net.codec import (
    Accept,
    Hello,
    RoundResult,
    SeedGrant,
    Verdict,
)
from repro.net.connection import FrameConnection
from repro.obs.tracing import Tracer
from repro.protocol import KeyAgreementConfig
from repro.protocol.agreement import AgreementParty, RoundStock
from repro.protocol.messages import (
    OTAnnounce,
    OTCiphertextBatch,
    OTResponse,
)
from repro.utils.rng import child_rng

from tests.net.conftest import make_access_server, matched_seed, pin_seeds

GROUPS = [WAVEKEY_GROUP_512, CURVE25519_GROUP]
GROUP_IDS = [g.name for g in GROUPS]

RNG_SEED = 41
SEED_BITS = 36


def client_config(group, **kwargs):
    kwargs.setdefault("read_timeout_s", 5.0)
    kwargs.setdefault("max_retries", 0)
    return NetClientConfig(group=group, **kwargs)


def reference_party(group, seed, attempt, rng_seed=RNG_SEED):
    """The mobile party of ``attempt`` as built with no stock."""
    return AgreementParty(
        "mobile", seed, KeyAgreementConfig(eta=0.2, group=group),
        rng=child_rng(rng_seed, "net-client", attempt),
        own_sequences_first=True,
    )


def prepare_spans(tracer):
    return [s for s in tracer.finished_spans() if s.name == "net.prepare"]


OT_FRAMES = (OTAnnounce, OTResponse, OTCiphertextBatch)


@pytest.fixture
def wire(monkeypatch):
    """Every round's M_A, M_B and M_E from the client and from the
    server, as the server received and sent them."""
    log = {"client": [], "server": []}
    original_recv = net_server._WorkerChannel.recv

    def recv(self, *args, **kwargs):
        message = original_recv(self, *args, **kwargs)
        if isinstance(message, OT_FRAMES):
            log["client"].append(message)
        return message

    original_send = net_server._WorkerChannel.send

    def send(self, message):
        if isinstance(message, OT_FRAMES):
            log["server"].append(message)
        return original_send(self, message)

    monkeypatch.setattr(net_server._WorkerChannel, "recv", recv)
    monkeypatch.setattr(net_server._WorkerChannel, "send", send)
    return log


def assert_round_bytes(wire, group, seed, attempt, index=0,
                       rng_seed=RNG_SEED):
    """The client's frames of one round equal the stock-free party's."""
    m_a, m_b, m_e = wire["client"][3 * index: 3 * index + 3]
    server_m_a, server_m_b, _ = wire["server"][3 * index: 3 * index + 3]
    party = reference_party(group, seed, attempt, rng_seed)
    assert m_a == party.craft_announce()
    assert m_b == party.craft_response(server_m_a)
    assert m_e == party.craft_ciphertexts(server_m_b)


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
@pytest.mark.parametrize("prepared", [0, 17, 36])
def test_prepared_round_sends_the_stock_free_bytes(
    tiny_bundle, wire, monkeypatch, group, prepared
):
    """With one receiver tuple per chunk and the readability probe
    answering "no frame" ``prepared`` times, the stock holds exactly
    ``prepared`` receiver tuples when the grant is read, and the round's
    bytes do not move."""
    monkeypatch.setattr(net_client, "_PREPARE_CHUNK", 1)
    answers = iter([False] * prepared)
    monkeypatch.setattr(
        FrameConnection, "readable",
        lambda self, timeout_s=0.0: next(answers, True),
    )
    seed = matched_seed(SEED_BITS)
    tracer = Tracer()
    with make_access_server(
        tiny_bundle,
        agreement_config=KeyAgreementConfig(eta=0.2, group=group),
    ) as access:
        pin_seeds(access, seed)
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            client = WaveKeyNetClient(
                *tcp.address, client_config(group), tracer=tracer
            )
            result = client.establish(rng_seed=RNG_SEED)
    assert result.success, result.failure_reason
    assert_round_bytes(wire, group, seed, attempt=1)
    first = prepare_spans(tracer)[0]
    assert first.attributes == {"group": group.name, "ready": prepared}


def test_grant_of_another_seed_length_runs_cold(tiny_bundle, wire):
    """A stock drawn for 36-bit seeds is dropped by a 32-bit grant (its
    pairs have the wrong shape); the next establishment prepares for 32
    bits.  Both send the stock-free bytes."""
    seed = matched_seed(32)
    tracer = Tracer()
    with make_access_server(tiny_bundle) as access:
        pin_seeds(access, seed)
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            client = WaveKeyNetClient(
                *tcp.address, client_config(WAVEKEY_GROUP_512),
                tracer=tracer,
            )
            for rng_seed in (RNG_SEED, RNG_SEED + 1):
                result = client.establish(rng_seed=rng_seed)
                assert result.success, result.failure_reason
    for index, rng_seed in enumerate((RNG_SEED, RNG_SEED + 1)):
        assert_round_bytes(
            wire, WAVEKEY_GROUP_512, seed, attempt=1, index=index,
            rng_seed=rng_seed,
        )
    assert client._seed_bits == 32


def test_retried_attempt_draws_its_own_streams(tiny_bundle, wire):
    """A first attempt that fails leaves nothing behind: attempt 2 runs
    on a stock of its own streams, sends attempt 2's stock-free bytes
    and establishes."""
    seed = matched_seed(SEED_BITS)
    far = matched_seed(SEED_BITS, rng_seed=8)
    with make_access_server(tiny_bundle, max_attempts=2) as access:
        server_seeds = iter([far])
        access.pipeline.imu_keyseed = lambda a_matrix: seed
        access.pipeline.rfid_keyseed = (
            lambda r_matrix: next(server_seeds, seed)
        )
        with WaveKeyTCPServer(access, read_timeout_s=5.0) as tcp:
            result = WaveKeyNetClient(
                *tcp.address, client_config(WAVEKEY_GROUP_512)
            ).establish(rng_seed=RNG_SEED)
    assert result.success, result.failure_reason
    assert result.attempts == 2
    assert [r.success for r in result.rounds] == [False, True]
    assert_round_bytes(wire, WAVEKEY_GROUP_512, seed, attempt=1, index=0)
    assert_round_bytes(wire, WAVEKEY_GROUP_512, seed, attempt=2, index=1)


class ScriptedServer:
    """The server end of a socketpair with its frames queued up front,
    handed to the client in place of a dialed connection."""

    def __init__(self, monkeypatch, *frames):
        client_sock, server_sock = socket.socketpair()
        self.end = FrameConnection(server_sock, read_timeout_s=1.0)
        for frame in frames:
            self.end.send(frame)

        def connect(host, port, timeout_s=5.0, **kwargs):
            return FrameConnection(client_sock, **kwargs)

        monkeypatch.setattr(net_client, "connect", connect)

    def received(self):
        """Every frame the client sent, up to its close."""
        frames = []
        try:
            while True:
                frames.append(self.end.recv())
        except TransportError:
            return frames
        finally:
            self.end.close()


def scripted_session(grant_attempt, seed):
    return (
        Accept(sender="server", session_id="s-1", key_length_bits=256,
               eta=0.2),
        SeedGrant(attempt=grant_attempt, seed=seed),
        RoundResult(success=False, reason="scripted"),
        Verdict(state="failed", attempts=grant_attempt, reason="scripted"),
    )


@pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
def test_grant_already_in_waits_only_for_what_m_a_needs(
    monkeypatch, group
):
    """The grant is readable before the fill starts: the client draws
    the pairs and the sender tuple, which M_A needs, but no receiver
    tuple, and sends attempt 1's M_A.  The Verdict queued behind the
    failed round stops the next stock before it starts."""
    seed = matched_seed(SEED_BITS)
    server = ScriptedServer(monkeypatch, *scripted_session(1, seed))
    built = []
    for method in ("prepare_pairs", "prepare_sender", "prepare_receivers"):
        original = getattr(RoundStock, method)

        def counting(self, *args, _method=method, _original=original):
            built.append((_method, *args))
            return _original(self, *args)

        monkeypatch.setattr(RoundStock, method, counting)
    tracer = Tracer()
    result = WaveKeyNetClient(
        "scripted", 1, client_config(group), tracer=tracer
    ).establish(rng_seed=RNG_SEED)
    assert result.state == "failed"
    # The round then takes its stock's pairs.
    assert built == [
        ("prepare_pairs", 36, 4), ("prepare_sender",),
        ("prepare_pairs", 36, 4),
    ]
    assert [s.attributes["ready"] for s in prepare_spans(tracer)] == [0, 0]
    hello, m_a = server.received()
    assert isinstance(hello, Hello)
    assert m_a == reference_party(group, seed, 1).craft_announce()


def test_grant_for_another_attempt_discards_the_stock(monkeypatch):
    """A stock prepared for attempt 1 is dropped when the grant names
    attempt 2; the round runs on attempt 2's streams."""
    seed = matched_seed(SEED_BITS)
    server = ScriptedServer(monkeypatch, *scripted_session(2, seed))
    result = WaveKeyNetClient(
        "scripted", 1, client_config(WAVEKEY_GROUP_512)
    ).establish(rng_seed=RNG_SEED)
    assert result.state == "failed"
    _, m_a = server.received()
    group = WAVEKEY_GROUP_512
    assert m_a == reference_party(group, seed, 2).craft_announce()
    assert m_a != reference_party(group, seed, 1).craft_announce()


class TestRoundStock:
    @pytest.mark.parametrize("group", GROUPS, ids=GROUP_IDS)
    @pytest.mark.parametrize("prepared", [None, 0, 5, 36, 40])
    def test_any_prefix_keeps_the_round_bytes(self, group, prepared):
        """An empty stock, pairs and sender only, a partial or full set
        of receivers, or more than the round uses: the same M_A, M_B,
        M_E and key as a party built from the rng."""
        seed = matched_seed(SEED_BITS)
        peer = reference_party(group, seed, 9)
        config = KeyAgreementConfig(eta=0.2, group=group)
        stock = RoundStock(group, child_rng(RNG_SEED, "net-client", 1))
        if prepared is not None:
            stock.prepare_pairs(SEED_BITS, config.segment_bits(SEED_BITS))
            stock.prepare_sender()
            stock.prepare_receivers(prepared)
        party = AgreementParty("mobile", seed, config, stock=stock)
        reference = reference_party(group, seed, 1)
        peer_m_a = peer.craft_announce()
        m_a = party.craft_announce()
        assert m_a == reference.craft_announce()
        m_b = party.craft_response(peer_m_a)
        assert m_b == reference.craft_response(peer_m_a)
        peer_m_b = peer.craft_response(m_a)
        m_e = party.craft_ciphertexts(peer_m_b)
        assert m_e == reference.craft_ciphertexts(peer_m_b)
        peer_m_e = peer.craft_ciphertexts(m_b)
        for p in (party, reference):
            p.receive_ciphertexts(peer_m_e)
        assert party.build_preliminary_key() == (
            reference.build_preliminary_key()
        )

    def test_pairs_of_another_length_and_mixed_sources_are_refused(self):
        stock = RoundStock(WAVEKEY_GROUP_512, 1)
        stock.prepare_pairs(SEED_BITS, 4)
        config = KeyAgreementConfig(eta=0.2)
        with pytest.raises(ConfigurationError):
            AgreementParty("mobile", matched_seed(32), config, stock=stock)
        with pytest.raises(ConfigurationError):
            AgreementParty(
                "mobile", matched_seed(SEED_BITS), config, rng=1,
                stock=stock,
            )

    def test_prepared_material_is_single_use(self):
        group = WAVEKEY_GROUP_512
        seed = matched_seed(SEED_BITS)
        peer = reference_party(group, seed, 9).craft_announce()
        stock = RoundStock(group, child_rng(RNG_SEED, "net-client", 1))
        stock.prepare_sender()
        stock.prepare_receivers(4)
        config = KeyAgreementConfig(eta=0.2, group=group)
        first = AgreementParty("mobile", seed, config, stock=stock)
        first.craft_announce()
        first.craft_response(peer)
        second = AgreementParty("mobile", seed, config, stock=stock)
        with pytest.raises(CryptoError):
            second.craft_announce()
        with pytest.raises(CryptoError):
            second.craft_response(peer)


class TestReadable:
    def test_reports_waiting_bytes_and_survives_close(self):
        a, b = socket.socketpair()
        conn = FrameConnection(a)
        try:
            assert not conn.readable()
            b.sendall(b"\x00")
            assert conn.readable()
            assert conn.readable(timeout_s=0.01)
            conn.close()
            assert conn.readable() is False
        finally:
            b.close()
