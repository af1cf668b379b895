"""Bidirectional OT key agreement (paper SIV-D.2, Fig. 4).

Both parties play both OT roles simultaneously: as *sender*, a party
obliviously transfers one member of each of its ``l_s`` random sequence
pairs, selected by the peer's key-seed bit; as *receiver*, it fetches
the peer's sequence selected by its own seed bit.  Each party then
concatenates, per index ``i``, its own ``x_i^{s_i}`` and the received
``y_i^{s_i}`` — so wherever the two seeds agree, the two preliminary
keys share that segment, and the overall key mismatch ratio is bounded
by the seed mismatch ratio.

Reconciliation (the paper's "ECC challenge") runs the code-offset secure
sketch sized so that up to ``ceil(eta * l_s)`` disagreeing seed bits —
i.e. that many fully corrupted key segments — are always corrected.
Confirmation is an HMAC over the challenge nonce under the reconciled
key.

The round is written once per role, :func:`mobile_round` and
:func:`server_round`, as steps free of I/O; :func:`run_key_agreement`
runs both in-process, and :mod:`repro.net` runs each over the wire.
"""

from __future__ import annotations

import contextlib
import hmac
import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.crypto.segment_sketch import SegmentSecureSketch
from repro.crypto.hashes import hmac_digest, hmac_verify
from repro.crypto.group import Group
from repro.crypto.numbers import WAVEKEY_GROUP_512
from repro.crypto.ot import OTReceiverRound, OTSenderRound
from repro.crypto.pool import (
    OTMaterialPool,
    ReceiverMaterial,
    SenderMaterial,
    make_receivers,
    make_sender,
)
from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    KeyAgreementFailure,
    ProtocolError,
    TransportError,
)
from repro.protocol.messages import (
    ConfirmAck,
    ConfirmationResponse,
    OTAnnounce,
    OTCiphertextBatch,
    OTResponse,
    ReconciliationChallenge,
)
from repro.obs.tracing import Tracer, resolve_tracer
from repro.protocol.timing import ProtocolClock
from repro.protocol.transport import SimulatedTransport
from repro.utils.bits import BitSequence
from repro.utils.rng import child_rng, ensure_rng


@dataclass(frozen=True)
class KeyAgreementConfig:
    """Protocol parameters.

    ``eta`` is the calibrated ECC rate (SVI-C.2); ``tau_s`` the message
    deadline slack (SVI-C.3); ``gesture_window_s`` the 2 s acquisition
    window — announce messages must arrive by ``gesture_window_s +
    tau_s`` on the protocol clock.
    """

    key_length_bits: int = 256
    eta: float = 0.04
    tau_s: float = 0.12
    gesture_window_s: float = 2.0
    group: Group = WAVEKEY_GROUP_512
    nonce_bytes: int = 16

    def __post_init__(self):
        if self.key_length_bits < 8:
            raise ConfigurationError("key_length_bits must be >= 8")
        if not (0.0 < self.eta < 0.5):
            raise ConfigurationError("eta must be in (0, 0.5)")
        if self.tau_s <= 0 or self.gesture_window_s <= 0:
            raise ConfigurationError("tau_s and gesture_window_s must be > 0")

    @property
    def announce_deadline_s(self) -> float:
        """Latest acceptable arrival of ``M_A`` messages (2 + tau)."""
        return self.gesture_window_s + self.tau_s

    def segment_bits(self, seed_length: int) -> int:
        """``l_b = ceil(l_k / (2 l_s))`` (paper SIV-D.2)."""
        if seed_length < 1:
            raise ConfigurationError("seed_length must be >= 1")
        return max(1, math.ceil(self.key_length_bits / (2 * seed_length)))

    def material_bits(self, seed_length: int) -> int:
        """Length of the preliminary key ``K`` (2 l_s l_b >= l_k)."""
        return 2 * seed_length * self.segment_bits(seed_length)

    def tolerated_seed_mismatches(self, seed_length: int) -> int:
        """The Eq. 4 correction radius: ``floor(eta * l_s)`` disagreeing
        seed bits (at least 1) are always reconciled."""
        return max(1, math.floor(self.eta * seed_length))


@lru_cache(maxsize=32)
def _sketch_for(
    n_segments: int, segment_bits: int, tolerance: int
) -> SegmentSecureSketch:
    """RS construction is cached per protocol operating point."""
    return SegmentSecureSketch(n_segments, segment_bits, tolerance)


class RoundStock:
    """A party's random streams for one round, and the material drawn
    from them ahead of the key-seed.

    The streams are spawned from ``rng`` in one fixed order: the
    sequence pairs, the OT sender, the OT receiver; the party's later
    spawns (sketch, nonce) continue from ``root``.  Neither the pairs
    nor a round's fixed-base OT work depend on the seed or the peer, so
    a party that knows its round's ``rng`` early (the mobile, during the
    gesture window) can draw the pairs, the sender tuple and a prefix of
    its receiver tuples before the round starts, from the very streams
    the round would draw them from inline.  An :class:`AgreementParty`
    on the stock then sends exactly the bytes it would have sent without
    it, however much was ready; the rest is computed inline, and a party
    built from an ``rng`` runs on an empty stock.  Each tuple is
    single-use.
    """

    def __init__(self, group: Group, rng):
        self.group = group
        self.root = ensure_rng(rng)
        self.pair_rng = child_rng(self.root, "pairs")
        self.send_rng = child_rng(self.root, "send")
        self.recv_rng = child_rng(self.root, "recv")
        self.pairs: Optional[List[Tuple[BitSequence, BitSequence]]] = None
        self.sender: Optional[SenderMaterial] = None
        self.receivers: List[ReceiverMaterial] = []

    def prepare_pairs(
        self, l_s: int, l_b: int
    ) -> List[Tuple[BitSequence, BitSequence]]:
        """The round's ``l_s`` random sequence pairs of ``l_b`` bits,
        drawn on the first call."""
        if self.pairs is None:
            self.pairs = [
                (
                    BitSequence.random(l_b, self.pair_rng),
                    BitSequence.random(l_b, self.pair_rng),
                )
                for _ in range(l_s)
            ]
        elif len(self.pairs) != l_s or len(self.pairs[0][0]) != l_b:
            raise ConfigurationError(
                "sequence pairs were drawn for another key-seed length"
            )
        return self.pairs

    def prepare_sender(self) -> None:
        """Build the round's sender tuple (once)."""
        if self.sender is None:
            self.sender = make_sender(self.group, self.send_rng)

    def prepare_receivers(self, n: int) -> None:
        """Build the next ``n`` receiver tuples."""
        self.receivers += make_receivers(self.group, self.recv_rng, n)


class AgreementParty:
    """One endpoint (mobile device or RFID server) of the agreement.

    Its randomness comes either from ``rng``, through an empty
    :class:`RoundStock`, or from a prepared ``stock`` of the same
    streams; never from both.
    """

    def __init__(
        self,
        name: str,
        seed: BitSequence,
        config: KeyAgreementConfig,
        rng=None,
        own_sequences_first: bool = True,
        pool: Optional[OTMaterialPool] = None,
        stock: Optional[RoundStock] = None,
    ):
        if len(seed) < 2:
            raise ConfigurationError("key-seed too short")
        if stock is None:
            stock = RoundStock(config.group, rng)
        elif rng is not None or pool is not None:
            raise ConfigurationError(
                "a party built on a prepared stock takes no rng or pool"
            )
        self.name = name
        self.seed = seed
        self.config = config
        # Warm OT material: announce draws one precomputed sender
        # tuple per round and respond one receiver tuple per instance,
        # from the stock or else the pool; whatever neither holds is
        # computed inline.
        self.pool = pool
        self.stock = stock
        # Fig. 4 fixes the segment order as (x_i || y_i) on BOTH sides:
        # the mobile device's own pairs are the x's (own first), the
        # server's own pairs are the y's (own second).
        self.own_sequences_first = bool(own_sequences_first)
        self._rng = stock.root
        self.l_s = len(seed)
        self.l_b = config.segment_bits(self.l_s)
        self.sequence_pairs = stock.prepare_pairs(self.l_s, self.l_b)
        self._sender = OTSenderRound(config.group, stock.send_rng)
        self._receiver = OTReceiverRound(config.group, stock.recv_rng)
        self._received_segments: Optional[List[BitSequence]] = None
        self.preliminary_key: Optional[BitSequence] = None
        self.final_key: Optional[BitSequence] = None
        self._nonce: Optional[bytes] = None

    # -- OT sender direction ---------------------------------------------------

    def craft_announce(self) -> OTAnnounce:
        """``M_A``: the one element ``S`` keying this party's OT round."""
        material = self.stock.sender
        if material is None and self.pool is not None:
            taken = self.pool.take_senders(self.config.group, 1)
            material = taken[0] if taken else None
        element = self._sender.announce(material)
        return OTAnnounce(sender=self.name, elements=(element,))

    def craft_ciphertexts(self, response: OTResponse) -> OTCiphertextBatch:
        """``M_E``: encrypt both members of every pair against the
        peer's (seed-bit-driven) OT responses."""
        if len(response.elements) != self.l_s:
            raise ProtocolError(
                f"{self.name}: expected {self.l_s} OT responses, got "
                f"{len(response.elements)}"
            )
        # The OT decodes every peer element: range/on-curve/small-order
        # rejects surface as ProtocolError and become failed outcomes.
        pairs = self._sender.encrypt(
            response.elements,
            [(x0.to_bytes(), x1.to_bytes()) for x0, x1 in self.sequence_pairs],
        )
        return OTCiphertextBatch(sender=self.name, pairs=tuple(pairs))

    # -- OT receiver direction ---------------------------------------------------

    def craft_response(self, announce: OTAnnounce) -> OTResponse:
        """``M_B``: respond to the peer's announce with this party's
        seed bits as OT choices."""
        if len(announce.elements) != 1:
            raise ProtocolError(
                f"{self.name}: expected 1 element in OT announces, got "
                f"{len(announce.elements)}"
            )
        materials = self.stock.receivers[: self.l_s]
        if not materials and self.pool is not None:
            materials = self.pool.take_receivers(self.config.group, self.l_s)
        elements = self._receiver.respond(
            announce.elements[0],
            [int(self.seed[i]) for i in range(self.l_s)],
            materials,
        )
        return OTResponse(sender=self.name, elements=tuple(elements))

    def receive_ciphertexts(self, batch: OTCiphertextBatch) -> None:
        """Decrypt the selected member of every received pair."""
        if len(batch.pairs) != self.l_s:
            raise ProtocolError(
                f"{self.name}: expected {self.l_s} ciphertext pairs, got "
                f"{len(batch.pairs)}"
            )
        self._received_segments = [
            BitSequence.from_bytes(plain, self.l_b)
            for plain in self._receiver.decrypt(batch.pairs)
        ]

    # -- key assembly ---------------------------------------------------------

    def build_preliminary_key(self) -> BitSequence:
        """Interleave own-selected and received segments (Fig. 4)."""
        if self._received_segments is None:
            raise ProtocolError(
                f"{self.name}: ciphertexts not yet received"
            )
        parts: List[BitSequence] = []
        for i in range(self.l_s):
            own = self.sequence_pairs[i][int(self.seed[i])]
            received = self._received_segments[i]
            if self.own_sequences_first:
                parts.extend((own, received))
            else:
                parts.extend((received, own))
        self.preliminary_key = parts[0].concat(*parts[1:])
        return self.preliminary_key

    # -- reconciliation (initiator = mobile device) ------------------------------

    def craft_challenge(self) -> ReconciliationChallenge:
        """ECC sketch of the preliminary key plus a fresh nonce."""
        if self.preliminary_key is None:
            raise ProtocolError(f"{self.name}: preliminary key not built")
        sketch_helper = _sketch_for(
            self.l_s,
            2 * self.l_b,
            self.config.tolerated_seed_mismatches(self.l_s),
        )
        sketch = sketch_helper.sketch(
            self.preliminary_key, child_rng(self._rng, "sketch")
        )
        self._nonce = bytes(
            child_rng(self._rng, "nonce").integers(
                0, 256, size=self.config.nonce_bytes, dtype=np.uint8
            )
        )
        self.final_key = self.preliminary_key
        return ReconciliationChallenge(
            sender=self.name, sketch=sketch, nonce=self._nonce
        )

    def answer_challenge(
        self, challenge: ReconciliationChallenge
    ) -> ConfirmationResponse:
        """Responder: reconcile toward the initiator's key and confirm.

        Raises :class:`KeyAgreementFailure` when the keys differ beyond
        the ECC radius.
        """
        if self.preliminary_key is None:
            raise ProtocolError(f"{self.name}: preliminary key not built")
        sketch_helper = _sketch_for(
            self.l_s,
            2 * self.l_b,
            self.config.tolerated_seed_mismatches(self.l_s),
        )
        self.final_key = sketch_helper.recover(
            challenge.sketch, self.preliminary_key
        )
        tag = hmac_digest(self.final_key.to_bytes(), challenge.nonce)
        return ConfirmationResponse(sender=self.name, tag=tag)

    def verify_confirmation(self, response: ConfirmationResponse) -> None:
        """Initiator: check the responder's HMAC under the final key."""
        if self.final_key is None or self._nonce is None:
            raise ProtocolError(f"{self.name}: no challenge outstanding")
        if not hmac_verify(
            self.final_key.to_bytes(), self._nonce, response.tag
        ):
            raise KeyAgreementFailure(
                "HMAC confirmation failed: peers hold different keys"
            )

    def session_key(self) -> BitSequence:
        """The agreed key, truncated to the requested ``l_k`` bits.

        The reconciled material must cover the request: silently
        returning fewer than ``key_length_bits`` bits would hand the
        access layer a weaker key than the caller configured, so a
        short ``final_key`` is a hard protocol error, not a truncation.
        """
        if self.final_key is None:
            raise ProtocolError(f"{self.name}: agreement incomplete")
        if self.config.key_length_bits > len(self.final_key):
            raise ProtocolError(
                f"{self.name}: reconciled key holds {len(self.final_key)} "
                f"bits but key_length_bits requests "
                f"{self.config.key_length_bits}; gather longer seeds or "
                "lower the requested key length"
            )
        return self.final_key[: self.config.key_length_bits]


@dataclass
class KeyAgreementOutcome:
    """Result of one full protocol run."""

    success: bool
    mobile_key: Optional[BitSequence]
    server_key: Optional[BitSequence]
    elapsed_s: float
    failure_reason: Optional[str] = None
    seed_mismatch_bits: Optional[int] = None

    @property
    def keys_match(self) -> bool:
        return (
            self.mobile_key is not None
            and self.server_key is not None
            and self.mobile_key == self.server_key
        )


# -- the round, once per role ----------------------------------------------
# A role yields Send, Expect and Stage steps.  What drives it (the in-process
# run below, repro.net.connection.run_round on the wire) moves the frames,
# charges time and opens spans; the role does everything else.


class Send(NamedTuple):
    """Role step: send ``message`` to the peer."""

    message: object


class Expect(NamedTuple):
    """Role step: wait for the peer's next frame, which should be a
    ``cls``; the role is resumed with the frame and checks it."""

    cls: type


class Stage(NamedTuple):
    """Role step: enter protocol stage ``name``; a ``nested`` stage
    subdivides the current one and is traced in-process only."""

    name: str
    nested: bool = False


def charged(clock: Optional[ProtocolClock]):
    """The one place a role's time is charged: the wall time of the
    enclosed segment goes onto ``clock`` (none without a clock)."""
    return contextlib.nullcontext() if clock is None else clock.measure()


def ack_tag(party: AgreementParty, challenge: ReconciliationChallenge) -> bytes:
    """The mobile's closing HMAC, of the challenge nonce and ``b"ack"``
    under the final key; the server recomputes it to check the key."""
    return hmac_digest(party.final_key.to_bytes(), challenge.nonce + b"ack")


def _expect(cls, peer: str):
    """Steps: take the peer's next frame, a ``cls`` from ``peer``.  A
    frame claiming another sender is rejected (anti-spoofing); the ack
    names none."""
    message = yield Expect(cls)
    if not isinstance(message, cls):
        raise ProtocolError(
            f"expected {cls.__name__}, got {type(message).__name__}"
        )
    sender = getattr(message, "sender", peer)
    if sender != peer:
        raise ProtocolError(
            f"sender mismatch on {cls.__name__}: expected {peer!r}, "
            f"got {sender!r}"
        )
    return message


def _expect_announce(party: AgreementParty, peer: str, clock):
    """Steps: take the peer's ``M_A``; a role given a clock rejects one
    that arrived after ``2 + tau`` on it (SIV-D.2)."""
    announce = yield from _expect(OTAnnounce, peer)
    if clock is not None:
        clock.check_deadline(
            party.config.announce_deadline_s, f"M_A ({peer})"
        )
    return announce


def mobile_round(party: AgreementParty, peer: str, clock=None):
    """The mobile's steps of one Fig. 4 round: each OT message goes out
    before the server's comes in; the mobile initiates reconciliation
    and closes the round with a :class:`ConfirmAck`."""
    yield Stage("ot.announce")
    yield Send(party.craft_announce())
    announce = yield from _expect_announce(party, peer, clock)
    yield Stage("ot.respond")
    yield Send(party.craft_response(announce))
    response = yield from _expect(OTResponse, peer)
    yield Stage("ot.ciphertexts")
    yield Send(party.craft_ciphertexts(response))
    ciphertexts = yield from _expect(OTCiphertextBatch, peer)
    yield Stage("ot.assemble")
    party.receive_ciphertexts(ciphertexts)
    party.build_preliminary_key()
    yield Stage("reconcile")
    yield Stage("reconcile.challenge", nested=True)
    challenge = party.craft_challenge()
    yield Send(challenge)
    yield Stage("reconcile.answer", nested=True)
    confirmation = yield from _expect(ConfirmationResponse, peer)
    yield Stage("reconcile.confirm", nested=True)
    try:
        party.verify_confirmation(confirmation)
    except KeyAgreementFailure:
        # Tell the server, so its round (and retry policy) ends at once.
        yield Send(ConfirmAck(ok=False, tag=b""))
        raise
    yield Send(ConfirmAck(ok=True, tag=ack_tag(party, challenge)))


def server_round(party: AgreementParty, peer: str, clock=None):
    """The server's steps of one Fig. 4 round.  It answers the peer's
    ``M_A``; it crafts its ``M_B`` and ``M_E`` before it takes the
    peer's frame of the same phase, so both parties craft side by side,
    and sends each only after that frame (the strict alternation of
    Fig. 4).  A craft error is raised once the peer's frame is
    consumed, so a failed round leaves no stale frame behind.  It
    answers the challenge and checks the peer's :class:`ConfirmAck`."""
    yield Stage("ot.announce")
    announce = yield from _expect_announce(party, peer, clock)
    yield Send(party.craft_announce())
    yield Stage("ot.respond")
    try:
        response = party.craft_response(announce)
    except ProtocolError:
        yield from _expect(OTResponse, peer)
        raise
    peer_response = yield from _expect(OTResponse, peer)
    yield Send(response)
    yield Stage("ot.ciphertexts")
    try:
        ciphertexts = party.craft_ciphertexts(peer_response)
    except ProtocolError:
        yield from _expect(OTCiphertextBatch, peer)
        raise
    peer_ciphertexts = yield from _expect(OTCiphertextBatch, peer)
    yield Send(ciphertexts)
    yield Stage("ot.assemble")
    party.receive_ciphertexts(peer_ciphertexts)
    party.build_preliminary_key()
    yield Stage("reconcile")
    yield Stage("reconcile.challenge", nested=True)
    challenge = yield from _expect(ReconciliationChallenge, peer)
    yield Stage("reconcile.answer", nested=True)
    yield Send(party.answer_challenge(challenge))
    yield Stage("reconcile.confirm", nested=True)
    ack = yield from _expect(ConfirmAck, peer)
    if not ack.ok:
        raise KeyAgreementFailure("client reported HMAC confirmation failure")
    if not hmac.compare_digest(ack_tag(party, challenge), ack.tag):
        raise KeyAgreementFailure(
            "confirmation ack HMAC mismatch: peers hold different keys"
        )


#: The exceptions that end a round as a failed outcome, most specific
#: first, with the prefix of the failure reason each one gives.
_FAILURE_PREFIXES = (
    (DeadlineExceeded, "deadline"),
    (KeyAgreementFailure, "agreement"),
    (TransportError, "transport"),
    (ProtocolError, "protocol"),
)
ROUND_FAILURES = tuple(cls for cls, _ in _FAILURE_PREFIXES)


def round_outcome(
    clock, mismatch, failure=None, keys=(None, None)
) -> KeyAgreementOutcome:
    """The outcome at ``clock.now`` of a round that ``failure`` (one of
    :data:`ROUND_FAILURES`) ended, or that agreed the ``(mobile,
    server)`` keys."""
    reason = None
    if failure is not None:
        prefix = next(
            p for cls, p in _FAILURE_PREFIXES if isinstance(failure, cls)
        )
        reason = f"{prefix}: {failure}"
    return KeyAgreementOutcome(
        success=failure is None,
        mobile_key=keys[0],
        server_key=keys[1],
        elapsed_s=clock.now,
        failure_reason=reason,
        seed_mismatch_bits=mismatch,
    )


class _Role:
    """One role of an in-process round: its steps, the step it stands
    at (None once done) and the frames delivered to it."""

    def __init__(self, name: str, steps, clock: ProtocolClock):
        self.name = name
        self.steps = steps
        self.clock = clock
        self.inbox: deque = deque()
        self.resume(None)

    def resume(self, value) -> None:
        with charged(self.clock):
            try:
                self.step = self.steps.send(value)
            except StopIteration:
                self.step = None


def _pump(role: _Role, peer: _Role, stage: Stage, transport) -> bool:
    """Run ``role`` within ``stage`` (passing its marker if it stands
    at it) until it waits for the next stage, for a frame not yet
    delivered, or is done; True if it moved."""
    moved = False
    while True:
        step = role.step
        if isinstance(step, Send):
            message = step.message
            if not isinstance(message, ConfirmAck):  # no Fig. 4 message
                message = transport.deliver(
                    role.name, peer.name, message, role.clock
                )
            peer.inbox.append(message)
            role.resume(None)
        elif isinstance(step, Expect) and role.inbox:
            role.resume(role.inbox.popleft())
        elif step == stage:
            role.resume(None)
        else:
            return moved
        moved = True


@contextlib.contextmanager
def _stage_span(tracer: Tracer, clock: ProtocolClock, name: str):
    """A stage span that also carries ``protocol_s``, the simulated
    seconds the stage took: transport latency and the parties' crafting
    advance the protocol timeline, not the wall clock."""
    start = clock.now
    with tracer.span(name) as span:
        try:
            yield
        finally:
            span.set_attribute("protocol_s", round(clock.now - start, 6))


def _run_in_process(mobile: _Role, server: _Role, transport, tracer):
    """Step both roles, mobile first, a stage at a time: a stage begins
    once both stand at it, so its span holds both parties' work."""
    levels = (contextlib.ExitStack(), contextlib.ExitStack())
    with levels[0], levels[1]:
        while mobile.step or server.step:
            stage = mobile.step or server.step
            depth = 1 if stage.nested else 0
            for level in reversed(levels[depth:]):
                level.close()
            levels[depth].enter_context(
                _stage_span(tracer, mobile.clock, stage.name)
            )
            # ``|``, not ``or``: each round gives both roles a turn.
            while _pump(mobile, server, stage, transport) | _pump(
                server, mobile, stage, transport
            ):
                pass


def run_key_agreement(
    seed_mobile: BitSequence,
    seed_server: BitSequence,
    config: KeyAgreementConfig = KeyAgreementConfig(),
    transport: SimulatedTransport = None,
    clock: ProtocolClock = None,
    rng=None,
    tracer: Tracer = None,
    pool: OTMaterialPool = None,
) -> KeyAgreementOutcome:
    """Execute the Fig. 4 protocol between two simulated endpoints.

    The clock starts at the gesture start; data acquisition occupies the
    first ``gesture_window_s`` seconds, after which the exchange begins.
    Both roles run on that clock, so each checks the other's announce
    against ``2 + tau``.  The eight Fig. 4 messages cross ``transport``;
    the mobile's closing ack passes straight to the server.  Any
    reconciliation or confirmation failure is reported as an
    unsuccessful outcome rather than an exception — failures are a
    *measured quantity* in every experiment.

    When tracing is active (explicit ``tracer``, a caller span on this
    thread, or a process default) the run emits an ``agreement`` span
    with one child per protocol stage — ``ot.announce`` through
    ``reconcile.confirm`` — carrying both wall-clock and simulated
    protocol-timeline durations.

    ``pool`` supplies both simulated endpoints with warm OT material
    (one sender ``(y, S)`` tuple per round and one receiver
    ``(x, g^x)`` tuple per instance, precomputed off the hot path); an
    exhausted pool falls back to inline exponentiation, never to
    failure.
    """
    if len(seed_mobile) != len(seed_server):
        raise ConfigurationError("key-seeds must have equal length")
    rng = ensure_rng(rng)
    transport = transport or SimulatedTransport()
    clock = clock or ProtocolClock(start_s=config.gesture_window_s)
    tracer = resolve_tracer(tracer)

    mobile = AgreementParty(
        "mobile", seed_mobile, config, child_rng(rng, "mobile"),
        own_sequences_first=True, pool=pool,
    )
    server = AgreementParty(
        "server", seed_server, config, child_rng(rng, "server"),
        own_sequences_first=False, pool=pool,
    )
    mismatch = seed_mobile.hamming_distance(seed_server)

    with tracer.span(
        "agreement", l_s=len(seed_mobile), seed_mismatch_bits=mismatch
    ) as root:
        try:
            _run_in_process(
                _Role("mobile", mobile_round(mobile, "server", clock), clock),
                _Role("server", server_round(server, "mobile", clock), clock),
                transport, tracer,
            )
        except ROUND_FAILURES as exc:
            outcome = round_outcome(clock, mismatch, exc)
            root.set_attribute("failure", outcome.failure_reason)
            return outcome
        root.set_attribute("protocol_elapsed_s", round(clock.now, 6))
    return round_outcome(
        clock, mismatch, keys=(mobile.session_key(), server.session_key())
    )


#: Capability marker for the access server: injected agreement_fns that
#: understand the ``pool=`` keyword advertise it the same way, so the
#: server only forwards its pool to functions that can take it.
run_key_agreement.accepts_ot_pool = True
