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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

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
    ConfirmationResponse,
    OTAnnounce,
    OTCiphertextBatch,
    OTResponse,
    ReconciliationChallenge,
    require_sender,
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
    Announce messages are deadline-checked at ``2 + tau``.  Any
    reconciliation or confirmation failure is reported as an unsuccessful
    outcome rather than an exception — failures are a *measured quantity*
    in every experiment.

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

    def fail(reason: str) -> KeyAgreementOutcome:
        return KeyAgreementOutcome(
            success=False,
            mobile_key=None,
            server_key=None,
            elapsed_s=clock.now,
            failure_reason=reason,
            seed_mismatch_bits=mismatch,
        )

    def stage(name: str):
        """Protocol-stage span annotated with the simulated timeline."""
        return _StageSpan(tracer, clock, name)

    with tracer.span(
        "agreement", l_s=len(seed_mobile), seed_mismatch_bits=mismatch
    ) as root:
        try:
            # Exchange M_A (deadline-checked on arrival, SIV-D.2).
            with stage("ot.announce"):
                with clock.measure():
                    announce_m = mobile.craft_announce()
                    announce_r = server.craft_announce()
                # Receivers validate the claimed sender identity on every
                # delivered message: an interceptor substituting a frame
                # under its own name is rejected outright (anti-spoofing).
                announce_m = require_sender(
                    transport.deliver("mobile", "server", announce_m, clock),
                    "mobile",
                )
                clock.check_deadline(
                    config.announce_deadline_s, "M_A (mobile)"
                )
                announce_r = require_sender(
                    transport.deliver("server", "mobile", announce_r, clock),
                    "server",
                )
                clock.check_deadline(
                    config.announce_deadline_s, "M_A (server)"
                )

            # Exchange M_B.
            with stage("ot.respond"):
                with clock.measure():
                    response_m = mobile.craft_response(announce_r)
                    response_r = server.craft_response(announce_m)
                response_m = require_sender(
                    transport.deliver("mobile", "server", response_m, clock),
                    "mobile",
                )
                response_r = require_sender(
                    transport.deliver("server", "mobile", response_r, clock),
                    "server",
                )

            # Exchange M_E.
            with stage("ot.ciphertexts"):
                with clock.measure():
                    cipher_m = mobile.craft_ciphertexts(response_r)
                    cipher_r = server.craft_ciphertexts(response_m)
                cipher_m = require_sender(
                    transport.deliver("mobile", "server", cipher_m, clock),
                    "mobile",
                )
                cipher_r = require_sender(
                    transport.deliver("server", "mobile", cipher_r, clock),
                    "server",
                )

            with stage("ot.assemble"):
                with clock.measure():
                    mobile.receive_ciphertexts(cipher_r)
                    server.receive_ciphertexts(cipher_m)
                    mobile.build_preliminary_key()
                    server.build_preliminary_key()

            # Reconciliation challenge and HMAC confirmation.
            with stage("reconcile"):
                with stage("reconcile.challenge"):
                    with clock.measure():
                        challenge = mobile.craft_challenge()
                    challenge = require_sender(
                        transport.deliver(
                            "mobile", "server", challenge, clock
                        ),
                        "mobile",
                    )
                with stage("reconcile.answer"):
                    with clock.measure():
                        confirmation = server.answer_challenge(challenge)
                    confirmation = require_sender(
                        transport.deliver(
                            "server", "mobile", confirmation, clock
                        ),
                        "server",
                    )
                with stage("reconcile.confirm"):
                    with clock.measure():
                        mobile.verify_confirmation(confirmation)
        except DeadlineExceeded as exc:
            root.set_attribute("failure", f"deadline: {exc}")
            return fail(f"deadline: {exc}")
        except KeyAgreementFailure as exc:
            root.set_attribute("failure", f"agreement: {exc}")
            return fail(f"agreement: {exc}")
        except TransportError as exc:
            root.set_attribute("failure", f"transport: {exc}")
            return fail(f"transport: {exc}")
        except ProtocolError as exc:
            root.set_attribute("failure", f"protocol: {exc}")
            return fail(f"protocol: {exc}")
        root.set_attribute("protocol_elapsed_s", round(clock.now, 6))

    return KeyAgreementOutcome(
        success=True,
        mobile_key=mobile.session_key(),
        server_key=server.session_key(),
        elapsed_s=clock.now,
        seed_mismatch_bits=mismatch,
    )


#: Capability marker for the access server: injected agreement_fns that
#: understand the ``pool=`` keyword advertise it the same way, so the
#: server only forwards its pool to functions that can take it.
run_key_agreement.accepts_ot_pool = True


class _StageSpan:
    """A tracer span that also captures the simulated protocol clock.

    Wall time alone misrepresents the protocol: transport latency and
    the parties' modelled crafting time advance the *simulated*
    timeline, not the wall clock.  Each stage span therefore carries a
    ``protocol_s`` attribute with the simulated seconds the stage
    consumed.  Exceptions propagate — the caller converts them into a
    failed outcome — but still mark the span as errored.
    """

    __slots__ = ("_cm", "_clock", "_span", "_t0")

    def __init__(self, tracer, clock, name):
        self._cm = tracer.span(name)
        self._clock = clock
        self._span = None
        self._t0 = 0.0

    def __enter__(self):
        self._t0 = self._clock.now
        self._span = self._cm.__enter__()
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._span.set_attribute(
            "protocol_s", round(self._clock.now - self._t0, 6)
        )
        return self._cm.__exit__(exc_type, exc, tb)
