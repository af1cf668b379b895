"""Warm OT material: precomputed exponent pairs, refilled off the hot path.

Every WaveKey establishment runs one Chou-Orlandi OT round of ``l_s``
instances in each direction (batch form, :mod:`repro.crypto.ot`).  Two
of its fixed-base exponentiations depend on nothing the peer sends: the
sender's per-round ``S = g^y`` and the receiver's per-instance
``g^x``.  Both are therefore *precomputable*, as long as each tuple is
consumed exactly once.

:class:`OTMaterialPool` keeps bounded per-group stocks of

* :class:`SenderMaterial` — ``(y, S, k1_factor)``, one per round, where
  ``k1_factor = S^{-y} = g^{-y^2}`` lets the sender derive every second
  OT key with one group multiplication instead of a division plus a
  full exponentiation (``(R / S)^y = R^y * S^{-y}``), with ``y``'s
  ladder key;
* :class:`ReceiverMaterial` — ``(x, g^x)``, one per instance, with the
  encoding of ``g^x`` and ``x``'s ladder key.

A ladder key is an OpenSSL private key, DH for MODP and X25519 for the
curve, ~0.05–0.1 ms to load.  A background refill thread tops stocks up
to their high watermark whenever a take drains them below the low
watermark, so the request path performs only the per-peer work: the
sender's variable-base ``R_i^y`` and the receiver's ``S^{x_i}``, both
through
:meth:`~repro.crypto.group.Group.exp_many`.  An empty stock
is never an error: takes simply return fewer tuples than asked and the
caller computes the remainder inline (counted as ``crypto.pool.miss``)
— pool exhaustion degrades to exactly the pre-pool cost, it never
fails a session.

Material is single-use by construction: :meth:`~SenderMaterial.claim`
flips a consumed flag and raises :class:`~repro.errors.CryptoError` on
any second claim, so one tuple can never key two rounds (reusing a
sender's ``y`` across rounds would let a peer correlate them).

Observability: ``crypto.pool.hit`` / ``crypto.pool.miss`` /
``crypto.pool.produced`` counters and ``crypto.pool.depth`` gauges are
labeled by material ``kind`` and ``group``, so operators can tell the
stocks apart when a server keeps both a MODP and a curve group warm;
refills record a group-labeled ``crypto.pool.refill_s`` histogram and run under a
``crypto.pool.refill`` span so exhaustion shows up in traces.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.crypto.group import Group
from repro.errors import ConfigurationError, CryptoError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, resolve_tracer
from repro.utils.rng import ensure_rng

#: Residues produced per lock window during a refill, so a refill
#: never starves takers (or the GIL) for long stretches.
_REFILL_CHUNK = 16


def sender_k1_factor(group: Group, y: int):
    """``S^{-y} = g^{-y^2}`` for a sender exponent ``y`` (``S = g^y``).

    Computed via the *fixed-base* path (the exponent is reduced mod
    :attr:`~repro.crypto.group.Group.exponent_modulus` — ``p - 1`` by
    Fermat for MODP, the subgroup order ``L`` for the curve), so
    deriving it costs one fixed-base power — cheap at
    material-creation time, and it converts each of the sender's
    second OT keys from ``inverse + exp`` into a single group
    multiplication on the hot path.
    """
    return group.power((-y * y) % group.exponent_modulus)


class SenderMaterial:
    """One precomputed, single-use sender tuple ``(y, S, k1_factor)``:
    it keys one OT round.

    ``ladder_key`` is ``y``'s :meth:`~repro.crypto.group.Group.ladder_key`
    for the sender's ``R_i^y``, or ``None`` when not built.
    """

    __slots__ = ("group", "y", "s", "k1_factor", "ladder_key", "_consumed")

    def __init__(self, group: Group, y: int, s, k1_factor, ladder_key=None):
        self.group = group
        self.y = y
        self.s = s
        self.k1_factor = k1_factor
        self.ladder_key = ladder_key
        self._consumed = False

    def claim(self, group: Group) -> None:
        """Mark consumed; reuse or cross-group use is a hard error."""
        if group != self.group:
            raise CryptoError(
                f"OT material for group {self.group.name!r} used with "
                f"group {group.name!r}"
            )
        if self._consumed:
            raise CryptoError(
                "OT sender material reused: each (y, S) tuple keys "
                "exactly one round"
            )
        self._consumed = True


class ReceiverMaterial:
    """One precomputed, single-use receiver tuple ``(x, g^x)``: it
    answers one OT instance.

    ``encoded`` is the wire encoding of ``g^x``, which is the whole
    response ``R_i`` of a choice-0 instance, and ``ladder_key`` is
    ``x``'s :meth:`~repro.crypto.group.Group.ladder_key` for the
    receiver's later ``S^x``; either is ``None`` when not built.
    """

    __slots__ = ("group", "x", "g_x", "encoded", "ladder_key", "_consumed")

    def __init__(
        self, group: Group, x: int, g_x, encoded: Optional[bytes] = None,
        ladder_key=None,
    ):
        self.group = group
        self.x = x
        self.g_x = g_x
        self.encoded = encoded
        self.ladder_key = ladder_key
        self._consumed = False

    def claim(self, group: Group) -> None:
        """Mark consumed; reuse or cross-group use is a hard error."""
        if group != self.group:
            raise CryptoError(
                f"OT material for group {self.group.name!r} used with "
                f"group {group.name!r}"
            )
        if self._consumed:
            raise CryptoError(
                "OT receiver material reused: each (x, g^x) tuple "
                "answers exactly one instance"
            )
        self._consumed = True


def make_sender(group: Group, rng) -> SenderMaterial:
    """Draw ``y`` from ``rng`` exactly as an inline announce does and
    build its tuple, with ``y``'s ladder key
    (:meth:`~repro.crypto.group.Group.powers_and_keys`)."""
    y = group.random_exponent(rng)
    [(s, key)] = group.powers_and_keys([y])
    return SenderMaterial(group, y, s, sender_k1_factor(group, y), key)


def make_receivers(group: Group, rng, n: int) -> List[ReceiverMaterial]:
    """Draw ``n`` exponents from ``rng`` exactly as an inline respond
    does and build their tuples, with encodings (encoded as one batch)
    and ladder keys (:meth:`~repro.crypto.group.Group.powers_and_keys`:
    on the curve, the key ``g^x`` was read off)."""
    xs = [group.random_exponent(rng) for _ in range(n)]
    pairs = group.powers_and_keys(xs)
    encodings = group.encode_elements([g_x for g_x, _ in pairs])
    return [
        ReceiverMaterial(group, x, g_x, encoded, key)
        for x, (g_x, key), encoded in zip(xs, pairs, encodings)
    ]


class _GroupStock:
    """Per-group double stock (sender + receiver) with one lock."""

    __slots__ = ("group", "senders", "receivers", "lock")

    def __init__(self, group: Group):
        self.group = group
        self.senders: Deque[SenderMaterial] = deque()
        self.receivers: Deque[ReceiverMaterial] = deque()
        self.lock = threading.Lock()


class OTMaterialPool:
    """Bounded, background-refilled stocks of precomputed OT material.

    Parameters
    ----------
    depth:
        High watermark: target number of tuples of *each* kind held per
        group.
    low_watermark:
        Refill trigger: when a take leaves a stock below this depth the
        refill thread is woken.  Defaults to ``depth // 2``.
    refill_interval_s:
        Idle poll period of the refill thread (it is also woken
        immediately on watermark breach).
    rng:
        Injectable randomness (int seed / numpy Generator / None) so
        tests can pin the produced exponents.
    """

    def __init__(
        self,
        depth: int = 256,
        low_watermark: Optional[int] = None,
        refill_interval_s: float = 0.05,
        rng=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if depth < 1:
            raise ConfigurationError("pool depth must be >= 1")
        if low_watermark is None:
            low_watermark = depth // 2
        if not (0 <= low_watermark < depth):
            raise ConfigurationError(
                "low_watermark must be in [0, depth)"
            )
        if refill_interval_s <= 0:
            raise ConfigurationError("refill_interval_s must be > 0")
        self.depth = depth
        self.low_watermark = low_watermark
        self.refill_interval_s = refill_interval_s
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer
        self._rng = ensure_rng(rng)
        self._rng_lock = threading.Lock()
        self._stocks: Dict[Group, _GroupStock] = {}
        self._stocks_lock = threading.Lock()
        self._wake = threading.Event()
        self._running = False
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "OTMaterialPool":
        """Launch the background refill worker (idempotent)."""
        if self._running:
            return self
        self._running = True
        self._thread = threading.Thread(
            target=self._refill_loop, name="ot-pool-refill", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the refill worker; takes keep working (as misses)."""
        if not self._running:
            return
        self._running = False
        self._wake.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "OTMaterialPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- stocks ------------------------------------------------------------

    def register(self, group: Group) -> None:
        """Key a stock for ``group`` (refilled from the next cycle on)."""
        self._stock(group)
        self._wake.set()

    def _stock(self, group: Group) -> _GroupStock:
        stock = self._stocks.get(group)
        if stock is None:
            with self._stocks_lock:
                stock = self._stocks.get(group)
                if stock is None:
                    stock = _GroupStock(group)
                    self._stocks[group] = stock
        return stock

    def depths(self, group: Group) -> Tuple[int, int]:
        """Current ``(sender, receiver)`` stock depth for ``group``."""
        stock = self._stock(group)
        with stock.lock:
            return len(stock.senders), len(stock.receivers)

    # -- takes (hot path) --------------------------------------------------

    def take_senders(self, group: Group, n: int) -> List[SenderMaterial]:
        """Pop up to ``n`` sender tuples; shortfalls are counted misses."""
        return self._take(group, n, "sender")

    def take_receivers(
        self, group: Group, n: int
    ) -> List[ReceiverMaterial]:
        """Pop up to ``n`` receiver tuples; shortfalls are counted misses."""
        return self._take(group, n, "receiver")

    def _take(self, group: Group, n: int, kind: str) -> list:
        if n < 0:
            raise ConfigurationError("take count must be >= 0")
        stock = self._stock(group)
        queue = stock.senders if kind == "sender" else stock.receivers
        taken: list = []
        with stock.lock:
            while queue and len(taken) < n:
                taken.append(queue.popleft())
            depth = len(queue)
        hits, misses = len(taken), n - len(taken)
        labels = {"kind": kind, "group": group.name}
        if hits:
            self.metrics.counter("crypto.pool.hit", labels=labels).inc(hits)
        if misses:
            self.metrics.counter("crypto.pool.miss", labels=labels).inc(misses)
        self._set_depth(group, kind, depth)
        if depth < self.low_watermark:
            self._wake.set()
        return taken

    def _set_depth(self, group: Group, kind: str, depth: int) -> None:
        self.metrics.gauge(
            "crypto.pool.depth", labels={"kind": kind, "group": group.name}
        ).set(depth)

    # -- production (off the hot path) -------------------------------------

    def fill(self, group: Optional[Group] = None) -> int:
        """Synchronously top every (or one) stock up to ``depth``.

        Returns the number of tuples produced.  Production happens in
        chunks of :data:`_REFILL_CHUNK` outside the stock lock so a
        concurrent take is never blocked behind a long refill.
        """
        if group is not None:
            stocks = [self._stock(group)]
        else:
            with self._stocks_lock:
                stocks = list(self._stocks.values())
        produced_total = 0
        for stock in stocks:
            produced = self._fill_stock(stock)
            produced_total += produced
        return produced_total

    def _fill_stock(self, stock: _GroupStock) -> int:
        group = stock.group
        produced = {"sender": 0, "receiver": 0}
        start = time.monotonic()
        while True:
            with stock.lock:
                want_s = self.depth - len(stock.senders)
                want_r = self.depth - len(stock.receivers)
            if want_s <= 0 and want_r <= 0:
                break
            with self._rng_lock:
                batch_s = [
                    make_sender(group, self._rng)
                    for _ in range(min(want_s, _REFILL_CHUNK))
                ]
                batch_r = make_receivers(
                    group, self._rng, max(0, min(want_r, _REFILL_CHUNK))
                )
            with stock.lock:
                stock.senders.extend(batch_s)
                stock.receivers.extend(batch_r)
                depth_s = len(stock.senders)
                depth_r = len(stock.receivers)
            produced["sender"] += len(batch_s)
            produced["receiver"] += len(batch_r)
            self._set_depth(group, "sender", depth_s)
            self._set_depth(group, "receiver", depth_r)
        total = produced["sender"] + produced["receiver"]
        if total:
            elapsed = time.monotonic() - start
            self.metrics.histogram(
                "crypto.pool.refill_s", labels={"group": group.name}
            ).observe(elapsed)
            for kind, count in produced.items():
                if count:
                    self.metrics.counter(
                        "crypto.pool.produced",
                        labels={"kind": kind, "group": group.name},
                    ).inc(count)
            tracer = resolve_tracer(self.tracer)
            if tracer.enabled:
                tracer.record_span(
                    "crypto.pool.refill",
                    start_s=start,
                    end_s=start + elapsed,
                    group=group.name,
                    produced=total,
                )
        return total

    def _refill_loop(self) -> None:
        while self._running:
            self._wake.wait(self.refill_interval_s)
            self._wake.clear()
            if not self._running:
                return
            self.fill()
