"""The fault contract both backends honour.

The paper's machine model (section 2) assumes a pristine wormhole mesh;
this module is the controlled way to break that assumption, and like
:mod:`repro.core.protocol` it belongs to no backend.  A
:class:`FaultSchedule` declares a set of fault events —

* :class:`LinkFault` — a (bidirectional by default) mesh link stops
  carrying data, permanently or for a bounded ``duration``;
* :class:`LinkSlowdown` — a link's bandwidth degrades by ``factor``
  (per-link beta multiplier), permanently or transiently;
* :class:`NodeCrash` — a node dies: its rank program stops executing and
  every in-flight message to or from it is lost;
* :class:`ByzantineRank` — a rank corrupts payloads before sending them
  (Byzantine data fault: the message flows normally, the bytes lie);
* :class:`WithholdingRank` — a rank silently drops sends it was supposed
  to make (the sender proceeds as if delivered; the receiver starves);
* :class:`MisroutingRank` — a rank delivers sends to the wrong peer

— plus whole-run knobs: ``jitter`` (seeded per-message extra startup
latency), ``max_retries``/``backoff`` (message-layer retransmission of
transfers killed by a link fault), and ``deadline`` (a simulated-time
watchdog).  Given the same ``(seed, schedule)`` a chaos run is
bit-reproducible: the only randomness is the schedule's own
:class:`random.Random` stream, consumed in deterministic event order.

Link, slowdown and crash events fire on the simulator's clock; the
adversarial events act per send through :class:`AdversaryState`, at the
send step both backends share (:meth:`.protocol.RankEnvBase.isend`).

When a fault prevents completion, the simulator raises a typed
:class:`FaultDiagnosis` instead of a bare
:class:`~repro.sim.engine.DeadlockError`: it names the injected faults,
the crashed nodes, every blocked rank's oldest unmatched posted
send/recv ``(peer, tag, nbytes)``, dead-lettered messages, and — when
tracing is on — the collective op span each blocked rank was inside.

An *empty* schedule is strictly passive: no events are scheduled, no
random numbers are drawn, and every simulated result is bit-identical
to a run without the fault layer (enforced by the golden-equivalence
corpus; see ``docs/robustness.md``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from .topology import Channel


# ----------------------------------------------------------------------
# fault events
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinkFault:
    """Link ``u <-> v`` carries no data from ``t`` for ``duration``.

    ``duration=inf`` (default) is a permanent failure; a finite duration
    models a transient fault (flaky cable, rerouted backplane) after
    which the link is restored.  ``symmetric=False`` fails only the
    directed channel ``(u, v)``.
    """

    t: float
    u: int
    v: int
    duration: float = math.inf
    symmetric: bool = True

    def __post_init__(self) -> None:
        _check_time(self.t, self.duration)

    def channels(self) -> Tuple[Channel, ...]:
        if self.symmetric:
            return ((self.u, self.v), (self.v, self.u))
        return ((self.u, self.v),)

    def describe(self) -> str:
        kind = "permanently" if math.isinf(self.duration) else \
            f"for {self.duration:g}s"
        arrow = "<->" if self.symmetric else "->"
        return f"link {self.u}{arrow}{self.v} failed at t={self.t:g} {kind}"


@dataclass(frozen=True)
class LinkSlowdown:
    """Link ``u <-> v`` bandwidth divided by ``factor`` (beta degradation)
    from ``t`` for ``duration``."""

    t: float
    u: int
    v: int
    factor: float = 2.0
    duration: float = math.inf
    symmetric: bool = True

    def __post_init__(self) -> None:
        _check_time(self.t, self.duration)
        if self.factor < 1.0:
            raise ValueError(
                f"slowdown factor must be >= 1 (got {self.factor}); a "
                f"factor below 1 would speed the link up")

    def channels(self) -> Tuple[Channel, ...]:
        if self.symmetric:
            return ((self.u, self.v), (self.v, self.u))
        return ((self.u, self.v),)

    def describe(self) -> str:
        kind = "" if math.isinf(self.duration) else \
            f" for {self.duration:g}s"
        return (f"link {self.u}<->{self.v} slowed {self.factor:g}x "
                f"at t={self.t:g}{kind}")


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node`` dies at ``t``: its rank program stops executing and
    all in-flight messages to or from it are lost (fail-stop model)."""

    t: float
    node: int

    def __post_init__(self) -> None:
        _check_time(self.t, math.inf)

    def describe(self) -> str:
        return f"node {self.node} crashed at t={self.t:g}"


@dataclass(frozen=True)
class AdversaryEvent:
    """Fields, validation and cadence shared by the adversarial events.

    Rank ``rank`` acts from time ``t`` on its ``start``-th send and
    every ``every``-th send after it.
    """

    rank: int
    t: float = 0.0
    every: int = 1
    start: int = 0

    #: what the rank does, formatted with its rank by :meth:`describe`
    _doing = ""

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"adversarial rank must be non-negative "
                             f"(got {self.rank})")
        _check_time(self.t, math.inf)
        if self.every < 1:
            raise ValueError(f"every must be >= 1 (got {self.every})")
        if self.start < 0:
            raise ValueError(
                f"start must be non-negative (got {self.start})")

    def describe(self) -> str:
        parts = []
        if self.every != 1:
            parts.append(f"every {self.every} sends")
        if self.start != 0:
            parts.append(f"from send #{self.start}")
        if self.t != 0.0:
            parts.append(f"from t={self.t:g}")
        cadence = " " + ", ".join(parts) if parts else ""
        return self._doing.format(self.rank) + cadence


@dataclass(frozen=True)
class ByzantineRank(AdversaryEvent):
    """Rank ``rank`` corrupts array payloads before sending them.

    The send itself proceeds normally — same destination, same size,
    same timing — but one element of a *copy* of the payload has its
    high-order byte flipped (sign/exponent for floats), so the damage
    survives any sane numeric tolerance.  The corruption value stream
    derives from the schedule seed and the rank's send counter, so the
    simulator and the process backend corrupt identically
    (docs/robustness.md).
    """

    _doing = "byzantine rank {} corrupting payloads"


@dataclass(frozen=True)
class WithholdingRank(AdversaryEvent):
    """Rank ``rank`` silently drops sends matching the cadence.

    The withholding rank's own handle completes immediately — from its
    point of view the message was delivered — while the receiver's
    matching recv never completes.  This is the "silent omission" half
    of the Byzantine model: nothing crashes, no link fails, the message
    simply never existed.
    """

    _doing = "rank {} withholding (silently dropping) sends"


@dataclass(frozen=True)
class MisroutingRank(AdversaryEvent):
    """Rank ``rank`` delivers matching sends to the wrong peer.

    The payload goes to ``(dst + 1) % nranks`` (skipping the sender
    itself when the world is big enough): the intended receiver
    starves while an innocent bystander accumulates an unexpected
    message.
    """

    _doing = "rank {} misrouting sends to the wrong peer"


FaultEvent = Union[LinkFault, LinkSlowdown, NodeCrash,
                   ByzantineRank, WithholdingRank, MisroutingRank]

_EVENT_KINDS = {
    "link-fault": LinkFault,
    "link-slowdown": LinkSlowdown,
    "node-crash": NodeCrash,
    "byzantine-rank": ByzantineRank,
    "withholding-rank": WithholdingRank,
    "misrouting-rank": MisroutingRank,
}


def _check_time(t: float, duration: float) -> None:
    if t < 0:
        raise ValueError(f"fault time must be non-negative (got {t})")
    if duration <= 0:
        raise ValueError(f"fault duration must be positive (got {duration})")


def _event_kind(ev: FaultEvent) -> str:
    for kind, cls in _EVENT_KINDS.items():
        if isinstance(ev, cls):
            return kind
    raise TypeError(f"unknown fault event {ev!r}")


# ----------------------------------------------------------------------
# the schedule
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FaultSchedule:
    """A deterministic, seeded chaos scenario.

    Attributes
    ----------
    events:
        Fault events applied at their simulated times.
    jitter:
        Maximum extra per-message startup latency in seconds, sampled
        uniformly from ``[0, jitter)`` per rendezvous from the seeded
        stream.  ``0.0`` (default) draws nothing.
    seed:
        Seed of the schedule's private random stream (jitter samples).
    max_retries:
        How many times the message layer retransmits a transfer killed
        by a link fault before dead-lettering it.
    backoff:
        Base retransmission backoff in seconds (doubled per attempt).
        ``0.0`` means "4 x alpha of the machine being simulated".
    deadline:
        Simulated-time watchdog: if the run passes this time with ranks
        still unfinished, the engine raises a :class:`FaultDiagnosis`
        instead of simulating on.  ``inf`` (default) disables it.
    """

    events: Tuple[FaultEvent, ...] = ()
    jitter: float = 0.0
    seed: int = 0
    max_retries: int = 8
    backoff: float = 0.0
    deadline: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        for ev in self.events:
            _event_kind(ev)  # raises for foreign objects

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects nothing at all."""
        return (not self.events and self.jitter == 0.0
                and math.isinf(self.deadline))

    def crashed_nodes(self) -> FrozenSet[int]:
        """Every node the schedule crashes, at any time.

        This is the *perfect failure detector* view used by
        :meth:`repro.core.communicator.Communicator.shrink`: it is
        independent of the query time, so every surviving rank computes
        the same surviving group no matter when it asks.
        """
        return frozenset(ev.node for ev in self.events
                         if isinstance(ev, NodeCrash))

    def adversarial_ranks(self) -> FrozenSet[int]:
        """Every rank the schedule makes adversarial, of any flavour."""
        return frozenset(ev.rank for ev in self.events
                         if isinstance(ev, AdversaryEvent))

    @property
    def has_adversaries(self) -> bool:
        return any(isinstance(ev, AdversaryEvent) for ev in self.events)

    def pricing_beta_multiplier(self) -> float:
        """Effective beta multiplier the cost model should price with.

        The maximum declared :class:`LinkSlowdown` factor (1.0 when the
        schedule degrades nothing).  Deliberately derived from the
        *schedule*, not from the current simulated time: strategy
        selection must be rank-agreed, and different ranks resolve the
        same collective at different instants.  A real deployment would
        feed this from a link-quality monitor; see docs/robustness.md.
        """
        mult = 1.0
        for ev in self.events:
            if isinstance(ev, LinkSlowdown) and ev.factor > mult:
                mult = ev.factor
        return mult

    def describe(self) -> str:
        parts = [ev.describe() for ev in self.events]
        if self.jitter > 0:
            parts.append(f"jitter up to {self.jitter:g}s "
                         f"(seed {self.seed})")
        if not math.isinf(self.deadline):
            parts.append(f"watchdog deadline t={self.deadline:g}")
        return "; ".join(parts) if parts else "empty schedule"

    # -- serialization (chaos harness reports) --------------------------

    def to_dict(self) -> Dict:
        events = []
        for ev in self.events:
            d = {"kind": _event_kind(ev)}
            for f in ev.__dataclass_fields__:
                v = getattr(ev, f)
                d[f] = "inf" if isinstance(v, float) and math.isinf(v) else v
            events.append(d)
        return {
            "events": events,
            "jitter": self.jitter,
            "seed": self.seed,
            "max_retries": self.max_retries,
            "backoff": self.backoff,
            "deadline": ("inf" if math.isinf(self.deadline)
                         else self.deadline),
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "FaultSchedule":
        _reject_unknown("FaultSchedule", d, cls.__dataclass_fields__)
        events = []
        for e in d.get("events", ()):
            e = dict(e)
            kind = e.pop("kind", None)
            if kind not in _EVENT_KINDS:
                raise ValueError(
                    f"unknown fault event kind {kind!r}; expected one of "
                    f"{sorted(_EVENT_KINDS)}")
            cls_ = _EVENT_KINDS[kind]
            _reject_unknown(kind, e, cls_.__dataclass_fields__)
            events.append(cls_(**{k: math.inf if v == "inf" else v
                                  for k, v in e.items()}))
        deadline = d.get("deadline", math.inf)
        return cls(**dict(d, events=tuple(events),
                          deadline=math.inf if deadline == "inf"
                          else deadline))


def _reject_unknown(what: str, d: Dict, fields) -> None:
    extra = set(d) - set(fields)
    if extra:
        raise ValueError(f"unknown {what} fields {sorted(extra)}; "
                         f"expected a subset of {sorted(fields)}")


# ----------------------------------------------------------------------
# what the fault layer did
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DeadLetter:
    """A message the fault layer gave up on delivering."""

    t: float
    src: int
    dst: int
    tag: int
    nbytes: float
    reason: str

    def describe(self) -> str:
        return (f"{self.src}->{self.dst} tag={self.tag} "
                f"{self.nbytes:g}B at t={self.t:g}: {self.reason}")


@dataclass(frozen=True)
class Tamper:
    """One adversarial application: what a Byzantine-model rank did to
    one send.  ``dst`` is the *intended* destination (for misrouting,
    ``detail`` names where the message actually went)."""

    t: float
    kind: str          #: "byzantine-rank" | "withholding-rank" | "misrouting-rank"
    src: int
    dst: int
    tag: int
    detail: str

    def describe(self) -> str:
        return (f"{self.kind} {self.src}->{self.dst} tag={self.tag} "
                f"at t={self.t:g}: {self.detail}")


def corrupt_payload(data: Any, rng: random.Random):
    """Deterministically corrupt a *copy* of an array payload.

    Picks one element from the seeded stream and XORs its high-order
    byte with ``0xA5`` — flipping sign/exponent bits for floats and
    high-order magnitude bits for ints, so the damage is far outside
    any validation tolerance.  Returns ``(corrupted_copy, description)``
    or ``(None, None)`` when the payload is not a corruptible array
    (None markers, zero-size buffers, non-numeric dtypes pass through
    untouched).
    """
    if not isinstance(data, np.ndarray) or data.size == 0 \
            or data.dtype.kind not in "fiu":
        return None, None
    out = data.copy()
    idx = rng.randrange(out.size)
    flat = out.reshape(-1)
    old = flat[idx]
    raw = flat.view(np.uint8)
    itemsize = out.dtype.itemsize
    # native little-endian: the element's last byte is its high byte
    hi = idx * itemsize + (itemsize - 1 if out.dtype.byteorder != ">"
                           else 0)
    raw[hi] ^= 0xA5
    return out, f"element [{idx}] {old!r} -> {flat[idx]!r}"


class AdversaryState:
    """Per-run Byzantine-model machinery, shared by both backends.

    :meth:`repro.core.protocol.RankEnvBase.isend` consults it before
    the message reaches the receiver's
    :class:`~repro.core.protocol.MatchQueue`, on the simulator and on
    real processes alike.  Determinism across backends: the decision
    for a rank's ``k``-th send depends only on
    ``(schedule, src, k, now >= t)`` and the corruption bytes only on
    ``(schedule.seed, src, k)`` — not on the simulator's jitter stream —
    so given the same algorithm (same per-rank send sequence) both
    backends tamper identically.  ``log``, when given, is called with
    each :class:`Tamper` (the simulator logs it as an injected fault).
    """

    __slots__ = ("seed", "by_rank", "counters", "tampered", "log")

    def __init__(self, schedule: FaultSchedule,
                 log: Optional[Callable[[Tamper], None]] = None):
        self.seed = schedule.seed
        #: rank -> its adversarial events, in schedule order
        self.by_rank: Dict[int, List] = {}
        for ev in schedule.events:
            if isinstance(ev, AdversaryEvent):
                self.by_rank.setdefault(ev.rank, []).append(ev)
        #: per-adversarial-rank send counters (absent ranks cost nothing)
        self.counters: Dict[int, int] = {}
        self.tampered: List[Tamper] = []
        self.log = log

    def act(self, src: int, dst: int, tag: int, data: Any, now: float,
            nranks: int) -> Optional[Tuple[Tamper, int, Any]]:
        """Decide what rank ``src`` does to this send.

        Returns ``None`` (send untouched) or ``(tamper, dst, data)``
        with the possibly-redirected destination and possibly-corrupted
        payload; ``tamper.kind == "withholding-rank"`` means the caller
        must complete the sender's handle without transferring anything.
        Precedence when one rank matches several events on the same
        send: withhold > misroute > corrupt (a dropped message can't
        also be delivered wrong).
        """
        evs = self.by_rank.get(src)
        if evs is None:
            return None
        k = self.counters.get(src, 0)
        self.counters[src] = k + 1
        withhold = misroute = corrupt = None
        for ev in evs:
            if now < ev.t or k < ev.start or (k - ev.start) % ev.every:
                continue
            if isinstance(ev, WithholdingRank):
                withhold = ev
            elif isinstance(ev, MisroutingRank):
                misroute = ev
            else:
                corrupt = ev
        to = dst
        if withhold is not None:
            kind, detail = "withholding-rank", f"send #{k} silently dropped"
        elif misroute is not None:
            to = self.wrong_peer(src, dst, nranks)
            kind, detail = ("misrouting-rank",
                            f"send #{k} delivered to {to} instead")
        elif corrupt is not None:
            data, desc = corrupt_payload(
                data, random.Random(f"{self.seed}/adversary/{src}/{k}"))
            if data is None:
                return None  # nothing corruptible in this payload
            kind, detail = "byzantine-rank", f"send #{k} corrupted: {desc}"
        else:
            return None
        tamper = Tamper(now, kind, src, dst, tag, detail)
        self.tampered.append(tamper)
        if self.log is not None:
            self.log(tamper)
        return tamper, to, data

    @staticmethod
    def wrong_peer(src: int, dst: int, nranks: int) -> int:
        """The deterministic wrong destination for a misrouted send."""
        if nranks <= 1:
            return dst
        wrong = (dst + 1) % nranks
        if wrong == src and nranks > 2:
            wrong = (dst + 2) % nranks
        return wrong


@dataclass(frozen=True)
class FaultReport:
    """Post-run summary of what the fault layer did (RunResult.fault_report)."""

    schedule: str
    injected: Tuple[Tuple[float, str, str], ...]
    retries: int
    dead_letters: Tuple[DeadLetter, ...]
    crashed: Tuple[int, ...]
    tampered: Tuple[Tamper, ...] = ()


# ----------------------------------------------------------------------
# the typed diagnosis
# ----------------------------------------------------------------------

class FaultDiagnosis(RuntimeError):
    """A would-be hang (or watchdog overrun) attributed to injected faults.

    Raised by the engine instead of a bare ``DeadlockError`` whenever the
    run cannot finish *and* the fault layer injected something.  Carries
    structured fields so harnesses can assert on causes instead of
    grepping messages:

    ``injected``
        ``(t, kind, description)`` for every fault that fired;
    ``blocked``
        per blocked rank: ``(rank, kind, peer, tag, nbytes)`` of its
        oldest unmatched posted request (kind ``"send"``/``"recv"``, or
        ``"-"`` when the rank blocks on something already matched);
    ``dead_letters``
        messages the retry layer gave up on;
    ``crashed``
        nodes dead at diagnosis time;
    ``tampered``
        :class:`Tamper` records of every adversarial (Byzantine-model)
        application;
    ``op_spans``
        ``rank -> label`` of the collective op span each blocked rank
        was inside (empty when tracing was off).
    """

    def __init__(self, message: str, *,
                 injected: Sequence[Tuple[float, str, str]] = (),
                 blocked: Sequence[Tuple] = (),
                 dead_letters: Sequence[DeadLetter] = (),
                 crashed: Sequence[int] = (),
                 op_spans: Optional[Dict[int, str]] = None,
                 watchdog: bool = False,
                 tampered: Sequence[Tamper] = ()):
        super().__init__(message)
        self.injected = tuple(injected)
        self.blocked = tuple(blocked)
        self.dead_letters = tuple(dead_letters)
        self.crashed = tuple(crashed)
        self.op_spans = dict(op_spans or {})
        self.watchdog = watchdog
        self.tampered = tuple(tampered)

    def to_dict(self) -> Dict:
        return {
            "message": str(self),
            "injected": [list(x) for x in self.injected],
            "blocked": [list(x) for x in self.blocked],
            "dead_letters": [dl.describe() for dl in self.dead_letters],
            "crashed": list(self.crashed),
            "op_spans": {str(k): v for k, v in self.op_spans.items()},
            "watchdog": self.watchdog,
            "tampered": [t.describe() for t in self.tampered],
        }
