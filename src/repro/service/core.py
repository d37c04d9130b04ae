"""The deterministic service front-end: sessions, queues, the plan.

:class:`ServiceCore` is a pure state machine over a **virtual clock**:
admission, scheduling, fusion, and completion bookkeeping all advance
on model-priced time (the Selector's cost of each executed batch), so
the whole front-end is a deterministic function of (config, submitted
traffic).  That is what lets the *same* core run unchanged on every
rank of an SPMD program — each rank derives an identical plan without
communicating — and what makes service benchmarks reproducible:
seed in, byte-identical plan out.

Execution (and wall-clock measurement) is a separate concern:
:mod:`repro.service.execute` replays a finished plan over a simulated
or real machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .admission import AdmissionController
from .fusion import (DEFAULT_FUSION_THRESHOLD_BYTES, DEFAULT_MAX_FUSED,
                     FusionPlanner, PlannedBatch)
from .request import (CollectiveRequest, PayloadSpec, Rejection,
                      RequestOutcome, Session)
from .scheduler import DeficitRoundRobin

#: nominal constants used to price when the machine has no cost model
#: (a real backend launched without params or a calibrated profile):
#: ~100us startup, ~5ns/byte.  Fixed, documented, rank-agreed — the
#: same contract as ``AUTO_FALLBACK_SHORT_NBYTES`` in repro.core.api.
NOMINAL_ALPHA_S = 100e-6
NOMINAL_BETA_S_PER_BYTE = 5e-9


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable service policy, all deterministic.

    ``tick_interval_v`` is the batching window: arrivals accumulate
    for one window, then a scheduling tick dispatches (``None`` derives
    ``4 * alpha`` from the machine params — a few message startups, so
    concurrent small requests actually meet in one window).
    """

    admission_rate: Optional[float] = None   #: tokens/s; None = open
    admission_burst: float = 64.0
    queue_cap: Optional[int] = None
    quantum_s: Optional[float] = None        #: DRR quantum; None = adaptive
    fusion: bool = True
    fusion_threshold_bytes: int = DEFAULT_FUSION_THRESHOLD_BYTES
    max_fused: int = DEFAULT_MAX_FUSED
    tick_interval_v: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "admission_rate": self.admission_rate,
            "admission_burst": self.admission_burst,
            "queue_cap": self.queue_cap,
            "quantum_s": self.quantum_s,
            "fusion": self.fusion,
            "fusion_threshold_bytes": self.fusion_threshold_bytes,
            "max_fused": self.max_fused,
            "tick_interval_v": self.tick_interval_v,
        }


def jain_index(shares: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    xs = [x for x in shares if x > 0]
    if not xs:
        return 1.0
    num = sum(xs) ** 2
    den = len(xs) * sum(x * x for x in xs)
    return num / den if den > 0 else 1.0


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Linear-interpolated percentile over pre-sorted values."""
    if not sorted_vals:
        return math.nan
    if len(sorted_vals) == 1:
        return sorted_vals[0]
    pos = (len(sorted_vals) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


@dataclass
class ServicePlan:
    """A finished, executable schedule (data only — picklable).

    ``batches`` execute in order; ``sessions`` derive communicators in
    ``sid`` order first, so every rank allocates identical context
    ids.  ``outcomes`` at this stage are the *model-complete* view —
    execution may downgrade dispatched requests to dead-letters on
    faults (:mod:`repro.service.execute`).
    """

    world_size: int
    sessions: Tuple[Session, ...]
    batches: Tuple[PlannedBatch, ...]
    outcomes: Dict[str, RequestOutcome]
    tenant_service_v: Dict[str, float]
    vtime: float
    config: ServiceConfig
    submitted: int
    rejected: int

    # -- derived statistics -------------------------------------------

    @property
    def dispatched(self) -> int:
        return sum(len(b.requests) for b in self.batches)

    @property
    def fused_requests(self) -> int:
        return sum(len(b.requests) for b in self.batches if b.fused)

    @property
    def fusion_ratio(self) -> float:
        """Fraction of dispatched requests that rode a fused batch."""
        if self.dispatched == 0:
            return 0.0
        return self.fused_requests / self.dispatched

    def tenant_shares(self) -> Dict[str, float]:
        """Normalized priced service-time share per tenant."""
        total = sum(self.tenant_service_v.values())
        if total <= 0:
            return {t: 0.0 for t in self.tenant_service_v}
        return {t: v / total for t, v in self.tenant_service_v.items()}

    def fairness_index(self) -> float:
        return jain_index(list(self.tenant_service_v.values()))

    def latency_percentiles(self) -> Dict[str, float]:
        lats = sorted(o.latency_v for o in self.outcomes.values()
                      if o.status == "ok"
                      and not math.isnan(o.completion_v))
        return {"p50": _percentile(lats, 0.50),
                "p99": _percentile(lats, 0.99)}

    def to_dict(self) -> dict:
        return {
            "world_size": self.world_size,
            "sessions": [{"sid": s.sid, "tenant": s.tenant,
                          "group": list(s.group)} for s in self.sessions],
            "batches": [b.to_dict() for b in self.batches],
            "outcomes": {rid: o.to_dict()
                         for rid, o in sorted(self.outcomes.items())},
            "tenant_service_v": dict(sorted(
                self.tenant_service_v.items())),
            "vtime": self.vtime,
            "config": self.config.to_dict(),
            "submitted": self.submitted,
            "rejected": self.rejected,
            "fusion_ratio": self.fusion_ratio,
            "fairness_index": self.fairness_index(),
            "latency_v": self.latency_percentiles(),
        }


class ServiceCore:
    """Deterministic multi-tenant front-end over one shared fabric.

    Parameters
    ----------
    world_size:
        Node count of the fabric the plan will execute on.
    params:
        :class:`~repro.core.params.MachineParams` for Selector pricing
        (the simulated machine's constants, or a calibrated runtime
        profile's).  ``None`` prices with the documented nominal
        constants — still deterministic, just not fitted.
    topology:
        Optional physical topology; mesh-aligned groups then price with
        mesh-aware candidates, exactly like ``algorithm="auto"``.
    config:
        :class:`ServiceConfig` policy knobs.
    """

    def __init__(self, world_size: int, params=None, topology=None,
                 config: Optional[ServiceConfig] = None):
        if world_size < 2:
            raise ValueError("service fabric needs at least 2 nodes")
        if topology is not None and topology.nnodes != world_size:
            raise ValueError(
                f"topology has {topology.nnodes} nodes, world_size is "
                f"{world_size}")
        self.world_size = world_size
        self.params = params
        self.topology = topology
        self.config = config or ServiceConfig()
        self.vnow = 0.0
        self.admission = AdmissionController(
            rate=self.config.admission_rate,
            burst=self.config.admission_burst,
            queue_cap=self.config.queue_cap)
        self.scheduler = DeficitRoundRobin(self._price_request,
                                           self.config.quantum_s)
        self.planner = FusionPlanner(
            price=self.price,
            threshold_bytes=self.config.fusion_threshold_bytes,
            max_fused=self.config.max_fused,
            enabled=self.config.fusion)
        self.sessions: List[Session] = []
        self.outcomes: Dict[str, RequestOutcome] = {}
        self.batches: List[PlannedBatch] = []
        self.tenant_service_v: Dict[str, float] = {}
        self._tenant_seq: Dict[str, int] = {}
        self.submitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    # pricing (shared by scheduler + fusion planner)
    # ------------------------------------------------------------------

    def price(self, op: str, group: Tuple[int, ...], nelems: int,
              itemsize: int) -> float:
        """Model service time of one collective (virtual seconds)."""
        p = len(group)
        if self.params is None:
            nbytes = nelems * itemsize
            return (2 * max(1, math.ceil(math.log2(p)))
                    * NOMINAL_ALPHA_S
                    + nbytes * NOMINAL_BETA_S_PER_BYTE)
        from ..core.groups import Group
        from ..core.selection import selector_for
        sel = selector_for(self.params, itemsize=itemsize)
        shape = (None if self.topology is None
                 else Group.of(self.topology, group).mesh_shape)
        return sel.best(op, p, nelems, mesh_shape=shape).cost

    def _price_request(self, req: CollectiveRequest) -> float:
        return self.price(req.op, req.group, req.payload.length,
                          req.payload.itemsize)

    @property
    def tick_interval(self) -> float:
        if self.config.tick_interval_v is not None:
            return self.config.tick_interval_v
        alpha = (self.params.alpha if self.params is not None
                 else NOMINAL_ALPHA_S)
        return 4.0 * alpha

    # ------------------------------------------------------------------
    # front door
    # ------------------------------------------------------------------

    def open_session(self, tenant: str,
                     group: Optional[Sequence[int]] = None) -> Session:
        """Register a tenant session over a node group.

        Local and deterministic; the executor later derives one
        communicator per session in ``sid`` order (fresh context id via
        the base-1024 escape scheme, so thousands of sessions coexist).
        """
        if group is None:
            group = range(self.world_size)
        group = tuple(int(n) for n in group)
        for n in group:
            if not 0 <= n < self.world_size:
                raise ValueError(f"session group node {n} outside "
                                 f"world of {self.world_size}")
        sess = Session(sid=len(self.sessions), tenant=tenant, group=group)
        self.sessions.append(sess)
        return sess

    def advance_to(self, t: float) -> None:
        """Move the virtual clock forward (never backward)."""
        if t > self.vnow:
            self.vnow = t

    def submit(self, session: Session, op: str, length: int,
               dtype: str = "float64", deadline_class: str = "batch",
               redop: str = "sum", root: int = 0,
               payload_seed: Optional[int] = None
               ) -> Tuple[str, Optional[Rejection]]:
        """Submit one collective request at the current virtual time.

        Returns ``(rid, None)`` on admission or ``(rid, Rejection)``
        when the request was turned away — either way the request gets
        a recorded outcome (never a silent drop).
        """
        seq = self._tenant_seq.get(session.tenant, 0)
        self._tenant_seq[session.tenant] = seq + 1
        rid = f"{session.tenant}/{seq}"
        if payload_seed is None:
            # crc32, not hash(): payload seeds must be stable across
            # processes and runs (PYTHONHASHSEED randomizes str hashes)
            import zlib
            payload_seed = zlib.crc32(rid.encode()) & 0x7FFFFFFF
        req = CollectiveRequest(
            rid=rid, tenant=session.tenant, sid=session.sid, op=op,
            group=session.group,
            payload=PayloadSpec(length=length, dtype=dtype,
                                seed=payload_seed),
            deadline_class=deadline_class, redop=redop, root=root,
            arrival_v=self.vnow, seq=seq)
        self.submitted += 1
        rejection = self.admission.admit(
            session.tenant, self.vnow,
            backlog=self.scheduler.backlog(session.tenant))
        if rejection is not None:
            self.rejected += 1
            self.outcomes[rid] = RequestOutcome(
                rid=rid, tenant=session.tenant, status="rejected",
                arrival_v=self.vnow, rejection=rejection)
            return rid, rejection
        self.scheduler.enqueue(req)
        self.outcomes[rid] = RequestOutcome(
            rid=rid, tenant=session.tenant, status="ok",
            arrival_v=self.vnow)
        return rid, None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def tick(self) -> List[PlannedBatch]:
        """One scheduling tick: DRR round, fusion plan, clock advance.

        Dispatched batches execute back-to-back on the shared fabric,
        so the virtual clock accumulates their priced costs in order;
        each member request completes at its batch's finish time.
        """
        dispatch = self.scheduler.round()
        if not dispatch:
            return []
        batches = self.planner.plan(dispatch)
        for batch in batches:
            self.vnow += batch.cost_v
            for tenant, share in batch.tenant_cost_shares().items():
                self.tenant_service_v[tenant] = \
                    self.tenant_service_v.get(tenant, 0.0) + share
            for req in batch.requests:
                out = self.outcomes[req.rid]
                out.completion_v = self.vnow
                out.batch = batch.bid
                out.fused = batch.fused
            self.batches.append(batch)
        return batches

    def drain(self, max_ticks: int = 1_000_000) -> None:
        """Tick until every admitted request has dispatched."""
        ticks = 0
        while self.scheduler.pending > 0:
            self.tick()
            ticks += 1
            if ticks > max_ticks:
                raise RuntimeError(
                    "service failed to drain its queues "
                    f"within {max_ticks} ticks (scheduler stuck?)")

    def plan(self) -> ServicePlan:
        """Freeze the executable schedule (call after draining)."""
        if self.scheduler.pending > 0:
            raise RuntimeError(
                f"{self.scheduler.pending} request(s) still queued; "
                "drain() before planning")
        return ServicePlan(
            world_size=self.world_size,
            sessions=tuple(self.sessions),
            batches=tuple(self.batches),
            outcomes=self.outcomes,
            tenant_service_v=dict(self.tenant_service_v),
            vtime=self.vnow,
            config=self.config,
            submitted=self.submitted,
            rejected=self.rejected)
