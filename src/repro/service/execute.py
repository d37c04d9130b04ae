"""Execute a frozen :class:`~repro.service.core.ServicePlan` on a
machine, and assemble the :class:`ServiceReport`.

The executor is one SPMD generator program run over either backend
(:class:`repro.sim.Machine` or :class:`repro.runtime.ProcessMachine` —
both expose ``.run(program, *args)``).  Every rank walks the same plan:

* first it derives one communicator per **session** in sid order, then
  one per **batch** in bid order — identical derivation sequence on
  every rank, so the context-id machinery hands out matching tags
  without communication (the base-1024 escape scheme absorbs thousands
  of derivations);
* singleton batches execute on their request's session communicator;
  fused batches cross sessions, so each executes on its own derived
  communicator — concurrent tenants never share a tag space;
* fused batches concatenate the member payloads, run **one** collective
  via the public ``algorithm="auto"`` API, and scatter the result
  slices back per request.

Fault containment (docs/service.md): each rank records every completed
batch into a ``sink`` as it goes.  On the simulator the sink is a
plain in-process list that survives a mid-run
:class:`~repro.core.faults.FaultDiagnosis` — requests whose batch fully
completed on every member rank keep their results, everything at or
after the fault is **dead-lettered with the typed diagnosis attached**.
Never a silent drop: every submitted request ends ``ok``, ``rejected``,
or ``dead-letter``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.faults import FaultDiagnosis
from ..runtime.launch import RankError, RuntimeHangDiagnosis
from ..sim.engine import DeadlockError
from ..sim.machine import Machine as _SimMachine
from .core import ServicePlan, jain_index
from .request import RequestOutcome
from .traffic import WorkloadSpec, run_workload


#: the typed run errors a plan execution turns into dead-letters
_RUN_ERRORS = (FaultDiagnosis, RankError, RuntimeHangDiagnosis,
               DeadlockError)


def _service_program(env, plan: ServicePlan, sink: Optional[list] = None):
    """The SPMD rank program: execute every batch of the plan in order.

    Returns this rank's ``{rid: payload-or-None}`` plus its measured
    execution window (``t0``/``t1`` on the env clock — simulated
    seconds on the simulator, wall seconds on the process backend).
    """
    from ..core import api
    from ..core.communicator import Communicator

    world = Communicator.world(env)
    # sessions first, in sid order: stable context-id allocation
    session_comms = {s.sid: world.incl(s.group) for s in plan.sessions}
    # a rank-0-rooted zero-byte barrier puts every rank inside the
    # measured window before the first batch posts traffic
    yield from world.barrier()
    t0 = env.now
    mine: Dict[str, Any] = {}

    for batch in plan.batches:
        if batch.fused:
            comm = world.incl(batch.group)
        else:
            comm = session_comms[batch.requests[0].sid]
        if comm.rank is None:
            if sink is not None:
                sink.append((env.rank, batch.bid, {}))
            continue
        me = comm.rank
        span = comm.ctx.span_open(
            f"service.batch{batch.bid}", phase="service",
            bid=batch.bid, op=batch.op, fused=batch.fused,
            requests=len(batch.requests),
            tenants=",".join(batch.tenants), nbytes=batch.nbytes)
        results = yield from _run_batch(api, comm, batch, me)
        comm.ctx.span_close(span)
        mine.update(results)
        if sink is not None:
            sink.append((env.rank, batch.bid, dict(results)))

    t1 = env.now
    return {"results": mine, "t0": t0, "t1": t1}


def _run_batch(api, comm, batch, me):
    """Execute one batch on its communicator; yield from collectives."""
    out: Dict[str, Any] = {}
    op = batch.op
    dtype = np.dtype(batch.dtype)

    if op == "bcast":
        total = batch.total_elems
        if me == batch.root:
            buf = np.concatenate([r.payload.materialize(batch.root)
                                  for r in batch.requests])
        else:
            buf = None
        got = yield from comm.bcast(buf, root=batch.root, total=total)
        # the api's dtype contract defaults to float64 pricing; result
        # values are the root's buffer regardless, slice them back
        for r, (off, ln) in zip(batch.requests, batch.slices):
            out[r.rid] = np.array(got[off:off + ln], dtype=dtype,
                                  copy=True)
        return out

    if op in ("allreduce", "reduce"):
        vec = np.concatenate([r.payload.materialize(me)
                              for r in batch.requests])
        if op == "allreduce":
            got = yield from comm.allreduce(vec, op=batch.redop)
        else:
            got = yield from comm.reduce(vec, op=batch.redop,
                                         root=batch.root)
        for r, (off, ln) in zip(batch.requests, batch.slices):
            out[r.rid] = (None if got is None
                          else np.array(got[off:off + ln], copy=True))
        return out

    # collect / reduce_scatter never fuse (block structure); singleton
    req = batch.requests[0]
    vec = req.payload.materialize(me)
    if op == "collect":
        got = yield from comm.allgather(vec)
    else:
        got = yield from comm.reduce_scatter(vec, op=req.redop)
    out[req.rid] = got
    return out


@dataclass
class ServiceReport:
    """Everything one served workload produced (docs/service.md).

    ``outcomes`` are final (execution-adjusted); ``results`` maps
    ``rid -> {rank: payload}`` for delivered requests; latency
    percentiles live on the virtual timeline, throughput on the
    measured one (``elapsed_s`` = max over ranks of the in-program
    execution window, so process-spawn and rendezvous overheads are
    excluded on both backends alike).
    """

    backend: str
    plan: ServicePlan
    outcomes: Dict[str, RequestOutcome]
    results: Dict[str, Dict[int, Any]]
    elapsed_s: float
    diagnosis: Optional[dict] = None     #: typed fault payload, if any
    measured_tenant_shares: Optional[Dict[str, float]] = None

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "ok")

    @property
    def dead_letters(self) -> int:
        return sum(1 for o in self.outcomes.values()
                   if o.status == "dead-letter")

    @property
    def rejected(self) -> int:
        return sum(1 for o in self.outcomes.values()
                   if o.status == "rejected")

    @property
    def requests_per_s(self) -> float:
        if self.elapsed_s <= 0:
            return math.nan
        return self.completed / self.elapsed_s

    def accounted(self) -> bool:
        """The zero-silent-drop invariant: every submission has a
        terminal outcome."""
        return (len(self.outcomes) == self.plan.submitted
                and all(o.status in ("ok", "rejected", "dead-letter")
                        for o in self.outcomes.values()))

    def fairness_index(self) -> float:
        shares = (self.measured_tenant_shares
                  or self.plan.tenant_service_v)
        return jain_index(list(shares.values()))

    def to_dict(self) -> dict:
        d = {
            "backend": self.backend,
            "submitted": self.plan.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "dead_letters": self.dead_letters,
            "elapsed_s": self.elapsed_s,
            "requests_per_s": self.requests_per_s,
            "fusion_ratio": self.plan.fusion_ratio,
            "batches": len(self.plan.batches),
            "fused_batches": sum(1 for b in self.plan.batches if b.fused),
            "latency_v": self.plan.latency_percentiles(),
            "tenant_shares": self.plan.tenant_shares(),
            "fairness_index": self.fairness_index(),
            "accounted": self.accounted(),
        }
        if self.measured_tenant_shares is not None:
            d["measured_tenant_shares"] = self.measured_tenant_shares
        if self.diagnosis is not None:
            d["diagnosis"] = self.diagnosis
        return d


def _merge_results(plan: ServicePlan, per_rank: List[Any]
                   ) -> Tuple[Dict[str, Dict[int, Any]], float]:
    results: Dict[str, Dict[int, Any]] = {}
    elapsed = 0.0
    for rank, payload in enumerate(per_rank):
        if payload is None:
            continue
        elapsed = max(elapsed, payload["t1"] - payload["t0"])
        for rid, value in payload["results"].items():
            results.setdefault(rid, {})[rank] = value
    return results, elapsed


def _sink_results(plan: ServicePlan, sink: list
                  ) -> Tuple[Dict[str, Dict[int, Any]], set]:
    """Delivered results from the fault-containment sink.

    A batch counts as delivered only when **every** member rank
    recorded it; partially-executed batches dead-letter whole.
    """
    seen: Dict[int, Dict[int, Dict[str, Any]]] = {}
    for rank, bid, res in sink:
        seen.setdefault(bid, {})[rank] = res
    members = {b.bid: set(b.group) for b in plan.batches}
    world = set(range(plan.world_size))
    delivered = set()
    results: Dict[str, Dict[int, Any]] = {}
    for b in plan.batches:
        ranks_done = set(seen.get(b.bid, ()))
        # every world rank walks every batch (members execute,
        # non-members record an empty marker), so delivery requires
        # the full world to have passed the batch
        if not world <= ranks_done:
            continue
        delivered.add(b.bid)
        for rank in members[b.bid]:
            for rid, value in seen[b.bid][rank].items():
                results.setdefault(rid, {})[rank] = value
    return results, delivered


def _measured_shares(plan: ServicePlan, trace) -> Optional[Dict[str, float]]:
    """Per-tenant shares of *measured* batch service time, from the
    ``service``-phase spans the executor opened (None without spans)."""
    spans = getattr(trace, "spans", None)
    if not spans:
        return None
    windows: Dict[int, Tuple[float, float]] = {}
    for s in spans:
        if getattr(s, "phase", "") != "service":
            continue
        attrs = getattr(s, "attrs", None) or {}
        bid = attrs.get("bid")
        if bid is None or not getattr(s, "closed", True):
            continue
        bid = int(bid)
        lo, hi = windows.get(bid, (math.inf, -math.inf))
        windows[bid] = (min(lo, s.t_start), max(hi, s.t_end))
    if not windows:
        return None
    shares: Dict[str, float] = {}
    for b in plan.batches:
        w = windows.get(b.bid)
        if w is None:
            continue
        measured = max(0.0, w[1] - w[0])
        priced = b.tenant_cost_shares()
        total = sum(priced.values())
        for tenant, part in priced.items():
            frac = part / total if total > 0 else 1.0 / len(priced)
            shares[tenant] = shares.get(tenant, 0.0) + measured * frac
    return shares or None


def execute_plan(machine, plan: ServicePlan, *,
                 trace: Optional[bool] = None) -> ServiceReport:
    """Run the plan's batches over ``machine`` and finalize outcomes.

    ``machine`` is a :class:`repro.sim.Machine` or
    :class:`repro.runtime.ProcessMachine`; its node count must match
    the plan's fabric.  On a simulated machine with a fault schedule,
    a mid-run :class:`~repro.core.faults.FaultDiagnosis` is caught and
    converted into per-request dead-letters (typed, never silent).
    """
    nnodes = machine.nnodes
    if nnodes != plan.world_size:
        raise ValueError(
            f"plan was built for a {plan.world_size}-node fabric but "
            f"the machine has {nnodes} nodes")
    backend = type(machine).__name__
    # per-run copies: executing the same plan twice (fused-vs-unfused
    # oracles, chaos-vs-clean) must not cross-contaminate outcomes
    outcomes = {rid: copy.copy(o) for rid, o in plan.outcomes.items()}
    kwargs = {} if trace is None else {"trace": trace}

    is_sim = isinstance(machine, _SimMachine)
    sink: Optional[list] = [] if is_sim else None

    diagnosis = None
    run = None
    try:
        run = machine.run(_service_program, plan, sink, **kwargs)
    except _RUN_ERRORS as exc:
        diagnosis = {"type": type(exc).__name__}
        to_dict = getattr(exc, "to_dict", None)
        if callable(to_dict):
            diagnosis.update(to_dict())
        else:
            diagnosis["message"] = str(exc)

    if run is not None:
        results, elapsed = _merge_results(plan, run.results)
        delivered = {b.bid for b in plan.batches}
        measured = _measured_shares(plan, getattr(run, "trace", None))
    else:
        elapsed = math.nan
        measured = None
        if sink is not None:
            results, delivered = _sink_results(plan, sink)
        else:
            results, delivered = {}, set()

    for rid, out in outcomes.items():
        if out.status != "ok":
            continue
        if out.batch is None or out.batch not in delivered:
            out.status = "dead-letter"
            out.completion_v = math.nan

    return ServiceReport(
        backend=backend, plan=plan, outcomes=outcomes,
        results=results, elapsed_s=elapsed, diagnosis=diagnosis,
        measured_tenant_shares=measured)


def serve_workload(machine, spec: WorkloadSpec, *, seed: int = 0,
                   config=None, params=None, topology=None,
                   trace: Optional[bool] = None) -> ServiceReport:
    """Plan the seeded workload for ``machine`` and execute it.

    ``params``/``topology`` default to the machine's own (so the core
    prices with exactly the constants the fabric runs under —
    calibrated profiles included on the process backend).
    """
    from .core import ServiceCore
    if params is None:
        params = getattr(machine, "params", None)
    if topology is None:
        topology = getattr(machine, "topology", None)
    core = ServiceCore(machine.nnodes, params=params, topology=topology,
                       config=config)
    plan = run_workload(core, spec, seed=seed)
    return execute_plan(machine, plan, trace=trace)
