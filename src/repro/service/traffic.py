"""Deterministic closed-loop traffic generation for the service.

A :class:`WorkloadSpec` describes a seeded multi-tenant workload;
:func:`run_workload` drives a :class:`~repro.service.core.ServiceCore`
with it on the virtual timeline:

* every tenant's request stream (ops, sizes, dtypes, think-time gaps,
  deadline classes) is drawn from a private ``random.Random`` seeded
  from ``(workload seed, tenant)`` — the global RNG state is never
  touched, and the same seed reproduces the same traffic everywhere;
* arrivals are **closed-loop**: each tenant keeps at most ``window``
  requests outstanding, so request ``i`` cannot be submitted before
  request ``i - window`` completed (on the virtual clock) — the
  service's own latency throttles its offered load, like real clients
  waiting on responses;
* the service ticks on fixed virtual windows
  (``core.tick_interval``): arrivals inside a window accumulate in the
  tenant queues, then one scheduling tick dispatches them — this is
  the batching horizon that gives the fusion planner concurrent small
  requests to combine.

Three canonical workloads (the benchmark grid and the chaos tests use
these): :func:`storm_spec` — the small-allreduce storm where fusion is
the headline win; :func:`mixed_spec` — mixed sizes/ops/dtypes across
full-fabric and subgroup sessions; :func:`bursty_spec` — long idle
gaps then tight bursts, against a rate-limiting admission policy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .core import ServiceCore, ServicePlan
from .request import DEADLINE_CLASSES

#: op mix of the mixed workload (weights)
_MIXED_OPS = (("allreduce", 5), ("bcast", 3), ("reduce", 2),
              ("collect", 1), ("reduce_scatter", 1))


@dataclass(frozen=True)
class WorkloadSpec:
    """A seeded multi-tenant workload description (data only)."""

    name: str
    tenants: Tuple[str, ...]
    requests_per_tenant: int
    window: int = 8                  #: closed-loop outstanding cap
    ops: Tuple[Tuple[str, int], ...] = (("allreduce", 1),)
    min_elems: int = 1
    max_elems: int = 1
    dtypes: Tuple[str, ...] = ("float64",)
    #: mean think-time between a tenant's submissions, in units of the
    #: service tick interval (exponential draws)
    mean_gap_ticks: float = 0.25
    #: every ``burst_every``-th request starts a burst of
    #: ``burst_len`` near-zero-gap submissions (0 disables bursts)
    burst_every: int = 0
    burst_len: int = 0
    #: fraction of requests per deadline class, aligned with
    #: DEADLINE_CLASSES order (interactive, batch, bulk)
    class_mix: Tuple[float, float, float] = (0.2, 0.6, 0.2)
    #: fraction of tenants given an extra subgroup session (mixed
    #: workloads exercise concurrent groups on the shared fabric)
    subgroup_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.requests_per_tenant < 1:
            raise ValueError("requests_per_tenant must be positive")
        if self.window < 1:
            raise ValueError("window must be positive")
        if not self.tenants:
            raise ValueError("workload needs at least one tenant")
        if self.min_elems > self.max_elems:
            raise ValueError("min_elems > max_elems")

    @property
    def total_requests(self) -> int:
        return len(self.tenants) * self.requests_per_tenant

    def to_dict(self) -> dict:
        return {"name": self.name, "tenants": list(self.tenants),
                "requests_per_tenant": self.requests_per_tenant,
                "window": self.window,
                "min_elems": self.min_elems,
                "max_elems": self.max_elems,
                "dtypes": list(self.dtypes),
                "mean_gap_ticks": self.mean_gap_ticks,
                "burst_every": self.burst_every,
                "burst_len": self.burst_len}


def storm_spec(tenants: int = 4, requests: int = 60,
               window: int = 8) -> WorkloadSpec:
    """The small-message storm: every request an 8-byte allreduce.

    Alpha-dominated by construction — the workload the ROADMAP's
    message-combining argument is about, and the one the >=2x fused
    throughput gate runs on.
    """
    return WorkloadSpec(
        name="storm",
        tenants=tuple(f"t{i}" for i in range(tenants)),
        requests_per_tenant=requests, window=window,
        ops=(("allreduce", 1),), min_elems=1, max_elems=1,
        dtypes=("float64",), mean_gap_ticks=0.125,
        class_mix=(1.0, 0.0, 0.0))


def mixed_spec(tenants: int = 4, requests: int = 40,
               window: int = 6) -> WorkloadSpec:
    """Mixed sizes (8B..32KiB), ops, dtypes, and subgroup sessions."""
    return WorkloadSpec(
        name="mixed",
        tenants=tuple(f"t{i}" for i in range(tenants)),
        requests_per_tenant=requests, window=window,
        ops=_MIXED_OPS, min_elems=1, max_elems=4096,
        dtypes=("float64", "int64", "float32"),
        mean_gap_ticks=0.5, class_mix=(0.2, 0.6, 0.2),
        subgroup_fraction=0.5)


def bursty_spec(tenants: int = 3, requests: int = 45,
                window: int = 16) -> WorkloadSpec:
    """Idle-then-burst arrivals; pair with a rate-limited admission
    policy to exercise typed rejections under pressure."""
    return WorkloadSpec(
        name="bursty",
        tenants=tuple(f"t{i}" for i in range(tenants)),
        requests_per_tenant=requests, window=window,
        ops=(("allreduce", 3), ("bcast", 1)), min_elems=1, max_elems=16,
        dtypes=("float64",), mean_gap_ticks=2.0,
        burst_every=5, burst_len=4, class_mix=(0.5, 0.5, 0.0))


# ----------------------------------------------------------------------


@dataclass
class _TenantState:
    """One tenant's pre-drawn stream plus closed-loop bookkeeping."""

    tenant: str
    session_full: object
    session_sub: Optional[object]
    stream: List[Tuple]              #: (gap_v, op, elems, dtype, cls, sub)
    next_i: int = 0
    last_submit_v: float = 0.0
    rids: List[str] = field(default_factory=list)

    def done(self) -> bool:
        return self.next_i >= len(self.stream)


def _draw_stream(rng: random.Random, spec: WorkloadSpec,
                 tick_v: float) -> List[Tuple]:
    ops, op_weights = zip(*spec.ops)
    classes = DEADLINE_CLASSES
    out: List[Tuple] = []
    for i in range(spec.requests_per_tenant):
        bursting = (spec.burst_every > 0 and spec.burst_len > 0
                    and i % spec.burst_every != 0
                    and (i % spec.burst_every) < spec.burst_len)
        if i == 0:
            gap = rng.expovariate(1.0) * spec.mean_gap_ticks * tick_v
        elif bursting:
            gap = 0.01 * tick_v
        else:
            gap = rng.expovariate(1.0) * spec.mean_gap_ticks * tick_v
        op = rng.choices(ops, weights=op_weights)[0]
        if spec.min_elems == spec.max_elems:
            elems = spec.min_elems
        else:
            # log-uniform: real collective traffic is heavy on small
            # messages, and the fusion threshold lives at the low end
            lo, hi = math.log(spec.min_elems), math.log(spec.max_elems + 1)
            elems = min(spec.max_elems,
                        int(math.exp(rng.uniform(lo, hi))))
        dtype = rng.choice(spec.dtypes)
        cls = rng.choices(classes, weights=spec.class_mix)[0]
        sub = rng.random() < 0.5  # meaningful only with a sub session
        out.append((gap, op, elems, dtype, cls, sub))
    return out


def _subgroup_for(rng: random.Random, world: int) -> Tuple[int, ...]:
    size = rng.randint(2, max(2, world - 1))
    return tuple(sorted(rng.sample(range(world), size)))


def run_workload(core: ServiceCore, spec: WorkloadSpec,
                 seed: int = 0) -> ServicePlan:
    """Drive ``core`` with the seeded closed-loop workload; return the
    drained, frozen :class:`~repro.service.core.ServicePlan`.

    Deterministic end to end: private RNGs, virtual-clock arrivals,
    fixed tie-breaking (tenants in spec order).
    """
    tick_v = core.tick_interval
    states: List[_TenantState] = []
    for t in spec.tenants:
        rng = random.Random(f"{seed}/{spec.name}/{t}")
        sess_full = core.open_session(t)
        sess_sub = None
        if spec.subgroup_fraction > 0 and \
                rng.random() < spec.subgroup_fraction and \
                core.world_size > 2:
            sess_sub = core.open_session(
                t, _subgroup_for(rng, core.world_size))
        states.append(_TenantState(
            tenant=t, session_full=sess_full, session_sub=sess_sub,
            stream=_draw_stream(rng, spec, tick_v)))

    def ready_time(st: _TenantState) -> Optional[float]:
        """When this tenant may submit its next request, or None."""
        if st.done():
            return None
        gap = st.stream[st.next_i][0]
        t = st.last_submit_v + gap if st.next_i > 0 else gap
        if st.next_i >= spec.window:
            # closed loop: wait for the (i - window)-th *admitted*
            # request to complete; rejected requests don't occupy a
            # window slot (the client got an immediate answer)
            blocker = st.rids[st.next_i - spec.window]
            out = core.outcomes[blocker]
            if out.status == "ok" and math.isnan(out.completion_v):
                return None        # still in flight: window closed
            if not math.isnan(out.completion_v):
                t = max(t, out.completion_v)
        return t

    total = spec.total_requests
    submitted = 0
    guard = 0
    while submitted < total or core.scheduler.pending > 0:
        window_end = core.vnow + tick_v
        # admit everything that becomes ready inside this window, in
        # ready-time order (spec order breaks ties deterministically)
        while True:
            best = None
            for st in states:
                t = ready_time(st)
                if t is not None and t <= window_end and \
                        (best is None or t < best[0]):
                    best = (t, st)
            if best is None:
                break
            t, st = best
            core.advance_to(t)
            gap, op, elems, dtype, cls, sub = st.stream[st.next_i]
            session = (st.session_sub
                       if sub and st.session_sub is not None
                       else st.session_full)
            rid, _ = core.submit(session, op, elems, dtype=dtype,
                                 deadline_class=cls)
            st.rids.append(rid)
            st.next_i += 1
            st.last_submit_v = core.vnow
            submitted += 1
        core.advance_to(window_end)
        core.tick()
        guard += 1
        if guard > 100 * total + 1000:
            raise RuntimeError(
                f"traffic loop failed to converge for {spec.name!r} "
                f"({submitted}/{total} submitted)")
    core.drain()
    return core.plan()
