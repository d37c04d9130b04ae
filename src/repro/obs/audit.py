"""Model-audit observatory: every prediction the library relies on,
observable and machine-checked.

The section 6 heuristic ("effective heuristics rather than theoretically
optimal methods") stands on two claims that the rest of the codebase
asserts but — before this module — never measured:

1. the alpha/beta/gamma cost model predicts simulated time well enough
   for the :class:`~repro.core.selection.Selector` to pick the cheapest
   strategy, and
2. every building block is conflict-free on an aligned machine
   (sections 3-4), which is what licenses pricing the blocks without
   bold conflict factors.

This module closes the loop, in the spirit of Barchet-Estefanel &
Mounié's validation of analytic collective models against measurement:

* :func:`audit_run` reads the prediction records that
  ``algorithm="auto"`` dispatch captures on the op spans of a traced run
  (see :func:`repro.core.api.resolve_strategy`) and pairs each with the
  *measured* simulated time, the predicted/measured ratio, a per-term
  decomposition of the prediction (alpha/beta/gamma/overhead, from
  :meth:`~repro.core.costmodel.CostModel.terms`)
  and the measured critical-path split (alpha/beta/wait, reusing
  :mod:`repro.analysis.critpath`).  Exposed as ``RunResult.audit``.
* :func:`verify_building_blocks` runs the four conflict-free building
  blocks (MST bcast/combine, MST scatter/gather, bucket collect, bucket
  reduce-scatter) under channel metrics and turns Table 2's
  "conflict-free on an aligned mesh" prose into a checked invariant: a
  structured :class:`ConflictVerdict` per block, listing any contended
  channel together with the flows that shared it.  Each block runs the
  shared case program of :mod:`repro.chaos.oracles` for the ``(op,
  algorithm)`` cases that exercise it, and every run's payloads are
  checked against the Table 1 oracle — a fast, conflict-free but wrong
  block is not ``ok``.
* :func:`fit_drift` refits alpha/beta from measured message records
  (reusing :func:`repro.analysis.calibrate.fit_alpha_beta`) and reports
  the divergence from the configured
  :class:`~repro.core.params.MachineParams` — stale or mis-entered
  constants show up as drift instead of silently skewing every
  selection.

Everything here is strictly passive: audits read traces and metrics
after the fact, never touch simulated state, and the golden-equivalence
corpus is bit-identical with auditing enabled (CI enforces this).
The selection-regret *sweep* built on top of these pieces lives in
:mod:`repro.analysis.audit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .trace import MessageRecord, Tracer

#: tolerance for assigning a message to an op span's time window
_WINDOW_RTOL = 1e-9


# ----------------------------------------------------------------------
# prediction capture readback (tentpole part 1)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OpAudit:
    """Predicted vs measured accounting of one collective in a run.

    ``predicted`` is the Selector's :attr:`Choice.cost` captured at
    dispatch (None for explicit-algorithm collectives, which carry no
    prediction); ``measured`` is the simulated wall time of the
    collective across all participating ranks (max exit - min entry of
    the op spans).  ``predicted_terms`` decomposes the prediction into
    its alpha/beta/gamma/overhead parts; ``critical_path`` carries the
    *measured* alpha/beta/wait attribution of the longest dependency
    chain inside the collective's window.
    """

    index: int                          #: position in the rank program
    operation: str                      #: op span label (bcast, ...)
    strategy: Optional[str]             #: resolved strategy, as printed
    n: Optional[int]                    #: vector length in elements
    ranks: int                          #: participating ranks
    t_start: float
    t_end: float
    measured: float                     #: max t_end - min t_start
    predicted: Optional[float]          #: Choice.cost, if auto-dispatched
    ratio: Optional[float]              #: predicted / measured
    predicted_conflicts: Optional[Tuple[float, ...]]
    predicted_terms: Optional[Dict[str, float]]
    critical_path: Optional[Dict[str, float]]
    candidates: Optional[Tuple[Tuple[str, float], ...]]
    selector_bucket: Optional[int]
    selector_itemsize: Optional[int]
    selector_mesh_shape: Optional[Tuple[int, int]]

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "operation": self.operation,
            "strategy": self.strategy,
            "n": self.n,
            "ranks": self.ranks,
            "measured": self.measured,
            "predicted": self.predicted,
            "ratio": self.ratio,
            "predicted_conflicts": list(self.predicted_conflicts)
            if self.predicted_conflicts is not None else None,
            "predicted_terms": self.predicted_terms,
            "critical_path": self.critical_path,
            "candidates": [list(c) for c in self.candidates]
            if self.candidates is not None else None,
            "selector_bucket": self.selector_bucket,
            "selector_mesh_shape": list(self.selector_mesh_shape)
            if self.selector_mesh_shape is not None else None,
        }


@dataclass(frozen=True)
class RunAudit:
    """All :class:`OpAudit` entries of one traced run, program order."""

    entries: Tuple[OpAudit, ...]
    time: float                         #: the run's elapsed simulated time

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def predicted_entries(self) -> List[OpAudit]:
        """Only the collectives that carry a captured prediction."""
        return [e for e in self.entries if e.predicted is not None]

    def ratios(self) -> List[float]:
        return [e.ratio for e in self.predicted_entries()
                if e.ratio is not None]

    def render(self) -> str:
        """Human-readable predicted-vs-measured table."""
        if not self.entries:
            return "(no op spans; run collectives with trace=True)"
        lines = []
        for e in self.entries:
            pred = f"{e.predicted:g}" if e.predicted is not None else "-"
            ratio = f"{e.ratio:.3f}" if e.ratio is not None else "-"
            lines.append(
                f"op {e.index}: {e.operation} {e.strategy or '?'} "
                f"n={e.n} measured={e.measured:g} predicted={pred} "
                f"ratio={ratio}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {"time": self.time,
                "entries": [e.to_json() for e in self.entries]}


def _shift(m: MessageRecord, t0: float) -> MessageRecord:
    """Copy of a message record rebased to a window origin ``t0``.

    Critical-path extraction measures wait from time zero, so windowed
    sub-traces must be rebased or everything before the window would be
    misattributed as wait on the first hop.
    """
    return MessageRecord(
        src=m.src, dst=m.dst, tag=m.tag, nbytes=m.nbytes,
        t_send_post=m.t_send_post - t0, t_recv_post=m.t_recv_post - t0,
        t_match=m.t_match - t0, t_complete=m.t_complete - t0)


def _span_groups(trace) -> List[List]:
    """Group op spans into per-collective sets by occurrence index.

    SPMD rank programs execute the same sequence of collectives, so the
    k-th op span of every rank belongs to collective k.  (Programs where
    ranks run *different* collective sequences — disjoint groups doing
    different work — would need window-based matching; the audit layer
    targets the uniform case.)
    """
    per_rank: Dict[int, List] = {}
    for s in trace.op_spans():
        per_rank.setdefault(s.rank, []).append(s)
    if not per_rank:
        return []
    depth = max(len(v) for v in per_rank.values())
    return [[spans[k] for spans in per_rank.values() if k < len(spans)]
            for k in range(depth)]


def audit_run(run) -> RunAudit:
    """Build the :class:`RunAudit` of a traced run (``RunResult.audit``).

    Pure readback: walks the op spans, pairs captured predictions with
    measured span windows, and attributes the critical path inside each
    window.  ``run.params`` (recorded by :class:`~repro.sim.machine
    .Machine`) supplies alpha for the critical-path attribution and the
    constants for the per-term prediction split.
    """
    from ..analysis.critpath import critical_path, critical_path_summary
    from ..core.costmodel import CostModel
    from ..core.strategy import Strategy

    trace = run.trace
    if trace is None:
        raise ValueError("audit_run needs a traced run (trace=True)")
    params = run.params
    completed = trace.completed()
    entries: List[OpAudit] = []
    for k, group in enumerate(_span_groups(trace)):
        t0 = min(s.t_start for s in group)
        t1 = max(s.t_end for s in group)
        attrs: Dict[str, object] = {}
        for s in group:
            if s.attrs:
                attrs = dict(s.attrs)
                if "predicted_cost" in attrs:
                    break
        predicted = attrs.get("predicted_cost")
        conflicts = attrs.get("predicted_conflicts")
        strategy_s = attrs.get("strategy")
        n = attrs.get("n")
        operation = group[0].label

        tol = _WINDOW_RTOL * max(1.0, abs(t1))
        window = Tracer()
        window.messages = [_shift(m, t0) for m in completed
                           if m.t_match >= t0 - tol
                           and m.t_complete <= t1 + tol]
        cp_summary = None
        if window.messages:
            alpha = params.alpha if params is not None else 0.0
            cp_summary = critical_path_summary(
                critical_path(window, alpha=alpha))

        terms = None
        if (predicted is not None and params is not None
                and strategy_s and n is not None):
            try:
                terms = CostModel(
                    params, int(attrs.get("selector_itemsize", 8))).terms(
                    operation, Strategy.parse(strategy_s), n,
                    conflicts=conflicts)
            except (KeyError, ValueError):
                terms = None          # non-model op label or odd strategy

        measured = t1 - t0
        ratio = None
        if predicted is not None and measured > 0:
            ratio = predicted / measured
        entries.append(OpAudit(
            index=k,
            operation=operation,
            strategy=strategy_s,
            n=n,
            ranks=len(group),
            t_start=t0,
            t_end=t1,
            measured=measured,
            predicted=predicted,
            ratio=ratio,
            predicted_conflicts=conflicts,
            predicted_terms=terms,
            critical_path=cp_summary,
            candidates=attrs.get("selector_candidates"),
            selector_bucket=attrs.get("selector_bucket"),
            selector_itemsize=attrs.get("selector_itemsize"),
            selector_mesh_shape=attrs.get("selector_mesh_shape"),
        ))
    return RunAudit(entries=tuple(entries), time=run.time)


# ----------------------------------------------------------------------
# conflict-freedom verifier (tentpole part 3)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FlowShare:
    """One message that crossed a contended channel."""

    src: int
    dst: int
    tag: int
    nbytes: float
    t_start: float              #: rendezvous (flow admission)
    t_end: float                #: completion

    def to_json(self) -> Dict[str, object]:
        return {"src": self.src, "dst": self.dst, "tag": self.tag,
                "nbytes": self.nbytes,
                "t_start": self.t_start, "t_end": self.t_end}


@dataclass(frozen=True)
class ChannelShare:
    """One channel that carried more than one simultaneous flow."""

    channel: Tuple              #: ("ch", u, v)
    max_concurrent: int
    sharing_factor: float
    busy_time: float
    flows: Tuple[FlowShare, ...]

    def to_json(self) -> Dict[str, object]:
        return {"channel": list(self.channel),
                "max_concurrent": self.max_concurrent,
                "sharing_factor": self.sharing_factor,
                "busy_time": self.busy_time,
                "flows": [f.to_json() for f in self.flows]}


@dataclass(frozen=True)
class ConflictVerdict:
    """Structured verdict of one building block's conflict-freedom."""

    block: str                  #: building-block name
    p: int                      #: group size exercised
    topology: str               #: machine/topology description
    ok: bool                    #: no channel sharing, no wrong payload
    contended: Tuple[ChannelShare, ...]
    messages: int               #: messages the verification run carried
    #: physical ranks whose payload violated the oracle
    wrong_ranks: Tuple[int, ...] = ()

    def to_json(self) -> Dict[str, object]:
        out = {"block": self.block, "p": self.p,
               "topology": self.topology, "ok": self.ok,
               "messages": self.messages,
               "contended": [c.to_json() for c in self.contended]}
        if self.wrong_ranks:
            out["wrong_ranks"] = list(self.wrong_ranks)
        return out

    def __str__(self) -> str:
        problems = []
        if self.contended:
            problems.append(
                f"CONTENDED on {len(self.contended)} channel(s)")
        if self.wrong_ranks:
            problems.append(
                f"WRONG payloads on ranks {list(self.wrong_ranks)}")
        state = "; ".join(problems) or "conflict-free"
        return (f"{self.block} p={self.p} on {self.topology}: {state} "
                f"({self.messages} messages)")


def contended_channels(run, topology) -> List[ChannelShare]:
    """Channels of a metered run that carried simultaneous flows.

    Reads ``run.channel_metrics`` (the run must have been executed with
    ``metrics=True``); when the run was also traced, each contended
    channel lists the flows that shared it — the messages whose
    wormhole route crosses the channel and whose transfer intervals
    overlap another such message.
    """
    stats = run.channel_metrics
    if stats is None:
        raise ValueError(
            "conflict verification needs a metered run (metrics=True)")
    out: List[ChannelShare] = []
    for res, st in sorted(stats.items()):
        if res[0] != "ch" or st.max_concurrent <= 1:
            continue
        flows: List[FlowShare] = []
        if run.trace is not None:
            u, v = res[1], res[2]
            crossing = [m for m in run.trace.completed()
                        if (u, v) in topology.route(m.src, m.dst)]
            for m in crossing:
                if any(o is not m and m.t_match < o.t_complete
                       and o.t_match < m.t_complete for o in crossing):
                    flows.append(FlowShare(
                        src=m.src, dst=m.dst, tag=m.tag, nbytes=m.nbytes,
                        t_start=m.t_match, t_end=m.t_complete))
        out.append(ChannelShare(
            channel=res,
            max_concurrent=st.max_concurrent,
            sharing_factor=st.sharing_factor,
            busy_time=st.busy_time,
            flows=tuple(sorted(flows,
                               key=lambda f: (f.t_start, f.src, f.dst))),
        ))
    return out


#: the four conflict-free building blocks of sections 3-4, each mapped
#: to the ``(op, algorithm)`` cases of :func:`repro.chaos.oracles
#: .make_program` that exercise it (a block and its mirror share the
#: verdict).  On one dimension ``"short"`` is the pure MST and ``"long"``
#: the pure bucket algorithm; scatter/gather are MST-only.
BUILDING_BLOCKS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "mst_bcast_combine": (("bcast", "short"), ("reduce", "short")),
    "mst_scatter_gather": (("scatter", "short"), ("gather", "short")),
    "bucket_collect": (("collect", "long"),),
    "bucket_reduce_scatter": (("reduce_scatter", "long"),),
}


def run_block_primitive(case, algorithm, params=None):
    """Run a collective case's shared program (:func:`repro.chaos
    .oracles.make_program`) metered + traced on ``case.topology()``;
    returns the :class:`~repro.sim.machine.RunResult`."""
    from ..chaos.oracles import make_program
    from ..core.params import UNIT
    from ..sim.machine import Machine
    machine = Machine(case.topology(),
                      params if params is not None else UNIT)
    return machine.run(make_program(case, algorithm), trace=True,
                       metrics=True)


def verify_building_blocks(topo, params=None, n: int = 240, group=None
                           ) -> Dict[str, ConflictVerdict]:
    """Check all four building blocks for zero channel sharing and
    correct payloads.

    ``topo`` is a topology description such as ``("linear", 7)`` — the
    paper's aligned case — or ``("mesh", 4, 5)`` plus a row/column/
    submesh ``group`` for the mesh-aligned claim.  Every case of
    :data:`BUILDING_BLOCKS` runs on its own machine and is checked
    against :func:`repro.chaos.oracles.expected_results`; a block is
    ``ok`` only if all its runs are conflict-free and correct.
    """
    from ..chaos.generator import ChaosCase, build_topology
    from ..chaos.oracles import mismatched_ranks
    topology = build_topology(topo)
    verdicts: Dict[str, ConflictVerdict] = {}
    for block, cases in BUILDING_BLOCKS.items():
        contended: List[ChannelShare] = []
        wrong = set()
        messages = 0
        for op, algorithm in cases:
            case = ChaosCase(topo=topo, params="", op=op, n=n,
                             dtype="float64", group=group, profile="none")
            run = run_block_primitive(case, algorithm, params)
            messages += run.messages
            contended.extend(contended_channels(run, topology))
            wrong.update(mismatched_ranks(case, run.results))
        verdicts[block] = ConflictVerdict(
            block=block, p=len(case.members()), topology=repr(topology),
            ok=not contended and not wrong, contended=tuple(contended),
            messages=messages, wrong_ranks=tuple(sorted(wrong)))
    return verdicts


# ----------------------------------------------------------------------
# drift detection (tentpole part 4)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DriftReport:
    """Fitted vs configured alpha/beta of a machine.

    ``alpha_rel_err`` / ``beta_rel_err`` are signed relative errors
    ``(fit - configured) / configured`` (NaN when the configured value
    is zero and the fit is not).  Near-zero drift on conflict-free
    traffic means the configured :class:`MachineParams` describe the
    machine the Selector is actually pricing for; large drift flags
    stale constants (or conflicted samples).
    """

    alpha_fit: float
    beta_fit: float
    alpha_configured: float
    beta_configured: float
    alpha_rel_err: float
    beta_rel_err: float
    samples: int

    @property
    def max_abs_rel_err(self) -> float:
        errs = [abs(e) for e in (self.alpha_rel_err, self.beta_rel_err)
                if not math.isnan(e)]
        return max(errs) if errs else math.nan

    def to_json(self) -> Dict[str, float]:
        def _clean(x: float) -> Optional[float]:
            return None if math.isnan(x) else x
        return {"alpha_fit": self.alpha_fit, "beta_fit": self.beta_fit,
                "alpha_configured": self.alpha_configured,
                "beta_configured": self.beta_configured,
                "alpha_rel_err": _clean(self.alpha_rel_err),
                "beta_rel_err": _clean(self.beta_rel_err),
                "samples": self.samples}


def _rel_err(fit: float, configured: float) -> float:
    """Signed ``(fit - configured) / configured``; NaN when only the
    configured value is zero."""
    if configured == 0:
        return 0.0 if fit == 0 else math.nan
    return (fit - configured) / configured


def fit_drift(messages, params) -> DriftReport:
    """Refit alpha/beta from measured message records.

    Each completed message's transfer time is ``alpha + nbytes*beta``
    when conflict-free (conflicts stretch the beta term — feed samples
    from verified conflict-free runs for a clean fit, or use the drift
    as a contention indicator).  Reuses the least-squares machinery of
    :func:`repro.analysis.calibrate.fit_alpha_beta`.
    """
    from ..analysis.calibrate import fit_alpha_beta
    samples = [(int(m.nbytes), m.t_complete - m.t_match)
               for m in messages
               if not (math.isnan(m.t_match) or math.isnan(m.t_complete))]
    if len({s[0] for s in samples}) < 2:
        raise ValueError(
            "drift fit needs messages of at least two distinct lengths")
    alpha, beta = fit_alpha_beta(samples)
    return DriftReport(
        alpha_fit=alpha, beta_fit=beta,
        alpha_configured=params.alpha, beta_configured=params.beta,
        alpha_rel_err=_rel_err(alpha, params.alpha),
        beta_rel_err=_rel_err(beta, params.beta),
        samples=len(samples))


def drift_from_runs(runs, params) -> DriftReport:
    """Pool the completed messages of several traced runs and fit."""
    messages = []
    for run in runs:
        if run.trace is not None:
            messages.extend(run.trace.completed())
    return fit_drift(messages, params)
