"""High-level facade: build a machine, run an SPMD program, get results.

Typical use::

    from repro.sim import Machine, Mesh2D, PARAGON

    machine = Machine(Mesh2D(16, 32), PARAGON)

    def program(env):
        ...  # yield env.send(...) / env.recv(...) etc.
        return env.rank

    run = machine.run(program)
    run.time      # elapsed simulated seconds
    run.results   # per-rank return values
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import ChannelStats, ResourceMetrics
from .engine import Engine, RankEnv
from ..core.faults import FaultReport, FaultSchedule
from ..core.params import MachineParams, UNIT
from ..core.topology import Topology
from ..obs.trace import Tracer


@dataclass
class RunResult:
    """Outcome of one simulated SPMD run."""

    time: float                 #: elapsed simulated time
    results: List[Any]          #: per-rank return values, rank order
    trace: Optional[Tracer]     #: message trace, if tracing was on
    messages: int               #: total point-to-point messages
    bytes_moved: float          #: total payload bytes carried by the net
    rate_recomputations: int    #: fluid-model bookkeeping (diagnostics)
    events: int = 0             #: discrete events processed by the engine
    flows: int = 0              #: flows carried by the fluid network
    #: (collector, resource table) when metrics were on; feeds the lazy
    #: :attr:`channel_metrics` aggregation
    metrics_source: Optional[Tuple[ResourceMetrics, Sequence[Tuple]]] = \
        field(default=None, repr=False, compare=False)
    _metrics_cache: Optional[Dict[Tuple, ChannelStats]] = \
        field(default=None, repr=False, compare=False)
    #: machine constants the run was simulated under; lets :attr:`audit`
    #: attribute time alpha/beta-style without the caller re-supplying them
    params: Optional[MachineParams] = \
        field(default=None, repr=False, compare=False)
    _audit_cache: Optional[object] = \
        field(default=None, repr=False, compare=False)
    #: what the fault layer injected (docs/robustness.md); None when the
    #: run had no fault schedule
    fault_report: Optional[FaultReport] = \
        field(default=None, repr=False, compare=False)

    @property
    def channel_metrics(self) -> Optional[Dict[Tuple, ChannelStats]]:
        """Per-resource utilization/contention stats keyed by resource
        tuple (``("inj", node)`` / ``("ch", u, v)`` / ``("ej", node)``),
        or None when the run was not metered.

        Aggregated lazily on first access: the metered run itself only
        logs flow membership events (< 5% wall-clock overhead), and the
        O(events x route) integration happens here, once.
        """
        if self.metrics_source is None:
            return None
        if self._metrics_cache is None:
            collector, resources = self.metrics_source
            self._metrics_cache = collector.snapshot(resources)
        return self._metrics_cache

    @property
    def audit(self):
        """Predicted-vs-measured audit of the run's collectives, or None
        when the run was not traced.

        A :class:`repro.obs.audit.RunAudit`: one entry per collective
        with the Selector's predicted cost (captured on the op span by
        ``algorithm="auto"`` dispatch), the measured simulated time, the
        predicted/measured ratio, per-term model attribution
        (alpha/beta/gamma/overhead) and the measured critical-path
        split.  Lazily computed and cached; strictly read-only over the
        trace.
        """
        if self.trace is None:
            return None
        if self._audit_cache is None:
            from ..obs.audit import audit_run
            self._audit_cache = audit_run(self)
        return self._audit_cache

    def result_of(self, rank: int) -> Any:
        return self.results[rank]


class Machine:
    """A simulated distributed-memory machine.

    Parameters
    ----------
    topology:
        Physical interconnect (:class:`~repro.core.topology.Mesh2D`,
        :class:`~repro.core.topology.LinearArray`, ...).
    params:
        :class:`~repro.core.params.MachineParams`; defaults to the unit
        model used by the analytic tests.
    trace:
        When true, every run records per-message lifecycle events (and
        collective stage spans, see docs/observability.md).
    metrics:
        When true, every run accounts per-channel/per-port utilization
        and contention, exposed as ``RunResult.channel_metrics``.
        Strictly passive: simulated results are unchanged.
    faults:
        Optional :class:`~repro.core.faults.FaultSchedule` applied to
        every run (overridable per run).  An empty schedule is strictly
        passive — results stay bit-identical to a fault-free machine.
    max_events:
        Override the engine's event-count safety limit for every run.
    """

    def __init__(self, topology: Topology,
                 params: MachineParams = UNIT,
                 trace: bool = False,
                 metrics: bool = False,
                 faults: Optional[FaultSchedule] = None,
                 max_events: Optional[int] = None):
        self.topology = topology
        self.params = params
        self.trace = trace
        self.metrics = metrics
        self.faults = faults
        self.max_events = max_events

    @property
    def nnodes(self) -> int:
        return self.topology.nnodes

    def run(self, program: Callable[..., Any], *args: Any,
            ranks: Optional[Sequence[int]] = None,
            trace: Optional[bool] = None,
            metrics: Optional[bool] = None,
            faults: Optional[FaultSchedule] = None,
            max_events: Optional[int] = None,
            **kwargs: Any) -> RunResult:
        """Execute ``program(env, *args, **kwargs)`` on every rank.

        ``program`` must be a generator function (an SPMD rank program).
        ``ranks`` restricts execution to a subset of nodes (the others
        stay idle); per-rank return values for idle nodes are ``None``.
        ``trace`` / ``metrics`` / ``faults`` / ``max_events`` override
        the machine-level settings for this run only.
        """
        do_trace = self.trace if trace is None else trace
        do_metrics = self.metrics if metrics is None else metrics
        do_faults = self.faults if faults is None else faults
        do_max = self.max_events if max_events is None else max_events
        tracer = Tracer() if do_trace else None
        collector = ResourceMetrics() if do_metrics else None
        engine_kwargs = {}
        if do_max is not None:
            engine_kwargs["max_events"] = do_max
        engine = Engine(self.topology, self.params, tracer=tracer,
                        metrics=collector, faults=do_faults,
                        **engine_kwargs)
        active = range(self.nnodes) if ranks is None else ranks
        active = sorted(set(active))
        for r in active:
            self.topology.check_node(r)
            env = RankEnv(engine, r)
            gen = program(env, *args, **kwargs)
            if not hasattr(gen, "send"):
                raise TypeError(
                    "program must be a generator function "
                    "(write it with `yield`; got a plain function?)")
            engine.spawn(r, gen)
        elapsed = engine.run()
        per_rank: List[Any] = [None] * self.nnodes
        for proc in engine._procs:
            per_rank[proc.rank] = proc.result
        return RunResult(
            time=elapsed,
            results=per_rank,
            trace=tracer,
            messages=engine.messages_sent,
            bytes_moved=engine.network.bytes_carried,
            rate_recomputations=engine.network.rate_recomputations,
            events=engine.events_processed,
            flows=engine.network.flows_started,
            metrics_source=(collector, engine.network._res_list)
            if collector is not None else None,
            params=self.params,
            fault_report=engine.fault_report(),
        )
