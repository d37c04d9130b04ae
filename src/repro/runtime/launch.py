"""Launcher for the real multi-process backend.

:class:`ProcessMachine` is the process-backend counterpart of
:class:`repro.sim.Machine`: it spawns one OS process per rank, wires
the transport mesh, runs an SPMD generator program on every rank, and
collects per-rank return values.  Failure handling is first-class:

* a rank that raises propagates its full traceback to the launcher,
  which re-raises a :class:`RankError` naming every failed rank;
* a rank that *hangs* (deadlocked collective, lost peer) trips its
  soft wall-clock deadline and reports which receives were pending on
  which peers; the launcher aggregates these into a typed
  :class:`RuntimeHangDiagnosis` instead of hanging the caller.  A
  parent-side hard deadline backstops ranks too wedged to self-report,
  using their shared status slots for the post-mortem.

Command line::

    python -m repro.runtime.launch --np 4 mypkg.progs:allreduce_demo
    python -m repro.runtime.launch --np 4 --transport tcp \\
        --params paragon --topology mesh:2x2 mypkg.progs:allreduce_demo

The program is a ``module:function`` reference to an SPMD generator
taking the env as its only argument (the same programs
``repro.sim.Machine.run`` accepts).
"""

from __future__ import annotations

import argparse
import importlib
import multiprocessing
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, List, Optional, Sequence

from .env import ProcessEnv, RankDeadlineError, describe_queues, drive
from .transport import LocalMesh, TcpMesh

_STATUS_BYTES = 240


class RankError(RuntimeError):
    """One or more ranks raised; carries every rank's traceback.

    ``failures`` maps rank -> formatted traceback string; ``blocked``
    maps rank -> pending-request description for ranks that hit their
    deadline while the failed rank's messages never arrived.
    """

    def __init__(self, failures: Dict[int, str],
                 blocked: Optional[Dict[int, str]] = None):
        self.failures = dict(failures)
        self.blocked = dict(blocked or {})
        lines = [f"{len(self.failures)} rank(s) raised:"]
        for rank in sorted(self.failures):
            tb = self.failures[rank].rstrip()
            lines.append(f"--- rank {rank} ---\n{tb}")
        for rank in sorted(self.blocked):
            lines.append(f"--- rank {rank} (blocked, likely collateral) "
                         f"---\n{self.blocked[rank]}")
        super().__init__("\n".join(lines))


class RuntimeHangDiagnosis(RuntimeError):
    """The run exceeded its wall-clock budget; no rank raised.

    ``blocked`` maps rank -> what it was waiting for (self-reported via
    the soft deadline, or read from the rank's shared status slot if it
    had to be killed); ``finished`` lists ranks that completed.
    ``queues`` maps each self-reporting blocked rank to its progress
    snapshot — posted/unexpected queue depths and the wall time of its
    last matched or drained frame — so the diagnosis shows *how far*
    each rank got, not only what it was blocked on.  The payload is
    structured (:meth:`to_dict`) so CI can archive it.
    """

    def __init__(self, timeout: float, blocked: Dict[int, str],
                 finished: Sequence[int], killed: Sequence[int],
                 queues: Optional[Dict[int, Dict[str, Any]]] = None):
        self.timeout = timeout
        self.blocked = dict(blocked)
        self.finished = sorted(finished)
        self.killed = sorted(killed)
        self.queues = {r: dict(q) for r, q in (queues or {}).items()}
        lines = [f"run exceeded {timeout:.1f}s wall-clock budget; "
                 f"{len(self.finished)} rank(s) finished, "
                 f"{len(self.blocked)} blocked"]
        for rank in sorted(self.blocked):
            tag = " [killed]" if rank in self.killed else ""
            lines.append(f"  rank {rank}{tag}: {self.blocked[rank]}")
            q = self.queues.get(rank)
            if q:
                lines.append("    progress: " + describe_queues(q))
        super().__init__("\n".join(lines))

    def to_dict(self) -> dict:
        return {"timeout": self.timeout,
                "blocked": {str(r): s for r, s in self.blocked.items()},
                "finished": self.finished,
                "killed": self.killed,
                "queues": {str(r): q for r, q in self.queues.items()}}


@dataclass
class RuntimeRunResult:
    """What :meth:`ProcessMachine.run` returns.

    ``results[rank]`` is the rank program's return value (None for
    ranks outside ``ranks=``); ``time`` is parent-side wall seconds
    from first fork to last result; ``rank_times`` are each rank's own
    env clocks at completion.  On traced runs (``trace=True``),
    ``trace`` is the merged :class:`~repro.obs.runtime.RuntimeTrace`
    (timestamps rebased onto the reference rank's clock) and ``audit``
    pairs each collective's captured prediction with its measured wall
    window, exactly like the simulator's ``RunResult.audit``.
    """

    results: List[Any]
    time: float
    nprocs: int
    transport: str
    rank_times: Dict[int, float] = field(default_factory=dict)
    trace: Any = None
    params: Any = None
    _audit: Any = field(default=None, repr=False, compare=False)

    @property
    def audit(self):
        """Predicted-vs-measured audit of a traced run (lazy)."""
        if self.trace is None:
            return None
        if self._audit is None:
            from ..obs.audit import audit_run
            self._audit = audit_run(self)
        return self._audit


def _child_main(rank, active, nranks, transport_kind, mesh, rendezvous,
                params, topology, program, args, kwargs, status,
                result_conn, deadline, trace=False, faults=None):
    tr = None
    tracer = None
    try:
        if transport_kind == "local":
            tr = mesh.adopt(rank, nranks)
        else:
            listener, addr = rendezvous
            tr = TcpMesh.connect(rank, active, addr,
                                 rendezvous_listener=listener)
        env = ProcessEnv(rank, nranks, tr, params=params,
                         topology=topology, status=status,
                         deadline=deadline, faults=faults)
        if trace:
            # Align clocks *before* attaching the tracer so the
            # ping-pong probes never clutter the trace; the exchange
            # fully drains (per-pair FIFO on a reserved tag), so the
            # rank program starts with empty queues either way.
            from ..obs.runtime import RuntimeTracer, sync_clocks
            tracer = RuntimeTracer(rank, sync_clocks(env, active))
            env.tracer = tracer
        value = drive(env, program, *args, **kwargs)
        tr.flush_and_close()
        result_conn.send(("ok", value, env.now, tracer))
    except RankDeadlineError as exc:
        result_conn.send(("blocked",
                          {"detail": exc.detail, "queues": exc.queues},
                          exc.elapsed))
    except BaseException:
        result_conn.send(("error", traceback.format_exc(), None))
    finally:
        result_conn.close()


class ProcessMachine:
    """Run SPMD programs over real OS processes.

    Mirrors the :class:`repro.sim.Machine` surface where it can::

        machine = ProcessMachine(4, params=PARAGON, topology=Mesh2D(2, 2))
        result = machine.run(program)
        result.results  # per-rank return values

    Parameters
    ----------
    nprocs:
        World size (defaults to ``topology.nnodes`` when a topology is
        given).
    params, topology:
        Machine description forwarded to every rank's env.  Use the
        same values as the simulator run being compared against so
        ``algorithm="auto"`` resolves identical strategies.  ``None``
        engages **autotuning**: a fresh per-host calibration profile
        (:mod:`repro.runtime.profile`), when one exists for this
        host/transport, supplies fitted constants so auto dispatch is
        priced for the machine actually running; with no usable
        profile the documented fixed-threshold fallback applies.
        Explicit ``params=`` always wins over the profile.
    use_profile:
        ``False`` disables profile auto-loading for this machine;
        ``None`` (default) honours the ``REPRO_AUTOTUNE`` environment
        switch.  The profile is loaded **once, in the parent**, and
        forked to every rank — all ranks price with identical
        constants, preserving the SPMD strategy-agreement contract.
    transport:
        ``"local"`` (multiprocessing pipes) or ``"tcp"``.
    timeout:
        Default wall-clock budget per :meth:`run`, seconds.  Ranks get
        it as their soft deadline; the parent enforces a slightly
        larger hard deadline as a backstop.

    Ranks are forked: rank programs are often closures, which any other
    start method would have to pickle and cannot.
    """

    def __init__(self, nprocs: Optional[int] = None, params=None,
                 topology=None, transport: str = "local",
                 timeout: float = 60.0, hard_grace: float = 5.0,
                 use_profile: Optional[bool] = None,
                 trace: bool = False, faults=None):
        if nprocs is None:
            if topology is None:
                raise ValueError("nprocs or topology required")
            nprocs = topology.nnodes
        if topology is not None and topology.nnodes != nprocs:
            raise ValueError(
                f"topology has {topology.nnodes} nodes but nprocs={nprocs}")
        if transport not in ("local", "tcp"):
            raise ValueError(f"unknown transport {transport!r}")
        self.nprocs = nprocs
        #: the auto-loaded MachineProfile, when fitted constants are in
        #: use (None with explicit params or no usable stored profile)
        self.profile = None
        if params is None and use_profile is not False:
            from .profile import autotune_enabled, load_profile
            if use_profile or autotune_enabled():
                profile = load_profile(transport)
                if profile is not None:
                    self.profile = profile
                    params = profile.params
        self.params = params
        self.topology = topology
        self.transport = transport
        self.timeout = timeout
        #: extra seconds past ``timeout * 1.5`` before the parent kills
        #: ranks too wedged to self-report their blocked state
        self.hard_grace = hard_grace
        #: default for :meth:`run`'s ``trace=`` — collect per-rank
        #: wall-clock traces and merge them (docs/observability.md)
        self.trace = trace
        #: optional FaultSchedule whose *adversarial* events apply in
        #: every rank's env (docs/robustness.md); link/crash events
        #: have no wall-clock counterpart and are ignored here
        self.faults = faults

    @property
    def nnodes(self) -> int:
        return self.nprocs

    def run(self, program, *args, ranks: Optional[Sequence[int]] = None,
            timeout: Optional[float] = None, trace: Optional[bool] = None,
            **kwargs) -> RuntimeRunResult:
        """Run ``program(env, *args, **kwargs)`` on every active rank.

        With ``trace=True`` every rank aligns its clock to the lowest
        active rank at rendezvous, records a wall-clock trace (spans,
        marks, message send/recv posts and matches) in memory, and
        returns it with its result.  The parent merges them into a
        :class:`~repro.obs.runtime.RuntimeTrace` on
        ``RuntimeRunResult.trace``; a traced run writes no file.
        """
        timeout = self.timeout if timeout is None else timeout
        trace = self.trace if trace is None else trace
        active = (sorted(set(ranks)) if ranks is not None
                  else list(range(self.nprocs)))
        if not active:
            raise ValueError("ranks must name at least one rank")
        for r in active:
            if not 0 <= r < self.nprocs:
                raise ValueError(f"rank {r} out of range")

        ctx = multiprocessing.get_context("fork")
        mesh = rendezvous = None
        if self.transport == "local":
            mesh = LocalMesh(active, ctx)
        else:
            listener = TcpMesh.make_rendezvous(len(active))
            rendezvous = (listener, listener.address)

        statuses = {r: ctx.Array("c", _STATUS_BYTES, lock=False)
                    for r in active}
        result_conns = {}
        procs = {}
        t_start = time.monotonic()
        for r in active:
            recv_end, send_end = ctx.Pipe(duplex=False)
            result_conns[r] = recv_end
            procs[r] = ctx.Process(
                target=_child_main,
                args=(r, active, self.nprocs, self.transport, mesh,
                      rendezvous, self.params, self.topology, program,
                      args, kwargs, statuses[r], send_end, timeout,
                      trace, self.faults),
                name=f"repro-rank-{r}", daemon=True)
            procs[r].start()
            send_end.close()
        if mesh is not None:
            mesh.release()
        if rendezvous is not None:
            rendezvous[0].close()  # parent's copy; rank 0 holds its own

        outcomes = self._collect(result_conns, timeout, t_start)
        elapsed = time.monotonic() - t_start
        self._reap(procs)
        result = self._classify(outcomes, statuses, procs, active,
                                timeout, elapsed)
        if trace:
            from ..obs.runtime import merge_rank_traces
            result.trace = merge_rank_traces(
                [outcomes[r][3] for r in active])
            result.params = self.params
        return result

    # ------------------------------------------------------------------

    def _collect(self, result_conns, timeout, t_start):
        """Gather per-rank outcome messages under the hard deadline."""
        hard_deadline = t_start + timeout * 1.5 + self.hard_grace
        pending = dict(result_conns)
        rank_of = {id(c): r for r, c in pending.items()}
        outcomes: Dict[int, tuple] = {}
        while pending:
            now = time.monotonic()
            if now >= hard_deadline:
                break
            ready = _conn_wait(list(pending.values()),
                               timeout=hard_deadline - now)
            for conn in ready:
                rank = rank_of[id(conn)]
                try:
                    outcomes[rank] = tuple(conn.recv())
                except (EOFError, OSError):
                    outcomes[rank] = ("died", "rank process exited "
                                      "without reporting a result", None)
                del pending[rank]
                conn.close()
            if any(o[0] == "error" for o in outcomes.values()):
                # A raised rank usually wedges its peers until their
                # soft deadline; don't wait that long — give stragglers
                # a short grace window, then report.
                hard_deadline = min(hard_deadline,
                                    time.monotonic() + 2.0)
        for conn in pending.values():
            conn.close()
        for rank in pending:
            outcomes.setdefault(rank, ("hung", None, None))
        return outcomes

    def _classify(self, outcomes, statuses, procs, active, timeout,
                  elapsed) -> RuntimeRunResult:
        failures = {r: o[1] for r, o in outcomes.items()
                    if o[0] in ("error", "died")}
        blocked: Dict[int, str] = {}
        queues: Dict[int, Dict[str, Any]] = {}
        for r, o in outcomes.items():
            if o[0] != "blocked":
                continue
            blocked[r] = o[1]["detail"]
            if o[1]["queues"]:
                queues[r] = o[1]["queues"]
        killed = []
        for r, o in outcomes.items():
            if o[0] == "hung":
                status = statuses[r].value.decode("ascii", "replace")
                blocked[r] = (status or "no status reported") + \
                    " [killed by launcher watchdog]"
                killed.append(r)
        if failures:
            raise RankError(failures, blocked)
        if blocked:
            finished = [r for r, o in outcomes.items() if o[0] == "ok"]
            raise RuntimeHangDiagnosis(timeout, blocked, finished, killed,
                                       queues=queues)

        results: List[Any] = [None] * self.nprocs
        rank_times: Dict[int, float] = {}
        for r in active:
            _, value, t, _ = outcomes[r]
            results[r] = value
            rank_times[r] = t
        return RuntimeRunResult(results=results, time=elapsed,
                                nprocs=self.nprocs,
                                transport=self.transport,
                                rank_times=rank_times)

    @staticmethod
    def _reap(procs) -> None:
        # Every outcome is already collected (or timed out): anything
        # still running is wedged and about to be reported as such, so
        # keep the joins short and escalate to terminate/kill.
        for p in procs.values():
            p.join(timeout=0.25)
        for p in procs.values():
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=1.0)


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------

def _resolve_program(spec: str):
    if ":" not in spec:
        raise SystemExit(
            f"program must be module:function, got {spec!r}")
    modname, funcname = spec.split(":", 1)
    mod = importlib.import_module(modname)
    try:
        return getattr(mod, funcname)
    except AttributeError:
        raise SystemExit(f"{modname} has no attribute {funcname!r}")


def _resolve_topology(spec: Optional[str], nprocs: int):
    if spec is None:
        return None
    from ..core import topology as topo
    kind, _, dims = spec.partition(":")
    try:
        sizes = [int(d) for d in dims.split("x")] if dims else []
    except ValueError:
        raise SystemExit(f"bad topology dims in {spec!r}")
    makers = {
        "linear": lambda: topo.LinearArray(sizes[0] if sizes else nprocs),
        "ring": lambda: topo.Ring(sizes[0] if sizes else nprocs),
        "mesh": lambda: topo.Mesh2D(*sizes),
        "torus": lambda: topo.Torus2D(*sizes),
        "hypercube": lambda: topo.Hypercube(sizes[0] if sizes else None),
        "full": lambda: topo.FullyConnected(sizes[0] if sizes else nprocs),
    }
    if kind not in makers:
        raise SystemExit(f"unknown topology kind {kind!r} "
                         f"(choose from {sorted(makers)})")
    try:
        return makers[kind]()
    except TypeError:
        raise SystemExit(f"bad dims for topology {spec!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.launch",
        description="Run an SPMD program over real OS processes.")
    parser.add_argument("program", help="module:function generator "
                        "program taking the env as sole argument")
    parser.add_argument("--np", type=int, required=True, dest="nprocs",
                        help="number of rank processes")
    parser.add_argument("--transport", choices=("local", "tcp"),
                        default="local")
    parser.add_argument("--params", default=None,
                        help="machine preset name (unit, paragon, "
                        "delta, ipsc860)")
    parser.add_argument("--topology", default=None,
                        help="topology spec, e.g. mesh:2x4, ring:8, "
                        "linear:8, hypercube:3")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="wall-clock budget in seconds")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="collect per-rank wall-clock traces and "
                        "write the merged Chrome/Perfetto JSON here")
    ns = parser.parse_args(argv)

    params = None
    if ns.params is not None:
        from ..core.params import preset
        params = preset(ns.params)
    topology = _resolve_topology(ns.topology, ns.nprocs)
    program = _resolve_program(ns.program)

    machine = ProcessMachine(ns.nprocs, params=params, topology=topology,
                             transport=ns.transport, timeout=ns.timeout)
    try:
        result = machine.run(program, trace=ns.trace is not None)
    except RankError as exc:
        print(exc, file=sys.stderr)
        return 1
    except RuntimeHangDiagnosis as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"# {ns.nprocs} ranks over {ns.transport} transport, "
          f"{result.time:.3f}s wall")
    for rank, value in enumerate(result.results):
        print(f"rank {rank}: {value!r}")
    if ns.trace is not None:
        from ..obs.trace import write_chrome_trace
        write_chrome_trace(result.trace, ns.trace)
        print(f"# merged trace ({result.trace!r}) -> {ns.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
