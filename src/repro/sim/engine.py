"""Discrete-event simulation kernel and the SPMD rank-program interface.

Programs are Python generator functions running one-per-rank, exactly like
an SPMD message-passing program.  A program interacts with the machine by
``yield``-ing request objects created through its :class:`RankEnv`:

.. code-block:: python

    def program(env):
        if env.rank == 0:
            yield env.send(1, np.arange(4.0))
        else:
            data = yield env.recv(0)
        yield env.compute(100)        # 100 combine operations
        return "done"

Blocking semantics follow the paper's model (section 2):

* a send and its matching receive rendezvous: the transfer begins when
  both sides have arrived, costs ``alpha`` of latency and then streams
  through the :class:`~repro.sim.network.FluidNetwork` (so conflicting
  messages share bandwidth);
* ``isend``/``irecv`` post without blocking so a node can send and
  receive simultaneously — required by the bucket (ring) primitives;
* a node still has a single injection and a single ejection port, so two
  concurrent sends from one node share its injection bandwidth.

Message matching is by ``(source, tag)`` with FIFO order per pair, which
is deterministic for deterministic programs: one
:class:`~repro.core.protocol.MatchQueue` per receiving rank.

Performance notes (see ``docs/performance.md``)
-----------------------------------------------
The event heap stores plain tuples ``(t, seq, kind, a, b)`` — process
wake-ups (``kind`` ``_EV_ADVANCE``), rendezvous transfer begins
(``_EV_BEGIN``, fired ``alpha`` after the match) and fluid-flow
completions (``_EV_COMPLETION``) are dispatched directly from the run
loop without allocating a closure per event; only the generic
:meth:`Engine.schedule` path (``_EV_CALL``) carries a callback.
Together with the network-side completion-event elision this removes
the per-message closures and heap churn that used to dominate
large-``p`` runs.
"""

from __future__ import annotations

import itertools
import math
import random
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..core.faults import (AdversaryState, DeadLetter, FaultDiagnosis,
                           FaultReport, FaultSchedule, LinkFault,
                           LinkSlowdown, NodeCrash)
from ..core.protocol import (NO_MATCH, CommHandle, MatchQueue, RankEnvBase,
                             _Delay, _WaitGroup, payload_nbytes)
from ..core.topology import Channel
from .network import FluidNetwork
from ..core.params import MachineParams
from ..core.topology import Topology
from ..obs.trace import MessageRecord, Tracer

__all__ = [
    "CommHandle", "DeadlockError", "Engine", "RankEnv",
    "SimulationLimitError", "payload_nbytes",
]


class DeadlockError(RuntimeError):
    """Raised when no events remain but some rank is still blocked.

    The message carries a full diagnosis: which ranks block on what, the
    wait-for cycle among them (when one exists), and each blocked rank's
    oldest unmatched posted send/recv ``(peer, tag, nbytes)``.  When the
    hang is attributable to injected faults the engine raises the typed
    :class:`~repro.core.faults.FaultDiagnosis` subclass-by-role instead.
    """


class SimulationLimitError(RuntimeError):
    """Raised when an event-count safety limit is exceeded."""


class FaultState:
    """Mutable simulator fault state threaded through engine and network.

    The engine owns one of these per run (or ``None`` when no schedule
    was given).  The network consults :attr:`failed` / :attr:`slow` when
    routing and sizing channel capacities; the engine consults
    :attr:`dead` when matching and retrying messages.
    """

    __slots__ = ("schedule", "failed", "slow", "dead", "rng", "injected",
                 "retries", "dead_letters", "jitter", "max_retries")

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        #: directed channels currently carrying nothing
        self.failed: set = set()
        #: directed channel -> current bandwidth-division factor
        self.slow: Dict[Channel, float] = {}
        #: nodes that have crashed (fired, not merely scheduled)
        self.dead: set = set()
        self.rng = random.Random(schedule.seed)
        #: log of (t, kind, description) for every fault that fired
        self.injected: List[Tuple[float, str, str]] = []
        self.retries = 0
        self.dead_letters: List[DeadLetter] = []
        self.jitter = schedule.jitter
        self.max_retries = schedule.max_retries


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------

class _Process:
    __slots__ = ("rank", "gen", "done", "result", "blocked_on", "crashed")

    def __init__(self, rank: int, gen: Generator):
        self.rank = rank
        self.gen = gen
        self.done = False
        self.result: Any = None
        self.blocked_on: Any = None
        self.crashed = False      # fail-stop: generator never resumes


class RankEnv(RankEnvBase):
    """Per-rank view of the machine, passed to every program.

    ``isend``/``irecv`` post immediately and return a :class:`CommHandle`;
    every other method builds a request to ``yield`` (``isend`` and the
    blocking ones come from :class:`~repro.core.protocol.RankEnvBase`).
    """

    __slots__ = ("engine", "rank", "nranks", "params", "topology",
                 "_adversary", "_post", "_withheld")

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        self.nranks: int = engine.topology.nnodes
        self.params: MachineParams = engine.params
        self.topology: Topology = engine.topology
        self._adversary = engine._adversary
        self._post = engine._post_send
        self._withheld = engine._withheld_send

    # --- introspection -------------------------------------------------

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def tracer(self) -> Optional[Tracer]:
        return self.engine.tracer

    def alive(self, node: int) -> bool:
        """False once ``node`` has crashed (perfect failure detector)."""
        fs = self.engine._faults
        return fs is None or node not in fs.dead

    # --- nonblocking ----------------------------------------------------

    def irecv(self, src: int, tag: int = 0) -> CommHandle:
        """Post a receive; returns immediately with a completion handle."""
        self._check_peer(src)
        return self.engine._post_recv(self.rank, src, tag)

    # --- model costs (yield these) ---------------------------------------

    def compute(self, nelems: float) -> _Delay:
        """Charge ``nelems`` combine operations (``n * gamma``)."""
        return _Delay(nelems * self.engine.params.gamma)

    def overhead(self, count: float = 1.0) -> _Delay:
        """Charge library software overhead (``count * sw_overhead``)."""
        return _Delay(count * self.engine.params.sw_overhead)


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------

#: heap event kinds — events are (t, seq, kind, a, b) tuples; the unique
#: seq means comparisons never reach the payload fields.
_EV_CALL = 0        # a: callable
_EV_ADVANCE = 1     # a: _Process, b: value to send into the generator
_EV_COMPLETION = 2  # a: Flow, b: epoch
_EV_BEGIN = 3       # a: send handle, b: recv handle (rendezvous opens)


class Engine:
    """Event loop coordinating rank programs and the fluid network."""

    def __init__(self, topology: Topology, params: MachineParams,
                 tracer: Optional[Tracer] = None,
                 max_events: int = 200_000_000,
                 metrics=None,
                 faults: Optional[FaultSchedule] = None):
        self.topology = topology
        self.params = params
        self.tracer = tracer
        self.now = 0.0
        #: event-count safety limit; read per-iteration by :meth:`run`,
        #: so it can be adjusted mid-run through CollContext.max_events
        self.max_events = max_events
        self._heap: List[Tuple] = []
        self._seq = itertools.count()
        self._seqn = self._seq.__next__
        self._alpha = params.alpha
        self._nnodes = topology.nnodes
        self._procs: List[_Process] = []
        #: terminated = finished normally OR crashed (fail-stop)
        self._nterm = 0
        self._last_done_time = 0.0
        #: runtime fault state, None on a fault-free run
        self._faults: Optional[FaultState] = None
        #: the ranks' shared adversary (None without adversarial
        #: events) and its tamper log
        self._adversary: Optional[AdversaryState] = None
        self._tampered: List = []
        self._deadline = math.inf
        self._retry_backoff = 0.0
        if faults is not None and not faults.is_empty:
            self._faults = FaultState(faults)
            self._deadline = faults.deadline
            self._retry_backoff = faults.backoff or 4.0 * params.alpha
            if faults.has_adversaries:
                self._adversary = AdversaryState(
                    faults,
                    log=lambda tm: self._log_fault(tm.kind, tm.describe()))
                self._tampered = self._adversary.tampered
        self.network = FluidNetwork(
            topology, params, self.schedule,
            schedule_completion=self._schedule_completion,
            complete=self._flow_done,
            metrics=metrics, faults=self._faults)
        if self._faults is not None:
            self._install_faults(self._faults.schedule)
        #: per receiving rank: posted recv handles and unmatched send
        #: handles, matched by (src, tag)
        self._queues = [MatchQueue() for _ in range(self._nnodes)]
        self.messages_sent = 0
        self.events_processed = 0

    # --- scheduling ------------------------------------------------------

    def schedule(self, t: float, cb: Callable[[], None]) -> None:
        if t < self.now - 1e-12:
            raise RuntimeError(
                f"cannot schedule into the past ({t} < {self.now})")
        heappush(self._heap,
                 (max(t, self.now), self._seqn(), _EV_CALL, cb, None))

    def _schedule_completion(self, t: float, flow, epoch: int) -> None:
        heappush(self._heap,
                 (max(t, self.now), self._seqn(), _EV_COMPLETION,
                  flow, epoch))

    # --- fault injection (docs/robustness.md) -----------------------------

    def _install_faults(self, schedule: FaultSchedule) -> None:
        """Schedule every declared fault event on the simulation clock."""
        for ev in schedule.events:
            if isinstance(ev, LinkFault):
                self.schedule(ev.t, lambda ev=ev: self._fire_link_fault(ev))
                if not math.isinf(ev.duration):
                    self.schedule(ev.t + ev.duration,
                                  lambda ev=ev: self._fire_link_restore(ev))
            elif isinstance(ev, LinkSlowdown):
                self.schedule(ev.t,
                              lambda ev=ev: self._fire_link_slowdown(ev))
                if not math.isinf(ev.duration):
                    self.schedule(
                        ev.t + ev.duration,
                        lambda ev=ev: self._fire_slowdown_restore(ev))
            elif isinstance(ev, NodeCrash):
                self.schedule(ev.t, lambda ev=ev: self._fire_node_crash(ev))

    def _log_fault(self, kind: str, detail: str) -> None:
        self._faults.injected.append((self.now, kind, detail))
        if self.tracer is not None:
            self.tracer.fault(self.now, kind, detail)

    def _fire_link_fault(self, ev: LinkFault) -> None:
        fs = self._faults
        chans = ev.channels()
        fs.failed.update(chans)
        self._log_fault("link-fault", ev.describe())
        self.network.fault_routes_changed()
        # in-flight transfers crossing the link are lost mid-worm
        for flow in self.network.abort_flows_crossing(chans, self.now):
            self._retry_or_drop(flow.on_complete,
                                "link failed mid-transfer")

    def _fire_link_restore(self, ev: LinkFault) -> None:
        fs = self._faults
        for ch in ev.channels():
            fs.failed.discard(ch)
        self._log_fault("link-restore",
                        f"link {ev.u}<->{ev.v} restored at t={self.now:g}")
        self.network.fault_routes_changed()

    def _fire_link_slowdown(self, ev: LinkSlowdown) -> None:
        fs = self._faults
        for (u, v) in ev.channels():
            fs.slow[(u, v)] = ev.factor
            self.network.apply_slowdown(u, v, ev.factor, self.now)
        self._log_fault("link-slowdown", ev.describe())

    def _fire_slowdown_restore(self, ev: LinkSlowdown) -> None:
        fs = self._faults
        for (u, v) in ev.channels():
            fs.slow.pop((u, v), None)
            self.network.apply_slowdown(u, v, None, self.now)
        self._log_fault(
            "slowdown-restore",
            f"link {ev.u}<->{ev.v} back to full bandwidth at t={self.now:g}")

    def _fire_node_crash(self, ev: NodeCrash) -> None:
        fs = self._faults
        node = ev.node
        if node in fs.dead:
            return
        fs.dead.add(node)
        self._log_fault("node-crash", ev.describe())
        for p in self._procs:
            if p.rank == node and not p.done and not p.crashed:
                p.crashed = True
                self._nterm += 1
        # every in-flight transfer to or from the node is lost; the
        # surviving side's handle stays pending and gets diagnosed
        for flow in self.network.abort_flows_of_node(node, self.now):
            self._dead_letter(flow.on_complete,
                              f"node {node} crashed mid-transfer")

    def _retry_or_drop(self, sh: CommHandle, reason: str) -> None:
        """Message-layer recovery for a transfer killed by a link fault:
        retransmit with exponential backoff, or dead-letter the message
        once the peer is dead / retries are exhausted."""
        fs = self._faults
        rh = sh.partner
        if sh.peer in fs.dead or rh.peer in fs.dead:
            self._dead_letter(sh, reason + "; peer crashed")
            return
        if sh.retries >= fs.max_retries:
            self._dead_letter(
                sh, f"gave up after {sh.retries} retries: {reason}")
            return
        attempt = sh.retries
        sh.retries += 1
        fs.retries += 1
        backoff = self._retry_backoff * (1 << attempt)
        heappush(self._heap,
                 (self.now + backoff, self._seqn(), _EV_BEGIN, sh, rh))

    def _dead_letter(self, sh: CommHandle, reason: str) -> None:
        """Give up on a matched transfer: the message is lost for good.

        The handles are *not* completed — ranks waiting on them block,
        and the end-of-run / watchdog diagnosis names this dead letter
        as the cause."""
        fs = self._faults
        rh = sh.partner
        dl = DeadLetter(t=self.now, src=rh.peer, dst=sh.peer, tag=sh.tag,
                        nbytes=sh.nbytes, reason=reason)
        fs.dead_letters.append(dl)
        if self.tracer is not None:
            self.tracer.fault(self.now, "dead-letter", dl.describe())

    # --- processes --------------------------------------------------------

    def spawn(self, rank: int, gen: Generator) -> _Process:
        proc = _Process(rank, gen)
        self._procs.append(proc)
        heappush(self._heap,
                 (0.0, self._seqn(), _EV_ADVANCE, proc, None))
        return proc

    def _ready(self, proc: _Process, value: Any) -> None:
        heappush(self._heap,
                 (self.now, self._seqn(), _EV_ADVANCE, proc, value))

    def _advance(self, proc: _Process, value: Any) -> None:
        if proc.done or proc.crashed:
            return
        proc.blocked_on = None
        try:
            req = proc.gen.send(value)
        except StopIteration as stop:
            proc.done = True
            proc.result = stop.value
            self._nterm += 1
            if self.now > self._last_done_time:
                self._last_done_time = self.now
            return
        except (DeadlockError, SimulationLimitError):
            raise
        except Exception as exc:
            fs = self._faults
            if fs is not None and fs.injected:
                # a rank program blowing up under active injection is a
                # fault effect (e.g. a misrouted block with the wrong
                # shape) — surface it as a typed diagnosis, cause chained
                raise self._diagnosis(
                    f"rank {proc.rank} raised {type(exc).__name__} "
                    f"under injected faults: {exc}") from exc
            raise
        self._dispatch(proc, req)

    def _dispatch(self, proc: _Process, req: Any) -> None:
        if isinstance(req, _WaitGroup):
            proc.blocked_on = req
            if req.arm(self, proc):
                self._ready(proc, req._value())
        elif isinstance(req, _Delay):
            proc.blocked_on = req
            heappush(self._heap,
                     (self.now + req.duration, self._seqn(),
                      _EV_ADVANCE, proc, None))
        elif isinstance(req, CommHandle):
            # Allow `yield env.isend(...)` as shorthand for post+wait.
            self._dispatch(proc, _WaitGroup([req]))
        else:
            raise TypeError(
                f"rank {proc.rank} yielded {req!r}, which is not a request; "
                "did you forget `yield from` on a nested collective?")

    # --- message layer ------------------------------------------------------

    def _withheld_send(self, dst: int, tag: int, data: Any,
                       nbytes: float) -> CommHandle:
        """A withholding rank's dropped send: the sender's handle
        completes as if delivered (and counts as a message); the message
        itself never enters the matching queues."""
        h = CommHandle("send", dst, tag, data, nbytes, self.now)
        self.messages_sent += 1
        h._complete(self)
        return h

    def _post_send(self, src: int, dst: int, tag: int, data: Any,
                   nbytes: float) -> CommHandle:
        h = CommHandle("send", dst, tag, data, nbytes, self.now)
        self.messages_sent += 1
        rec = None
        if self.tracer is not None:
            rec = MessageRecord(src=src, dst=dst, tag=tag, nbytes=nbytes,
                                t_send_post=self.now)
            h.record = rec
            self.tracer.message(rec)
        rh = self._queues[dst].arrive(src, tag, h)
        if rh is not NO_MATCH:
            if rec is not None:
                rec.t_recv_post = rh.posted_at
            self._match(src, dst, tag, h, rh)
        return h

    def _post_recv(self, dst: int, src: int, tag: int) -> CommHandle:
        h = CommHandle("recv", src, tag, None, 0.0, self.now)
        sh = self._queues[dst].post(src, tag, h)
        if sh is not NO_MATCH:
            if sh.record is not None:
                sh.record.t_recv_post = self.now
            self._match(src, dst, tag, sh, h)
        return h

    def _match(self, src: int, dst: int, tag: int,
               sh: CommHandle, rh: CommHandle) -> None:
        """Both sides present: run the transfer."""
        now = self.now
        rec = sh.record
        if rec is not None:
            rec.t_match = now
            if math.isnan(rec.t_recv_post):
                rec.t_recv_post = now
        sh.partner = rh
        if src == dst:
            # Local "transfer": a memory copy, modelled as free (the
            # paper's algorithms never self-send; baselines may).
            self.schedule(now, lambda: self._flow_done(sh, self.now))
            return
        t = now + self._alpha
        fs = self._faults
        if fs is not None and fs.jitter > 0.0:
            # Seeded per-rendezvous startup jitter, drawn in event order
            # so a (seed, schedule) pair replays bit-identically.
            t += fs.rng.uniform(0.0, fs.jitter)
        heappush(self._heap,
                 (t, self._seqn(), _EV_BEGIN, sh, rh))

    def _flow_done(self, sh: CommHandle, when: float) -> None:
        """Last byte delivered (or zero-byte rendezvous closed)."""
        rh = sh.partner
        rec = sh.record
        if rec is not None:
            rec.t_complete = when
        rh.data = sh.data
        rh.nbytes = sh.nbytes
        sh._complete(self)
        rh._complete(self)

    # --- main loop -------------------------------------------------------

    def run(self) -> float:
        """Run to completion; returns the simulated time at which the
        last rank finished (stale fluid-model events scheduled past that
        point are drained but do not count as elapsed time)."""
        heap = self._heap
        network = self.network
        pop = heappop
        deadline = self._deadline
        nprocs = len(self._procs)
        advance = self._advance
        flow_done = self._flow_done
        start_flow = network.start_flow
        fire_completion = network.fire_completion
        events = 0
        while heap:
            events += 1
            # self.max_events is read each iteration (not hoisted) so a
            # rank program can lower it mid-run via CollContext.
            if events > self.max_events:
                self.events_processed = events
                raise SimulationLimitError(
                    f"exceeded {self.max_events} events at t={self.now}")
            if self._nterm == nprocs:
                break  # remaining events can only be stale completions
            ev = pop(heap)
            self.now = t = ev[0]
            if t > deadline:
                # Simulated-time watchdog: convert the would-be hang
                # into a diagnosis instead of simulating on.
                self.events_processed = events
                raise self._hang_error(watchdog=True)
            kind = ev[2]
            if kind == _EV_ADVANCE:
                advance(ev[3], ev[4])
            elif kind == _EV_BEGIN:
                sh = ev[3]
                if sh.nbytes <= 0:
                    flow_done(sh, t)
                else:
                    flow = start_flow(ev[4].peer, sh.peer, sh.nbytes, t, sh)
                    if flow is None:
                        # failed links disconnect the pair right now;
                        # back off and retransmit (transient faults heal)
                        self._retry_or_drop(sh, "no surviving route")
            elif kind == _EV_COMPLETION:
                fire_completion(ev[3], ev[4], t)
            else:
                ev[3]()
        self.events_processed = events
        if self._nterm != nprocs:
            raise self._hang_error()
        return self._last_done_time

    # --- hang diagnosis ---------------------------------------------------

    def _hang_error(self, watchdog: bool = False) -> RuntimeError:
        """Build the deadlock/fault diagnosis for a run that cannot finish.

        Returns :class:`~repro.core.faults.FaultDiagnosis` when the fault
        layer injected anything (the hang is attributable), else a
        :class:`DeadlockError` (a genuine program bug).
        """
        blocked = [(p.rank, p.blocked_on) for p in self._procs
                   if not p.done and not p.crashed]
        detail = "; ".join(
            f"rank {r} blocked on {self._describe(b)}"
            for r, b in blocked[:16])
        fs = self._faults
        crashed = sorted(fs.dead) if fs is not None else []
        lines = [f"{len(blocked)} rank(s) never finished: {detail}"]
        if watchdog:
            lines[0] = (f"watchdog: simulated time passed the deadline "
                        f"t={self._deadline:g} with " + lines[0])

        # Wait-for graph over blocked ranks: r -> peers of its incomplete
        # handles.  A cycle is the classic rendezvous deadlock signature.
        edges: Dict[int, List[int]] = {}
        for r, b in blocked:
            peers = set()
            if isinstance(b, _WaitGroup):
                for h in b.handles:
                    if not h.done:
                        peers.add(h.peer)
            edges[r] = sorted(peers)
        cycle = self._find_cycle(edges)
        if cycle is not None:
            lines.append("wait-for cycle: " +
                         " -> ".join(str(r) for r in cycle))

        # Each blocked rank's oldest unmatched *posted* request: the
        # queues know which side arrived and who never showed up.
        oldest: Dict[int, Tuple] = {}
        for dst, mq in enumerate(self._queues):
            for src, tag, h in mq.unexpected_items():
                cur = oldest.get(src)
                if cur is None or h.posted_at < cur[0]:
                    oldest[src] = (h.posted_at, "send", dst, tag, h.nbytes)
        for dst, mq in enumerate(self._queues):
            for src, tag, h in mq.posted_items():
                cur = oldest.get(dst)
                if cur is None or h.posted_at < cur[0]:
                    oldest[dst] = (h.posted_at, "recv", src, tag, h.nbytes)
        blocked_detail = []
        for r, _ in blocked:
            if r not in oldest:
                blocked_detail.append((r, "-", -1, -1, 0.0))
                continue
            posted_at, kind, peer, tag, nbytes = oldest[r]
            blocked_detail.append((r, kind, peer, tag, nbytes))
            dead_note = " (crashed)" if peer in crashed else ""
            lines.append(
                f"rank {r}: oldest unmatched {kind} "
                f"(peer={peer}{dead_note}, tag={tag}, {nbytes:g}B) "
                f"posted at t={posted_at:g}")

        op_spans: Dict[int, str] = {}
        if self.tracer is not None:
            # A hung rank's op span never closed, so op_spans() (which
            # returns only closed spans) misses it — scan the raw list.
            for s in self.tracer.spans:
                if s.phase == "op" and not s.closed and s.rank in edges:
                    op_spans[s.rank] = s.label
            for r in sorted(op_spans):
                lines.append(f"rank {r}: inside op span "
                             f"'{op_spans[r]}'")

        if fs is None or not fs.injected:
            return DeadlockError("\n".join(lines))

        for t, kind, desc in fs.injected:
            lines.append(f"injected fault: {desc}")
        for dl in fs.dead_letters:
            lines.append(f"dead letter: {dl.describe()}")
        for tm in self._tampered:
            lines.append(f"tampered: {tm.describe()}")
        return self._diagnosis("\n".join(lines), blocked=blocked_detail,
                               op_spans=op_spans, watchdog=watchdog)

    def _diagnosis(self, message: str, **fields) -> FaultDiagnosis:
        """A :class:`~repro.core.faults.FaultDiagnosis` carrying the
        run's fault log, plus ``fields`` (blocked ranks, op spans, the
        watchdog flag) when a hang is being diagnosed."""
        fs = self._faults
        return FaultDiagnosis(message, injected=fs.injected,
                              dead_letters=fs.dead_letters,
                              crashed=sorted(fs.dead),
                              tampered=self._tampered, **fields)

    @staticmethod
    def _find_cycle(edges: Dict[int, List[int]]) -> Optional[List[int]]:
        """First wait-for cycle by deterministic DFS, as ``[r0, ..., r0]``,
        or None.  Edges to non-blocked ranks are ignored."""
        visited: set = set()
        for start in sorted(edges):
            if start in visited:
                continue
            onpath = {start: 0}
            path = [start]
            stack = [iter(edges[start])]
            while stack:
                advanced = False
                for nxt in stack[-1]:
                    if nxt not in edges or nxt in visited:
                        continue
                    if nxt in onpath:
                        return path[onpath[nxt]:] + [nxt]
                    onpath[nxt] = len(path)
                    path.append(nxt)
                    stack.append(iter(edges[nxt]))
                    advanced = True
                    break
                if not advanced:
                    stack.pop()
                    node = path.pop()
                    visited.add(node)
                    del onpath[node]
        return None

    @staticmethod
    def _describe(req: Any) -> str:
        if isinstance(req, _WaitGroup):
            waits = [h for h in req.handles if not h.done]
            return "waitall[" + ", ".join(map(repr, waits[:4])) + "]"
        return repr(req)

    def results(self) -> List[Any]:
        return [p.result for p in sorted(self._procs, key=lambda p: p.rank)]

    def fault_report(self) -> Optional[FaultReport]:
        """Post-run :class:`~repro.core.faults.FaultReport`, or None when
        no fault schedule was installed."""
        fs = self._faults
        if fs is None:
            return None
        return FaultReport(schedule=fs.schedule.describe(),
                           injected=tuple(fs.injected),
                           retries=fs.retries,
                           dead_letters=tuple(fs.dead_letters),
                           crashed=tuple(sorted(fs.dead)),
                           tampered=tuple(self._tampered))
