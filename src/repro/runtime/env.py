"""Per-rank execution environment for the real multi-process backend.

:class:`ProcessEnv` satisfies the env contract of
:mod:`repro.core.protocol` — the same surface
:class:`repro.sim.engine.RankEnv` presents — so every SPMD generator
program in the library runs unchanged over OS processes.  The semantic
anchor is the **matching rule**: receives match sends with the same
``(source, tag)`` in FIFO order per pair, exactly as in the simulator.
The transport guarantees per-pair FIFO delivery; the env matches on top
of it through the same :class:`~repro.core.protocol.MatchQueue` the
simulator uses, whose arrivals here are eager payloads.

Differences from the simulated env, by design:

* ``isend`` is **eager**: the payload is handed to the transport's
  buffered writer and the handle completes immediately (the simulator's
  rendezvous timing model has no wall-clock counterpart; the matching
  semantics — which determine *values* — are identical).
* ``compute``/``overhead`` are model-cost annotations and cost nothing:
  the actual arithmetic runs inline in the algorithm code, on a real
  CPU.  ``delay`` *is* honoured as a wall-clock sleep.
* ``now`` is wall-clock seconds since the rank started, so traces and
  corpus entries that return ``env.now`` are backend-dependent (the
  differential harness compares payloads, not clocks).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from ..core.faults import AdversaryState
from ..core.protocol import (NO_MATCH, CommHandle, MatchQueue, RankEnvBase,
                             _Delay, _WaitGroup)
from .transport import RankTransport


class RankDeadlineError(RuntimeError):
    """A rank's soft wall-clock deadline expired while it was blocked.

    Raised *inside* the rank process so the launcher receives a typed,
    per-rank diagnosis (which requests were pending, on which peers)
    instead of having to kill an opaque hung process.  ``queues``
    carries the rank's progress snapshot — posted/unexpected queue
    depths and the wall time of its last matched or drained frame — so
    hang reports show *how far* the rank got, not only what it was
    blocked on.
    """

    def __init__(self, rank: int, elapsed: float, detail: str,
                 queues: Optional[Dict[str, object]] = None):
        self.rank = rank
        self.elapsed = elapsed
        self.detail = detail
        self.queues = dict(queues or {})
        super().__init__(
            f"rank {rank} blocked for {elapsed:.1f}s past its deadline; "
            f"{detail}")


def describe_queues(snapshot: Dict[str, object]) -> str:
    """One line for a :meth:`ProcessEnv.queue_snapshot`."""
    last = snapshot.get("last_progress_s")
    return (f"posted={snapshot.get('posted')} "
            f"unexpected={snapshot.get('unexpected')} last_progress="
            + ("never" if last is None else f"{last:.3f}s"))


class ProcessEnv(RankEnvBase):
    """The env a rank program sees when running over real processes.

    Parameters
    ----------
    rank, nranks:
        This process's rank and the world size.
    transport:
        The rank's :class:`~repro.runtime.transport.RankTransport`.
    params, topology:
        Machine description metadata, forwarded verbatim to algorithm
        selection.  Pass the same values used for a simulator run and
        ``algorithm="auto"`` resolves the same strategies on both
        backends (same combine order, bit-identical float results).
        ``None`` engages the documented short/long fallback in
        :mod:`repro.core.api`.
    status:
        Optional shared ``c_char`` array; the env writes a short
        human-readable state into it whenever it blocks, which the
        launcher watchdog reads if the rank has to be killed.
    deadline:
        Optional soft deadline in seconds of wall time since
        construction; a blocked wait past it raises
        :class:`RankDeadlineError`.
    poll:
        Seconds each blocked wait listens on the transport before it
        re-checks the deadline.
    faults:
        Optional :class:`~repro.core.faults.FaultSchedule`.  Only its
        *adversarial* events (ByzantineRank / WithholdingRank /
        MisroutingRank) apply on this backend, at the send step it
        shares with the simulator — clock-scheduled link and crash
        faults have no wall-clock counterpart here.  The contract
        mirrors the simulator's: an empty (or adversary-free) schedule
        is strictly passive.
    """

    def __init__(self, rank: int, nranks: int, transport: RankTransport,
                 params=None, topology=None, status=None,
                 deadline: Optional[float] = None,
                 poll: float = 0.02, tracer=None, faults=None):
        self.rank = rank
        self.nranks = nranks
        self._transport = transport
        self.params = params
        self.topology = topology
        #: this rank's :class:`repro.obs.runtime.RuntimeTracer` (spans,
        #: marks and message events on this env's clock), or None; the
        #: launcher attaches it *after* the clock-sync exchange so
        #: alignment probes don't clutter the trace, and sends it back
        #: with the rank's result
        self.tracer = tracer
        self._status = status
        self._deadline = deadline
        self._poll = poll
        self._t0 = time.monotonic()
        #: posted recv handles and arrived-but-unmatched payloads
        self._queue = MatchQueue()
        #: wall time of the last matched or drained frame (None until
        #: the first one) — feeds hang diagnoses
        self.last_progress_s: Optional[float] = None
        #: this rank's Byzantine-model per-send machinery, None when the
        #: schedule declares no adversarial ranks — one attribute check
        #: per send either way, so fault-free runs stay untouched
        self._adversary = None
        if faults is not None and faults.has_adversaries:
            self._adversary = AdversaryState(faults)

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Wall-clock seconds since this rank's env was created."""
        return time.monotonic() - self._t0

    def alive(self, node: int) -> bool:
        """Always True: this backend has no failure detector.  A killed
        rank surfaces as :class:`~repro.runtime.launch.RankError` or
        :class:`~repro.runtime.launch.RuntimeHangDiagnosis` instead."""
        return True

    # ------------------------------------------------------------------
    # requests (the repro.core.protocol surface)
    # ------------------------------------------------------------------

    def _post(self, src: int, dst: int, tag: int, data: Any,
              nbytes: float) -> CommHandle:
        h = CommHandle("send", dst, tag, data, nbytes, self.now)
        if self.tracer is not None:
            self.tracer.send_post(self.now, dst, tag, nbytes)
        self._transport.send(dst, tag, data, nbytes)
        h.done = True  # eager: buffered by the transport writer
        return h

    def _withheld(self, dst: int, tag: int, data: Any,
                  nbytes: float) -> CommHandle:
        # the sender proceeds as if delivered; nothing is sent
        h = CommHandle("send", dst, tag, data, nbytes, self.now)
        h.done = True
        return h

    def irecv(self, src: int, tag: int = 0) -> CommHandle:
        self._check_peer(src)
        h = CommHandle("recv", src, tag, None, 0.0, self.now)
        if self.tracer is not None:
            self.tracer.recv_post(self.now, src, tag)
        data = self._queue.post(src, tag, h)
        if data is not NO_MATCH:
            h.data = data
            h.done = True
            self.last_progress_s = self.now
            if self.tracer is not None:
                self.tracer.match(self.now, src, tag)
        return h

    def compute(self, nelems: float) -> _Delay:
        """Model-cost annotation: free here (the arithmetic itself runs
        inline on the real CPU)."""
        return _Delay(0.0)

    def overhead(self, count: float = 1.0) -> _Delay:
        return _Delay(0.0)

    # ------------------------------------------------------------------
    # the progress engine
    # ------------------------------------------------------------------

    def execute(self, request) -> Any:
        """Execute one yielded request and return its resume value."""
        if isinstance(request, _WaitGroup):
            return self._complete(request)
        if isinstance(request, CommHandle):
            return self._complete(_WaitGroup([request]))
        if isinstance(request, _Delay):
            if request.duration > 0:
                time.sleep(request.duration)
            return None
        raise TypeError(
            f"rank {self.rank} yielded {request!r}; expected a request "
            "from env.isend/irecv/send/recv/waitall/delay/compute")

    def _complete(self, wg: _WaitGroup) -> Any:
        while True:
            blocked = [h for h in wg.handles if not h.done]
            if not blocked:
                self._set_status("running")
                return wg._value()
            self._set_status(self._describe(blocked))
            self._progress(blocked)

    def _progress(self, blocked) -> None:
        if self._deadline is not None and self.now > self._deadline:
            raise RankDeadlineError(self.rank, self.now,
                                    self._describe(blocked),
                                    queues=self.queue_snapshot())
        msg = self._transport.recv_any(timeout=self._poll)
        if msg is None:
            return
        src, tag, payload = msg
        self.last_progress_s = self.now
        h = self._queue.arrive(src, tag, payload)
        if h is not NO_MATCH:
            h.data = payload
            h.done = True
            if self.tracer is not None:
                self.tracer.match(self.now, src, tag)

    def queue_snapshot(self) -> Dict[str, object]:
        """Progress snapshot: queue depths + last matched/drained time."""
        return {"posted": self._queue.posted,
                "unexpected": self._queue.unexpected,
                "last_progress_s": self.last_progress_s}

    def _describe(self, blocked) -> str:
        parts = []
        for h in blocked[:4]:
            parts.append(f"recv(src={h.peer}, tag={h.tag}, "
                         f"posted_at={h.posted_at:.3f}s)")
        if len(blocked) > 4:
            parts.append(f"... +{len(blocked) - 4} more")
        return (f"blocked on {len(blocked)} pending: " + ", ".join(parts)
                + "; queues " + describe_queues(self.queue_snapshot()))

    def _set_status(self, text: str) -> None:
        if self._status is not None:
            self._status.value = text.encode("ascii", "replace")[:200]


def drive(env: ProcessEnv, program, *args, **kwargs) -> Any:
    """Run one SPMD generator program to completion on this rank.

    The real-backend analogue of the simulator's scheduler loop: pull
    requests from the generator, execute each against the transport,
    resume the generator with the result, and return the program's
    return value.
    """
    gen = program(env, *args, **kwargs)
    if not hasattr(gen, "send"):
        raise TypeError(
            f"program {program!r} returned {type(gen).__name__}, not a "
            "generator — rank programs must be written in yield style")
    value = None
    while True:
        try:
            request = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = env.execute(request)
