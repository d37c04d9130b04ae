"""Backend-neutral SPMD request protocol.

Every collective algorithm in :mod:`repro.core` is an SPMD generator
that interacts with *some* machine — simulated or real — exclusively by
``yield``-ing request objects built through a rank-environment object
(an "env").  This module is the contract between the two sides:

* the **request types** a program may yield (:class:`_Delay`,
  :class:`_WaitGroup`, and bare :class:`CommHandle` as post+wait
  shorthand),
* the **matching rule** both backends share, as one implementation:
  :class:`MatchQueue`, and
* the **env surface** a backend must provide to drive those programs.
  :class:`RankEnvBase` builds the part both backends share (``send``,
  ``recv``, ``waitall``, ``delay``, ``mark``) on each env's own
  primitives.

``repro.core`` depends only on this protocol, never on the simulator;
:mod:`repro.sim.engine` re-exports its types for backward
compatibility, and :mod:`repro.runtime` implements it over real OS
processes (see ``docs/runtime.md``).

The env contract
----------------
A backend's env object must provide, at minimum:

``rank`` / ``nranks``
    this rank's id and the machine size;
``isend(dst, data, tag=0, nbytes=None)`` / ``irecv(src, tag=0)``
    post a nonblocking send/receive, returning a :class:`CommHandle`;
``send`` / ``recv`` / ``waitall``
    blocking variants returning yieldable requests (inherited from
    :class:`RankEnvBase`);
``delay`` / ``compute`` / ``overhead`` / ``mark``
    cost/annotation requests (a real backend is free to treat them as
    zero-cost: real time passes by itself);
``now``
    elapsed seconds (simulated or wall-clock);
``tracer``
    the rank's trace collector, or ``None`` when untraced;
``alive(node)``
    False once ``node`` is known to have failed.  A backend without a
    failure detector reports every node alive.

Optionally it may expose:

``params``
    a :class:`~repro.core.params.MachineParams` describing the machine
    model — consulted by ``algorithm="auto"`` strategy selection.  An
    env that reports no params (attribute absent or ``None``) gets the
    documented threshold fallback instead (see
    :func:`repro.core.api.resolve_strategy`);
``topology``
    a :class:`~repro.core.topology.Topology` describing the physical
    interconnect — consulted by group-structure classification.  Absent
    or ``None`` means groups are treated as linear arrays (section 9's
    "when a group is unstructured ... it is treated as though it were a
    linear array");
``engine``
    the simulator's event loop.  Only the simulated backend has it;
    core code looks it up only for simulator controls and must
    tolerate its absence.

Message matching is by ``(source, tag)`` with FIFO order per pair on
every backend — that rule, not the transport, is what makes SPMD
programs deterministic.  Both backends match through
:class:`MatchQueue`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np


def payload_nbytes(obj: Any) -> int:
    """Wire size of a message payload, in bytes.

    NumPy arrays and scalars report their true buffer size; ``bytes``
    its length; Python ints/floats count as 8 bytes; ``None`` is a
    zero-byte synchronization message; sequences are summed.
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, np.generic):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, int, float, complex)):
        return 8
    if isinstance(obj, (tuple, list)):
        return sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, str):
        return len(obj.encode())
    raise TypeError(
        f"cannot infer wire size of {type(obj).__name__}; pass nbytes="
    )


# ----------------------------------------------------------------------
# Requests yielded by programs
# ----------------------------------------------------------------------

class _Request:
    """Base class for everything a program may yield."""
    __slots__ = ()


class _Delay(_Request):
    """Advance this rank's clock by ``duration`` seconds.

    The simulator charges it on the event heap; a real backend treats it
    as a no-op (wall-clock time passes on its own).
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise ValueError("cannot delay by a negative duration")
        self.duration = duration


class CommHandle:
    """Completion handle for a posted (nonblocking) send or receive.

    Backend-neutral: the simulator completes handles from its event
    loop (via :meth:`_complete`, which wakes registered
    :class:`_WaitGroup` waiters); the process runtime completes them
    from its transport progress loop by setting :attr:`done`/''data''
    directly and polling.
    """

    __slots__ = ("kind", "peer", "tag", "data", "nbytes", "done",
                 "_waiters", "record", "posted_at", "partner", "retries")

    def __init__(self, kind: str, peer: int, tag: int,
                 data: Any = None, nbytes: float = 0.0,
                 posted_at: float = 0.0):
        self.kind = kind          # "send" | "recv"
        self.peer = peer
        self.tag = tag
        self.data = data          # payload (filled in on recv completion)
        self.nbytes = nbytes
        self.done = False
        self._waiters: Optional[List["_WaitGroup"]] = None
        self.record = None        # MessageRecord when the run is traced
        self.posted_at = posted_at
        self.retries = 0          # retransmissions after link faults

    def _complete(self, engine) -> None:
        self.done = True
        waiters = self._waiters
        if waiters:
            self._waiters = None
            for wg in waiters:
                wg.notify(engine)

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return f"<{self.kind} peer={self.peer} tag={self.tag} {state}>"


class _WaitGroup(_Request):
    """Blocks a process until every listed handle completes."""

    __slots__ = ("handles", "pending", "proc")

    def __init__(self, handles: List[CommHandle]):
        self.handles = handles
        self.pending = 0
        self.proc = None

    def arm(self, engine, proc) -> bool:
        """Register on incomplete handles.  Returns True if already done.

        Simulator-side plumbing: ``engine`` only needs a ``_ready``
        method (duck-typed); the process runtime never calls this.
        """
        self.proc = proc
        pending = 0
        for h in self.handles:
            if not h.done:
                if h._waiters is None:
                    h._waiters = [self]
                else:
                    h._waiters.append(self)
                pending += 1
        self.pending = pending
        return pending == 0

    def notify(self, engine) -> None:
        self.pending -= 1
        if self.pending == 0:
            engine._ready(self.proc, self._value())

    def _value(self) -> Any:
        if len(self.handles) == 1:
            h = self.handles[0]
            return h.data if h.kind == "recv" else None
        return [h.data if h.kind == "recv" else None for h in self.handles]


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------

#: what :meth:`MatchQueue.post` / :meth:`MatchQueue.arrive` return when
#: nothing was waiting — not ``None``, which is a valid payload (a
#: zero-byte synchronization message)
NO_MATCH = object()


def _pop_oldest(queues: Dict[Tuple[int, int], Deque], key) -> Any:
    q = queues.get(key)
    if q is None:
        return NO_MATCH
    item = q.popleft()
    if not q:
        del queues[key]
    return item


class MatchQueue:
    """One receiving rank's ``(source, tag)`` matching state.

    Posted receives and unmatched arrivals wait in FIFOs per
    ``(src, tag)``; a receive takes the oldest arrival with its key and
    an arrival the oldest receive.  The caller decides what an arrival
    is: the simulator queues rendezvous send handles, the process
    runtime eager payloads.  :attr:`posted` and :attr:`unexpected`
    count the waiting entries, so queue-depth snapshots are O(1).
    """

    __slots__ = ("_recvs", "_arrivals", "posted", "unexpected")

    def __init__(self) -> None:
        self._recvs: Dict[Tuple[int, int], Deque] = {}
        self._arrivals: Dict[Tuple[int, int], Deque] = {}
        self.posted = self.unexpected = 0

    def post(self, src: int, tag: int, recv: Any) -> Any:
        """Post a receive: returns the oldest unmatched arrival from
        ``(src, tag)``, or queues ``recv`` and returns :data:`NO_MATCH`."""
        item = _pop_oldest(self._arrivals, (src, tag))
        if item is NO_MATCH:
            self._recvs.setdefault((src, tag), deque()).append(recv)
            self.posted += 1
        else:
            self.unexpected -= 1
        return item

    def arrive(self, src: int, tag: int, item: Any) -> Any:
        """Deliver an arrival: returns the oldest posted receive for
        ``(src, tag)``, or queues ``item`` and returns :data:`NO_MATCH`."""
        recv = _pop_oldest(self._recvs, (src, tag))
        if recv is NO_MATCH:
            self._arrivals.setdefault((src, tag), deque()).append(item)
            self.unexpected += 1
        else:
            self.posted -= 1
        return recv

    def posted_items(self) -> Iterator[Tuple[int, int, Any]]:
        """Every waiting receive as ``(src, tag, recv)``, FIFO per key."""
        for (src, tag), q in self._recvs.items():
            for recv in q:
                yield src, tag, recv

    def unexpected_items(self) -> Iterator[Tuple[int, int, Any]]:
        """Every unmatched arrival as ``(src, tag, item)``, FIFO per key."""
        for (src, tag), q in self._arrivals.items():
            for item in q:
                yield src, tag, item


# ----------------------------------------------------------------------
# The shared env surface
# ----------------------------------------------------------------------

class RankEnvBase:
    """The part of the env surface both backends build the same way.

    Subclasses provide ``rank``, ``nranks``, ``irecv``, ``now``,
    ``tracer`` and the send step's backend parts: ``_adversary`` (an
    :class:`~repro.core.faults.AdversaryState`, or ``None``),
    ``_post(src, dst, tag, data, nbytes)`` (hand a send to the message
    layer) and ``_withheld(dst, tag, data, nbytes)`` (the completed
    handle of a withheld send).  Slot-less, so a subclass keeps
    whatever ``__slots__`` it declares.
    """

    __slots__ = ()

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.nranks:
            raise ValueError(f"node {peer} out of range [0, {self.nranks})")

    def isend(self, dst: int, data: Any, tag: int = 0,
              nbytes: Optional[float] = None) -> CommHandle:
        """Post a send; returns immediately with a completion handle.
        The fault contract's adversaries act here, for both backends."""
        self._check_peer(dst)
        if nbytes is None:
            nbytes = payload_nbytes(data)
        adversary = self._adversary
        if adversary is not None:
            acted = adversary.act(self.rank, dst, tag, data, self.now,
                                  self.nranks)
            if acted is not None:
                tamper, dst, data = acted
                if tamper.kind == "withholding-rank":
                    return self._withheld(dst, tag, data, nbytes)
        return self._post(self.rank, dst, tag, data, nbytes)

    @property
    def tampered(self) -> list:
        """The adversary's :class:`~repro.core.faults.Tamper` log: the
        whole run's on the simulator, this rank's on a process."""
        adversary = self._adversary
        return adversary.tampered if adversary is not None else []

    def waitall(self, *handles) -> _WaitGroup:
        """Block until every handle (or iterable of handles) completes;
        resumes with the payload of a single recv, else a list of
        payloads/None in handle order."""
        flat: List[CommHandle] = []
        for h in handles:
            if isinstance(h, CommHandle):
                flat.append(h)
            else:
                flat.extend(h)
        return _WaitGroup(flat)

    def send(self, dst: int, data: Any, tag: int = 0,
             nbytes: Optional[float] = None) -> _WaitGroup:
        """Blocking send (post + wait)."""
        return _WaitGroup([self.isend(dst, data, tag=tag, nbytes=nbytes)])

    def recv(self, src: int, tag: int = 0) -> _WaitGroup:
        """Blocking receive; yields the payload."""
        return _WaitGroup([self.irecv(src, tag=tag)])

    def delay(self, duration: float) -> _Delay:
        """Pause for ``duration`` seconds (simulated charge / real sleep)."""
        return _Delay(duration)

    def mark(self, label: str) -> _Delay:
        """Drop a zero-cost annotation into the trace."""
        tracer = self.tracer
        if tracer is not None:
            tracer.mark(self.now, self.rank, label)
        return _Delay(0.0)
