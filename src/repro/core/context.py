"""The collective context: a group-local view of the machine.

Section 9 of the paper describes the group mechanism that the library is
built on: "the ring collect routine would treat those processors as a
group of contiguous nodes numbered 0 to r-1, using the group array to
provide the logical-to-physical mapping."

:class:`CollContext` is exactly that group array plus a rank's-eye view
of it.  Every collective algorithm in :mod:`repro.core` is written
against logical ranks ``0 .. size-1``; the context translates them to
physical node ids when posting sends and receives.  Hybrid algorithms
recurse by deriving *subgroup* contexts (rows, columns, strided lines of
a logical mesh) from a parent context.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from .protocol import CommHandle, _WaitGroup


class CollContext:
    """A rank's view of a collective operating over a node group.

    Backend-neutral: ``env`` may be the simulator's
    :class:`~repro.sim.engine.RankEnv` or any object satisfying the
    protocol contract of :mod:`repro.core.protocol` (e.g. the process
    runtime's :class:`~repro.runtime.env.ProcessEnv`).  Every post,
    span and clock read goes through that surface (``isend``,
    ``irecv``, ``tracer``, ``now``) on both backends; only the
    simulator control :attr:`max_events` looks up ``env.engine``.

    Parameters
    ----------
    env:
        The rank's env (simulated or real backend).
    group:
        Physical node ids, logical order.  ``None`` means all nodes in
        rank order (the whole-machine group).
    tag:
        Message tag for this collective context.  Concurrent collectives
        on overlapping groups must use distinct tags; sequential stages
        within one collective may share a tag (matching is FIFO per
        (source, tag) pair).
    """

    __slots__ = ("env", "group", "tag", "rank", "_phys2log", "_op_attrs")

    def __init__(self, env, group: Optional[Sequence[int]] = None,
                 tag: int = 0):
        self.env = env
        if group is None:
            group = range(env.nranks)
        self.group: Tuple[int, ...] = tuple(group)
        if len(set(self.group)) != len(self.group):
            raise ValueError("group contains duplicate node ids")
        if not self.group:
            raise ValueError("group must contain at least one node")
        self.tag = tag
        self._phys2log = {p: l for l, p in enumerate(self.group)}
        self.rank: Optional[int] = self._phys2log.get(env.rank)
        self._op_attrs: Optional[dict] = None

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of group members."""
        return len(self.group)

    @property
    def is_member(self) -> bool:
        return self.rank is not None

    def phys(self, lrank: int) -> int:
        """Physical node id of a logical rank."""
        return self.group[lrank]

    def logical(self, node: int) -> Optional[int]:
        """Logical rank of a physical node id, or None if not a member."""
        return self._phys2log.get(node)

    def require_member(self) -> int:
        """The calling rank's logical rank; raises for non-members."""
        if self.rank is None:
            raise RuntimeError(
                f"node {self.env.rank} is not a member of this group")
        return self.rank

    # ------------------------------------------------------------------
    # engine limits (docs/robustness.md)
    # ------------------------------------------------------------------

    @property
    def max_events(self) -> int:
        """The engine's event-count safety limit.

        Settable from rank programs: lowering it turns a suspected
        runaway collective into a prompt
        :class:`~repro.sim.engine.SimulationLimitError` instead of a
        multi-minute spin to the default limit.

        Simulator-only: a real backend has no event heap, so reading or
        setting this on a non-simulated env raises a clear error (use
        the launcher's wall-clock watchdog instead, docs/runtime.md).
        """
        return self._engine().max_events

    @max_events.setter
    def max_events(self, value: int) -> None:
        if value < 1:
            raise ValueError("max_events must be positive")
        self._engine().max_events = value

    def _engine(self):
        eng = getattr(self.env, "engine", None)
        if eng is None:
            raise RuntimeError(
                "max_events is a simulator control, but this context's env "
                f"({type(self.env).__name__}) has no engine; on the real "
                "backend use the launcher watchdog (docs/runtime.md)")
        return eng

    # ------------------------------------------------------------------
    # communication in logical coordinates
    # ------------------------------------------------------------------

    def isend(self, ldst: int, data: Any,
              nbytes: Optional[float] = None) -> CommHandle:
        return self.env.isend(self.group[ldst], data, tag=self.tag,
                              nbytes=nbytes)

    def irecv(self, lsrc: int) -> CommHandle:
        return self.env.irecv(self.group[lsrc], tag=self.tag)

    def send(self, ldst: int, data: Any, nbytes: Optional[float] = None):
        return self.env.send(self.group[ldst], data, tag=self.tag,
                             nbytes=nbytes)

    def recv(self, lsrc: int):
        return self.env.recv(self.group[lsrc], tag=self.tag)

    def waitall(self, *handles: CommHandle):
        # Group code always passes bare handles (never nested lists), so
        # skip RankEnv.waitall's flattening pass.
        return _WaitGroup(list(handles))

    def compute(self, nelems: float):
        return self.env.compute(nelems)

    def overhead(self, count: float = 1.0):
        return self.env.overhead(count)

    def mark(self, label: str):
        return self.env.mark(label)

    # ------------------------------------------------------------------
    # observability spans (docs/observability.md)
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        """The env's trace collector, or None (tracing off / no tracer)."""
        return getattr(self.env, "tracer", None)

    def span_open(self, label: str, phase: str = "", **attrs):
        """Open a stage span on this rank's tracer.

        Returns an opaque span token (None when tracing is off) to be
        passed to :meth:`span_close`.  Plain method calls, not requests:
        spans carry no simulated cost and never touch the event heap,
        so instrumented runs stay bit-identical.

        An ``"op"``-phase span additionally absorbs (and clears) any
        attributes stashed by :meth:`annotate_next_op` — this is how
        ``algorithm="auto"`` dispatch attaches its prediction record to
        the whole-collective span the hybrid opens a moment later.
        """
        tracer = self.tracer
        if tracer is None:
            return None
        if phase == "op" and self._op_attrs is not None:
            merged = self._op_attrs
            merged.update(attrs)
            attrs = merged
            self._op_attrs = None
        return tracer.span_open(self.env.now, self.env.rank, label,
                                phase=phase, attrs=attrs or None)

    def annotate_next_op(self, **attrs) -> None:
        """Stash attributes for the next ``"op"``-phase span on this
        context (no-op when tracing is off).

        Strategy resolution happens in :mod:`repro.core.api` *before*
        the hybrid opens its op span, so the resolver cannot annotate
        the span directly; it leaves the prediction record here and
        :meth:`span_open` merges it in.  Purely observational: never
        touches simulated state.
        """
        if self.tracer is None:
            return
        if self._op_attrs is None:
            self._op_attrs = {}
        self._op_attrs.update(attrs)

    def span_close(self, span) -> None:
        """Close a span opened with :meth:`span_open` (None is a no-op)."""
        if span is not None:
            self.tracer.span_close(span, self.env.now)

    # ------------------------------------------------------------------
    # subgroups (hybrid stages, mesh rows/columns)
    # ------------------------------------------------------------------

    def subgroup(self, lranks: Sequence[int], tag: Optional[int] = None
                 ) -> "CollContext":
        """Context over a subset of this group, in the given logical order."""
        return CollContext(self.env,
                           [self.group[l] for l in lranks],
                           tag=self.tag if tag is None else tag)

    def strided_line(self, start: int, stride: int, count: int
                     ) -> "CollContext":
        """Subgroup ``start, start+stride, ...`` of ``count`` members.

        This is how a linear group is viewed as a logical mesh (section
        6): dimension ``i`` lines have stride ``d_1 * ... * d_{i-1}``.
        """
        return self.subgroup([start + stride * k for k in range(count)])

    def __repr__(self) -> str:
        g = list(self.group)
        shown = g if len(g) <= 8 else g[:8] + ["..."]
        return (f"CollContext(rank={self.rank}, size={self.size}, "
                f"tag={self.tag}, group={shown})")
