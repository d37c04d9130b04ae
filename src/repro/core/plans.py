"""Persistent collective plans.

Real applications call the same collective on the same group with the
same length thousands of times (every CG iteration, every SUMMA panel).
A :class:`Plan` performs the strategy selection, validation and
subgroup construction *once* and replays the operation cheaply — the
analogue of MPI persistent collectives, and the natural consumer of the
library's cost-model selection (the selector's work is provably
identical on every call, so caching it is free performance).

SPMD discipline: every group member builds the matching plan (same
operation, group, length, dtype) and calls it the same number of times.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

import numpy as np

from .api import resolve_strategy
from .context import CollContext
from .hybrid import check, run
from .ops import get_op
from .partition import partition_sizes
from .strategy import Strategy


class Plan:
    """A frozen (operation, group, length, strategy) tuple, executable.

    Build with :func:`make_plan`; run with :meth:`__call__` inside a
    rank program (``yield from plan(buf)``).
    """

    def __init__(self, operation: str, ctx: CollContext, n: int,
                 strategy: Strategy, op: Optional[Any] = None,
                 root: int = 0, sizes: Optional[Sequence[int]] = None):
        # fail fast: validate the operation and strategy now (KeyError
        # for an unknown operation)
        check(ctx, strategy, operation, root)
        self.operation = operation
        self.ctx = ctx
        self.n = n
        self.strategy = strategy
        self.op = get_op(op) if op is not None else None
        self.root = root
        self.sizes = list(sizes) if sizes is not None else None

    def __call__(self, data: Optional[np.ndarray]) -> Generator:
        """Execute one instance of the planned collective."""
        return (yield from run(self.ctx, self.operation, data,
                               self.strategy, op=self.op, root=self.root,
                               sizes=self.sizes, total=self.n))

    def __repr__(self) -> str:
        return (f"Plan({self.operation}, n={self.n}, "
                f"strategy={self.strategy}, p={self.ctx.size})")


def make_plan(env, operation: str, n: int, *,
              group: Optional[Sequence[int]] = None,
              algorithm="auto", op="sum", root: int = 0,
              sizes: Optional[Sequence[int]] = None,
              itemsize: int = 8, tag: int = 0) -> Plan:
    """Plan a collective: resolve the strategy once, reuse forever.

    Non-generator (planning involves no communication); call inside the
    rank program before the iteration loop.
    """
    ctx = env if isinstance(env, CollContext) else \
        CollContext(env, group, tag)
    ctx.require_member()
    if operation == "collect" and sizes is None and n % ctx.size == 0:
        sizes = partition_sizes(n, ctx.size)
    strategy = resolve_strategy(ctx, operation, algorithm, n, itemsize)
    kwargs = {}
    if operation in ("reduce", "allreduce", "reduce_scatter"):
        kwargs["op"] = op
    if operation in ("bcast", "reduce"):
        kwargs["root"] = root
    if operation in ("collect", "reduce_scatter"):
        kwargs["sizes"] = sizes
    return Plan(operation, ctx, n, strategy, **kwargs)
