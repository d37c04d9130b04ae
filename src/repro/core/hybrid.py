"""Hybrid collective algorithms — the Figure 3 template, executable.

A :class:`~repro.core.strategy.Strategy` views the group's logical ranks
in mixed radix: rank ``r`` has digits ``c_i = (r // stride_i) % d_i``
with ``stride_i = d_1 ... d_{i-1}`` (digit 0 is the contiguous
dimension).  A *line* of dimension ``i`` is the set of ranks that agree
on every digit except ``c_i``; each hybrid stage runs one primitive
simultaneously in every active line of its dimension.

For the broadcast (the paper's worked example, Figure 1):

* scatter stages walk the dimensions inward: at stage ``i`` only the
  lines through current data holders are active (after stage ``i``,
  holders are the ranks agreeing with the root on all digits ``> i``);
* the MST kernel broadcasts each piece down the last dimension's lines;
* collect stages walk back out, with every line active, reassembling
  the vector with bucket collects.

Data stays contiguous at every stage because pieces are split in digit
order and merged in reverse digit order, so each stage's payloads are
plain array slices — no index shuffling, exactly like the original
library's Fortran-style buffers.

One executor, :func:`run`, walks :meth:`Strategy.stages` for all five
operations; :data:`repro.core.strategy.STAGE_TABLE` says what each
``(operation, letter)`` stage runs, the same row the cost model prices.
It is an SPMD generator to be driven by the simulator (or
``yield from``-ed inside larger programs).
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Sequence

import numpy as np

from .context import CollContext
from .ops import get_op
from .partition import partition_offsets, partition_sizes
# the primitives STAGE_TABLE names, looked up in this module when a
# stage runs (so a test can substitute a faulty primitive for one)
from .primitives_long import (bucket_collect,  # noqa: F401
                              bucket_reduce_scatter)
from .primitives_short import (mst_bcast, mst_gather,  # noqa: F401
                               mst_reduce, mst_scatter)
from .strategy import STAGE_TABLE, Strategy

#: the stage arguments each primitive takes (besides line and data)
_ARGS = {
    "mst_bcast": ("root",),
    "mst_scatter": ("root", "sizes"),
    "mst_gather": ("root", "sizes"),
    "mst_reduce": ("op", "root"),
    "bucket_collect": ("sizes",),
    "bucket_reduce_scatter": ("op", "sizes"),
}


def _digits(rank: int, dims: Sequence[int]) -> List[int]:
    """Mixed-radix digits of a logical rank (digit 0 least significant)."""
    out = []
    r = rank
    for d in dims:
        out.append(r % d)
        r //= d
    return out


def _line(ctx: CollContext, me: int, digs: Sequence[int],
          dims: Sequence[int], i: int) -> CollContext:
    """Subcontext for the dimension-``i`` line through logical rank
    ``me``; line order is by digit ``c_i``."""
    stride = math.prod(dims[:i])
    base = me - digs[i] * stride
    return ctx.strided_line(base, stride, dims[i])


def check(ctx: CollContext, strategy: Strategy, operation: str,
          root: int = 0) -> None:
    """Raise unless ``strategy`` is a legal ``operation`` strategy
    (KeyError for an unknown operation) covering ``ctx``'s group, and
    ``root`` is a rank of that group."""
    strategy.check(operation)
    if strategy.p != ctx.size:
        raise ValueError(
            f"strategy {strategy} covers {strategy.p} ranks but the group "
            f"has {ctx.size}")
    if not 0 <= root < ctx.size:
        # the digits of a root outside the group (Python's modulo) name
        # another rank: a reduce to -1 would silently land on rank p-1
        raise ValueError(f"root {root} outside group of size {ctx.size}")


def _piece_len(n: int, dims: Sequence[int], digs: Sequence[int],
               upto: int) -> int:
    """Length of the nested piece selected by digits ``digs[:upto]``."""
    m = n
    for j in range(upto):
        m = partition_sizes(m, dims[j])[digs[j]]
    return m


def run(ctx: CollContext, operation: str, data: Optional[np.ndarray],
        strategy: Strategy, *, op=None, root: int = 0,
        sizes: Optional[Sequence[int]] = None,
        total: Optional[int] = None) -> Generator:
    """Run ``operation`` under ``strategy``, one stage of
    :meth:`Strategy.stages` after another.

    ``data`` is the root's vector for a broadcast (None elsewhere), this
    rank's block for a collect, and this rank's whole vector otherwise.
    ``op`` (default sum) combines; ``root`` is the broadcast's or
    reduce's root.  A broadcast or reduce splits the vector into nested
    pieces in digit order; ``total`` (the vector length) must be known
    at every broadcast rank except the root.  A collect or
    reduce-scatter moves the rank-order blocks ``sizes`` (default: a
    collect's blocks all this rank's length, a reduce-scatter's
    balanced).

    Returns the full vector on every rank (bcast, allreduce, collect),
    the combined vector at the root and None elsewhere (reduce), or
    combined block ``i`` at rank ``i`` (reduce_scatter).
    """
    check(ctx, strategy, operation, root)
    op = get_op("sum" if op is None else op)
    me = ctx.require_member()
    dims = strategy.dims
    offs = None
    if operation in ("collect", "reduce_scatter"):
        p = ctx.size
        if sizes is None:
            sizes = ([len(data)] * p if operation == "collect"
                     else partition_sizes(len(data), p))
        if len(sizes) != p:
            raise ValueError(
                f"sizes has {len(sizes)} entries for group of {p}")
        offs = partition_offsets(sizes)
        n = offs[-1]
        # checked here, before any stage: a line's primitive would name
        # the rank within its line, and some only at the line's root
        what, want = (("block", sizes[me]) if operation == "collect"
                      else ("vector", n))
        if len(data) != want:
            raise ValueError(f"rank {me}: {what} has {len(data)} "
                             f"elements, partition says {want}")
    else:
        if total is None:
            if operation == "bcast" and me != root:
                raise ValueError("bcast needs total= at non-root ranks")
            total = len(data)
        n = total
    digs = _digits(me, dims)
    rdigs = _digits(root, dims)
    op_span = ctx.span_open(operation, phase="op",
                            strategy=str(strategy), n=n)

    cur = None if operation == "bcast" and me != root else data
    for letter, i in strategy.stages(operation):
        label, phase, prims, rooted, _ = STAGE_TABLE[operation, letter]
        if rooted and digs[i + 1:] != rdigs[i + 1:]:
            continue
        d = dims[i]
        yield ctx.mark(f"{label} dim{i + 1} (d={d})")
        sp = ctx.span_open(f"{label} dim{i + 1}", phase=phase, d=d)
        line = _line(ctx, me, digs, dims, i)
        args = {"op": op, "root": rdigs[i]}
        # an MST bcast or reduce kernel takes no sizes: skip the O(d) list
        if any("sizes" in _ARGS[name] for name in prims):
            if offs is None:    # the nested piece this line splits/merges
                piece = _piece_len(n, dims, digs, i)
                args["sizes"] = partition_sizes(piece, d)
            else:               # the line's ranks' blocks, in rank order
                w = math.prod(dims[:i])
                base = me - me % (w * d)
                args["sizes"] = [offs[base + (j + 1) * w]
                                 - offs[base + j * w] for j in range(d)]
        for name in prims:
            cur = yield from globals()[name](
                line, cur, **{a: args[a] for a in _ARGS[name]})
        ctx.span_close(sp)
    ctx.span_close(op_span)
    return cur
