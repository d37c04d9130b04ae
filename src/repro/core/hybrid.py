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

All functions are SPMD generators to be driven by the simulator (or
``yield from``-ed inside larger programs).
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional, Sequence

import numpy as np

from .context import CollContext
from .ops import get_op
from .partition import partition_offsets, partition_sizes
from .primitives_long import bucket_collect, bucket_reduce_scatter
from .primitives_short import mst_bcast, mst_gather, mst_reduce, mst_scatter
from .strategy import Strategy


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


def _check(ctx: CollContext, strategy: Strategy, operation: str) -> None:
    strategy.check(operation)
    if strategy.p != ctx.size:
        raise ValueError(
            f"strategy {strategy} covers {strategy.p} ranks but the group "
            f"has {ctx.size}")


def _piece_len(n: int, dims: Sequence[int], digs: Sequence[int],
               upto: int) -> int:
    """Length of the nested piece selected by digits ``digs[:upto]``."""
    m = n
    for j in range(upto):
        m = partition_sizes(m, dims[j])[digs[j]]
    return m


# ----------------------------------------------------------------------
# broadcast family (S...S [M] C...C)
# ----------------------------------------------------------------------

def hybrid_bcast(ctx: CollContext, buf: Optional[np.ndarray],
                 root: int, strategy: Strategy,
                 total: Optional[int] = None) -> Generator:
    """Broadcast under an arbitrary ``S^a [M] C^a`` strategy.

    ``total`` (the vector length) must be known at every rank unless this
    rank is the root.  Returns the full vector on every rank.
    """
    _check(ctx, strategy, "bcast")
    me = ctx.require_member()
    dims = strategy.dims
    a = strategy.nscatter
    if total is None:
        if me != root:
            raise ValueError("hybrid_bcast needs total= at non-root ranks")
        total = len(buf)
    digs = _digits(me, dims)
    rdigs = _digits(root, dims)
    k = len(dims)
    op_span = ctx.span_open("bcast", phase="op",
                            strategy=str(strategy), n=total)

    cur = buf if me == root else None

    # scatter stages, contiguous dimension first
    for i in range(a):
        if all(digs[j] == rdigs[j] for j in range(i + 1, k)):
            yield ctx.mark(f"scatter dim{i + 1} (d={dims[i]})")
            sp = ctx.span_open(f"scatter dim{i + 1}", phase="scatter",
                               d=dims[i])
            line = _line(ctx, me, digs, dims, i)
            entering = _piece_len(total, dims, digs, i)
            sizes = partition_sizes(entering, dims[i])
            cur = yield from mst_scatter(line, cur, root=rdigs[i],
                                         sizes=sizes)
            ctx.span_close(sp)

    # short-vector kernel down the last dimension
    if strategy.has_kernel:
        yield ctx.mark(f"MST bcast dim{a + 1} (d={dims[a]})")
        sp = ctx.span_open(f"MST bcast dim{a + 1}", phase="kernel",
                           d=dims[a])
        line = _line(ctx, me, digs, dims, a)
        cur = yield from mst_bcast(line, cur, root=rdigs[a])
        ctx.span_close(sp)

    # collect stages back out, every line active
    for i in reversed(range(a)):
        yield ctx.mark(f"collect dim{i + 1} (d={dims[i]})")
        sp = ctx.span_open(f"collect dim{i + 1}", phase="collect",
                           d=dims[i])
        line = _line(ctx, me, digs, dims, i)
        entering = _piece_len(total, dims, digs, i)
        sizes = partition_sizes(entering, dims[i])
        cur = yield from bucket_collect(line, cur, sizes=sizes)
        ctx.span_close(sp)

    ctx.span_close(op_span)
    return cur


def hybrid_reduce(ctx: CollContext, vec: np.ndarray, op, root: int,
                  strategy: Strategy) -> Generator:
    """Combine-to-one under ``S^a [M] C^a``: bucket reduce-scatters walk
    in, the MST combine kernel finishes the reduction, gathers walk out.
    Returns the combined vector at the root, None elsewhere."""
    _check(ctx, strategy, "reduce")
    op = get_op(op)
    me = ctx.require_member()
    dims = strategy.dims
    a = strategy.nscatter
    k = len(dims)
    n = len(vec)
    digs = _digits(me, dims)
    rdigs = _digits(root, dims)
    op_span = ctx.span_open("reduce", phase="op",
                            strategy=str(strategy), n=n)

    cur = vec
    for i in range(a):
        yield ctx.mark(f"reduce-scatter dim{i + 1} (d={dims[i]})")
        sp = ctx.span_open(f"reduce-scatter dim{i + 1}",
                           phase="reduce-scatter", d=dims[i])
        line = _line(ctx, me, digs, dims, i)
        sizes = partition_sizes(len(cur), dims[i])
        cur = yield from bucket_reduce_scatter(line, cur, op=op, sizes=sizes)
        ctx.span_close(sp)

    if strategy.has_kernel:
        yield ctx.mark(f"MST reduce dim{a + 1} (d={dims[a]})")
        sp = ctx.span_open(f"MST reduce dim{a + 1}", phase="kernel",
                           d=dims[a])
        line = _line(ctx, me, digs, dims, a)
        cur = yield from mst_reduce(line, cur, op=op, root=rdigs[a])
        if digs[a] != rdigs[a]:
            cur = None
        ctx.span_close(sp)

    for i in reversed(range(a)):
        if all(digs[j] == rdigs[j] for j in range(i + 1, k)):
            yield ctx.mark(f"gather dim{i + 1} (d={dims[i]})")
            sp = ctx.span_open(f"gather dim{i + 1}", phase="gather",
                               d=dims[i])
            line = _line(ctx, me, digs, dims, i)
            entering = _piece_len(n, dims, digs, i)
            sizes = partition_sizes(entering, dims[i])
            cur = yield from mst_gather(line, cur, root=rdigs[i],
                                        sizes=sizes)
            if digs[i] != rdigs[i]:
                cur = None
            ctx.span_close(sp)

    ctx.span_close(op_span)
    return cur


def hybrid_allreduce(ctx: CollContext, vec: np.ndarray, op,
                     strategy: Strategy) -> Generator:
    """Combine-to-all under ``S^a [M] C^a``: reduce-scatters in, an
    allreduce kernel (MST combine + MST broadcast) across the last
    dimension, bucket collects out.  Returns the combined vector on
    every rank."""
    _check(ctx, strategy, "allreduce")
    op = get_op(op)
    me = ctx.require_member()
    dims = strategy.dims
    a = strategy.nscatter
    n = len(vec)
    digs = _digits(me, dims)
    op_span = ctx.span_open("allreduce", phase="op",
                            strategy=str(strategy), n=n)

    cur = vec
    for i in range(a):
        yield ctx.mark(f"reduce-scatter dim{i + 1} (d={dims[i]})")
        sp = ctx.span_open(f"reduce-scatter dim{i + 1}",
                           phase="reduce-scatter", d=dims[i])
        line = _line(ctx, me, digs, dims, i)
        sizes = partition_sizes(len(cur), dims[i])
        cur = yield from bucket_reduce_scatter(line, cur, op=op, sizes=sizes)
        ctx.span_close(sp)

    if strategy.has_kernel:
        yield ctx.mark(f"allreduce kernel dim{a + 1} (d={dims[a]})")
        sp = ctx.span_open(f"allreduce kernel dim{a + 1}", phase="kernel",
                           d=dims[a])
        line = _line(ctx, me, digs, dims, a)
        cur = yield from mst_reduce(line, cur, op=op, root=0)
        cur = yield from mst_bcast(line, cur, root=0)
        ctx.span_close(sp)

    for i in reversed(range(a)):
        yield ctx.mark(f"collect dim{i + 1} (d={dims[i]})")
        sp = ctx.span_open(f"collect dim{i + 1}", phase="collect",
                           d=dims[i])
        line = _line(ctx, me, digs, dims, i)
        entering = _piece_len(n, dims, digs, i)
        sizes = partition_sizes(entering, dims[i])
        cur = yield from bucket_collect(line, cur, sizes=sizes)
        ctx.span_close(sp)

    ctx.span_close(op_span)
    return cur


# ----------------------------------------------------------------------
# collect family (C^k or M C^{k-1})
# ----------------------------------------------------------------------

def hybrid_collect(ctx: CollContext, myblock: np.ndarray,
                   strategy: Strategy,
                   sizes: Optional[Sequence[int]] = None) -> Generator:
    """Collect (allgather) under ``C^k`` / ``M C^{k-1}``: merge the
    contiguous dimension first and walk outward; with ``M``, the
    innermost merge uses the short kernel (gather + MST broadcast).
    Returns the full vector on every rank."""
    _check(ctx, strategy, "collect")
    me = ctx.require_member()
    p = ctx.size
    dims = strategy.dims
    if sizes is None:
        sizes = [len(myblock)] * p
    if len(sizes) != p:
        raise ValueError(f"sizes has {len(sizes)} entries for group of {p}")
    offs = partition_offsets(sizes)
    digs = _digits(me, dims)
    op_span = ctx.span_open("collect", phase="op",
                            strategy=str(strategy), n=offs[-1])

    cur = myblock
    W = 1
    for i, d in enumerate(dims):
        yield ctx.mark(f"collect dim{i + 1} (d={d})")
        kernel = i == 0 and strategy.has_kernel
        sp = ctx.span_open(f"collect dim{i + 1}",
                           phase="kernel" if kernel else "collect", d=d)
        line = _line(ctx, me, digs, dims, i)
        lbase = (me // (W * d)) * (W * d)
        stage_sizes = [offs[lbase + (j + 1) * W] - offs[lbase + j * W]
                       for j in range(d)]
        if kernel:
            full = yield from mst_gather(line, cur, root=0,
                                         sizes=stage_sizes)
            cur = yield from mst_bcast(line, full, root=0)
        else:
            cur = yield from bucket_collect(line, cur, sizes=stage_sizes)
        ctx.span_close(sp)
        W *= d
    ctx.span_close(op_span)
    return cur


# ----------------------------------------------------------------------
# distributed-combine family (S^k or S^{k-1} M)
# ----------------------------------------------------------------------

def hybrid_reduce_scatter(ctx: CollContext, vec: np.ndarray, op,
                          strategy: Strategy,
                          sizes: Optional[Sequence[int]] = None
                          ) -> Generator:
    """Distributed global combine under ``S^k`` / ``S^{k-1} M``: split
    the outermost dimension first and walk inward; with ``M``, the
    innermost stage uses the short kernel (MST combine + MST scatter).
    Rank ``i`` returns combined block ``i``."""
    _check(ctx, strategy, "reduce_scatter")
    op = get_op(op)
    me = ctx.require_member()
    p = ctx.size
    dims = strategy.dims
    if sizes is None:
        sizes = partition_sizes(len(vec), p)
    if len(sizes) != p:
        raise ValueError(f"sizes has {len(sizes)} entries for group of {p}")
    offs = partition_offsets(sizes)
    digs = _digits(me, dims)
    op_span = ctx.span_open("reduce_scatter", phase="op",
                            strategy=str(strategy), n=offs[-1])

    cur = vec
    for i in reversed(range(len(dims))):
        d = dims[i]
        W = math.prod(dims[:i])
        yield ctx.mark(f"reduce-scatter dim{i + 1} (d={d})")
        kernel = i == 0 and strategy.has_kernel
        sp = ctx.span_open(f"reduce-scatter dim{i + 1}",
                           phase="kernel" if kernel else "reduce-scatter",
                           d=d)
        line = _line(ctx, me, digs, dims, i)
        vbase = (me // (W * d)) * (W * d)
        base_off = offs[vbase]
        stage_sizes = [offs[vbase + (j + 1) * W] - offs[vbase + j * W]
                       for j in range(d)]
        if kernel:
            full = yield from mst_reduce(line, cur, op=op, root=0)
            cur = yield from mst_scatter(line, full, root=0,
                                         sizes=stage_sizes)
        else:
            cur = yield from bucket_reduce_scatter(line, cur, op=op,
                                                   sizes=stage_sizes)
        ctx.span_close(sp)
    ctx.span_close(op_span)
    return cur
