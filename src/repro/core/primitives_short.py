"""Short-vector primitives: MST broadcast, combine-to-one, scatter, gather.

Section 4.1 of the paper.  All four are built on the same recursive
halving of the group: split the logical range in two (approximately)
equal parts, communicate one message between the part containing the
root and a chosen node of the other part, recurse within each part.
The construction

* is simple,
* works for any group size (no power-of-two requirement), and
* incurs no network conflicts on a linear array, because every step's
  messages stay inside disjoint contiguous subranges.

Costs (with ``L = ceil(log2 p)``):

=================  =========================================
broadcast          ``L (alpha + n beta)``
combine-to-one     ``L (alpha + n beta + n gamma)``
scatter            ``L alpha + ((p-1)/p) n beta``  (balanced)
gather             same as scatter
=================  =========================================

Following section 7.2, each recursion level charges the library's
``sw_overhead`` — this is why iCC loses slightly to NX for 8-byte
messages in Table 3.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from .context import CollContext
from .ops import get_op
from .partition import partition_offsets, partition_sizes


def _path(me: int, p: int, root: int) -> List[Tuple[int, int, int, int]]:
    """``(lo, mid, r, dest)`` for each level of rank ``me``'s walk down
    the recursive halving of ``[0, p)`` from ``root``, top level first.

    At each level ``me``'s range ``[lo, hi)`` splits at ``mid``; its
    root ``r`` and ``dest``, the root of the part without ``r``,
    exchange the level's one message.  The broadcast and scatter walk
    the levels top down; the gather and combine walk them bottom up.
    """
    if not 0 <= root < p:
        raise ValueError(f"root {root} outside group of size {p}")
    out = []
    lo, hi, r = 0, p, root
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2    # [lo, mid) is the ceiling half
        dest = mid if r < mid else lo
        out.append((lo, mid, r, dest))
        if me < mid:
            hi = mid
            r = r if r < mid else dest
        else:
            lo = mid
            r = r if r >= mid else dest
    return out


def mst_bcast(ctx: CollContext, buf: Optional[np.ndarray], root: int = 0
              ) -> Generator:
    """Minimum-spanning-tree broadcast (section 4.1).

    On entry ``buf`` holds the vector at the root (other ranks may pass
    None).  On exit every rank returns the vector.
    """
    me = ctx.require_member()
    for _, _, r, dest in _path(me, ctx.size, root):
        yield ctx.overhead()
        if me == r:
            yield ctx.send(dest, buf)
        elif me == dest:
            buf = yield ctx.recv(r)
    return buf


def mst_scatter(ctx: CollContext, buf: Optional[np.ndarray], root: int = 0,
                sizes: Optional[Sequence[int]] = None,
                total: Optional[int] = None) -> Generator:
    """MST scatter: "like the broadcast, except at each stage only the
    data that eventually resides in the other part of the network is
    sent" (section 4.1).

    ``buf`` at the root is the concatenation of the per-rank blocks in
    logical-rank order; other ranks may pass None.  The partition must be
    known group-wide: pass explicit per-rank ``sizes``, or the ``total``
    element count (balanced partition).  Returns this rank's block.
    """
    me = ctx.require_member()
    p = ctx.size
    path = _path(me, p, root)
    if sizes is None:
        if total is None:
            raise ValueError(
                "scatter needs the partition at every rank: pass sizes= "
                "or total=")
        sizes = partition_sizes(total, p)
    if len(sizes) != p:
        raise ValueError(f"sizes has {len(sizes)} entries for group of {p}")
    offs = partition_offsets(sizes)
    if me == root and buf is not None and len(buf) != offs[-1]:
        raise ValueError(
            f"root buffer has {len(buf)} elements, partition covers "
            f"{offs[-1]}")

    data = buf if me == root else None
    for lo, mid, r, dest in path:
        yield ctx.overhead()
        if me == r:
            cut = offs[mid] - offs[lo]
            if r < mid:
                yield ctx.send(dest, data[cut:])
                data = data[:cut]
            else:
                yield ctx.send(dest, data[:cut])
                data = data[cut:]
        elif me == dest:
            data = yield ctx.recv(r)
    return data


def mst_gather(ctx: CollContext, myblock: np.ndarray, root: int = 0,
               sizes: Optional[Sequence[int]] = None) -> Generator:
    """MST gather: "the scatter in reverse" (section 4.1).

    Returns the concatenated vector at the root, None elsewhere.
    ``sizes`` must be known at every rank (Table 3's collect is labelled
    "known lengths" for the same reason); defaults to all blocks having
    this rank's length.
    """
    me = ctx.require_member()
    p = ctx.size
    path = _path(me, p, root)
    if sizes is None:
        sizes = [len(myblock)] * p
    if len(myblock) != sizes[me]:
        raise ValueError(
            f"rank {me}: block has {len(myblock)} elements, partition "
            f"says {sizes[me]}")

    data = myblock
    for _, mid, r, dest in reversed(path):
        yield ctx.overhead()
        if me == r:
            part = yield ctx.recv(dest)
            if r < mid:
                data = np.concatenate([data, part])
            else:
                data = np.concatenate([part, data])
        elif me == dest:
            yield ctx.send(r, data)
            data = None
    return data


def mst_reduce(ctx: CollContext, vec: np.ndarray, op=None, root: int = 0
               ) -> Generator:
    """Combine-to-one: "the broadcast communications in reverse order,
    interleaving communication with the combine operation" (section 4.1).

    Every rank contributes ``vec``; the root returns the element-wise
    combination over the whole group, others return None.
    """
    op = get_op(op if op is not None else "sum")
    me = ctx.require_member()
    data = vec
    for _, _, r, dest in reversed(_path(me, ctx.size, root)):
        yield ctx.overhead()
        if me == r:
            part = yield ctx.recv(dest)
            yield ctx.compute(len(part))
            data = op(data, part)
        elif me == dest:
            yield ctx.send(r, data)
            data = None
    return data
