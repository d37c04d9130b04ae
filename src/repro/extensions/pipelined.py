"""Pipelined broadcast — the "theoretically superior" comparator of
section 8.

The paper: "for some of the communications, optimal algorithms for long
vectors exist that in theory outperform our approach.  For example, on
hypercubes Ho and Johnsson's EDST broadcast will outperform our
scatter/collect broadcast by a factor of two for long vectors.  However
... such pipelined algorithms are generally difficult to implement and
are extremely architecture dependent.  They are also more susceptible to
timing irregularities resulting from the more complex operating systems
of current generation machines."

We implement the pipelined-chain broadcast (the authors' own companion
algorithm, reference [15], van de Geijn & Watts, *A Pipelined Broadcast
for Multidimensional Meshes*): the message is cut into ``K`` chunks that
stream down a chain (a Hamiltonian path of the machine — trivially the
identity on a linear array, a boustrophedon path on a mesh, a Gray-code
cycle on a hypercube).  Its cost,

    ``(p - 1 + K - 1)(alpha + (n/K) beta)``,

approaches ``n beta`` for large ``n`` with the optimal ``K`` — a factor
of two better than scatter/collect's ``2 n beta``, the same asymptotic
win the EDST broadcast buys on hypercubes.  It shares the EDST's
fragility, which :func:`jittered` makes measurable: every store-and-
forward stage adds its *own* timing noise to the critical path, so with
per-message OS jitter the pipeline's advantage evaporates while
scatter/collect (with only ``~log p + p/K`` serial stages of much bigger
messages) barely moves.  That reproduces the section 8 argument as an
experiment instead of an anecdote.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, List, Optional

import numpy as np

from ..core.context import CollContext
from ..core.partition import partition_offsets, partition_sizes
from ..core.params import MachineParams
from ..core.topology import Hypercube, Mesh2D, Topology


def optimal_chunks(p: int, nbytes: float, params: MachineParams,
                   max_chunks: int = 4096) -> int:
    """Chunk count minimizing ``(p-2+K)(alpha + (n/K) beta)``:
    ``K* = sqrt((p-2) n beta / alpha)``."""
    if p <= 1 or nbytes <= 0:
        return 1
    if params.alpha <= 0:
        return max_chunks
    k = math.sqrt(max(p - 2, 1) * nbytes * params.beta / params.alpha)
    return max(1, min(max_chunks, round(k)))


def chain_order(topology: Topology) -> List[int]:
    """A Hamiltonian path through the machine along physical links.

    Linear arrays/rings: the identity.  Meshes: boustrophedon (snake)
    row order, so consecutive chain nodes are physically adjacent.
    Hypercubes: the binary-reflected Gray code.  Anything else: the
    identity (chain hops then simply route further).
    """
    if isinstance(topology, Mesh2D):
        order = []
        for r in range(topology.rows):
            cols = range(topology.cols) if r % 2 == 0 else \
                range(topology.cols - 1, -1, -1)
            order.extend(topology.node_at(r, c) for c in cols)
        return order
    if isinstance(topology, Hypercube):
        return [g ^ (g >> 1) for g in range(topology.nnodes)]
    return list(range(topology.nnodes))


def pipelined_bcast(ctx: CollContext, buf: Optional[np.ndarray],
                    root: int = 0, total: Optional[int] = None,
                    chunks: Optional[int] = None,
                    jitter: Optional[Callable[[], float]] = None
                    ) -> Generator:
    """Chunked chain broadcast from logical rank ``root``.

    The chain is the logical rank order (pass a chain-ordered group for
    physical adjacency).  The root forwards chunk ``c`` as soon as chunk
    ``c-1`` is away; every interior rank forwards each chunk on receipt,
    so all ``p-1`` hops stream concurrently.

    ``jitter()``, when given, is sampled before every send and charged
    as extra local delay — the "timing irregularities" knob.
    """
    me = ctx.require_member()
    p = ctx.size
    if total is None:
        if me != root:
            raise ValueError(
                "pipelined_bcast needs total= at non-root ranks")
        total = len(buf)
    if chunks is None:
        itemsize = buf.dtype.itemsize if buf is not None else 8
        chunks = optimal_chunks(p, total * itemsize, ctx.env.params)
    chunks = max(1, min(chunks, total)) if total else 1
    yield ctx.overhead()
    if p == 1:
        return buf

    # chain positions relative to the root: root streams toward higher
    # logical ranks and (if it is interior) toward lower ranks as well,
    # so the chain works for any root without wrapping through it.
    sizes = partition_sizes(total, chunks)
    offs = partition_offsets(sizes)

    def stream(direction: int):
        """Forward chunks along +1 or -1 in logical rank order."""
        nxt = me + direction
        prv = me - direction
        is_source = me == root
        last = 0 <= nxt < p
        pending = None
        for c in range(chunks):
            if is_source:
                chunk = buf[offs[c]:offs[c + 1]]
            else:
                chunk = yield ctx.recv(prv)
                received.append(chunk)
            if last:
                if jitter is not None:
                    yield ctx.env.delay(jitter())
                if pending is not None:
                    yield ctx.waitall(pending)
                pending = ctx.isend(nxt, chunk)
        if pending is not None:
            yield ctx.waitall(pending)

    received: List[np.ndarray] = []
    if me == root:
        if root + 1 < p and root - 1 >= 0:
            # interior root: stream both ways; serialize chunk sends
            # through the single injection port by alternating.
            yield from stream(+1)
            yield from stream(-1)
        elif root + 1 < p:
            yield from stream(+1)
        elif root - 1 >= 0:
            yield from stream(-1)
        return buf
    direction = +1 if me > root else -1
    yield from stream(direction)
    return np.concatenate(received) if len(received) > 1 else received[0]
