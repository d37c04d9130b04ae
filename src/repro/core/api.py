"""Public iCC-style collective API.

These are the user-facing operations of the library — the analogue of
``iCC_bcast()`` and friends from section 10.  Each function is an SPMD
generator to be ``yield from``-ed inside a rank program:

.. code-block:: python

    from repro.core import api

    def program(env):
        x = np.arange(1000.0) if env.rank == 0 else None
        x = yield from api.bcast(env, x, root=0, total=1000)
        s = yield from api.allreduce(env, x)
        return s

Every operation accepts:

``group``
    physical node ids (logical order); default all nodes.  Group
    structure is extracted automatically (section 9) and mesh-aligned
    groups get mesh-aware strategies.
``algorithm``
    ``"auto"`` (cost-model selection — the library's reason to exist),
    ``"short"`` (pure short-vector algorithm), ``"long"`` (pure
    long-vector algorithm), a :class:`~repro.core.strategy.Strategy`,
    or a parseable strategy string like ``"2x3x5:SSMCC"``.
``tag``
    message tag; concurrent collectives on overlapping groups need
    distinct tags.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Union

import numpy as np

from .context import CollContext
# ``classify`` stays a module attribute: perfbench/spans.py wraps
# ``api.classify`` by name (``Group.structure`` runs it once per group).
from .groups import classify  # noqa: F401
from .hybrid import (hybrid_allreduce, hybrid_bcast, hybrid_collect,
                     hybrid_reduce, hybrid_reduce_scatter)
from .primitives_short import mst_bcast, mst_gather, mst_reduce, mst_scatter
from .selection import selector_for
from .strategy import Strategy

AlgorithmSpec = Union[str, Strategy]

_SHORT = {
    "bcast": "M", "reduce": "M", "allreduce": "M",
    "collect": "M", "reduce_scatter": "M",
}
_LONG = {
    "bcast": "SC", "reduce": "SC", "allreduce": "SC",
    "collect": "C", "reduce_scatter": "S",
}


def _context(env, group, tag) -> CollContext:
    if isinstance(env, CollContext):
        if group is not None:
            raise ValueError("pass either a context or a group, not both")
        return env
    return CollContext(env, group, tag)


#: itemsize every rank assumes when no dtype is declared (float64).
#: Part of the SPMD contract: ``algorithm="auto"`` prices candidate
#: strategies with ``n * itemsize`` bytes, so *every* group member must
#: price with the same itemsize or different ranks can resolve
#: different strategies — mismatched send/recv patterns, i.e. a hang or
#: corruption.  Deriving the default from a local buffer is therefore
#: forbidden for any operation where some ranks lack the buffer
#: (broadcast: only the root holds data).
DEFAULT_ITEMSIZE = 8

#: ``algorithm="auto"`` fallback threshold when the env reports no
#: :class:`~repro.core.params.MachineParams` (a real backend launched
#: without a machine description): payloads of at most this many bytes
#: use the short-vector strategy, larger ones the long-vector strategy.
#: A fixed constant — not derived from any local state — so every group
#: member resolves the same strategy (the SPMD agreement contract).
#: 4096 bytes sits inside the short/long crossover band of every
#: configured preset (see docs/runtime.md).
AUTO_FALLBACK_SHORT_NBYTES = 4096


def _agreed_itemsize(dtype) -> int:
    """Itemsize of the *declared* element type (group-wide contract).

    SPMD asymmetry audit of the seven operations:

    * ``bcast`` — only the root holds ``buf``; the itemsize MUST come
      from the declared ``dtype=`` (or the fixed default), never from
      the root's buffer (the historical ``itemsize=8``-at-non-root
      hardcode made ranks disagree for non-float64 payloads).
    * ``reduce`` / ``allreduce`` / ``collect`` / ``reduce_scatter`` —
      every rank holds a local vector and element-wise semantics
      already require identical dtypes group-wide, so deriving the
      itemsize from the local vector is rank-symmetric.  A ``dtype=``
      override is accepted anyway for callers that want the contract
      explicit.
    * ``scatter`` / ``gather`` — no auto dispatch (the MST algorithm is
      optimal in both regimes); nothing to agree on.
    """
    if dtype is None:
        return DEFAULT_ITEMSIZE
    return np.dtype(dtype).itemsize


def resolve_strategy(ctx: CollContext, operation: str,
                     algorithm: AlgorithmSpec, n: int,
                     itemsize: int) -> Strategy:
    """Turn an algorithm spec into a concrete strategy for this group.

    ``itemsize`` must be rank-agreed (see :func:`_agreed_itemsize`):
    it feeds the cost model, and the chosen strategy dictates the
    communication pattern every member executes.

    When the run is traced, an ``"auto"`` resolution also records the
    Selector's prediction — chosen cost, conflict factors, and the full
    ranked candidate list — onto the collective's op span (prediction
    capture, see ``docs/observability.md`` and :mod:`repro.obs.audit`).
    The capture is strictly passive and costs nothing when tracing is
    off.
    """
    p = ctx.size
    if isinstance(algorithm, Strategy):
        return algorithm
    if algorithm == "short":
        return Strategy((p,), _SHORT[operation])
    if algorithm == "long":
        return Strategy((p,), _LONG[operation])
    if algorithm == "auto":
        params = getattr(ctx.env, "params", None)
        if params is None:
            # No MachineParams to price candidates with (a real backend
            # launched without a machine description): fall back to the
            # documented fixed-threshold rule.  Deterministic and
            # rank-agreed — the threshold is a constant and n/itemsize
            # are part of the collective contract.
            regime = ("short" if n * itemsize <= AUTO_FALLBACK_SHORT_NBYTES
                      else "long")
            ctx.annotate_next_op(selector_fallback=regime)
            return Strategy((p,), (_SHORT if regime == "short"
                                   else _LONG)[operation])
        # Degraded-link pricing (docs/robustness.md): when the fault
        # schedule declares link slowdowns, price candidates with the
        # worst declared beta multiplier so the Selector re-ranks for
        # the degraded machine.  Derived from the *schedule* (not the
        # instantaneous fault state) so every rank prices identically
        # regardless of when it resolves — the SPMD agreement contract.
        # Only the simulator has a fault layer; other backends price
        # with the params as given.
        beta_mult = 1.0
        eng = getattr(ctx.env, "engine", None)
        fs = eng._faults if eng is not None else None
        if fs is not None:
            beta_mult = fs.schedule.pricing_beta_multiplier()
            if beta_mult > 1.0:
                params = params.with_(beta=params.beta * beta_mult)
        sel = selector_for(params, itemsize=itemsize)
        mesh_shape = ctx.grp.mesh_shape
        choice = sel.best(operation, p, n, mesh_shape=mesh_shape)
        if ctx.tracer is not None:
            _capture_prediction(ctx, sel, operation, p, n, itemsize,
                                mesh_shape, choice)
            if beta_mult > 1.0:
                ctx.annotate_next_op(selector_beta_multiplier=beta_mult)
        return choice.strategy
    # otherwise: a strategy string like "2x3x5:SSMCC"
    return Strategy.parse(algorithm)


def _capture_prediction(ctx: CollContext, sel, operation: str, p: int,
                        n: int, itemsize: int, mesh_shape, choice) -> None:
    """Stash the Selector's prediction for the op span about to open.

    Reads the ranking back out of the selector's bucket cache (a hit —
    :meth:`~repro.core.selection.Selector.best` just populated it), so
    capture adds no pricing work beyond tuple construction.
    """
    from .selection import length_bucket
    ranked = sel.ranked_bucketed(operation, p, n, mesh_shape)
    ctx.annotate_next_op(
        predicted_cost=choice.cost,
        predicted_conflicts=tuple(choice.conflicts),
        selector_candidates=tuple((str(c.strategy), c.cost)
                                  for c in ranked),
        selector_bucket=length_bucket(n),
        selector_itemsize=itemsize,
        selector_mesh_shape=mesh_shape,
    )


# ----------------------------------------------------------------------
# the seven operations of Table 1
# ----------------------------------------------------------------------

def bcast(env, buf: Optional[np.ndarray], root: int = 0, *,
          group: Optional[Sequence[int]] = None,
          total: Optional[int] = None,
          dtype=None,
          algorithm: AlgorithmSpec = "auto",
          tag: int = 0) -> Generator:
    """Broadcast: ``x`` at the root, ``x`` at every group member after.

    ``total`` (vector length, elements) must be passed at non-root ranks
    — lengths are assumed known, as in the original library.  ``dtype``
    declares the element type at *every* rank; like ``total`` it is part
    of the agreed collective contract, feeding ``algorithm="auto"``
    strategy selection so that all ranks price — and therefore pick —
    the same strategy.  Defaults to float64 consistently on every rank
    (the root's local buffer dtype is deliberately not consulted: only
    the root has one).
    """
    ctx = _context(env, group, tag)
    me = ctx.require_member()
    if total is None:
        if me != root:
            raise ValueError("bcast needs total= at non-root ranks")
        total = len(buf)
    if (dtype is not None and me == root and buf is not None
            and np.dtype(dtype) != buf.dtype):
        raise ValueError(
            f"declared dtype={np.dtype(dtype)} does not match the root "
            f"buffer dtype {buf.dtype}")
    itemsize = _agreed_itemsize(dtype)
    strategy = resolve_strategy(ctx, "bcast", algorithm, total, itemsize)
    return (yield from hybrid_bcast(ctx, buf, root, strategy, total=total))


def reduce(env, vec: np.ndarray, op="sum", root: int = 0, *,
           group: Optional[Sequence[int]] = None,
           dtype=None,
           algorithm: AlgorithmSpec = "auto",
           tag: int = 0) -> Generator:
    """Combine-to-one: element-wise combination of every member's ``vec``
    lands on the root (None elsewhere).

    Rank-symmetric by construction: every member holds ``vec`` and the
    element-wise semantics require identical dtypes group-wide, so the
    local itemsize is already agreed.  ``dtype`` makes the contract
    explicit when desired.
    """
    ctx = _context(env, group, tag)
    ctx.require_member()
    itemsize = (vec.dtype.itemsize if dtype is None
                else np.dtype(dtype).itemsize)
    strategy = resolve_strategy(ctx, "reduce", algorithm, len(vec),
                                itemsize)
    return (yield from hybrid_reduce(ctx, vec, op, root, strategy))


def allreduce(env, vec: np.ndarray, op="sum", *,
              group: Optional[Sequence[int]] = None,
              dtype=None,
              algorithm: AlgorithmSpec = "auto",
              tag: int = 0) -> Generator:
    """Global combine-to-all: every member returns the combination.

    Rank-symmetric (see :func:`reduce`); ``dtype`` is an optional
    explicit contract.
    """
    ctx = _context(env, group, tag)
    ctx.require_member()
    itemsize = (vec.dtype.itemsize if dtype is None
                else np.dtype(dtype).itemsize)
    strategy = resolve_strategy(ctx, "allreduce", algorithm, len(vec),
                                itemsize)
    return (yield from hybrid_allreduce(ctx, vec, op, strategy))


def collect(env, myblock: np.ndarray, *,
            sizes: Optional[Sequence[int]] = None,
            group: Optional[Sequence[int]] = None,
            dtype=None,
            algorithm: AlgorithmSpec = "auto",
            tag: int = 0) -> Generator:
    """Collect (allgather): every member contributes its block and
    returns the full concatenation.  Block lengths must be known
    (``sizes``; defaults to all equal to this rank's)."""
    ctx = _context(env, group, tag)
    me = ctx.require_member()
    if sizes is None:
        sizes = [len(myblock)] * ctx.size
    n = int(sum(sizes))
    itemsize = (myblock.dtype.itemsize if dtype is None
                else np.dtype(dtype).itemsize)
    strategy = resolve_strategy(ctx, "collect", algorithm, n, itemsize)
    return (yield from hybrid_collect(ctx, myblock, strategy, sizes=sizes))


def reduce_scatter(env, vec: np.ndarray, op="sum", *,
                   sizes: Optional[Sequence[int]] = None,
                   group: Optional[Sequence[int]] = None,
                   dtype=None,
                   algorithm: AlgorithmSpec = "auto",
                   tag: int = 0) -> Generator:
    """Distributed global combine: member ``i`` returns block ``i`` of
    the element-wise combination.

    Rank-symmetric (see :func:`reduce`); ``dtype`` is an optional
    explicit contract.
    """
    ctx = _context(env, group, tag)
    ctx.require_member()
    itemsize = (vec.dtype.itemsize if dtype is None
                else np.dtype(dtype).itemsize)
    strategy = resolve_strategy(ctx, "reduce_scatter", algorithm, len(vec),
                                itemsize)
    return (yield from hybrid_reduce_scatter(ctx, vec, op, strategy,
                                             sizes=sizes))


def scatter(env, buf: Optional[np.ndarray], root: int = 0, *,
            total: Optional[int] = None,
            sizes: Optional[Sequence[int]] = None,
            group: Optional[Sequence[int]] = None,
            tag: int = 0) -> Generator:
    """Scatter: block ``i`` of the root's vector lands on member ``i``.

    The MST scatter is simultaneously the short- and long-vector
    algorithm (sections 4.1/4.2), so there is nothing to hybridize.
    """
    ctx = _context(env, group, tag)
    ctx.require_member()
    return (yield from mst_scatter(ctx, buf, root=root, sizes=sizes,
                                   total=total))


def gather(env, myblock: np.ndarray, root: int = 0, *,
           sizes: Optional[Sequence[int]] = None,
           group: Optional[Sequence[int]] = None,
           tag: int = 0) -> Generator:
    """Gather: the concatenation of all blocks lands on the root."""
    ctx = _context(env, group, tag)
    ctx.require_member()
    return (yield from mst_gather(ctx, myblock, root=root, sizes=sizes))


def barrier(env, *, group: Optional[Sequence[int]] = None,
            tag: int = 0) -> Generator:
    """Synchronize the group: no member leaves before every member has
    arrived.  Implemented as a zero-byte combine-to-one + broadcast."""
    ctx = _context(env, group, tag)
    ctx.require_member()
    token = np.empty(0, dtype=np.uint8)
    token = yield from mst_reduce(ctx, token, op="sum", root=0)
    if token is None:
        token = np.empty(0, dtype=np.uint8)
    yield from mst_bcast(ctx, token, root=0)
    return None
