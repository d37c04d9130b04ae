"""Heuristic hybrid-strategy selection (section 6, "effective heuristics
rather than theoretically optimal methods").

Given an operation, a group size (and, when known, the group's physical
structure), and a message length, the :class:`Selector` enumerates
candidate strategies, prices each with the
:class:`~repro.core.costmodel.CostModel`, and picks the cheapest.

Two conflict regimes are supported:

* **linear array** — dimension ``i`` interleaves ``stride_i`` logical
  lines on the same channels (the Table 2 model,
  :meth:`CostModel.default_conflicts`);
* **mesh-aligned submesh** — the group is an ``R x C`` physical submesh
  enumerated row-major, and the candidate dims factor ``C`` first and
  ``R`` second, so each dimension's lines live inside a physical row or
  column.  The interleave count is then the stride *within* that
  physical line, which is what makes the bucket latency drop from
  ``(p-1) alpha`` to ``(R + C - 2) alpha`` (section 7.1).

The choice heuristics the paper argues for fall out of the cost model
automatically: long-vector stages are placed early (they shrink the
message before conflict-prone stages), and localized (small-stride)
dimensions are used first while vectors are long.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .params import MachineParams
from .costmodel import CostModel
from .strategy import (Strategy, candidates, family_ops,
                       ordered_factorizations)

#: :meth:`Selector.best` keeps at most this many memoized choices.
BEST_CACHE_LIMIT = 1024


def length_bucket(n: int) -> int:
    """Representative vector length for memoizing strategy choices.

    Floor power of two: all lengths in ``[2^k, 2^(k+1))`` price — and
    therefore cache — as ``2^k``.  Away from the model's crossover
    points this never changes the winner; a bucket that spans a
    crossover serves the representative's winner for the whole bucket,
    which costs at most 2x the true optimum (cost is nondecreasing and
    at most linear in ``n``, and the representative is within 2x —
    ~1.23x observed at the Paragon bcast short/long switch, 1.0
    elsewhere; pinned by the bucketing property test).  In exchange the
    per-exact-n cache misses an iterative application generates
    disappear (p=30 runs with n=255 vs n=256 previously priced the full
    candidate set twice).

    Deterministic and rank-independent by construction: every rank maps
    the same ``n`` to the same bucket, preserving the SPMD
    strategy-agreement contract of ``algorithm="auto"``.
    """
    if n <= 1:
        return 1
    return 1 << (n.bit_length() - 1)


def mesh_interleaves(dims: Sequence[int], subrows: int, subcols: int
                     ) -> Optional[List[float]]:
    """Interleave counts when the group is an ``subrows x subcols``
    physical submesh (row-major) and the dims factor columns first.

    Returns None when the dims do not align with the mesh shape (the
    caller should fall back to the linear model).
    """
    out = []
    w = 1
    for d in dims:
        if w * d <= subcols and subcols % (w * d) == 0:
            # lines tile physical rows evenly; `w` lines interleave
            # within each row
            out.append(float(w))
        elif (w % subcols == 0 and (w // subcols) * d <= subrows
              and subrows % ((w // subcols) * d) == 0):
            # lines tile physical columns evenly
            out.append(float(w // subcols))
        else:
            # lines would straddle row/column boundaries: misaligned
            return None
        w *= d
    return out


def mesh_candidate_dims(subrows: int, subcols: int, max_factors: int = 3
                        ) -> List[Tuple[int, ...]]:
    """Candidate logical-mesh shapes for an ``R x C`` submesh group:
    factorizations whose leading dims multiply to C (within-row) and
    trailing dims to R (within-column)."""
    cands: List[Tuple[int, ...]] = []
    for cf in ordered_factorizations(subcols, max_factors - 1):
        for rf in ordered_factorizations(subrows, max_factors - 1):
            dims = tuple(d for d in cf if d > 1) + tuple(
                d for d in rf if d > 1)
            if not dims:
                dims = (1,)
            if len(dims) <= max_factors and math.prod(dims) == \
                    subrows * subcols:
                cands.append(dims)
    return sorted(set(cands))


@dataclass(frozen=True)
class Choice:
    """One priced strategy."""
    strategy: Strategy
    cost: float
    conflicts: Tuple[float, ...]

    def __str__(self) -> str:
        return f"{self.strategy} cost={self.cost:.3g}"


class Selector:
    """Strategy chooser with memoization.

    Parameters
    ----------
    params:
        Machine constants used for pricing.
    itemsize:
        Payload element size in bytes.
    max_factors:
        Maximum number of logical-mesh dimensions to consider.
    """

    def __init__(self, params: MachineParams, itemsize: int = 8,
                 max_factors: int = 3):
        self.params = params
        self.model = CostModel(params, itemsize=itemsize)
        self.max_factors = max_factors
        #: LRU over full bucket rankings: most recently *used* last.
        self._cache: "OrderedDict[Tuple, Tuple[Choice, ...]]" = OrderedDict()
        #: field snapshot at construction; :func:`selector_for` uses it to
        #: detect in-place mutation of a cached selector's params.
        self._params_fingerprint = params_fingerprint(params)

    # ------------------------------------------------------------------

    def _mesh_candidates(self, operation: str, subrows: int, subcols: int
                         ) -> List[Strategy]:
        return [Strategy(dims, ops)
                for dims in mesh_candidate_dims(subrows, subcols,
                                                self.max_factors)
                for ops in family_ops(operation, len(dims))]

    # ------------------------------------------------------------------

    def ranked(self, operation: str, p: int, n: int,
               mesh_shape: Optional[Tuple[int, int]] = None
               ) -> List[Choice]:
        """All candidates priced and sorted, cheapest first.

        ``mesh_shape`` — (subrows, subcols) when the group is a physical
        submesh; adds mesh-aligned candidates with their (much smaller)
        conflict factors.
        """
        choices: List[Choice] = []
        seen = set()

        def add(strategy: Strategy, conflicts: Tuple[float, ...]) -> None:
            key = (strategy.dims, strategy.ops, conflicts)
            if key in seen:
                return
            seen.add(key)
            try:
                cost = self.model.hybrid(operation, strategy, n,
                                         conflicts=conflicts)
            except ValueError:
                return
            choices.append(Choice(strategy, cost, conflicts))

        for s in candidates(operation, p, self.max_factors):
            add(s, tuple(self.model.default_conflicts(s)))

        if mesh_shape is not None:
            R, C = mesh_shape
            if R * C != p:
                raise ValueError(
                    f"mesh shape {R}x{C} does not cover group of {p}")
            for s in self._mesh_candidates(operation, R, C):
                inter = mesh_interleaves(s.dims, R, C)
                if inter is not None:
                    add(s, tuple(map(self.model.conflict_factor, inter)))

        choices.sort(key=_rank_key)
        return choices

    def ranked_bucketed(self, operation: str, p: int, n: int,
                        mesh_shape: Optional[Tuple[int, int]] = None
                        ) -> Tuple[Choice, ...]:
        """The full ranking, memoized per log2 length bucket.

        This is what :meth:`best` reads its winner from, and what the
        audit layer (``repro.obs.audit``) records as the candidate list
        of an ``algorithm="auto"`` dispatch: pricing happens once at the
        bucket representative (:func:`length_bucket`) and the whole
        ranking is reused for every length in the bucket.

        The cache is a true LRU bounded at :data:`BEST_CACHE_LIMIT`
        entries: a hit refreshes the entry (``move_to_end``), eviction
        removes the least recently *used* ranking — so a hot entry
        inserted early is never evicted ahead of cold ones.
        """
        key = (operation, p, length_bucket(n), mesh_shape)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        ranked = tuple(self.ranked(operation, p, key[2], mesh_shape))
        if not ranked:
            raise RuntimeError(
                f"no viable strategy for {operation} on p={p}")
        while len(self._cache) >= BEST_CACHE_LIMIT:
            self._cache.popitem(last=False)
        self._cache[key] = ranked
        return ranked

    def best(self, operation: str, p: int, n: int,
             mesh_shape: Optional[Tuple[int, int]] = None) -> Choice:
        """The cheapest strategy for (operation, group size, length).

        Memoized per log2 length bucket via :meth:`ranked_bucketed`, not
        per exact ``n``; the bucketing keeps the working set tiny (~60
        buckets span one element to a petabyte vector).
        """
        return self.ranked_bucketed(operation, p, n, mesh_shape)[0]


def _rank_key(c: Choice) -> Tuple:
    """Sort key of :meth:`Selector.ranked`.

    Cost first, fewer dimensions preferred on ties; the trailing
    ``(dims, ops)`` terms are a *total* deterministic order so that
    equal-cost candidates (float ties are common — e.g. SSCC
    transpositions on a linear array price identically) can never
    reorder between runs, processes, or ranks.  Every rank of an SPMD
    group must resolve ``algorithm="auto"`` to the same strategy, and a
    stable-sort of an insertion-ordered list is not a contract we want
    to lean on.
    """
    return (c.cost, len(c.strategy.dims), c.strategy.dims, c.strategy.ops)


def params_fingerprint(params: MachineParams) -> Tuple:
    """Value snapshot of the fields that drive pricing."""
    return (params.alpha, params.beta, params.gamma,
            params.sw_overhead, params.link_capacity)


_selectors: Dict[Tuple, Selector] = {}


def selector_for(params: MachineParams, itemsize: int = 8,
                 max_factors: int = 3) -> Selector:
    """Process-wide memoized selector per parameter set.

    ``params`` must be a hashable (frozen) :class:`MachineParams`-like
    object and must not be mutated in place after use: the cache is
    keyed by value, and a cached selector keeps pricing with the
    constants it saw at construction.  Both misuses raise immediately
    with a clear message instead of silently corrupting the cache or
    returning a selector whose prices disagree with its key.
    """
    try:
        fingerprint = params_fingerprint(params)
    except AttributeError:
        raise TypeError(
            f"selector_for needs a MachineParams-like object with "
            f"alpha/beta/gamma/sw_overhead/link_capacity fields; got "
            f"{type(params).__name__!r}") from None
    try:
        key = (params, itemsize, max_factors)
        sel = _selectors.get(key)
    except TypeError:
        raise TypeError(
            f"selector_for caches per parameter set, so params must be "
            f"hashable (use the frozen MachineParams dataclass); got an "
            f"unhashable {type(params).__name__!r}") from None
    if sel is None:
        sel = Selector(params, itemsize=itemsize, max_factors=max_factors)
        _selectors[key] = sel
    elif (sel._params_fingerprint != params_fingerprint(sel.params)
          or sel._params_fingerprint != fingerprint):
        raise RuntimeError(
            "a MachineParams cached by selector_for was mutated in place "
            "(e.g. via object.__setattr__ on the frozen dataclass); the "
            "cached selector would keep serving strategies priced with "
            "the old constants.  Build a fresh MachineParams (e.g. "
            "params.with_(...)) instead of mutating one.")
    return sel
