"""Closed-form cost model for every primitive and hybrid (sections 4-6).

The paper's expressions, with ``L(d) = ceil(log2 d)``, ``n`` the vector
length in *elements* (``b = n * itemsize`` bytes on the wire):

=================================  =====================================
MST broadcast                       ``L(p) (alpha + b beta)``
MST combine-to-one                  ``L(p) (alpha + b beta + n gamma)``
MST scatter / gather                ``L(p) alpha + ((p-1)/p) b beta``
bucket collect                      ``(p-1) alpha + ((p-1)/p) b beta``
bucket distributed combine          ``(p-1) alpha + ((p-1)/p)(b beta + n gamma)``
=================================  =====================================

Hybrids (section 6): a stage operating in a dimension of size ``d`` whose
lines are *interleaved* with ``s`` other lines on the same physical
channels pays a **conflict factor** on its beta term ("the bold-face
indicates factors included to compensate for network conflicts").  On a
linear array, dimension ``i``'s lines have stride ``s_i = d_1 ... d_{i-1}``
and exactly ``s_i`` lines interleave, so the factor is ``s_i`` — this
model reproduces eight of the nine rows of Table 2 exactly (the ninth is
inconsistent with the paper's own general formula; see EXPERIMENTS.md).
With the Paragon's excess link bandwidth (section 7.1), ``c`` messages
share a channel penalty-free, so the factor becomes ``max(1, s_i / c)``.
On a physical mesh, dimension lines aligned with physical rows/columns
do not interleave at all and the factor is computed from the stride
*within* the physical line.

Software overhead: the recursive short-vector primitives charge
``sw_overhead`` per recursion level (section 7.2); bucket primitives
charge it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .params import MachineParams
from .strategy import STAGE_TABLE, Strategy


def ceil_log2(d: int) -> int:
    """Number of recursive-halving steps for a group of ``d``."""
    if d < 1:
        raise ValueError("group size must be positive")
    return (d - 1).bit_length()


@dataclass(frozen=True)
class CostModel:
    """Analytic predictor of collective times on one machine.

    Parameters
    ----------
    params:
        The machine's alpha/beta/gamma/overhead constants.
    itemsize:
        Bytes per vector element (8 for float64 payloads).

    The idealized conflict-free model the paper uses for the building
    blocks is :meth:`hybrid` with ``conflicts=[1.0] * k``.
    """

    params: MachineParams
    itemsize: int = 8

    # -- helpers -----------------------------------------------------------

    def _beta(self, n: float, factor: float = 1.0) -> float:
        return n * self.itemsize * self.params.beta * max(1.0, factor)

    def conflict_factor(self, interleaved: float) -> float:
        """Effective beta multiplier when ``interleaved`` lines share
        channels, given the machine's excess link capacity."""
        return max(1.0, interleaved / self.params.link_capacity)

    # -- primitives (section 4) --------------------------------------------

    def mst_bcast(self, p: int, n: float, conflict: float = 1.0) -> float:
        L = ceil_log2(p)
        return L * (self.params.alpha + self._beta(n, conflict)
                    + self.params.sw_overhead)

    def mst_reduce(self, p: int, n: float, conflict: float = 1.0) -> float:
        L = ceil_log2(p)
        return L * (self.params.alpha + self._beta(n, conflict)
                    + n * self.params.gamma + self.params.sw_overhead)

    def mst_scatter(self, p: int, n: float, conflict: float = 1.0) -> float:
        L = ceil_log2(p)
        frac = (p - 1) / p if p else 0.0
        return (L * (self.params.alpha + self.params.sw_overhead)
                + self._beta(n * frac, conflict))

    def mst_gather(self, p: int, n: float, conflict: float = 1.0) -> float:
        return self.mst_scatter(p, n, conflict)

    def bucket_collect(self, p: int, n: float, conflict: float = 1.0
                       ) -> float:
        if p <= 1:
            return 0.0
        frac = (p - 1) / p
        return ((p - 1) * self.params.alpha + self._beta(n * frac, conflict)
                + self.params.sw_overhead)

    def bucket_reduce_scatter(self, p: int, n: float, conflict: float = 1.0
                              ) -> float:
        if p <= 1:
            return 0.0
        frac = (p - 1) / p
        return ((p - 1) * self.params.alpha
                + self._beta(n * frac, conflict)
                + n * frac * self.params.gamma
                + self.params.sw_overhead)

    def bidirectional_collect(self, p: int, n: float,
                              conflict: float = 1.0) -> float:
        """Alternating-direction bucket collect (section 7.1): half the
        startup rounds, same port-limited beta."""
        if p <= 1:
            return 0.0
        rounds = (p - 1 + 1) // 2
        frac = (p - 1) / p
        return (rounds * self.params.alpha + self._beta(n * frac, conflict)
                + self.params.sw_overhead)

    def bidirectional_reduce_scatter(self, p: int, n: float,
                                     conflict: float = 1.0) -> float:
        """Alternating-direction bucket distributed combine."""
        if p <= 1:
            return 0.0
        rounds = (p - 1 + 1) // 2
        frac = (p - 1) / p
        return (rounds * self.params.alpha + self._beta(n * frac, conflict)
                + n * frac * self.params.gamma + self.params.sw_overhead)

    # -- hybrids (section 6) ---------------------------------------------------

    def default_conflicts(self, strategy: Strategy) -> List[float]:
        """Per-dimension conflict factors for a *linear array* group:
        dimension ``i`` interleaves ``stride_i`` lines."""
        return [self.conflict_factor(strategy.stride(i))
                for i in range(len(strategy.dims))]

    def hybrid(self, operation: str, strategy: Strategy, n: float,
               conflicts: Optional[Sequence[float]] = None) -> float:
        """Cost of ``operation`` under ``strategy`` for ``n`` elements:
        the general formula of section 6, the one Table 2 instantiates
        for p = 30.

        Walks :meth:`Strategy.stages` and prices each stage with the
        methods named by its :data:`~repro.core.strategy.STAGE_TABLE`
        row (the primitives the executor runs), at the length of the
        piece that stage moves.  With ``k = 1`` this is
        section 5's short- and long-vector compositions.  ``conflicts``
        (default :meth:`default_conflicts`) gives one beta factor per
        dimension.
        """
        stages = strategy.stages(operation)
        if conflicts is None:
            conflicts = self.default_conflicts(strategy)
        dims = strategy.dims
        # a collect starts from one block; every other family from the
        # whole vector
        m = float(n) / strategy.p if operation == "collect" else float(n)
        t = 0.0
        for letter, i in stages:
            d = dims[i]
            c = conflicts[i]
            _, _, prims, _, resize = STAGE_TABLE[operation, letter]
            if resize == "merge":
                m *= d
            stage = 0.0     # a two-primitive kernel is summed first
            for name in prims:
                stage += getattr(self, name)(d, m, c)
            t += stage
            if resize == "split":
                m /= d
        return t

    def terms(self, operation: str, strategy: Strategy, n: float,
              conflicts: Optional[Sequence[float]] = None
              ) -> Dict[str, float]:
        """Per-term attribution of :meth:`hybrid`: its alpha / beta /
        gamma / overhead shares.

        The closed forms are linear in each machine constant, so each
        share is priced exactly with all other constants zeroed, and the
        shares sum to the full prediction.  Table 2's ``(A, B)`` are the
        alpha and beta shares of a broadcast of one byte on its unit
        machine (alpha = beta = 1, itemsize 1).
        """
        zero = {"alpha": 0.0, "beta": 0.0, "gamma": 0.0,
                "sw_overhead": 0.0,
                "link_capacity": self.params.link_capacity}
        out: Dict[str, float] = {}
        for term, fld in (("alpha", "alpha"), ("beta", "beta"),
                          ("gamma", "gamma"), ("overhead", "sw_overhead")):
            params = MachineParams(**{**zero,
                                      fld: getattr(self.params, fld)})
            out[term] = CostModel(params, self.itemsize).hybrid(
                operation, strategy, n, conflicts=conflicts)
        return out
