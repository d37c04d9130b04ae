"""Hybrid strategy descriptors (section 6 of the paper).

A strategy views a group of ``p`` nodes logically as a ``d_1 x ... x d_k``
mesh and assigns a primitive to each dimension.  The paper's notation —
``(2 x 3 x 5, SSMCC)`` — reads as the *execution order* of stages:
Scatter in dimension 1, Scatter in dimension 2, MST kernel in dimension
3, Collect in dimension 2, Collect in dimension 1.

Dimension 1 is the *contiguous* dimension: its lines are runs of
consecutive logical ranks; dimension ``i`` lines have stride
``d_1 * ... * d_{i-1}``.  (This convention is what makes all
intermediate data contiguous and is validated against Table 2.)

One grammar covers all the hybrid families used in this library, and
this module states it once for the executor, the cost model, the
Selector, ``api`` and ``Plan``: :data:`STAGE_TABLE` says what each
stage letter of an operation runs, :func:`family_ops` which ops strings
are legal and :meth:`Strategy.stages` the order the stages run in:

* ``S^a M C^a`` with ``k = a+1`` dims, or ``S^k C^k`` with ``k`` dims —
  the broadcast / combine-to-one / combine-to-all family.  The letters
  are interpreted per operation (S = data-splitting stage-1 long
  primitive, M = short-vector kernel, C = data-merging stage-2 long
  primitive).
* ``C^k`` or ``M C^{k-1}`` — the collect family (M = short collect
  kernel on the innermost dimension).
* ``S^k`` or ``S^{k-1} M`` — the distributed-combine family (stages run
  outermost dimension first; M = short kernel on the innermost).

With ``k = 1`` these are section 5's compositions: ``(p, M)`` is each
operation's short-vector algorithm (for a collect, gather then MST
broadcast) and ``(p, SC)`` / ``(p, C)`` / ``(p, S)`` its long-vector
one (for a broadcast, scatter then bucket collect).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

_OPS_RE = re.compile(r"^(S*)(M?)(C*)$")


@dataclass(frozen=True)
class Strategy:
    """A logical mesh shape plus per-dimension primitive assignment."""

    dims: Tuple[int, ...]
    ops: str

    def __post_init__(self):
        if not self.dims:
            raise ValueError("strategy needs at least one dimension")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dimensions must be >= 1: {self.dims}")
        m = _OPS_RE.match(self.ops)
        if not m:
            raise ValueError(
                f"ops string {self.ops!r} is not of the form S*M?C*")

    # -- structure ------------------------------------------------------

    @property
    def nscatter(self) -> int:
        return self.ops.count("S")

    @property
    def ncollect(self) -> int:
        return self.ops.count("C")

    @property
    def has_kernel(self) -> bool:
        return "M" in self.ops

    @property
    def p(self) -> int:
        return math.prod(self.dims)

    def stride(self, i: int) -> int:
        """Stride of dimension ``i`` (0-based): prod of earlier dims."""
        return math.prod(self.dims[:i])

    # -- families -------------------------------------------------------

    def check(self, operation: str) -> None:
        """Raise ValueError unless ``ops`` is one of the two legal ops
        strings of ``operation``'s family over ``len(dims)`` dimensions
        (:func:`family_ops`); KeyError for an unknown operation."""
        legal = family_ops(operation, len(self.dims))
        if self.ops not in legal:
            raise ValueError(
                f"{self}: a {len(self.dims)}-dimension {operation} "
                f"strategy has ops {' or '.join(legal)}")

    def stages(self, operation: str) -> Tuple[Tuple[str, int], ...]:
        """``(letter, dim)`` per stage, in execution order, with ``dim``
        the 0-based dimension the stage runs in.

        This is the one statement of each family's stage order:
        :func:`repro.core.hybrid.run` executes it and
        :meth:`~repro.core.costmodel.CostModel.hybrid` prices it, both
        reading what each stage runs from :data:`STAGE_TABLE`.
        """
        return _stages(self, operation)

    # -- display ------------------------------------------------------------

    def __str__(self) -> str:
        return f"({'x'.join(map(str, self.dims))}, {self.ops})"

    @classmethod
    def parse(cls, text: str) -> "Strategy":
        """Parse ``"2x3x5:SSMCC"`` (or with a comma separator)."""
        text = text.strip().strip("()")
        for sep in (":", ","):
            if sep in text:
                dims_s, ops = text.split(sep, 1)
                dims = tuple(int(t) for t in dims_s.lower().split("x"))
                return cls(dims, ops.strip().upper())
        raise ValueError(f"cannot parse strategy {text!r}; "
                         "expected 'd1xd2x...:OPS'")


#: (operation, letter) -> (label, phase, primitives, rooted, resize):
#: Figure 3's template, one row per stage kind, read by both the
#: executor (``hybrid.run``) and the pricer (``CostModel.hybrid``).
#: ``label`` and ``phase`` name the stage's trace span.  ``primitives``
#: run in order on the stage's line (a two-primitive kernel is one
#: stage); each name is both a function in :mod:`repro.core.hybrid` and
#: a ``CostModel`` method.  A ``rooted`` stage runs only on the lines
#: through the root's data.  ``resize`` is what the stage does to the
#: piece it moves over a dimension of size ``d``: ``"split"`` hands on
#: 1/d of it after, ``"merge"`` joins d pieces before, ``"keep"``
#: leaves it whole.  The rows' operations, in order, are
#: :data:`OPERATIONS`, and an operation's letters fix its family
#: (:func:`family_ops`).
STAGE_TABLE = {
    ("bcast", "S"): ("scatter", "scatter", ("mst_scatter",), True,
                     "split"),
    ("bcast", "M"): ("MST bcast", "kernel", ("mst_bcast",), False, "keep"),
    ("bcast", "C"): ("collect", "collect", ("bucket_collect",), False,
                     "merge"),
    ("reduce", "S"): ("reduce-scatter", "reduce-scatter",
                      ("bucket_reduce_scatter",), False, "split"),
    ("reduce", "M"): ("MST reduce", "kernel", ("mst_reduce",), False,
                      "keep"),
    ("reduce", "C"): ("gather", "gather", ("mst_gather",), True, "merge"),
    ("allreduce", "S"): ("reduce-scatter", "reduce-scatter",
                         ("bucket_reduce_scatter",), False, "split"),
    ("allreduce", "M"): ("allreduce kernel", "kernel",
                         ("mst_reduce", "mst_bcast"), False, "keep"),
    ("allreduce", "C"): ("collect", "collect", ("bucket_collect",), False,
                         "merge"),
    ("collect", "M"): ("collect", "kernel", ("mst_gather", "mst_bcast"),
                       False, "merge"),
    ("collect", "C"): ("collect", "collect", ("bucket_collect",), False,
                       "merge"),
    ("reduce_scatter", "S"): ("reduce-scatter", "reduce-scatter",
                              ("bucket_reduce_scatter",), False, "split"),
    ("reduce_scatter", "M"): ("reduce-scatter", "kernel",
                              ("mst_reduce", "mst_scatter"), False,
                              "split"),
}

#: the operations a hybrid strategy runs
OPERATIONS = tuple(dict.fromkeys(op for op, _ in STAGE_TABLE))


def family_ops(operation: str, k: int) -> Tuple[str, str]:
    """The two legal ops strings of ``operation`` over ``k`` dimensions:
    the all-long form (``S^kC^k`` / ``C^k`` / ``S^k``) and the kernel
    form (``S^{k-1}MC^{k-1}`` / ``MC^{k-1}`` / ``S^{k-1}M``)."""
    if operation not in OPERATIONS:
        raise KeyError(f"unknown operation {operation!r}; "
                       f"known: {OPERATIONS}")
    pre = "S" if (operation, "S") in STAGE_TABLE else ""
    post = "C" if (operation, "C") in STAGE_TABLE else ""
    return (pre * k + post * k,
            pre * (k - 1) + "M" + post * (k - 1))


@lru_cache(maxsize=4096)
def _stages(strategy: Strategy, operation: str
            ) -> Tuple[Tuple[str, int], ...]:
    strategy.check(operation)
    k = len(strategy.dims)
    if operation == "collect":
        order = range(k)              # merge the contiguous dim first
    elif operation == "reduce_scatter":
        order = range(k - 1, -1, -1)  # split the outermost dim first
    else:
        a = strategy.nscatter         # scatter inward, collect back out
        order = [*range(k), *range(a - 1, -1, -1)]
    return tuple(zip(strategy.ops, order))


@lru_cache(maxsize=4096)
def ordered_factorizations(p: int, max_factors: int = 3,
                           min_factor: int = 2) -> Tuple[Tuple[int, ...], ...]:
    """All ordered factorizations of ``p`` into ``1..max_factors``
    factors, each at least ``min_factor`` (plus the trivial ``(p,)``).

    Section 6: "given a linear array of p nodes which is logically viewed
    as a d1 x ... x dk mesh, there are a large number of choices" — this
    is that choice set, capped for tractability.
    """
    if p < 1:
        raise ValueError("p must be positive")
    results: List[Tuple[int, ...]] = [(p,)]

    def rec(rest: int, prefix: Tuple[int, ...]) -> None:
        if prefix:
            results.append(prefix + (rest,))
        if len(prefix) + 1 >= max_factors:
            return
        for f in range(min_factor, rest // min_factor + 1):
            if rest % f == 0:
                rec(rest // f, prefix + (f,))

    if p >= min_factor * min_factor:
        rec(p, ())
    return tuple(sorted(set(results)))


def candidates(operation: str, p: int, max_factors: int = 3
               ) -> List[Strategy]:
    """Candidate strategies of ``operation`` for a group of ``p``: the
    pure short-vector ``(p, M)`` first, then both family forms over
    every ordered factorization of ``p``."""
    out = {Strategy((p,), "M"): None}
    for dims in ordered_factorizations(p, max_factors):
        for ops in family_ops(operation, len(dims)):
            out.setdefault(Strategy(dims, ops))
    return list(out)
