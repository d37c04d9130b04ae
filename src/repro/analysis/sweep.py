"""Parameter sweeps: run collectives over message-length grids and
collect simulated times — the workhorse behind the Figure 2/Figure 4
and Table 3 reproductions.

A sweep produces :class:`Series` objects (label + (n, time) points)
that the table/plot helpers render and the benchmarks assert against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..chaos.oracles import make_program, mismatched_ranks
from ..sim.machine import Machine, RunResult
from .audit import cell_case


@dataclass
class Series:
    """One labelled curve: simulated time versus message length."""

    label: str
    lengths: List[int] = field(default_factory=list)    # bytes
    times: List[float] = field(default_factory=list)    # seconds

    def add(self, nbytes: int, t: float) -> None:
        self.lengths.append(nbytes)
        self.times.append(t)

    def time_at(self, nbytes: int) -> float:
        return self.times[self.lengths.index(nbytes)]

    def bandwidth(self) -> List[float]:
        """Effective bytes/second at each point."""
        return [l / t if t > 0 else math.inf
                for l, t in zip(self.lengths, self.times)]


def byte_grid(lo: int = 8, hi: int = 1 << 20, per_decade: int = 3
              ) -> List[int]:
    """Logarithmic grid of message lengths in bytes, multiples of 8."""
    out = []
    n = lo
    while n <= hi:
        out.append(n)
        n *= 2 if per_decade >= 3 else 4
    if out[-1] != hi:
        out.append(hi)
    return out


#: the three representative lengths of Table 3
TABLE3_LENGTHS = (8, 64 * 1024, 1024 * 1024)


def elements_for(nbytes: int, dtype=np.float64) -> int:
    """Vector length in elements for a wire size in bytes."""
    itemsize = np.dtype(dtype).itemsize
    return max(1, nbytes // itemsize)


def run_operation(machine: Machine, operation: str, nbytes: int,
                  algorithm="auto", check: bool = True) -> RunResult:
    """One simulated collective over the whole machine; raises if any
    rank's result fails the collective-case oracle.

    Runs the shared program of :mod:`repro.chaos.oracles`; the case's
    topology only fixes the rank count, the run uses ``machine``.
    """
    case = cell_case(operation, ("line", machine.topology.nnodes),
                     elements_for(nbytes))
    result = machine.run(make_program(case, algorithm))
    bad = mismatched_ranks(case, result.results) if check else []
    if bad:
        raise AssertionError(
            f"{operation} self-check failed on ranks {bad[:8]}")
    return result


def sweep_operation(machine: Machine, operation: str,
                    lengths: Sequence[int], algorithms: Dict[str, object],
                    check: bool = True,
                    progress: Optional[Callable[[str], None]] = None
                    ) -> List[Series]:
    """Run ``operation`` for every (algorithm, length) pair.

    ``algorithms`` maps labels to algorithm specs ("auto", "short",
    "long", a Strategy, or a callable custom program taking
    ``(env, n_elements)``).
    """
    out: List[Series] = []
    for label, algo in algorithms.items():
        series = Series(label)
        for nbytes in lengths:
            if callable(algo):
                n = elements_for(nbytes)
                result = machine.run(algo, n)
            else:
                result = run_operation(machine, operation, nbytes,
                                       algorithm=algo, check=check)
            series.add(nbytes, result.time)
            if progress is not None:
                progress(f"{operation}/{label} n={nbytes}B "
                         f"t={result.time:.6f}s")
        out.append(series)
    return out
