"""Coverage-guided chaos autopilot (docs/robustness.md, section 6).

The fixed 210-case grid in ``benchmarks/chaos/`` (a list of seeded
:class:`ChaosCase` entries) can only find failures someone enumerated.
This package is the generative half of the robustness story: a seeded
**generator** samples random topologies, collectives, group shapes,
payload dtypes/sizes and fault schedules — including the
Byzantine-model adversaries of :mod:`repro.core.faults` —
:func:`execute_case`, the one chaos classifier (the fixed grid, the
autopilot and the minimizer all run it), judges every case against
analytic oracles and its profile's contract (and a real-process
slice), a persistent **corpus store** keeps every case keyed by hash
with a coverage signature biasing generation toward unexplored cells,
and an **auto-minimizer** delta-debugs failing cases down to minimal
reproducers promoted into the golden corpus.

Entry point::

    python -m repro.chaos.autopilot --budget-s 60 --seed 42 --check

Everything is deterministic given the seed: the budget maps to a fixed
case count, records carry no wall-clock state, and the corpus store
serializes canonically — same seed, same bytes.
"""

from .corpus import CorpusStore
from .executor import (FATAL_VERDICTS, FINDING_VERDICTS, VERDICTS,
                       execute_case)
from .generator import CaseGenerator, ChaosCase, build_topology
from .oracles import case_vec, clean_run, expected_results, make_program

__all__ = [
    "CaseGenerator", "ChaosCase", "CorpusStore", "FATAL_VERDICTS",
    "FINDING_VERDICTS", "VERDICTS", "build_topology", "case_vec",
    "clean_run", "execute_case", "expected_results", "make_program",
]
