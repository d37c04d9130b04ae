"""Case execution and verdict classification for every chaos run.

:func:`execute_case` runs one :class:`~repro.chaos.generator.ChaosCase`
on the simulator, checks the outcome against the analytic oracles of
:mod:`repro.chaos.oracles`, and classifies it into one of
:data:`VERDICTS`:

``ok``
    the run completed and every surviving member's payload matches;
    under an empty schedule it also finished at the fault-free run's
    bit-identical instant (the passivity probe);
``diagnosed-fault``
    the fault layer produced a *typed* diagnosis — either the engine
    raised :class:`~repro.core.faults.FaultDiagnosis`, or payloads
    mismatch but the fault report's ``tampered`` records attribute the
    corruption to an injected adversary (Byzantine detection: a tracked
    tamper is a diagnosis, never a silent failure);
``silent-corruption``
    payloads mismatch and nothing in the fault report explains it — the
    library returned wrong answers without telling anyone — or an empty
    schedule moved the clock (the record carries ``time_drift``).
    Always a bug;
``undiagnosed-hang``
    the run died with an untyped error (bare deadlock, engine event
    limit, rank crash) under a schedule that injected faults — the
    diagnosis machinery failed to attribute it.  Always a bug;
``sim-runtime-divergence``
    the real-process backend returned different payloads than the
    simulator for the same case (differential check, small worlds
    only);
``regret-outlier``
    on a fault-free case, ``algorithm="auto"`` picked a strategy whose
    *measured* time exceeds the measured best candidate by more than
    ``regret_threshold`` — a selection-quality regression, found by the
    model audit's own measure-every-candidate sweep
    (:func:`repro.analysis.audit.audit_case`).  A pinned candidate that
    returns a wrong payload there is ``silent-corruption``.

A ``crash-shrink`` case carries a ``crash`` schedule.  Its program
outwaits the crash, shrinks the world (``Communicator.shrink``) and
runs the collective on the survivors, which are checked against the
survivor oracle.

:data:`PROFILE_CONTRACT` says which verdicts each profile may end in;
the fixed chaos grid (``benchmarks/chaos/``) and the autopilot both
gate on it.  This module is the only chaos classifier: the grid, the
autopilot and the minimizer all run :func:`execute_case`.

Records carry no wall-clock state (sim times only), so a seeded run
produces byte-identical records on every machine.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from repro.core.communicator import Communicator
from repro.core.faults import FaultDiagnosis
from repro.sim import DeadlockError, Machine, SimulationLimitError, preset

from .generator import ChaosCase
from .oracles import clean_run, make_program, mismatched_ranks

VERDICTS = ("ok", "diagnosed-fault", "silent-corruption",
            "undiagnosed-hang", "sim-runtime-divergence", "regret-outlier")

#: verdicts the autopilot records as findings (everything but a pass
#: and an expected typed diagnosis)
FINDING_VERDICTS = ("silent-corruption", "undiagnosed-hang",
                    "sim-runtime-divergence", "regret-outlier")

#: verdicts that fail the CI gate outright: the library lied (wrong
#: answer with no diagnosis) or hung without attribution
FATAL_VERDICTS = ("silent-corruption", "undiagnosed-hang")

_DELAY_ONLY = ("ok",)
_MAY_DIAGNOSE = ("ok", "diagnosed-fault")

#: profile -> the verdicts a case of that profile may end in.  An empty
#: or delay-only schedule, and a crash the program outwaits and shrinks
#: away, must complete; drops, crashes and adversaries may also end in
#: a typed diagnosis.  The non-fatal findings (divergence, regret) are
#: reported as findings, not judged here.
PROFILE_CONTRACT = {
    "none": _DELAY_ONLY, "jitter": _DELAY_ONLY, "slowdown": _DELAY_ONLY,
    "crash-shrink": _DELAY_ONLY,
    "link-permanent": _MAY_DIAGNOSE, "link-transient": _MAY_DIAGNOSE,
    "crash": _MAY_DIAGNOSE, "byzantine": _MAY_DIAGNOSE,
    "withholding": _MAY_DIAGNOSE, "misrouting": _MAY_DIAGNOSE,
}


def breaks_contract(record: Dict) -> bool:
    """True when the record's verdict is one its profile may not end in."""
    verdict = record["verdict"]
    if verdict in FINDING_VERDICTS and verdict not in FATAL_VERDICTS:
        return False  # reported as a finding instead
    return verdict not in PROFILE_CONTRACT[record["case"]["profile"]]


def _check_regret(case: ChaosCase, record: Dict, sim_time: float,
                  threshold: float) -> Optional[str]:
    """Measure every ranked candidate with the model audit's sweep
    (:func:`repro.analysis.audit.audit_case`, run opportunistically on
    fault-free cases); flag auto picks worse than ``threshold`` x the
    measured best, and any pinned strategy whose payload violates the
    oracle."""
    from repro.analysis.audit import audit_case

    cell = audit_case(case, preset(case.params))
    if len(cell.candidates) < 2:
        return None
    regret = sim_time / cell.best_measured \
        if cell.best_measured > 0 else 1.0
    record["regret"] = {
        "auto_time": sim_time,
        "best_time": cell.best_measured,
        "best_strategy": cell.best,
        "ratio": regret,
        "candidates": len(cell.candidates),
    }
    wrong = [c.strategy for c in cell.candidates if c.wrong_ranks]
    if wrong:
        record["regret"]["wrong_strategies"] = wrong
        return "silent-corruption"
    if regret > threshold:
        return "regret-outlier"
    return None


def _check_runtime(case: ChaosCase, record: Dict, sim_results,
                   timeout: float) -> Optional[str]:
    """Differential slice: replay on real processes, compare payloads."""
    from repro.runtime import ProcessMachine

    machine = ProcessMachine(case.nranks, params=preset(case.params),
                             topology=case.topology(), timeout=timeout,
                             faults=case.schedule())
    try:
        run = machine.run(make_program(case))
    except Exception as exc:  # noqa: BLE001 — any runtime failure diverges
        record["runtime"] = {"ran": True, "error": type(exc).__name__}
        return "sim-runtime-divergence"
    divergent = []
    for rank in case.members():
        a, b = sim_results[rank], run.results[rank]
        same = (a is None and b is None) or (
            a is not None and b is not None
            and np.array_equal(np.asarray(a), np.asarray(b)))
        if not same:
            divergent.append(rank)
    record["runtime"] = {"ran": True, "divergent_ranks": divergent}
    if divergent:
        return "sim-runtime-divergence"
    return None


def _after_shrink(case: ChaosCase, crash_t: float):
    """Outwait the crash, shrink the world, run the case on survivors."""
    def prog(env):
        yield env.delay(2.0 * crash_t)
        survivors = Communicator.world(env).shrink().group
        return (yield from make_program(replace(case, group=survivors))(env))
    return prog


#: world sizes eligible for the real-process differential slice (each
#: rank is an OS process; keep the slice cheap)
RUNTIME_SLICE_MAX_P = 4

#: profiles replayable on the real backend: fault-free, or adversaries
#: (which act at send-post on both backends); clock-scheduled faults
#: have no wall-clock counterpart
RUNTIME_SLICE_PROFILES = ("none", "byzantine")


def execute_case(case: ChaosCase, *, runtime_slice: bool = False,
                 audit: bool = True, regret_threshold: float = 1.5,
                 runtime_timeout: float = 60.0) -> Dict:
    """Run one case and classify it.  Returns the corpus record dict.

    ``runtime_slice`` additionally replays the case on the real
    multi-process backend when it is small and replayable there
    (:data:`RUNTIME_SLICE_MAX_P` ranks, :data:`RUNTIME_SLICE_PROFILES`)
    and compares payloads rank by rank.  ``audit`` enables the
    selection-regret sweep on fault-free whole-world cases.
    """
    record: Dict = {"id": case.case_hash, "case": case.to_dict(),
                    "verdict": None, "sim_time": None}
    schedule = case.schedule()
    prog = make_program(case)
    if case.profile == "crash-shrink":
        prog = _after_shrink(case, schedule.events[0].t)
        crashed = schedule.crashed_nodes()
        case = replace(case, group=tuple(r for r in range(case.nranks)
                                         if r not in crashed))
    machine = Machine(case.topology(), preset(case.params))
    try:
        run = machine.run(prog, faults=schedule)
    except FaultDiagnosis as exc:
        record["verdict"] = "diagnosed-fault"
        record["diagnosis"] = exc.to_dict()
        return record
    except (DeadlockError, SimulationLimitError, RuntimeError) as exc:
        record["verdict"] = "undiagnosed-hang"
        record["error"] = {"type": type(exc).__name__,
                           "message": str(exc)[:500]}
        return record

    record["sim_time"] = run.time
    report = run.fault_report
    crashed = frozenset(report.crashed) if report is not None \
        else frozenset()
    tampered = list(report.tampered) if report is not None else []
    if tampered:
        record["tampered"] = [t.describe() for t in tampered]
    # the differential slice runs before oracle classification so it
    # also covers attributed corruption: the seeded adversary must
    # tamper bit-identically on both backends
    if (runtime_slice and case.nranks <= RUNTIME_SLICE_MAX_P
            and case.profile in RUNTIME_SLICE_PROFILES):
        v = _check_runtime(case, record, run.results, runtime_timeout)
        if v is not None:
            record["verdict"] = v
            return record
    bad = mismatched_ranks(case, run.results, crashed=crashed)
    if bad:
        record["corrupt_ranks"] = bad
        if tampered:
            # corrupted payloads, but the fault layer *tracked* every
            # tampering — a typed detection, not a silent failure
            record["verdict"] = "diagnosed-fault"
            record["corruption_attributed"] = True
        else:
            record["verdict"] = "silent-corruption"
        return record
    if schedule.is_empty:
        # passivity also pins the clock, not just the payloads
        t_clean, _ = clean_run(case)
        if repr(run.time) != repr(t_clean):
            record["verdict"] = "silent-corruption"
            record["time_drift"] = [repr(t_clean), repr(run.time)]
            return record

    verdict = "ok"
    if audit and case.profile == "none" and case.group is None:
        v = _check_regret(case, record, run.time, regret_threshold)
        if v is not None:
            verdict = v
    record["verdict"] = verdict
    return record


__all__ = ["VERDICTS", "FINDING_VERDICTS", "FATAL_VERDICTS",
           "PROFILE_CONTRACT", "breaks_contract", "execute_case",
           "RUNTIME_SLICE_MAX_P", "RUNTIME_SLICE_PROFILES"]
