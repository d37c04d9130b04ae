"""The chaos grid: seeded fault schedules replayed over collectives.

Every case is ``(topology, op, profile, seed)``.  The grid is only a
case list: programs, oracles, clean runs and fault schedules all come
from :mod:`repro.chaos` (``make_program`` / ``mismatched_ranks`` /
``clean_run`` / ``fault_schedule``), the same code the autopilot runs.
The schedule for a case is drawn from
``random.Random(f"chaos/{case id}")`` — string seeding is
hash-randomization-independent, so a case replays the exact same fault
sequence on every machine (``--grid full`` reproduces the committed
``CHAOS_report.json`` bit-for-bit modulo timing metadata).

Outcome taxonomy (docs/robustness.md):

* ``ok``                — run completed and every delivered payload
                          matches the analytic oracle;
* ``diagnosed``         — run raised a typed :class:`FaultDiagnosis`
                          naming the injected fault(s);
* ``silent-corruption`` — run completed but a payload differs (NEVER
                          acceptable — this is the bug class the whole
                          subsystem exists to rule out);
* ``undiagnosed-hang``  — run died without attributing the failure to
                          an injected fault (also never acceptable).

Profiles and their allowed outcomes:

================  ============================  =====================
profile           schedule                      allowed
================  ============================  =====================
baseline          empty (passivity probe)       ok, bit-identical time
jitter            match-latency jitter          ok
slowdown          one channel's beta degraded   ok
link-perm         permanent link failure        ok | diagnosed
link-transient    link outage that heals        ok | diagnosed
crash             fail-stop node crash          ok | diagnosed
crash-shrink      crash + ULFM-style shrink()   ok (survivor oracle)
================  ============================  =====================
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.chaos.generator import OPS, ChaosCase, fault_schedule
from repro.chaos.oracles import clean_run, make_program, mismatched_ranks
from repro.core.communicator import Communicator
from repro.sim import (FaultDiagnosis, Machine, SimulationLimitError,
                       preset)

N = 1024  # vector length (elements) for every collective

#: name -> (topology description, machine preset)
TOPOLOGIES = {
    "mesh4x6": (("mesh", 4, 6), "paragon"),
    "linear12": (("linear", 12), "unit"),
}

PROFILES = ("baseline", "jitter", "slowdown", "link-perm",
            "link-transient", "crash", "crash-shrink")

#: grid profile -> the shared :func:`fault_schedule` profile it draws
_SCHEDULE = {"baseline": "none", "link-perm": "link-permanent",
             "crash-shrink": "crash"}

SEEDS = (101, 202, 303)

#: profile -> outcomes that do not fail the gate
ALLOWED = {
    "baseline": {"ok"},
    "jitter": {"ok"},
    "slowdown": {"ok"},
    "link-perm": {"ok", "diagnosed"},
    "link-transient": {"ok", "diagnosed"},
    "crash": {"ok", "diagnosed"},
    "crash-shrink": {"ok"},
}

GRIDS = {
    "full": [(t, o, pr, s) for t in TOPOLOGIES for o in OPS
             for pr in PROFILES for s in SEEDS],
    # CI smoke: one topology, the three most failure-prone profiles
    "smoke": [("mesh4x6", o, pr, s) for o in OPS
              for pr in ("jitter", "link-perm", "crash") for s in SEEDS],
}


def case_id(topo: str, op: str, profile: str, seed: int) -> str:
    return f"{topo}/{op}/{profile}/{seed}"


def shrink(case: ChaosCase, crash_t: float):
    """Wait out the crash, shrink the world, run the case on survivors."""
    def prog(env):
        yield env.delay(2.0 * crash_t)
        survivors = Communicator.world(env).shrink().group
        return (yield from make_program(replace(case, group=survivors))(env))
    return prog


def run_case(topo_name: str, op: str, profile: str, seed: int) -> dict:
    """Execute one chaos case and classify the outcome."""
    spec, params_name = TOPOLOGIES[topo_name]
    case = ChaosCase(topo=spec, params=params_name, op=op, n=N,
                     dtype="float64", group=None,
                     profile=_SCHEDULE.get(profile, profile))
    topo = case.topology()
    params = preset(params_name)
    t_clean, _ = clean_run(case)
    rng = random.Random(f"chaos/{case_id(topo_name, op, profile, seed)}")
    schedule = fault_schedule(case.profile, rng, topo, params.alpha,
                              t_clean)
    crashed = schedule.crashed_nodes()

    record = {
        "id": case_id(topo_name, op, profile, seed),
        "profile": profile,
        "schedule": schedule.describe(),
        "t_clean": t_clean,
    }

    if profile == "crash-shrink":
        prog = shrink(case, schedule.events[0].t)
        case = replace(case, group=tuple(r for r in range(topo.nnodes)
                                         if r not in crashed))
    else:
        prog = make_program(case)

    try:
        run = Machine(topo, params).run(prog, faults=schedule)
    except FaultDiagnosis as diag:
        record["outcome"] = "diagnosed"
        record["diagnosis"] = str(diag).splitlines()[0]
        record["watchdog"] = diag.watchdog
        return record
    except (SimulationLimitError, RuntimeError) as exc:
        # DeadlockError or anything else untyped: the fault layer failed
        # to attribute an injected failure — gate-fatal.
        record["outcome"] = "undiagnosed-hang"
        record["error"] = f"{type(exc).__name__}: " + \
            str(exc).splitlines()[0]
        return record

    record["time"] = run.time
    mismatches = mismatched_ranks(case, run.results, crashed=crashed)
    if mismatches:
        record["outcome"] = "silent-corruption"
        record["corrupt_ranks"] = mismatches
    else:
        record["outcome"] = "ok"
        if profile == "baseline" and repr(run.time) != repr(t_clean):
            # passivity also pins the clock, not just the payloads
            record["outcome"] = "silent-corruption"
            record["corrupt_ranks"] = []
            record["time_drift"] = (repr(t_clean), repr(run.time))
    return record


def run_case_entry(case: tuple) -> dict:
    """Picklable single-argument adapter for the parallel sweep driver:
    ``case`` is one ``(topo, op, profile, seed)`` grid entry."""
    return run_case(*case)
