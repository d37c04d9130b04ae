"""The chaos grid: seeded fault schedules replayed over collectives.

Every entry is ``(topology, op, profile, seed)`` and becomes one
:class:`~repro.chaos.generator.ChaosCase` whose ``origin`` is the
readable grid id ``topology/op/profile/seed``.  The grid is only a case
list: :func:`repro.chaos.executor.execute_case` runs and classifies
every case — the same classifier the autopilot and the minimizer use,
with the same verdicts and profile contract
(:data:`~repro.chaos.executor.PROFILE_CONTRACT`).  The schedule for a
case is drawn with :func:`~repro.chaos.generator.fault_schedule` from
``random.Random(f"chaos/{grid id}")`` — string seeding is
hash-randomization-independent, so a case replays the exact same fault
sequence on every machine (``--grid full`` reproduces the committed
``CHAOS_report.json`` bit-for-bit modulo timing metadata).

Grid profiles and the executor profiles they run as:

================  ==================  ============================
grid profile      case profile        schedule
================  ==================  ============================
baseline          none                empty (passivity probe)
jitter            jitter              match-latency jitter
slowdown          slowdown            one channel's beta degraded
link-perm         link-permanent      permanent link failure
link-transient    link-transient      link outage that heals
crash             crash               fail-stop node crash
crash-shrink      crash-shrink        crash + ULFM-style shrink()
================  ==================  ============================
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.chaos.generator import OPS, ChaosCase, fault_schedule
from repro.chaos.oracles import clean_run
from repro.sim import preset

N = 1024  # vector length (elements) for every collective

#: name -> (topology description, machine preset)
TOPOLOGIES = {
    "mesh4x6": (("mesh", 4, 6), "paragon"),
    "linear12": (("linear", 12), "unit"),
}

PROFILES = ("baseline", "jitter", "slowdown", "link-perm",
            "link-transient", "crash", "crash-shrink")

#: grid profile -> the executor profile its cases run as
_CASE_PROFILE = {"baseline": "none", "link-perm": "link-permanent"}

SEEDS = (101, 202, 303)

GRIDS = {
    "full": [(t, o, pr, s) for t in TOPOLOGIES for o in OPS
             for pr in PROFILES for s in SEEDS],
    # CI smoke: one topology, the three most failure-prone profiles
    "smoke": [("mesh4x6", o, pr, s) for o in OPS
              for pr in ("jitter", "link-perm", "crash") for s in SEEDS],
}


def case_id(topo: str, op: str, profile: str, seed: int) -> str:
    return f"{topo}/{op}/{profile}/{seed}"


def grid_case(topo_name: str, op: str, profile: str, seed: int
              ) -> ChaosCase:
    """One grid entry as a case carrying its seeded schedule."""
    spec, params_name = TOPOLOGIES[topo_name]
    case = ChaosCase(topo=spec, params=params_name, op=op, n=N,
                     dtype="float64", group=None,
                     profile=_CASE_PROFILE.get(profile, profile),
                     origin=case_id(topo_name, op, profile, seed))
    t_clean, _ = clean_run(case)
    rng = random.Random(f"chaos/{case.origin}")
    schedule = fault_schedule(case.profile, rng, case.topology(),
                              preset(params_name).alpha, t_clean)
    return replace(case, faults=schedule.to_dict())
