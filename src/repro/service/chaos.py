"""Chaos coverage for the service: faults injected mid-storm.

The service's containment contract (docs/service.md) under injected
faults is the library-wide zero-silent-anything policy, lifted to the
request level:

* **delay-only** profiles (``jitter``, ``slowdown``) change timing,
  never delivery: every request must still complete ``ok`` with
  payloads bit-identical to the fault-free oracle;
* **lossy** profiles (``link-permanent``, ``crash``) may prevent
  batches from completing: every affected request must end as a
  ``dead-letter`` carrying the run's typed
  :class:`~repro.core.faults.FaultDiagnosis`, every batch that fully
  completed before the fault keeps its ``ok`` outcome and its
  oracle-identical results, and **no request may ever disappear** —
  ``submitted == ok + rejected + dead-letter`` always.

Schedules come from :func:`repro.chaos.generator.fault_schedule`, the
one profile -> schedule mapping the chaos autopilot and the chaos grid
also use, seeded per ``(profile, seed)`` and scaled to the storm's own
fault-free span — so one pair reproduces the same mid-storm fault
everywhere.
"""

from __future__ import annotations

import random
from typing import Dict

from ..chaos.generator import fault_schedule
from ..core.faults import FaultSchedule

#: the profiles a storm is tested under -> whether the profile may
#: legally dead-letter requests
SERVICE_CHAOS_PROFILES: Dict[str, bool] = {
    "jitter": False,
    "slowdown": False,
    "link-transient": False,
    "link-permanent": True,
    "crash": True,
}


def service_fault_schedule(profile: str, machine, t_clean: float, *,
                           seed: int = 0) -> FaultSchedule:
    """A seeded mid-storm fault schedule for ``machine``.

    ``t_clean`` is the storm's fault-free span (simulated seconds):
    event times are drawn as fractions of it, so the fault really lands
    mid-flight.
    """
    if profile not in SERVICE_CHAOS_PROFILES:
        raise ValueError(
            f"unknown service chaos profile {profile!r}; expected one "
            f"of {sorted(SERVICE_CHAOS_PROFILES)}")
    rng = random.Random(f"service-chaos/{profile}/{seed}")
    return fault_schedule(profile, rng, machine.topology,
                          machine.params.alpha, t_clean)


def run_chaos_storm(profile: str, *, seed: int = 0, machine=None,
                    spec=None, config=None, workload_seed: int = 5):
    """One storm under one fault profile; returns ``(report, oracle)``.

    ``oracle`` is the same plan executed fault-free on a pristine
    machine — delay-only profiles must match it bit-exactly, lossy
    profiles must match on every request that stayed ``ok``.
    """
    from ..sim import Machine, Mesh2D, PARAGON
    from .core import ServiceCore
    from .execute import execute_plan
    from .traffic import run_workload, storm_spec

    if machine is None:
        machine = Machine(Mesh2D(2, 3), PARAGON)
    if spec is None:
        spec = storm_spec(tenants=3, requests=12, window=6)
    core = ServiceCore(machine.nnodes, params=machine.params,
                       topology=machine.topology, config=config)
    plan = run_workload(core, spec, seed=workload_seed)

    oracle = execute_plan(machine, plan)
    faults = service_fault_schedule(profile, machine, oracle.elapsed_s,
                                    seed=seed)
    faulty = Machine(machine.topology, machine.params, faults=faults)
    report = execute_plan(faulty, plan)
    return report, oracle
