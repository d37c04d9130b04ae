"""Faults mid-storm: typed outcomes for every request, never silence.

Satellite of the service PR (docs/service.md): one seeded fault
profile injected while a multi-tenant storm is in flight must leave
every submitted request in exactly one typed terminal state — ``ok``
(bit-identical to the fault-free oracle), ``rejected`` (typed
:class:`~repro.service.request.Rejection`), or ``dead-letter``
(carrying the run's typed :class:`~repro.core.faults.FaultDiagnosis`).
"""

import numpy as np
import pytest

from repro.service.chaos import (SERVICE_CHAOS_PROFILES, run_chaos_storm,
                                 service_fault_schedule)
from repro.sim import Machine, Mesh2D, PARAGON


def _assert_ok_match_oracle(report, oracle):
    for rid, out in report.outcomes.items():
        if out.status != "ok":
            continue
        assert rid in report.results, f"{rid} ok but has no results"
        for rank, v in report.results[rid].items():
            w = oracle.results[rid][rank]
            if v is None and w is None:
                continue
            assert (np.asarray(v) == np.asarray(w)).all(), \
                f"{rid} corrupted on rank {rank}"


@pytest.mark.parametrize("profile", sorted(SERVICE_CHAOS_PROFILES))
def test_every_request_typed_under_faults(profile):
    report, oracle = run_chaos_storm(profile, seed=1)
    # the zero-silent-drop invariant: full accounting, typed states
    assert report.accounted()
    assert len(report.outcomes) == oracle.plan.submitted
    _assert_ok_match_oracle(report, oracle)
    may_lose = SERVICE_CHAOS_PROFILES[profile]
    if not may_lose:
        # delay-only profiles must deliver everything, bit-exactly
        assert report.dead_letters == 0
        assert report.completed == oracle.completed
        assert report.diagnosis is None
    elif report.dead_letters:
        # losses must carry the run's typed diagnosis
        assert report.diagnosis is not None
        assert report.diagnosis["type"] == "FaultDiagnosis"


def test_crash_mid_storm_dead_letters_with_diagnosis():
    # seed chosen so the crash lands mid-storm: some batches complete
    # before it, the rest dead-letter (pinned by the seeded schedule)
    report, oracle = run_chaos_storm("crash", seed=1)
    assert report.dead_letters > 0
    assert report.completed > 0
    assert report.completed + report.dead_letters == len(report.outcomes)
    assert report.diagnosis is not None
    assert report.diagnosis["type"] == "FaultDiagnosis"
    _assert_ok_match_oracle(report, oracle)
    # dead-letters carry no stale results or completion times
    for out in report.outcomes.values():
        if out.status == "dead-letter":
            assert np.isnan(out.completion_v)


def test_schedules_are_seeded_and_reproducible():
    m = Machine(Mesh2D(2, 3), PARAGON)
    a = service_fault_schedule("crash", m, 0.01, seed=3)
    b = service_fault_schedule("crash", m, 0.01, seed=3)
    c = service_fault_schedule("crash", m, 0.01, seed=4)
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != c.to_dict()


def test_unknown_profile_rejected():
    m = Machine(Mesh2D(2, 3), PARAGON)
    with pytest.raises(ValueError):
        service_fault_schedule("meteor", m, 0.01)
