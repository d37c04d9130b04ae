"""The fixed chaos grid (``benchmarks/chaos``) is a case list that
``execute_case`` classifies; its CI smoke slice must keep every
committed verdict.

Every smoke case carries a non-empty fault schedule, so this also pins
the network's fault paths — degraded-route interning, mid-flight
``apply_slowdown`` capacity rewrites, flow aborts, crash-shrunk groups —
which the fault-free golden corpus cannot reach."""

import json
import os

import pytest

from benchmarks.chaos.cases import GRIDS, grid_case
from repro.chaos import execute_case

_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "CHAOS_report.json")

_SMOKE = GRIDS["smoke"]


@pytest.fixture(scope="module")
def committed():
    with open(_REPORT) as f:
        return {rec["case"]["origin"]: rec
                for rec in json.load(f)["records"]}


@pytest.mark.parametrize("entry", _SMOKE,
                         ids=["-".join(map(str, c)) for c in _SMOKE])
def test_smoke_case_matches_committed(entry, committed):
    case = grid_case(*entry)
    rec = execute_case(case, audit=False)
    want = committed[case.origin]
    assert rec["verdict"] == want["verdict"], case.origin
    assert rec["case"] == want["case"], case.origin
    # completed runs finish at the bit-identical instant, and
    # diagnosed runs attribute the same fault
    assert repr(rec["sim_time"]) == repr(want["sim_time"]), case.origin
    assert rec.get("diagnosis") == want.get("diagnosis"), case.origin
