"""The fixed chaos grid (``benchmarks/chaos``) runs on repro.chaos's
programs, oracles and fault schedules; its CI smoke slice must keep
every committed verdict.

Every smoke case carries a non-empty fault schedule, so this also pins
the network's fault paths — degraded-route interning, mid-flight
``apply_slowdown`` capacity rewrites, flow aborts, crash-shrunk groups —
which the fault-free golden corpus cannot reach."""

import json
import os

import pytest

from benchmarks.chaos.cases import GRIDS, run_case

_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "CHAOS_report.json")

_SMOKE = GRIDS["smoke"]


@pytest.fixture(scope="module")
def committed():
    with open(_REPORT) as f:
        return {rec["id"]: rec for rec in json.load(f)["records"]}


def test_smoke_slice_outcomes_match_committed_report(committed):
    for case in _SMOKE:
        rec = run_case(*case)
        assert rec["outcome"] == committed[rec["id"]]["outcome"], rec["id"]


@pytest.mark.parametrize("case", _SMOKE,
                         ids=["-".join(map(str, c)) for c in _SMOKE])
def test_smoke_case_matches_committed(case, committed):
    rec = run_case(*case)
    want = committed[rec["id"]]
    assert rec["outcome"] != "silent-corruption", rec["id"]
    # completed runs finish at the bit-identical instant, and
    # diagnosed runs attribute the same fault
    if "time" in want:
        assert repr(rec.get("time")) == repr(want["time"]), rec["id"]
    if "diagnosis" in want:
        assert rec.get("diagnosis") == want["diagnosis"], rec["id"]
