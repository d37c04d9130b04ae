"""The fixed chaos grid (``benchmarks/chaos``) runs on repro.chaos's
programs, oracles and fault schedules; its CI smoke slice must keep
every committed outcome."""

import json
import os

import pytest

from benchmarks.chaos.cases import GRIDS, run_case

_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "CHAOS_report.json")


@pytest.fixture(scope="module")
def committed():
    with open(_REPORT) as f:
        return {rec["id"]: rec for rec in json.load(f)["records"]}


def test_smoke_slice_outcomes_match_committed_report(committed):
    for case in GRIDS["smoke"]:
        rec = run_case(*case)
        assert rec["outcome"] == committed[rec["id"]]["outcome"], rec["id"]
