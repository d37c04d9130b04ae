"""Selection-regret sweep on real processes: structure and gating."""

from functools import partial

from repro.analysis.audit import (RUNTIME_GRIDS, audit_cell,
                                  build_runtime_audit, check,
                                  measure_runtime, render)
from repro.core.params import MachineParams

PARAMS = MachineParams(alpha=2e-4, beta=5e-9, gamma=1e-9,
                       sw_overhead=1e-6, link_capacity=1.0)

TINY_GRID = {"operations": ("bcast",), "shapes": (("line", 2),),
             "lengths": (256,)}


class _FakeProfile:
    params = PARAMS

    def to_json(self):
        return {"host": "test", "transport": "local",
                "params": PARAMS.to_dict()}


def test_runtime_grids_registered():
    assert set(RUNTIME_GRIDS) == {"smoke", "full"}
    for grid in RUNTIME_GRIDS.values():
        assert set(grid) == {"operations", "shapes", "lengths"}


def test_audit_cell_measures_every_candidate():
    cell = audit_cell("bcast", ("line", 2), 256, PARAMS,
                      measure=partial(measure_runtime, reps=1, trials=1,
                                      timeout=60))
    assert cell.operation == "bcast"
    assert cell.p == 2
    assert len(cell.candidates) >= 1
    for cand in cell.candidates:
        assert cand.measured > 0.0
        assert cand.predicted > 0.0
    assert cell.chosen in {c.strategy for c in cell.candidates}
    assert cell.best_measured <= cell.chosen_measured
    assert cell.regret >= 1.0


def test_build_report_structure_and_gate():
    report = build_runtime_audit(TINY_GRID, profile=_FakeProfile(),
                                 reps=1, trials=1)
    assert report["backend"] == "runtime"
    assert report["grid"] == "custom"
    assert report["profile"]["params"] == PARAMS.to_dict()
    assert report["regret"]["count"] == 1
    assert report["model_error"]["count"] >= 1
    assert len(report["cells"]) == 1
    assert report["cells"][0]["chosen"]
    assert "regret" in render(report)
    # the gate passes iff the median regret clears the threshold
    assert check(report, max_median_regret=1e9) == []
    failures = check(report, max_median_regret=0.0)
    assert failures and "regret" in failures[0]


def test_empty_report_fails_check():
    empty = {"regret": {"count": 0}, "model_error": {"count": 0}}
    assert check(empty) == ["regret sweep produced no cells"]
