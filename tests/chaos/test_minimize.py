"""Auto-minimizer: planted failures reduce to <= 4 ranks, same verdict."""

import os
import subprocess
import sys

import pytest

from repro.chaos.executor import execute_case
from repro.chaos.generator import ChaosCase
from repro.chaos.minimize import (PLANT_KINDS, minimize_case,
                                  plant_case)


class TestPlants:
    @pytest.mark.parametrize("kind", PLANT_KINDS)
    def test_plants_fail_with_typed_diagnosis(self, kind):
        case = plant_case(kind)
        assert case.nranks > 4  # minimization has real work to do
        assert execute_case(case)["verdict"] == "diagnosed-fault"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="gremlin"):
            plant_case("gremlin")

    def test_plants_are_deterministic(self):
        assert plant_case("crash").to_dict() == \
            plant_case("crash").to_dict()


class TestMinimize:
    @pytest.mark.parametrize("kind", PLANT_KINDS)
    def test_planted_case_minimizes_to_four_ranks(self, kind):
        case = plant_case(kind)
        minimal, info = minimize_case(case,
                                      target_verdict="diagnosed-fault")
        assert minimal.nranks <= 4, (kind, info["steps"])
        assert info["final_record"]["verdict"] == "diagnosed-fault"
        assert info["steps"]  # it actually reduced something
        # the minimal case replays to the same verdict from scratch
        assert execute_case(minimal)["verdict"] == "diagnosed-fault"

    def test_minimization_is_deterministic(self):
        case = plant_case("withholding")
        a, info_a = minimize_case(case, target_verdict="diagnosed-fault")
        b, info_b = minimize_case(case, target_verdict="diagnosed-fault")
        assert a.to_dict() == b.to_dict()
        assert info_a["steps"] == info_b["steps"]

    def test_ok_case_returned_unchanged(self):
        case = ChaosCase(topo=("ring", 4), params="unit", op="bcast",
                         n=8, dtype="float64", group=None,
                         profile="none", faults={}, origin="t")
        minimal, info = minimize_case(case)
        assert minimal == case
        assert info["target_verdict"] == "ok"
        assert info["steps"] == []

    def test_payload_shrinks_too(self):
        case = plant_case("byzantine")
        minimal, _ = minimize_case(case,
                                   target_verdict="diagnosed-fault")
        assert minimal.n < case.n

    def test_crash_reference_survives_shrink(self):
        # the planted crash sits at node 9 of a 12-node line; the
        # minimal world must still *have* a crash event (remapped, not
        # dropped) or the verdict could not reproduce
        minimal, _ = minimize_case(plant_case("crash"),
                                   target_verdict="diagnosed-fault")
        events = minimal.faults["events"]
        assert any(ev["kind"] == "node-crash"
                   and ev["node"] < minimal.nranks for ev in events)


def test_module_runs_without_runpy_warning():
    """``python -m repro.chaos.minimize`` must not find its module
    already imported by the ``repro.chaos`` package."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.chaos.minimize", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
