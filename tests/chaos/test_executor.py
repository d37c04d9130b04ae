"""Executor verdicts and oracles: Byzantine detection is never silent."""

import numpy as np
import pytest

from repro.chaos import (FATAL_VERDICTS, FINDING_VERDICTS, VERDICTS,
                         execute_case)
from repro.chaos.generator import ChaosCase
from repro.chaos.minimize import plant_case
from repro.chaos.oracles import (case_vec, clean_run, expected_results,
                                 make_program, mismatched_ranks,
                                 payload_matches)
from repro.sim import Machine, preset


def _case(**over):
    base = dict(topo=("ring", 4), params="paragon", op="allreduce", n=8,
                dtype="float64", group=None, profile="none", faults={},
                origin="test")
    base.update(over)
    return ChaosCase(**base)


class TestTaxonomy:
    def test_verdict_sets_nest(self):
        assert set(FATAL_VERDICTS) < set(FINDING_VERDICTS)
        assert set(FINDING_VERDICTS) < set(VERDICTS)
        assert "ok" in VERDICTS and "diagnosed-fault" in VERDICTS


class TestOracles:
    @pytest.mark.parametrize("op", ["bcast", "reduce", "allreduce",
                                    "collect", "reduce_scatter"])
    @pytest.mark.parametrize("dtype", ["float64", "int32"])
    def test_analytic_oracle_matches_clean_run(self, op, dtype):
        case = _case(op=op, dtype=dtype)
        _, results = clean_run(case)
        oracle = expected_results(case)
        for rank in range(case.nranks):
            assert payload_matches(op, dtype, results[rank],
                                   oracle[rank]), (op, dtype, rank)

    def test_subgroup_oracle(self):
        case = _case(op="allreduce", topo=("linear", 6), group=(1, 3, 5))
        _, results = clean_run(case)
        oracle = expected_results(case)
        for rank in (0, 2, 4):
            assert oracle[rank] is None and results[rank] is None
        for rank in (1, 3, 5):
            assert payload_matches("allreduce", "float64",
                                   results[rank], oracle[rank])

    @pytest.mark.parametrize("op", ["scatter", "gather"])
    @pytest.mark.parametrize("topo,group", [
        (("linear", 7), None),
        (("mesh", 4, 5), None),
        (("mesh", 4, 5), (2, 7, 12, 17)),      # the middle column
    ])
    def test_scatter_gather_match_oracle(self, op, topo, group):
        case = _case(op=op, topo=topo, group=group, n=37, dtype="int32")
        _, results = clean_run(case)
        assert mismatched_ranks(case, results) == []
        oracle = expected_results(case)
        members = case.members()
        if op == "scatter":
            assert np.array_equal(
                np.concatenate([oracle[r] for r in members]),
                case_vec(0, 37, "int32"))
        else:
            assert len(oracle[members[0]]) == 37
            assert all(oracle[r] is None for r in members[1:])
        assert all(oracle[r] is None and results[r] is None
                   for r in range(case.nranks) if r not in members)

    def test_case_vec_small_and_deterministic(self):
        v = case_vec(5, 256, "int32")
        assert v.dtype == np.int32
        assert v.max() < 139  # int dtypes never wrap, f32 sums exact
        assert np.array_equal(v, case_vec(5, 256, "int32"))

    def test_movement_requires_bit_exactness(self):
        a = np.array([1.0, 2.0])
        b = a + 1e-12
        assert not payload_matches("bcast", "float64", a, b)
        assert payload_matches("allreduce", "float64", a, b)


class TestVerdicts:
    def test_clean_case_is_ok(self):
        rec = execute_case(_case(), audit=False)
        assert rec["verdict"] == "ok"
        assert rec["sim_time"] > 0.0
        assert rec["id"] == _case().case_hash

    def test_planted_byzantine_is_diagnosed_never_silent(self):
        rec = execute_case(plant_case("byzantine"))
        assert rec["verdict"] == "diagnosed-fault"
        assert rec["verdict"] not in FATAL_VERDICTS
        # completed with corrupted payloads, attributed via tampers
        assert rec.get("corruption_attributed") is True
        assert rec["tampered"]
        assert rec["corrupt_ranks"]

    def test_planted_withholding_is_diagnosed_hang(self):
        rec = execute_case(plant_case("withholding"))
        assert rec["verdict"] == "diagnosed-fault"
        assert rec["diagnosis"]["tampered"]

    def test_planted_crash_is_diagnosed(self):
        rec = execute_case(plant_case("crash"))
        assert rec["verdict"] == "diagnosed-fault"
        assert rec["diagnosis"]["crashed"] == [9]

    def test_record_replay_is_deterministic(self):
        case = plant_case("byzantine")
        a = execute_case(case)
        b = execute_case(case)
        assert a == b

    def test_tampered_mismatch_without_oracle_violation_stays_ok(self):
        # byzantine corrupting a rank whose result the oracle ignores
        # would be wrong; corruption of *delivered* payloads must
        # surface.  Guard: an adversary that never fires yields ok.
        case = plant_case("byzantine")
        faults = dict(case.faults)
        faults["events"] = [dict(faults["events"][0], start=10 ** 6)]
        from dataclasses import replace
        rec = execute_case(replace(case, faults=faults), audit=False)
        assert rec["verdict"] == "ok"
        assert "tampered" not in rec

    def test_regret_audit_records_candidates(self):
        rec = execute_case(_case(op="bcast", n=64))
        assert rec["verdict"] in ("ok", "regret-outlier")
        assert rec["regret"]["candidates"] >= 2
        assert rec["regret"]["ratio"] >= 0.99

    def test_runtime_slice_matches_simulator(self):
        case = _case(topo=("ring", 3), op="allreduce", n=16)
        rec = execute_case(case, runtime_slice=True, audit=False)
        assert rec["verdict"] == "ok"
        assert rec["runtime"]["ran"] is True
        assert rec["runtime"]["divergent_ranks"] == []

    def test_runtime_slice_byzantine_corruption_is_bit_identical(self):
        # the adversary derives corruption from the schedule seed, so
        # the sim and process backends tamper identically and the
        # differential slice sees zero divergence even under attack
        case = _case(
            topo=("ring", 3), op="allreduce", n=16,
            profile="byzantine",
            faults={"seed": 13, "events": [
                {"kind": "byzantine-rank", "rank": 1}]})
        rec = execute_case(case, runtime_slice=True, audit=False)
        assert rec["verdict"] == "diagnosed-fault"
        assert rec["runtime"]["ran"] is True
        assert rec["runtime"]["divergent_ranks"] == []


class TestSilentCorruptionDetection:
    def test_wrong_payload_without_tampers_is_silent_corruption(self):
        # force a mismatch with no fault report: a case whose oracle
        # disagrees with the run because the program is handed a lying
        # oracle — simulate by corrupting expected side via monkeypatch
        case = _case(op="bcast", n=4)
        machine = Machine(case.topology(), preset(case.params))
        run = machine.run(make_program(case))
        # sanity: the library itself is honest on this case
        oracle = expected_results(case)
        for rank in range(case.nranks):
            assert payload_matches("bcast", "float64",
                                   run.results[rank], oracle[rank])


class TestPassivity:
    def test_clock_drift_under_empty_schedule_is_silent_corruption(
            self, monkeypatch):
        from repro.chaos import executor
        case = _case()
        t_clean, results = clean_run(case)
        monkeypatch.setattr(executor, "clean_run",
                            lambda c: (t_clean * 2.0, results))
        rec = execute_case(case, audit=False)
        assert rec["verdict"] == "silent-corruption"
        assert rec["time_drift"] == [repr(t_clean * 2.0), repr(t_clean)]
        assert "corrupt_ranks" not in rec


class TestCrashShrink:
    def test_survivors_complete_against_survivor_oracle(self):
        from repro.core.faults import FaultSchedule, NodeCrash
        t_clean, _ = clean_run(_case(topo=("linear", 6)))
        faults = FaultSchedule(events=(NodeCrash(t=0.1 * t_clean,
                                                 node=2),)).to_dict()
        rec = execute_case(_case(topo=("linear", 6), profile="crash-shrink",
                                 faults=faults), audit=False)
        assert rec["verdict"] == "ok"
        assert rec["sim_time"] > 0.2 * t_clean  # outwaited the crash
        assert "corrupt_ranks" not in rec


class TestProfileContract:
    @staticmethod
    def _rec(profile, verdict):
        return {"verdict": verdict, "case": {"profile": profile}}

    def test_every_executor_profile_has_a_contract(self):
        from repro.chaos.executor import PROFILE_CONTRACT
        from repro.chaos.generator import PROFILES
        assert set(PROFILE_CONTRACT) == set(PROFILES) | {"crash-shrink"}

    def test_delay_only_profile_may_not_diagnose(self):
        from repro.chaos.executor import breaks_contract
        for profile in ("none", "jitter", "slowdown", "crash-shrink"):
            assert not breaks_contract(self._rec(profile, "ok"))
            assert breaks_contract(self._rec(profile, "diagnosed-fault"))
        for profile in ("link-permanent", "crash", "byzantine"):
            assert not breaks_contract(self._rec(profile,
                                                 "diagnosed-fault"))

    def test_fatal_verdicts_break_and_findings_do_not(self):
        from repro.chaos.executor import breaks_contract
        for verdict in FATAL_VERDICTS:
            assert breaks_contract(self._rec("crash", verdict))
        for verdict in ("sim-runtime-divergence", "regret-outlier"):
            assert not breaks_contract(self._rec("none", verdict))
