"""Tests for the model-audit observatory (repro.obs.audit):
prediction capture readback, the conflict-freedom verifier, and
alpha/beta drift detection."""

import math

import numpy as np
import pytest

from repro.core import api
from repro.obs.audit import (BUILDING_BLOCKS, ChannelShare, ConflictVerdict,
                             audit_run, contended_channels, drift_from_runs,
                             fit_drift, predicted_terms, run_block_primitive,
                             verify_building_blocks)
from repro.chaos.generator import ChaosCase
from repro.sim import LinearArray, Machine, PARAGON, UNIT


def _case(op, p, n):
    """A fault-free float64 ``op`` case over a ``p``-node linear array."""
    return ChaosCase(topo=("linear", p), params="", op=op, n=n,
                     dtype="float64", group=None, profile="none")


def _auto_program(n_bcast=4096, n_allreduce=512):
    def prog(env):
        buf = (np.arange(n_bcast, dtype=np.float64)
               if env.rank == 0 else None)
        out = yield from api.bcast(env, buf, root=0, total=n_bcast,
                                   algorithm="auto")
        red = yield from api.allreduce(
            env, np.arange(n_allreduce, dtype=np.float64),
            op="sum", algorithm="auto")
        return float(out[-1]) + float(red[0])
    return prog


@pytest.fixture(scope="module")
def traced_auto_run():
    machine = Machine(LinearArray(12), PARAGON)
    return machine.run(_auto_program(), trace=True, metrics=True)


class TestPredictionCapture:
    def test_op_spans_carry_prediction_record(self, traced_auto_run):
        spans = traced_auto_run.trace.op_spans()
        assert spans
        attrs = spans[0].attrs
        assert "predicted_cost" in attrs
        assert "selector_candidates" in attrs
        assert "selector_bucket" in attrs
        assert attrs["selector_itemsize"] == 8

    def test_candidates_are_ranked_cheapest_first(self, traced_auto_run):
        attrs = traced_auto_run.trace.op_spans()[0].attrs
        costs = [c for _, c in attrs["selector_candidates"]]
        assert costs == sorted(costs)
        # the chosen strategy is the head of the ranking
        assert attrs["predicted_cost"] == costs[0]
        assert attrs["selector_candidates"][0][0] == attrs["strategy"]

    def test_explicit_algorithm_captures_nothing(self):
        machine = Machine(LinearArray(8), UNIT)

        def prog(env):
            buf = np.arange(64, dtype=np.float64) if env.rank == 0 else None
            yield from api.bcast(env, buf, root=0, total=64,
                                 algorithm="short")
            return None
        run = machine.run(prog, trace=True)
        for s in run.trace.op_spans():
            assert "predicted_cost" not in (s.attrs or {})

    def test_untraced_dispatch_pays_nothing(self):
        # no tracer: annotate_next_op is a no-op and the run has no audit
        machine = Machine(LinearArray(8), UNIT)
        run = machine.run(_auto_program(64, 64))
        assert run.trace is None
        assert run.audit is None


class TestAuditRun:
    def test_one_entry_per_collective(self, traced_auto_run):
        aud = traced_auto_run.audit
        assert [e.operation for e in aud] == ["bcast", "allreduce"]
        assert all(e.ranks == 12 for e in aud)

    def test_audit_is_cached(self, traced_auto_run):
        assert traced_auto_run.audit is traced_auto_run.audit

    def test_predicted_close_to_measured(self, traced_auto_run):
        # the cost model and the simulator implement the same machine
        # model; on a conflict-priced linear array they agree within a
        # few percent (cf. tests/core/test_cost_agreement.py)
        for e in traced_auto_run.audit.predicted_entries():
            assert e.ratio == pytest.approx(1.0, rel=0.1)

    def test_terms_sum_to_prediction(self, traced_auto_run):
        for e in traced_auto_run.audit.predicted_entries():
            assert sum(e.predicted_terms.values()) \
                == pytest.approx(e.predicted, rel=1e-9)

    def test_critical_path_is_windowed(self, traced_auto_run):
        # each entry's critical path must fit inside its own window —
        # the second collective must not inherit the first one's time
        for e in traced_auto_run.audit:
            cp = e.critical_path
            assert cp["time"] <= e.measured * (1 + 1e-9)
            assert cp["hops"] >= 1

    def test_measured_spans_the_op_window(self, traced_auto_run):
        aud = traced_auto_run.audit
        # collectives start in program order (their windows may overlap
        # slightly: without a barrier a fast rank enters op 2 before the
        # slowest rank exits op 1)
        assert aud.entries[0].t_start <= aud.entries[1].t_start
        assert aud.entries[1].t_end <= traced_auto_run.time * (1 + 1e-12)
        assert aud.time == traced_auto_run.time

    def test_render_and_json(self, traced_auto_run):
        import json
        text = traced_auto_run.audit.render()
        assert "bcast" in text and "ratio" in text
        blob = json.dumps(traced_auto_run.audit.to_json())
        assert "predicted_terms" in blob

    def test_untraced_run_rejected(self):
        machine = Machine(LinearArray(4), UNIT)

        def prog(env):
            yield from api.barrier(env)
            return None
        run = machine.run(prog)
        with pytest.raises(ValueError, match="traced"):
            audit_run(run)

    def test_span_free_run_audits_empty(self):
        # adversarial point-to-point traffic has no op spans: the audit
        # is empty, not an error
        machine = Machine(LinearArray(4), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(16))
            elif env.rank == 1:
                yield env.recv(0)
            return None
        run = machine.run(prog, trace=True)
        assert len(run.audit) == 0
        assert "no op spans" in run.audit.render()


class TestPredictedTerms:
    def test_linear_decomposition_is_exact(self):
        from repro.core.costmodel import CostModel
        from repro.core.strategy import Strategy
        s = Strategy((3, 4), "SMC")
        terms = predicted_terms(PARAGON, 8, "bcast", s, 4096)
        full = CostModel(PARAGON, itemsize=8).hybrid("bcast", s, 4096)
        assert sum(terms.values()) == pytest.approx(full, rel=1e-12)
        assert set(terms) == {"alpha", "beta", "gamma", "overhead"}
        assert terms["gamma"] == 0.0  # bcast does no combining


class TestConflictFreedomVerifier:
    @pytest.mark.parametrize("p", [7, 12])
    def test_all_four_blocks_conflict_free_on_linear_array(self, p):
        # p=7: non-power-of-two — the MST recursions and the ring wrap
        # are exactly where it could go wrong
        verdicts = verify_building_blocks(("linear", p), params=UNIT)
        assert sorted(verdicts) == sorted(BUILDING_BLOCKS)
        for v in verdicts.values():
            assert v.ok, str(v)
            assert v.contended == ()
            assert v.messages > 0
            assert v.p == p

    @pytest.mark.parametrize("group_kind", ["row", "col"])
    def test_blocks_conflict_free_on_aligned_mesh_group(self, group_kind):
        if group_kind == "row":
            group = [1 * 5 + c for c in range(5)]
        else:
            group = [r * 5 + 2 for r in range(4)]
        verdicts = verify_building_blocks(("mesh", 4, 5), params=UNIT,
                                          group=group)
        assert all(v.ok for v in verdicts.values())

    def test_contention_detected_with_flows(self):
        # two flows forced through the same channels: 0->3 and 1->3
        # share ("ch",1,2) and ("ch",2,3) on a 4-node line
        def prog(env):
            if env.rank in (0, 1):
                yield env.send(3, np.zeros(1000))
            elif env.rank == 3:
                h1 = env.irecv(0)
                h2 = env.irecv(1)
                yield env.waitall(h1, h2)
            return None
        topo = LinearArray(4)
        run = Machine(topo, UNIT).run(prog, trace=True, metrics=True)
        shares = contended_channels(run, topo)
        assert {s.channel for s in shares} == {("ch", 1, 2), ("ch", 2, 3)}
        for s in shares:
            assert s.max_concurrent == 2
            assert {(f.src, f.dst) for f in s.flows} == {(0, 3), (1, 3)}

    def test_wrong_payload_fails_the_block_and_the_check(self,
                                                          monkeypatch):
        # a conflict-free but wrong bucket collect: same messages, every
        # delivered vector off by one
        from repro.analysis.audit import check
        from repro.core import hybrid
        real = hybrid.bucket_collect

        def broken(*args, **kwargs):
            out = yield from real(*args, **kwargs)
            return out + 1
        monkeypatch.setattr(hybrid, "bucket_collect", broken)
        verdicts = verify_building_blocks(("linear", 7), params=UNIT)
        bad = verdicts.pop("bucket_collect")
        assert not bad.ok and bad.contended == ()
        assert bad.wrong_ranks == tuple(range(7))
        assert "WRONG payloads" in str(bad)
        assert bad.to_json()["wrong_ranks"] == list(range(7))
        assert all(v.ok for v in verdicts.values())
        assert all("wrong_ranks" not in v.to_json()
                   for v in verdicts.values())
        report = {"regret": {"count": 1, "median": 1.0},
                  "conflict_freedom": [bad.to_json()]}
        failures = check(report)
        assert len(failures) == 1
        assert "bucket_collect p=7" in failures[0]
        assert "wrong payloads on ranks [0, 1, 2, 3, 4, 5, 6]" \
            in failures[0]

    def test_verdict_serialization(self):
        v = verify_building_blocks(("linear", 7),
                                   params=UNIT)["bucket_collect"]
        blob = v.to_json()
        assert blob["ok"] is True and blob["block"] == "bucket_collect"
        assert "conflict-free" in str(v)

    def test_unmetered_run_rejected(self):
        topo = LinearArray(4)
        run = Machine(topo, UNIT).run(_noop, trace=True)
        with pytest.raises(ValueError, match="metered"):
            contended_channels(run, topo)


def _noop(env):
    yield from api.barrier(env)
    return None


class TestDriftDetection:
    def test_zero_drift_on_conflict_free_traffic(self):
        runs = [run_block_primitive(_case(op, 8, n), algorithm, PARAGON)
                for op, algorithm in (("bcast", "short"),
                                      ("collect", "long"))
                for n in (64, 512, 4096)]
        d = drift_from_runs(runs, PARAGON)
        assert d.alpha_fit == pytest.approx(PARAGON.alpha, rel=1e-6)
        assert d.beta_fit == pytest.approx(PARAGON.beta, rel=1e-6)
        assert d.max_abs_rel_err < 1e-6
        assert d.samples > 10

    def test_misconfigured_params_show_drift(self):
        # simulate under PARAGON, but claim the machine is 2x faster:
        # the fit must expose the divergence
        runs = [run_block_primitive(_case("bcast", 8, n), "short", PARAGON)
                for n in (64, 4096)]
        wrong = PARAGON.with_(alpha=PARAGON.alpha / 2,
                              beta=PARAGON.beta / 2)
        d = drift_from_runs(runs, wrong)
        assert d.alpha_rel_err == pytest.approx(1.0, rel=1e-6)
        assert d.beta_rel_err == pytest.approx(1.0, rel=1e-6)
        assert d.max_abs_rel_err == pytest.approx(1.0, rel=1e-6)

    def test_needs_two_distinct_lengths(self):
        runs = [run_block_primitive(_case("bcast", 4, 64), "short", UNIT)]
        msgs = runs[0].trace.completed()
        same = [m for m in msgs if m.nbytes == msgs[0].nbytes]
        with pytest.raises(ValueError, match="two distinct"):
            fit_drift(same, UNIT)

    def test_json_round_trip(self):
        import json
        runs = [run_block_primitive(_case("bcast", 4, n), "short", UNIT)
                for n in (32, 256)]
        d = drift_from_runs(runs, UNIT)
        blob = json.loads(json.dumps(d.to_json()))
        assert blob["samples"] == d.samples


class TestObsFacade:
    def test_audit_names_exported_lazily(self):
        import repro.obs as obs
        assert obs.audit_run is audit_run
        assert obs.verify_building_blocks is verify_building_blocks
        assert obs.BUILDING_BLOCKS is BUILDING_BLOCKS
