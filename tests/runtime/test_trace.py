"""Runtime tracing tests: clock alignment, merge determinism, export.

Covers the wall-clock observability layer of the process backend
(:mod:`repro.obs.runtime`): the NTP-style offset estimator on synthetic
skewed clocks, byte-identical merges of the same per-rank tracers in
any order, the merged p=4 allreduce trace (one aligned track per rank,
send->recv flow arrows), ``env.mark`` instant events, the trace model,
span attributes and export layout it shares with the simulator, and
the queue-depth / last-progress enrichment of hang diagnoses.
"""

import json
import math

import numpy as np
import pytest

from repro.core import api
from repro.core.params import MachineParams
from repro.obs.runtime import (ClockEstimate, RuntimeTracer,
                               estimate_clock_offset, merge_rank_traces)
from repro.obs.trace import Tracer, chrome_trace, write_chrome_trace
from repro.runtime import ProcessMachine, RuntimeHangDiagnosis
from repro.sim import LinearArray, Machine


# ----------------------------------------------------------------------
# the offset estimator on synthetic skewed clocks
# ----------------------------------------------------------------------


class TestClockEstimator:
    def _probes(self, offset, rtts, asymmetry=0.5):
        """Synthetic (t0_local, t_ref, t1_local) triples.

        The local clock reads ``t_ref_clock - offset``; the reply is
        generated after ``asymmetry * rtt`` of the round trip.
        """
        samples = []
        t_local = 10.0
        for rtt in rtts:
            t0 = t_local
            t_ref = (t0 + offset) + asymmetry * rtt
            t1 = t0 + rtt
            samples.append((t0, t_ref, t1))
            t_local += rtt + 0.003
        return samples

    @pytest.mark.parametrize("offset", [-4.2, -0.001, 0.0, 0.37, 120.0])
    def test_recovers_injected_offset_within_rtt_bound(self, offset):
        rtts = [0.004, 0.0002, 0.009, 0.0015]
        for asym in (0.0, 0.3, 0.5, 0.8, 1.0):
            est = estimate_clock_offset(
                self._probes(offset, rtts, asymmetry=asym))
            # min-RTT probe wins, and the error never exceeds RTT/2
            assert est.rtt_s == pytest.approx(min(rtts))
            assert est.uncertainty_s == pytest.approx(min(rtts) / 2)
            assert abs(est.offset_s - offset) <= est.uncertainty_s + 1e-12

    def test_symmetric_path_is_exact(self):
        est = estimate_clock_offset(
            self._probes(7.5, [0.002, 0.03], asymmetry=0.5))
        assert est.offset_s == pytest.approx(7.5, abs=1e-12)
        assert est.probes == 2
        est = ClockEstimate(offset_s=-0.25, rtt_s=0.004, probes=8)
        assert est.uncertainty_s == pytest.approx(0.002)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="at least one probe"):
            estimate_clock_offset([])
        with pytest.raises(ValueError, match="before its send"):
            estimate_clock_offset([(5.0, 5.0, 4.9)])


# ----------------------------------------------------------------------
# traced runs: merge, alignment, export
# ----------------------------------------------------------------------


#: pipe-transport-scale constants for the traced fixture
PIPE_PARAMS = MachineParams(alpha=2e-4, beta=5e-9, gamma=1e-9,
                            sw_overhead=1e-6, link_capacity=1.0)


def _allreduce_prog(env):
    yield env.mark("phase:start")
    out = yield from api.allreduce(
        env, np.arange(16, dtype=np.float64) + env.rank)
    yield env.mark("phase:done")
    return float(out[0])


def _ring_tracers():
    """Four in-process rank tracers, each on its own skewed clock.

    Rank r's clock reads ``0.5 * r`` behind the reference, so the same
    instant lands on equal aligned times on every rank: ties the merge
    must break by rank, not by input order.  Each rank sends one frame
    to its right neighbour and receives one from its left.
    """
    tracers = []
    for r in range(4):
        tr = RuntimeTracer(r, ClockEstimate(offset_s=0.5 * r,
                                            rtt_s=1e-4 * r, probes=8))
        base = 10.0 - 0.5 * r
        span = tr.span_open(base, r, "allreduce", phase="op",
                            attrs={"strategy": "4:M"})
        tr.mark(base + 0.125, r, "phase:start")
        tr.send_post(base + 0.25, (r + 1) % 4, 7, 128.0)
        tr.recv_post(base + 0.25, (r - 1) % 4, 7)
        tr.match(base + 0.375, (r - 1) % 4, 7)
        tr.span_close(span, base + 0.5)
        tracers.append(tr)
    return tracers


class TestMergedTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        # explicit params: auto dispatch prices with the Selector (and
        # records its prediction) whatever profile the host has stored
        return ProcessMachine(4, timeout=30, params=PIPE_PARAMS).run(
            _allreduce_prog, trace=True)

    def test_results_and_trace_present(self, traced):
        res = traced
        assert res.results == [pytest.approx(sum(range(4)))] * 4
        assert res.trace is not None
        assert res.trace.ranks == [0, 1, 2, 3]

    def test_one_aligned_track_per_rank(self, traced):
        res = traced
        tr = res.trace
        # rank 0 is the reference; the others carry real estimates
        assert tr.clocks[0].offset_s == 0.0
        assert tr.clocks[0].probes == 0
        for r in (1, 2, 3):
            assert tr.clocks[r].probes > 0
            assert tr.clocks[r].rtt_s > 0.0
        assert tr.max_uncertainty_s() > 0.0
        # every rank opened the allreduce op span
        assert sorted(s.rank for s in tr.op_spans()) == [0, 1, 2, 3]
        assert all(s.label == "allreduce" for s in tr.op_spans())

    def test_messages_fully_paired(self, traced):
        res = traced
        completed = res.trace.completed()
        assert completed and len(completed) == res.trace.message_count()
        for m in completed:
            assert not math.isnan(m.t_send_post)
            assert m.t_match >= 0.0

    def test_flow_arrows_pair_send_with_recv(self, traced):
        res = traced
        events = chrome_trace(res.trace)["traceEvents"]
        assert sorted({e["pid"] for e in events}) == [0, 1, 2, 3]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        assert sorted(e["id"] for e in starts) == \
            sorted(e["id"] for e in finishes)
        # arrows must point forward in time up to the recorded
        # clock-alignment error bound (RTT/2 per endpoint)
        slack_us = 2 * res.trace.max_uncertainty_s() * 1e6 + 1.0
        by_id = {e["id"]: e for e in starts}
        for fin in finishes:
            start = by_id[fin["id"]]
            assert start["pid"] != fin["pid"]  # crosses rank tracks
            assert fin["ts"] >= start["ts"] - slack_us

    def test_mark_becomes_instant_event(self, traced):
        res = traced
        labels = [label for _, _, label in res.trace.marks]
        assert labels.count("phase:start") == 4
        assert labels.count("phase:done") == 4
        events = chrome_trace(res.trace)["traceEvents"]
        instants = [e for e in events
                    if e["ph"] == "i" and e["name"] == "phase:start"]
        assert len(instants) == 4

    def test_merge_is_deterministic(self, tmp_path):
        tracers = _ring_tracers()
        merged = merge_rank_traces(tracers)
        assert merged.ranks == [0, 1, 2, 3]
        assert len(merged.completed()) == merged.message_count() == 4
        out_a = str(tmp_path / "a.trace.json")
        out_b = str(tmp_path / "b.trace.json")
        write_chrome_trace(merged, out_a)
        write_chrome_trace(merge_rank_traces(list(reversed(tracers))),
                           out_b)
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_span_attrs_match_simulated_types(self, traced):
        sim = Machine(LinearArray(4), PIPE_PARAMS, trace=True).run(
            _allreduce_prog)

        def attr_types(trace):
            return {(s.rank, k): type(v) for s in trace.op_spans()
                    for k, v in s.attrs.items()}

        assert attr_types(traced.trace) == attr_types(sim.trace)

    def test_backends_share_trace_model_and_layout(self, traced):
        res = traced
        sim = Machine(LinearArray(4), PIPE_PARAMS, trace=True).run(
            _allreduce_prog)
        for trace in (res.trace, sim.trace):
            assert isinstance(trace, Tracer)
            events = chrome_trace(trace)["traceEvents"]
            assert {e["pid"] for e in events} == {0, 1, 2, 3}
            threads = {(e["pid"], e["args"]["name"]) for e in events
                       if e["ph"] == "M" and e["name"] == "thread_name"}
            assert threads == {(r, name) for r in range(4)
                               for name in ("stages", "messages")}
            cross = [m for m in trace.completed() if m.src != m.dst]
            assert cross
            assert (len([e for e in events if e["ph"] == "s"])
                    == len([e for e in events if e["ph"] == "f"])
                    == len(cross))
        assert (sorted(s.label for s in res.trace.op_spans())
                == sorted(s.label for s in sim.trace.op_spans()))

    def test_audit_pairs_prediction_with_wall_window(self, traced):
        res = traced
        audit = res.audit
        assert len(audit.entries) == 1
        entry = audit.entries[0]
        assert entry.operation == "allreduce"
        assert entry.measured > 0.0
        # auto dispatch captured its prediction; the pairing must
        # surface it next to the measured wall window
        assert entry.predicted is not None and entry.predicted > 0.0
        assert entry.ratio == pytest.approx(
            entry.predicted / entry.measured)


class TestTraceMiscellany:
    def test_untraced_run_has_no_trace(self):
        res = ProcessMachine(2, timeout=20).run(_allreduce_prog)
        assert res.trace is None
        assert res.audit is None

    def test_merge_rejects_bad_input(self):
        with pytest.raises(ValueError, match="duplicate ranks"):
            merge_rank_traces([RuntimeTracer(1, ClockEstimate(0, 0, 0))
                               for _ in range(2)])

    def test_cli_writes_merged_trace(self, tmp_path, capsys):
        from repro.runtime import launch as launch_mod
        out = str(tmp_path / "demo.trace.json")
        rc = launch_mod.main(["--np", "2", "--timeout", "30",
                              "--trace", out,
                              "tests.runtime.progs:pingpong"])
        assert rc == 0
        assert "merged trace" in capsys.readouterr().out
        with open(out) as f:
            doc = json.load(f)
        assert {e["pid"] for e in doc["traceEvents"]} == {0, 1}


class TestHangQueueDepths:
    def test_diagnosis_reports_progress_snapshot(self):
        def prog(env):
            if env.rank == 0:
                # one frame arrives (never matched: wrong tag posted),
                # then rank 0 blocks with a posted recv that can't match
                got = yield env.recv(1, tag=77)  # never sent
                return got
            yield env.send(0, "stray", tag=5)    # drained, unmatched
            return env.rank

        with pytest.raises(RuntimeHangDiagnosis) as ei:
            ProcessMachine(2, timeout=2.0, hard_grace=2.0).run(prog)
        diag = ei.value
        assert 0 in diag.queues
        q = diag.queues[0]
        assert q["posted"] == 1       # the tag=77 recv
        assert q["unexpected"] == 1   # rank 1's stray tag=5 frame
        # the stray frame was drained, so the rank *did* progress
        assert q["last_progress_s"] is not None
        assert "last_progress" in str(diag)
        assert diag.to_dict()["queues"]["0"]["posted"] == 1

    def test_never_progressed_rank_reports_never(self):
        def prog(env):
            if env.rank == 0:
                got = yield env.recv(1, tag=9)  # nothing ever arrives
                return got
            yield env.delay(0.0)
            return env.rank

        with pytest.raises(RuntimeHangDiagnosis) as ei:
            ProcessMachine(2, timeout=2.0, hard_grace=2.0).run(prog)
        q = ei.value.queues[0]
        assert q["posted"] == 1
        assert q["unexpected"] == 0
        assert q["last_progress_s"] is None
        assert "last_progress=never" in ei.value.blocked[0]
