"""Tests for message tracing (the Figure 1 machinery)."""

import numpy as np
import pytest

from repro.sim import LinearArray, Machine, UNIT
from repro.obs.trace import (MessageRecord, Tracer, chrome_trace,
                             write_chrome_trace)


def traced_run(prog, p=4):
    m = Machine(LinearArray(p), UNIT, trace=True)
    return m.run(prog)


class TestTracer:
    def test_records_full_lifecycle(self):
        def prog(env):
            if env.rank == 0:
                yield env.delay(5)
                yield env.send(1, np.zeros(10, dtype=np.uint8))
            elif env.rank == 1:
                yield env.recv(0)

        run = traced_run(prog)
        (rec,) = run.trace.completed()
        assert rec.src == 0 and rec.dst == 1
        assert rec.nbytes == 10
        assert rec.t_send_post == pytest.approx(5.0)
        assert rec.t_recv_post == pytest.approx(0.0)
        assert rec.t_match == pytest.approx(5.0)
        assert rec.t_complete == pytest.approx(16.0)
        assert rec.duration == pytest.approx(11.0)
        assert rec.wait_time == pytest.approx(5.0)

    def test_between_filters_by_pair(self):
        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.array([1.0]))
                yield env.send(2, np.array([2.0]))
            elif env.rank in (1, 2):
                yield env.recv(0)

        run = traced_run(prog)
        assert len(run.trace.between(0, 1)) == 1
        assert len(run.trace.between(0, 2)) == 1
        assert run.trace.between(1, 0) == []

    def test_total_bytes_and_count(self):
        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(3, dtype=np.float64))
                yield env.send(1, np.zeros(2, dtype=np.float64))
            elif env.rank == 1:
                yield env.recv(0)
                yield env.recv(0)

        run = traced_run(prog)
        assert run.trace.message_count() == 2
        assert run.trace.total_bytes() == 40

    def test_step_table_groups_by_match_time(self):
        def prog(env):
            # two rounds of disjoint neighbor sends
            if env.rank in (0, 2):
                yield env.send(env.rank + 1, np.zeros(8, dtype=np.uint8))
                yield env.send(env.rank + 1, np.zeros(8, dtype=np.uint8))
            else:
                yield env.recv(env.rank - 1)
                yield env.recv(env.rank - 1)

        run = traced_run(prog)
        steps = run.trace.step_table()
        assert len(steps) == 2
        assert all(len(recs) == 2 for _, recs in steps)

    def test_render_steps_mentions_endpoints(self):
        def prog(env):
            if env.rank == 0:
                yield env.send(3, np.zeros(4, dtype=np.uint8))
            elif env.rank == 3:
                yield env.recv(0)

        run = traced_run(prog)
        text = run.trace.render_steps()
        assert "0->3" in text and "step 1" in text

    def test_marks(self):
        def prog(env):
            yield env.mark(f"hello from {env.rank}")
            yield env.delay(1)

        run = traced_run(prog, p=2)
        assert len(run.trace.marks) == 2
        assert run.trace.marks[0][2] == "hello from 0"

    def test_by_completion_sorted(self):
        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(100, dtype=np.uint8))
            elif env.rank == 1:
                yield env.recv(0)
            elif env.rank == 2:
                yield env.send(3, np.zeros(10, dtype=np.uint8))
            elif env.rank == 3:
                yield env.recv(2)

        run = traced_run(prog)
        recs = run.trace.by_completion()
        assert (recs[0].src, recs[0].dst) == (2, 3)
        assert (recs[1].src, recs[1].dst) == (0, 1)


class TestStepTableTolerance:
    def _tracer_with_matches(self, times):
        tr = Tracer()
        for i, t in enumerate(times):
            tr.message(MessageRecord(src=0, dst=1, tag=0, nbytes=8.0,
                                     t_send_post=0.0, t_recv_post=0.0,
                                     t_match=t, t_complete=t + 1.0))
        return tr

    def test_float_noise_grouped_into_one_step(self):
        # settle/eta arithmetic leaves ~1e-15 between same-round
        # rendezvous; exact-equality grouping used to split the round.
        t = 100.0
        tr = self._tracer_with_matches([t, t + 1e-13, t + 2e-13])
        steps = tr.step_table()
        assert len(steps) == 1
        assert len(steps[0][1]) == 3

    def test_distinct_rounds_stay_split(self):
        tr = self._tracer_with_matches([1.0, 2.0, 3.0])
        assert len(tr.step_table()) == 3

    def test_relative_tolerance_scales_with_magnitude(self):
        # at t=1e6 a 1e-4 absolute gap is still the same round
        # relatively (1e-10 rel), while at t=1 it is not even close to
        # splitting threshold concerns -- both behave.
        tr = self._tracer_with_matches([1e6, 1e6 + 1e-4])
        assert len(tr.step_table()) == 1
        tr = self._tracer_with_matches([1.0, 1.001])
        assert len(tr.step_table()) == 2

    def test_explicit_quantum_unchanged(self):
        tr = self._tracer_with_matches([0.1, 0.9, 1.1])
        steps = tr.step_table(time_quantum=1.0)
        assert [len(r) for _, r in steps] == [2, 1]


class TestWaitTimeNaN:
    def test_half_posted_is_nan_both_orders(self):
        import math
        a = MessageRecord(src=0, dst=1, tag=0, nbytes=8.0,
                          t_send_post=2.0)
        b = MessageRecord(src=0, dst=1, tag=0, nbytes=8.0,
                          t_recv_post=2.0)
        assert math.isnan(a.wait_time)
        assert math.isnan(b.wait_time)

    def test_fully_posted_is_finite(self):
        m = MessageRecord(src=0, dst=1, tag=0, nbytes=8.0,
                          t_send_post=2.0, t_recv_post=5.0, t_match=5.0,
                          t_complete=9.0)
        assert m.wait_time == 3.0


class TestSpans:
    def test_open_close_records_interval(self):
        tr = Tracer()
        sp = tr.span_open(1.0, rank=2, label="stage", phase="scatter",
                          attrs={"d": 5})
        assert not sp.closed
        tr.span_close(sp, 4.0)
        assert sp.closed and sp.duration == 3.0
        assert tr.spans_of(2) == [sp]
        assert tr.closed_spans() == [sp]

    def test_nesting_depth_per_rank(self):
        tr = Tracer()
        outer = tr.span_open(0.0, 0, "op")
        inner = tr.span_open(1.0, 0, "stage")
        other = tr.span_open(1.0, 1, "op")
        assert outer.depth == 0 and inner.depth == 1
        assert other.depth == 0  # depth is per rank
        tr.span_close(inner, 2.0)
        sibling = tr.span_open(3.0, 0, "stage2")
        assert sibling.depth == 1

    def test_collectives_emit_stage_spans(self):
        from repro.core import api

        def prog(env):
            buf = (np.arange(64, dtype=np.float64)
                   if env.rank == 0 else None)
            yield from api.bcast(env, buf, root=0, total=64,
                                 algorithm="2x2:SSCC")

        run = traced_run(prog, p=4)
        spans = run.trace.closed_spans()
        ops = [s for s in spans if s.phase == "op"]
        assert len(ops) == 4  # one op span per rank
        assert all(s.label == "bcast" for s in ops)
        assert all(s.attrs["strategy"] == "(2x2, SSCC)" for s in ops)
        stages = [s for s in run.trace.spans_of(0) if s.depth == 1]
        assert [s.phase for s in stages] == ["scatter", "scatter",
                                             "collect", "collect"]
        lo = min(s.t_start for s in stages)
        hi = max(s.t_end for s in stages)
        op0 = next(s for s in ops if s.rank == 0)
        assert op0.t_start <= lo and hi <= op0.t_end

    def test_spans_do_not_perturb_results(self):
        # tracing on vs off: identical simulated time (spans are
        # observational only)
        from repro.core import api

        def prog(env):
            vec = np.arange(32, dtype=np.float64)
            out = yield from api.allreduce(env, vec)
            return out

        m = Machine(LinearArray(4), UNIT)
        on = m.run(prog, trace=True)
        off = m.run(prog, trace=False)
        assert on.time == off.time
        assert on.trace.spans and off.trace is None


class TestChromeExport:
    def _run(self):
        from repro.core import api

        def prog(env):
            buf = (np.arange(16, dtype=np.float64)
                   if env.rank == 0 else None)
            yield env.mark("go")
            yield from api.bcast(env, buf, root=0, total=16,
                                 algorithm="short")

        return traced_run(prog, p=4)

    def test_structure(self):
        run = self._run()
        evs = chrome_trace(run.trace)["traceEvents"]
        assert {"M", "X", "i", "s", "f"} <= {e["ph"] for e in evs}
        # one process track per rank, each with a stages and a
        # messages thread
        procs = {e["pid"]: e["args"]["name"] for e in evs
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert procs == {r: f"rank {r}" for r in range(4)}
        threads = {(e["pid"], e["tid"]): e["args"]["name"] for e in evs
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert threads == {(r, t): name for r in range(4)
                           for t, name in ((0, "stages"), (1, "messages"))}
        span_evs = [e for e in evs if e["ph"] == "X" and e["tid"] == 0]
        msg_evs = [e for e in evs if e["ph"] == "X" and e["tid"] == 1]
        assert span_evs and all(e["dur"] >= 0 for e in span_evs)
        assert all("nbytes" in e["args"] for e in msg_evs)
        # every message: a sender slice from its send post and a
        # receiver slice, both ending at completion
        done = run.trace.completed()
        assert len(msg_evs) == 2 * len(done)
        for m in done:
            end = m.t_complete * 1e6
            send = next(e for e in msg_evs if e["pid"] == m.src
                        and e["name"] == f"{m.src}->{m.dst}"
                        and e["ts"] == m.t_send_post * 1e6)
            assert send["ts"] + send["dur"] == pytest.approx(end)
            recv = next(e for e in msg_evs if e["pid"] == m.dst
                        and e["name"] == f"recv {m.src}->{m.dst}"
                        and e["ts"] + e["dur"] == pytest.approx(end))
            assert recv["ts"] == pytest.approx(
                min(m.t_recv_post, m.t_complete) * 1e6)
        # one flow arrow per cross-rank message, send post -> completion
        starts = {e["id"]: e for e in evs if e["ph"] == "s"}
        finishes = {e["id"]: e for e in evs if e["ph"] == "f"}
        assert len(starts) == len(finishes) == len(
            [m for m in done if m.src != m.dst])
        for fid, fin in finishes.items():
            assert fin["ts"] >= starts[fid]["ts"]
            assert fin["pid"] != starts[fid]["pid"]

    def test_timescale_scales_timestamps(self):
        tr = self._run().trace
        a = chrome_trace(tr, timescale=1.0)
        b = chrome_trace(tr, timescale=1000.0)
        xa = [e for e in a["traceEvents"] if e["ph"] == "X"]
        xb = [e for e in b["traceEvents"] if e["ph"] == "X"]
        assert xb[0]["ts"] == xa[0]["ts"] * 1000.0

    def test_write_round_trips_as_json(self, tmp_path):
        import json
        path = tmp_path / "out.trace.json"
        write_chrome_trace(self._run().trace, str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_attrs_stringified(self):
        tr = Tracer()
        sp = tr.span_open(0.0, 0, "op", phase="op",
                          attrs={"strategy": (2, 2), "n": 64})
        tr.span_close(sp, 1.0)
        doc = chrome_trace(tr)
        ev = next(e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "op")
        assert ev["args"] == {"strategy": "(2, 2)", "n": "64"}
