"""Critical-path extraction over the message-dependency graph."""

import math

import numpy as np
import pytest

from repro.analysis.critpath import (CritSpan, critical_path,
                                     critical_path_summary,
                                     render_critical_path)
from repro.core import api
from repro.sim import LinearArray, Machine, UNIT
from repro.obs.trace import Tracer


def mst_bcast_run(p, n=4):
    def prog(env):
        buf = np.arange(n, dtype=np.float64) if env.rank == 0 else None
        yield from api.bcast(env, buf, root=0, total=n, algorithm="short")

    return Machine(LinearArray(p), UNIT).run(prog, trace=True)


class TestMSTBcast:
    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13, 16, 30])
    def test_path_has_ceil_log2_p_hops(self, p):
        # Acceptance invariant: the MST broadcast's critical path is the
        # root-to-deepest-leaf chain, one hop per tree level.
        run = mst_bcast_run(p)
        cp = critical_path(run.trace, alpha=UNIT.alpha)
        assert len(cp) == math.ceil(math.log2(p))

    def test_path_is_a_dependency_chain(self):
        run = mst_bcast_run(16)
        cp = critical_path(run.trace, alpha=UNIT.alpha)
        for a, b in zip(cp, cp[1:]):
            assert a.t_end <= b.t_start
            # consecutive hops share the relaying rank
            assert {a.src, a.dst} & {b.src, b.dst}
        assert cp[0].src == 0  # starts at the root

    def test_path_ends_at_last_completion(self):
        run = mst_bcast_run(13)
        cp = critical_path(run.trace, alpha=UNIT.alpha)
        last = max(m.t_complete for m in run.trace.completed())
        assert cp[-1].t_end == last

    def test_alpha_beta_attribution(self):
        run = mst_bcast_run(8, n=4)
        cp = critical_path(run.trace, alpha=UNIT.alpha)
        for s in cp:
            assert s.alpha_time == UNIT.alpha
            assert s.beta_time == pytest.approx(s.duration - UNIT.alpha)
            assert s.duration > 0

    def test_zero_alpha_attributes_all_to_beta(self):
        run = mst_bcast_run(8)
        cp = critical_path(run.trace)
        assert all(s.alpha_time == 0.0 for s in cp)
        assert all(s.beta_time == pytest.approx(s.duration) for s in cp)


class TestSummary:
    def test_summary_accounts_for_total_time(self):
        run = mst_bcast_run(16, n=8)
        cp = critical_path(run.trace, alpha=UNIT.alpha)
        summ = critical_path_summary(cp)
        assert summ["hops"] == len(cp)
        assert summ["time"] == cp[-1].t_end
        # transfers + gaps tile the path end to end
        assert (summ["alpha_time"] + summ["beta_time"] + summ["wait_time"]
                == pytest.approx(summ["time"]))
        assert 0.0 < summ["coverage"] <= 1.0

    def test_empty(self):
        assert critical_path(Tracer()) == []
        summ = critical_path_summary([])
        assert summ["hops"] == 0 and summ["time"] == 0.0

    def test_render(self):
        run = mst_bcast_run(8)
        text = render_critical_path(critical_path(run.trace, alpha=1.0))
        assert "hop 1:" in text and "total" in text
        assert render_critical_path([]) == "(empty critical path)"


class TestPipelineChain:
    def test_linear_relay_path_covers_every_hop(self):
        # 0 -> 1 -> 2 -> 3 store-and-forward relay: every message is on
        # the critical path.
        def prog(env):
            data = np.zeros(16, dtype=np.uint8)
            if env.rank == 0:
                yield env.send(1, data)
            elif env.rank < 3:
                got = yield env.recv(env.rank - 1)
                yield env.send(env.rank + 1, got)
            else:
                yield env.recv(2)

        run = Machine(LinearArray(4), UNIT).run(prog, trace=True)
        cp = critical_path(run.trace, alpha=UNIT.alpha)
        assert [(s.src, s.dst) for s in cp] == [(0, 1), (1, 2), (2, 3)]
        assert all(isinstance(s, CritSpan) for s in cp)

    def test_wait_time_captures_compute_gap(self):
        def prog(env):
            data = np.zeros(16, dtype=np.uint8)
            if env.rank == 0:
                yield env.send(1, data)
            elif env.rank == 1:
                got = yield env.recv(0)
                yield env.delay(7.0)
                yield env.send(2, got)
            else:
                yield env.recv(1)

        run = Machine(LinearArray(3), UNIT).run(prog, trace=True)
        cp = critical_path(run.trace, alpha=UNIT.alpha)
        assert len(cp) == 2
        assert cp[1].wait_time == pytest.approx(7.0)
