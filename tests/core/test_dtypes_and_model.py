"""Payload dtype handling and randomized model-vs-simulation checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CostModel, api, candidates
from repro.core.context import CollContext
from repro.core import hybrid
from repro.sim import LinearArray, Machine, PARAGON, UNIT


class TestDtypes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int32,
                                       np.int64, np.complex128])
    def test_allreduce_dtype_roundtrip(self, dtype):
        p, n = 5, 12
        machine = Machine(LinearArray(p), UNIT)

        def prog(env):
            v = np.arange(n).astype(dtype) * (env.rank + 1)
            out = yield from api.allreduce(env, v, "sum")
            return out

        run = machine.run(prog)
        ref = np.arange(n).astype(dtype) * (p * (p + 1) // 2)
        for res in run.results:
            assert res.dtype == dtype
            assert np.allclose(res, ref)

    def test_wire_time_scales_with_itemsize(self):
        """float32 vectors move half the bytes of float64 ones."""
        p, n = 4, 4096
        machine = Machine(LinearArray(p), UNIT)

        def prog(env, dtype):
            x = np.zeros(n, dtype=dtype) if env.rank == 0 else None
            out = yield from api.bcast(env, x, total=n,
                                       algorithm="long")
            return out is not None

        t32 = machine.run(prog, np.float32).time
        t64 = machine.run(prog, np.float64).time
        # beta term dominates at this size: roughly half the time
        assert t32 < 0.62 * t64

    def test_selection_accounts_for_itemsize(self):
        """An n-element float32 message should select like an
        n/2-element float64 one."""
        from repro.core import selector_for
        sel32 = selector_for(PARAGON, itemsize=4)
        sel64 = selector_for(PARAGON, itemsize=8)
        s32 = sel32.best("bcast", 30, 2048).strategy
        s64 = sel64.best("bcast", 30, 1024).strategy
        assert s32 == s64

    def test_int_bitwise_ops(self):
        p = 6
        machine = Machine(LinearArray(p), UNIT)

        def prog(env):
            v = np.array([1 << env.rank], dtype=np.int64)
            out = yield from api.allreduce(env, v, "bor")
            return int(out[0])

        run = machine.run(prog)
        assert all(v == (1 << p) - 1 for v in run.results)


class TestModelVsSimulationRandom:
    """For random strategies and lengths, the fluid simulation must sit
    at or below the cost model's conflict-factor upper bound, and not
    absurdly below (same mechanics, conservative factors)."""

    CM = CostModel(UNIT, itemsize=8)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_bcast_bounded_by_model(self, data):
        p = data.draw(st.sampled_from([8, 12, 16, 24]))
        strategy = data.draw(st.sampled_from(candidates("bcast", p)))
        n = data.draw(st.sampled_from([p, 4 * p, 16 * p]))
        machine = Machine(LinearArray(p), UNIT)
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == 0 else None
            out = yield from hybrid.run(ctx, "bcast", buf, strategy, total=n)
            assert np.array_equal(out, x)
            return True

        t = machine.run(prog).time
        predicted = self.CM.hybrid("bcast", strategy, n)
        assert t <= predicted * 1.001, (strategy, n)
        assert t >= predicted * 0.40, (strategy, n)

    def test_model_ranking_predicts_simulation_ranking(self):
        """Where the model separates two strategies by >1.5x, the
        simulation must order them the same way."""
        p, n = 24, 9600
        machine = Machine(LinearArray(p), UNIT)
        cands = candidates("bcast", p)
        priced = sorted(((self.CM.hybrid("bcast", s, n), s) for s in cands),
                        key=lambda x: x[0])
        cheap_cost, cheap = priced[0]
        costly_cost, costly = priced[-1]
        assert costly_cost > cheap_cost * 1.5  # the gap premise

        def prog(env, strategy):
            ctx = CollContext(env)
            buf = np.zeros(n) if env.rank == 0 else None
            out = yield from hybrid.run(ctx, "bcast", buf, strategy, total=n)
            return len(out) == n

        t_cheap = machine.run(prog, cheap).time
        t_costly = machine.run(prog, costly).time
        assert t_cheap < t_costly
