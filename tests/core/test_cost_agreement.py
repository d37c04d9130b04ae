"""Integration tests pinning the simulator to the paper's cost model.

For conflict-free configurations on the unit machine, the simulated
elapsed time must equal the closed-form expressions *exactly*.  For
conflicted hybrids the model's bold factors are conservative upper
bounds, so the simulation must come in at or below the prediction, and
within a modest band (the fluid model and the closed forms describe the
same mechanics).
"""

import numpy as np
import pytest

from repro.core import CostModel, Strategy
from repro.core.context import CollContext
from repro.core import hybrid
from repro.sim import LinearArray, Machine, Mesh2D, UNIT

CM = CostModel(UNIT, itemsize=8)


def sim_bcast(machine, p, strategy, n):
    x = np.arange(n, dtype=np.float64)

    def prog(env):
        ctx = CollContext(env)
        buf = x.copy() if env.rank == 0 else None
        out = yield from hybrid.run(ctx, "bcast", buf, strategy, total=n)
        assert np.array_equal(out, x)
        return True

    return machine.run(prog).time


class TestExactAgreement:
    """Conflict-free cases: simulation == formula, to float precision."""

    @pytest.mark.parametrize("p,n", [(4, 32), (8, 64), (16, 128),
                                     (30, 120)])
    def test_mst_bcast(self, p, n):
        m = Machine(LinearArray(p), UNIT)
        t = sim_bcast(m, p, Strategy((p,), "M"), n)
        assert t == pytest.approx(CM.mst_bcast(p, n))

    @pytest.mark.parametrize("p,n", [(4, 32), (8, 64), (16, 128)])
    def test_scatter_collect_bcast(self, p, n):
        """Power-of-two, divisible n: the long broadcast formula is
        exact."""
        m = Machine(LinearArray(p), UNIT)
        t = sim_bcast(m, p, Strategy((p,), "SC"), n)
        assert t == pytest.approx(CM.hybrid("bcast", Strategy((p,), "SC"),
                                            n))

    @pytest.mark.parametrize("p,nb", [(4, 8), (8, 8), (30, 4)])
    def test_bucket_collect_exact(self, p, nb):
        m = Machine(LinearArray(p), UNIT)

        def prog(env):
            ctx = CollContext(env)
            mine = np.zeros(nb)
            return (yield from hybrid.run(ctx, "collect", mine,
                                          Strategy((p,), "C")))

        t = machine_time = m.run(prog).time
        assert t == pytest.approx(CM.bucket_collect(p, nb * p))

    @pytest.mark.parametrize("p,nb", [(4, 8), (8, 4)])
    def test_reduce_scatter_exact(self, p, nb):
        m = Machine(LinearArray(p), UNIT)
        n = nb * p

        def prog(env):
            ctx = CollContext(env)
            return (yield from hybrid.run(
                ctx, "reduce_scatter", np.zeros(n), Strategy((p,), "S"),
                op="sum"))

        assert m.run(prog).time == pytest.approx(
            CM.bucket_reduce_scatter(p, n))

    @pytest.mark.parametrize("p,nb", [(8, 8), (16, 4)])
    def test_long_allreduce_exact(self, p, nb):
        m = Machine(LinearArray(p), UNIT)
        n = nb * p

        def prog(env):
            ctx = CollContext(env)
            return (yield from hybrid.run(
                ctx, "allreduce", np.zeros(n), Strategy((p,), "SC"),
                op="sum"))

        assert m.run(prog).time == pytest.approx(
            CM.hybrid("allreduce", Strategy((p,), "SC"), n))


class TestConflictedHybridsBounded:
    """The bold conflict factors are compensating upper bounds: the
    fluid simulation must come in at or below them, and not absurdly
    below (the two descriptions share their mechanics)."""

    @pytest.mark.parametrize("dims,ops", [
        ((2, 15), "SMC"), ((2, 15), "SSCC"), ((3, 10), "SMC"),
        ((5, 6), "SSCC"), ((2, 3, 5), "SSMCC"),
    ])
    def test_table2_strategies_on_linear_array(self, dims, ops):
        p, n = 30, 600
        m = Machine(LinearArray(p), UNIT)
        s = Strategy(dims, ops)
        t = sim_bcast(m, p, s, n)
        predicted = CM.hybrid("bcast", s, n)
        assert t <= predicted * 1.001
        assert t >= predicted * 0.55

    def test_mesh_aligned_hybrid_is_conflict_free(self):
        """On the physical mesh, the (c, r) two-phase hybrid should
        run at the conflict-factor-1 prediction."""
        r, c = 4, 8
        n = 256
        m = Machine(Mesh2D(r, c), UNIT)
        s = Strategy((c, r), "SSCC")
        t = sim_bcast(m, r * c, s, n)
        predicted = CM.hybrid("bcast", s, n, conflicts=[1.0, 1.0])
        assert t == pytest.approx(predicted, rel=0.02)


class TestModelRanksMatchSimulation:
    def test_crossover_direction(self):
        """Where the model says MST beats scatter/collect (or vice
        versa) by a clear margin, the simulation must agree."""
        p = 16
        m = Machine(LinearArray(p), UNIT)
        mst = Strategy((p,), "M")
        sc = Strategy((p,), "SC")
        # tiny message: MST wins on startups
        # (need beta*n small vs alpha: use tiny n with alpha-heavy params)
        heavy_alpha = UNIT.with_(alpha=1000.0)
        mh = Machine(LinearArray(p), heavy_alpha)
        t_mst = sim_bcast(mh, p, mst, 1)
        t_sc = sim_bcast(mh, p, sc, 1)
        assert t_mst < t_sc
        # long message: scatter/collect wins on bandwidth
        t_mst = sim_bcast(m, p, mst, 4096)
        t_sc = sim_bcast(m, p, sc, 4096)
        assert t_sc < t_mst
