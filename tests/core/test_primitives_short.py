"""Tests for the MST short-vector primitives (section 4.1): correctness
for arbitrary group sizes and roots, and *exact* agreement with the
paper's closed-form costs on the unit machine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CostModel, partition_offsets, partition_sizes
from repro.core.context import CollContext
from repro.core.primitives_short import (mst_bcast, mst_gather, mst_reduce,
                                         mst_scatter)
from repro.sim import UNIT

from .conftest import run_linear


def L(p):
    return math.ceil(math.log2(p)) if p > 1 else 0


def _levels(me, p):
    """Levels of rank ``me``'s path down the halving of ``[0, p)``,
    whose left part is the ceiling half."""
    lo, hi, levels = 0, p, 0
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        lo, hi = (lo, mid) if me < mid else (mid, hi)
        levels += 1
    return levels


class _Counting(CollContext):
    """A context that counts its rank's overhead charges."""

    __slots__ = ("charges",)

    def overhead(self, count=1.0):
        self.charges += 1
        return super().overhead(count)


class TestMstBcast:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 7, 8, 12, 30])
    @pytest.mark.parametrize("root", [0, "last", "mid"])
    def test_correct_any_p_any_root(self, p, root):
        root = {0: 0, "last": p - 1, "mid": p // 2}[root]
        n = 24
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == root else None
            return (yield from mst_bcast(ctx, buf, root=root))

        run = run_linear(p, prog)
        for res in run.results:
            assert np.array_equal(res, x)

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 13, 30, 64])
    def test_cost_is_L_alpha_plus_n_beta(self, p):
        n = 16
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == 0 else None
            return (yield from mst_bcast(ctx, buf, root=0))

        run = run_linear(p, prog)
        assert run.time == pytest.approx(L(p) * (1 + n * 8))

    def test_conflict_free_on_linear_array(self):
        """No two concurrent messages may share a channel."""
        p, n = 16, 8

        def prog(env):
            ctx = CollContext(env)
            buf = np.zeros(n) if env.rank == 0 else None
            return (yield from mst_bcast(ctx, buf, root=0))

        run = run_linear(p, prog, trace=True)
        # conflict-free <=> every transfer takes exactly alpha + n*beta
        for rec in run.trace.completed():
            assert rec.duration == pytest.approx(1 + n * 8)

    def test_message_count_is_p_minus_1(self):
        def prog(env):
            ctx = CollContext(env)
            buf = np.zeros(4) if env.rank == 0 else None
            return (yield from mst_bcast(ctx, buf, root=0))

        assert run_linear(13, prog).messages == 12

    def test_invalid_root(self):
        def prog(env):
            ctx = CollContext(env)
            return (yield from mst_bcast(ctx, np.zeros(2), root=9))

        with pytest.raises(ValueError):
            run_linear(4, prog)

    @pytest.mark.parametrize("primitive",
                             ["bcast", "scatter", "gather", "reduce"])
    def test_overhead_charged_per_level(self, primitive):
        """Every rank charges ``sw_overhead`` once per level of its own
        path: on 7 ranks the paths have 2 or 3 levels, and on 8 ranks
        the L(p) charges add up to the closed-form cost."""
        n = 4
        params = UNIT.with_(sw_overhead=10.0)

        def prog(env, p, root):
            ctx = _Counting(env)
            ctx.charges = 0
            mine = np.zeros(n)
            if primitive == "bcast":
                buf = mine if env.rank == root else None
                yield from mst_bcast(ctx, buf, root=root)
            elif primitive == "scatter":
                buf = np.zeros(n * p) if env.rank == root else None
                yield from mst_scatter(ctx, buf, root=root, total=n * p)
            elif primitive == "gather":
                yield from mst_gather(ctx, mine, root=root)
            else:
                yield from mst_reduce(ctx, mine, root=root)
            return ctx.charges

        run = run_linear(7, prog, 7, 6, params=params)
        assert run.results == [_levels(r, 7) for r in range(7)]

        p = 8
        run = run_linear(p, prog, p, 0, params=params)
        assert run.results == [L(p)] * p
        moved = n if primitive in ("bcast", "reduce") else n * p
        cost = getattr(CostModel(params, itemsize=8), f"mst_{primitive}")
        assert run.time == pytest.approx(cost(p, moved))


class TestMstScatter:
    @pytest.mark.parametrize("p,n,root", [
        (1, 8, 0), (2, 8, 1), (4, 16, 0), (5, 17, 2), (7, 7, 6),
        (12, 100, 3), (30, 91, 29),
    ])
    def test_correct(self, p, n, root):
        x = np.arange(n, dtype=np.float64)
        sizes = partition_sizes(n, p)
        offs = partition_offsets(sizes)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == root else None
            return (yield from mst_scatter(ctx, buf, root=root, total=n))

        run = run_linear(p, prog)
        for i, res in enumerate(run.results):
            assert np.array_equal(res, x[offs[i]:offs[i + 1]])

    @pytest.mark.parametrize("p", [2, 4, 8, 16, 32])
    def test_cost_power_of_two(self, p):
        n = 8 * p
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == 0 else None
            return (yield from mst_scatter(ctx, buf, root=0, total=n))

        run = run_linear(p, prog)
        expect = L(p) * 1 + (p - 1) / p * n * 8
        assert run.time == pytest.approx(expect)

    def test_custom_sizes(self):
        sizes = [5, 0, 3, 2]
        n = sum(sizes)
        x = np.arange(n, dtype=np.float64)
        offs = partition_offsets(sizes)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == 0 else None
            return (yield from mst_scatter(ctx, buf, root=0, sizes=sizes))

        run = run_linear(4, prog)
        for i, res in enumerate(run.results):
            assert np.array_equal(res, x[offs[i]:offs[i + 1]])

    def test_partition_required_everywhere(self):
        def prog(env):
            ctx = CollContext(env)
            buf = np.zeros(8) if env.rank == 0 else None
            return (yield from mst_scatter(ctx, buf, root=0))

        with pytest.raises(ValueError, match="sizes= or total="):
            run_linear(4, prog)

    def test_root_buffer_length_checked(self):
        def prog(env):
            ctx = CollContext(env)
            buf = np.zeros(7) if env.rank == 0 else None
            return (yield from mst_scatter(ctx, buf, root=0, total=8))

        with pytest.raises(ValueError, match="partition covers"):
            run_linear(4, prog)


class TestMstGather:
    @pytest.mark.parametrize("p,root", [(1, 0), (2, 0), (3, 2), (5, 0),
                                        (8, 7), (13, 5), (30, 0)])
    def test_correct(self, p, root):
        nb = 6

        def prog(env):
            ctx = CollContext(env)
            mine = np.full(nb, float(env.rank))
            return (yield from mst_gather(ctx, mine, root=root))

        run = run_linear(p, prog)
        ref = np.concatenate([np.full(nb, float(i)) for i in range(p)])
        assert np.array_equal(run.results[root], ref)
        for i, res in enumerate(run.results):
            if i != root:
                assert res is None

    @pytest.mark.parametrize("p", [2, 4, 8, 16])
    def test_cost_matches_scatter(self, p):
        """Gather is the scatter in reverse and costs the same."""
        nb = 8
        n = nb * p

        def prog(env):
            ctx = CollContext(env)
            mine = np.zeros(nb)
            return (yield from mst_gather(ctx, mine, root=0))

        run = run_linear(p, prog)
        expect = L(p) * 1 + (p - 1) / p * n * 8
        assert run.time == pytest.approx(expect)

    def test_uneven_blocks(self):
        sizes = [4, 1, 0, 3]

        def prog(env):
            ctx = CollContext(env)
            mine = np.full(sizes[env.rank], float(env.rank))
            return (yield from mst_gather(ctx, mine, root=1, sizes=sizes))

        run = run_linear(4, prog)
        ref = np.concatenate([np.full(s, float(i))
                              for i, s in enumerate(sizes)])
        assert np.array_equal(run.results[1], ref)

    def test_block_length_mismatch_rejected(self):
        def prog(env):
            ctx = CollContext(env)
            return (yield from mst_gather(ctx, np.zeros(3), root=0,
                                          sizes=[2, 2, 2]))

        with pytest.raises(ValueError, match="partition says"):
            run_linear(3, prog)


class TestMstReduce:
    @pytest.mark.parametrize("p,root", [(1, 0), (2, 1), (3, 0), (5, 4),
                                        (8, 3), (30, 17)])
    def test_correct_sum(self, p, root):
        n = 16

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from mst_reduce(ctx, v, op="sum", root=root))

        run = run_linear(p, prog)
        ref = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        assert np.allclose(run.results[root], ref)

    def test_correct_max(self):
        def prog(env):
            ctx = CollContext(env)
            v = np.array([float(env.rank), float(-env.rank)])
            return (yield from mst_reduce(ctx, v, op="max", root=0))

        run = run_linear(6, prog)
        assert np.array_equal(run.results[0], [5.0, 0.0])

    @pytest.mark.parametrize("p", [2, 3, 5, 8, 30])
    def test_cost_is_L_times_alpha_beta_gamma(self, p):
        n = 8

        def prog(env):
            ctx = CollContext(env)
            v = np.zeros(n)
            return (yield from mst_reduce(ctx, v, op="sum", root=0))

        run = run_linear(p, prog)
        assert run.time == pytest.approx(L(p) * (1 + n * 8 + n))


class TestPropertyBased:
    @given(p=st.integers(1, 24), root=st.integers(0, 23),
           n=st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_bcast_roundtrip(self, p, root, n):
        root %= p
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == root else None
            return (yield from mst_bcast(ctx, buf, root=root))

        run = run_linear(p, prog)
        assert all(np.array_equal(r, x) for r in run.results)

    @given(p=st.integers(1, 16), root=st.integers(0, 15),
           n=st.integers(0, 64))
    @settings(max_examples=30, deadline=None)
    def test_scatter_gather_inverse(self, p, root, n):
        """gather(scatter(x)) == x — the paper's reverse-order claim."""
        root %= p
        x = np.arange(n, dtype=np.float64)
        sizes = partition_sizes(n, p)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == root else None
            mine = yield from mst_scatter(ctx, buf, root=root, sizes=sizes)
            return (yield from mst_gather(ctx, mine, root=root,
                                          sizes=sizes))

        run = run_linear(p, prog)
        assert np.array_equal(run.results[root], x)
