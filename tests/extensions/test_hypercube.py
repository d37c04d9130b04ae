"""Tests for the hypercube-native algorithms (section 11's iPSC/860
variant)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import CollContext
from repro.extensions.hypercube import (exchange_allreduce, rd_allreduce,
                                        rd_collect, rh_reduce_scatter)
from repro.sim import Hypercube, LinearArray, Machine, UNIT


def run_cube(d, prog, *args, params=UNIT, **kw):
    return Machine(Hypercube(d), params).run(prog, *args, **kw)


class TestRdCollect:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
    def test_correct(self, d):
        p = 1 << d
        nb = 3

        def prog(env):
            ctx = CollContext(env)
            mine = np.full(nb, float(env.rank))
            return (yield from rd_collect(ctx, mine))

        run = run_cube(d, prog)
        ref = np.concatenate([np.full(nb, float(i)) for i in range(p)])
        for res in run.results:
            assert np.array_equal(res, ref)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cost_exact_and_conflict_free(self, d):
        """d startups; data doubles each step: total time is exactly
        sum_t (alpha + 2^t * nb * itemsize * beta) on the cube."""
        nb = 4

        def prog(env):
            ctx = CollContext(env)
            return (yield from rd_collect(ctx, np.zeros(nb)))

        t = run_cube(d, prog).time
        expect = sum(1 + (1 << k) * nb * 8 for k in range(d))
        assert t == pytest.approx(expect)

    def test_log_latency_beats_ring(self):
        """d startups versus the ring's p-1: the reason a hypercube
        port uses different algorithms."""
        d = 5
        p = 1 << d
        params = UNIT.with_(beta=1e-12, gamma=0)

        def cube_prog(env):
            ctx = CollContext(env)
            return (yield from rd_collect(ctx, np.zeros(2)))

        from repro.core.primitives_long import bucket_collect

        def ring_prog(env):
            ctx = CollContext(env)
            return (yield from bucket_collect(ctx, np.zeros(2)))

        t_cube = run_cube(d, cube_prog, params=params).time
        t_ring = run_cube(d, ring_prog, params=params).time
        assert t_cube == pytest.approx(d, rel=1e-3)
        assert t_ring == pytest.approx(p - 1, rel=1e-3)

    def test_uneven_blocks(self):
        sizes = [2, 0, 5, 1]

        def prog(env):
            ctx = CollContext(env)
            mine = np.full(sizes[env.rank], float(env.rank))
            return (yield from rd_collect(ctx, mine, sizes=sizes))

        run = run_cube(2, prog)
        ref = np.concatenate([np.full(s, float(i))
                              for i, s in enumerate(sizes)])
        for res in run.results:
            assert np.array_equal(res, ref)

    def test_non_power_of_two_rejected(self):
        m = Machine(LinearArray(6), UNIT)

        def prog(env):
            ctx = CollContext(env)
            return (yield from rd_collect(ctx, np.zeros(2)))

        with pytest.raises(ValueError, match="power-of-two"):
            m.run(prog)


class TestRhReduceScatter:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_correct(self, d):
        p = 1 << d
        nb = 2
        n = nb * p

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from rh_reduce_scatter(ctx, v, "sum"))

        run = run_cube(d, prog)
        full = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        for i, res in enumerate(run.results):
            assert np.allclose(res, full[i * nb:(i + 1) * nb])

    def test_beta_term_is_bandwidth_optimal(self):
        """Halving data each step: total beta ~ ((p-1)/p) n beta."""
        d, nb = 4, 8
        p = 1 << d
        n = nb * p

        def prog(env):
            ctx = CollContext(env)
            return (yield from rh_reduce_scatter(ctx, np.zeros(n), "sum"))

        t = run_cube(d, prog).time
        expect = sum(1 + (n // (1 << (k + 1))) * 8
                     + (n // (1 << (k + 1)))
                     for k in range(d))
        assert t == pytest.approx(expect)


class TestAllreduces:
    @pytest.mark.parametrize("d", [0, 1, 3, 5])
    def test_rd_allreduce(self, d):
        p = 1 << d
        n = 4 * p

        def prog(env):
            ctx = CollContext(env)
            v = np.full(n, float(env.rank + 1))
            return (yield from rd_allreduce(ctx, v, "sum"))

        run = run_cube(d, prog)
        for res in run.results:
            assert np.allclose(res, p * (p + 1) / 2)

    @pytest.mark.parametrize("d", [0, 1, 3, 5])
    def test_exchange_allreduce(self, d):
        p = 1 << d

        def prog(env):
            ctx = CollContext(env)
            v = np.full(8, float(env.rank + 1))
            return (yield from exchange_allreduce(ctx, v, "sum"))

        run = run_cube(d, prog)
        for res in run.results:
            assert np.allclose(res, p * (p + 1) / 2)

    def test_exchange_is_latency_optimal_but_bandwidth_poor(self):
        """The short/long trade-off exists on cubes too: d startups
        versus 2d, but full-vector hops versus ((p-1)/p) n."""
        d = 4
        n_small, n_big = 1, 1 << 15

        def ex(env, n):
            ctx = CollContext(env)
            return (yield from exchange_allreduce(ctx, np.zeros(n),
                                                  "sum"))

        def rd(env, n):
            ctx = CollContext(env)
            return (yield from rd_allreduce(ctx, np.zeros(n), "sum"))

        t_ex_small = run_cube(d, ex, n_small).time
        t_rd_small = run_cube(d, rd, n_small).time
        assert t_ex_small < t_rd_small
        t_ex_big = run_cube(d, ex, n_big).time
        t_rd_big = run_cube(d, rd, n_big).time
        assert t_rd_big < t_ex_big

    @given(d=st.integers(0, 5), nb=st.integers(1, 6),
           seed=st.integers(0, 99))
    @settings(max_examples=20, deadline=None)
    def test_rd_allreduce_matches_oracle(self, d, nb, seed):
        p = 1 << d
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((p, nb * p))

        def prog(env):
            ctx = CollContext(env)
            return (yield from rd_allreduce(ctx, data[env.rank].copy(),
                                            "sum"))

        run = run_cube(d, prog)
        ref = data.sum(axis=0)
        for res in run.results:
            assert np.allclose(res, ref)
