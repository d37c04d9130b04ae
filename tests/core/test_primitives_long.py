"""Tests for the bucket (ring) long-vector primitives (section 4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partition_offsets, partition_sizes
from repro.core.context import CollContext
from repro.core.primitives_long import bucket_collect, bucket_reduce_scatter

from .conftest import run_linear


class TestBucketCollect:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 30])
    def test_correct(self, p):
        nb = 7

        def prog(env):
            ctx = CollContext(env)
            mine = np.full(nb, float(env.rank))
            return (yield from bucket_collect(ctx, mine))

        run = run_linear(p, prog)
        ref = np.concatenate([np.full(nb, float(i)) for i in range(p)])
        for res in run.results:
            assert np.array_equal(res, ref)

    @pytest.mark.parametrize("p", [2, 3, 8, 30, 64])
    def test_cost_is_p_minus_1_rounds(self, p):
        """(p-1) alpha + ((p-1)/p) n beta, exactly, on the unit machine."""
        nb = 4

        def prog(env):
            ctx = CollContext(env)
            return (yield from bucket_collect(ctx, np.zeros(nb)))

        run = run_linear(p, prog)
        assert run.time == pytest.approx((p - 1) * (1 + nb * 8))

    def test_ring_is_conflict_free_on_linear_array(self):
        """The unidirectional-ring trick of section 4: every transfer
        must run at full rate, including the wrap-around."""
        p, nb = 8, 16

        def prog(env):
            ctx = CollContext(env)
            return (yield from bucket_collect(ctx, np.zeros(nb)))

        run = run_linear(p, prog, trace=True)
        for rec in run.trace.completed():
            assert rec.duration == pytest.approx(1 + nb * 8)

    def test_uneven_blocks(self):
        sizes = [3, 0, 5, 1, 2]

        def prog(env):
            ctx = CollContext(env)
            mine = np.full(sizes[env.rank], float(env.rank))
            return (yield from bucket_collect(ctx, mine, sizes=sizes))

        run = run_linear(5, prog)
        ref = np.concatenate([np.full(s, float(i))
                              for i, s in enumerate(sizes)])
        for res in run.results:
            assert np.array_equal(res, ref)

    def test_size_mismatch_rejected(self):
        def prog(env):
            ctx = CollContext(env)
            return (yield from bucket_collect(ctx, np.zeros(3),
                                              sizes=[2, 2]))

        with pytest.raises(ValueError):
            run_linear(2, prog)

    def test_single_node_is_identity(self):
        def prog(env):
            ctx = CollContext(env)
            return (yield from bucket_collect(ctx, np.arange(5.0)))

        run = run_linear(1, prog)
        assert np.array_equal(run.results[0], np.arange(5.0))
        assert run.time == 0.0


class TestBucketReduceScatter:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 30])
    def test_correct_sum(self, p):
        nb = 4
        n = nb * p

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from bucket_reduce_scatter(ctx, v, op="sum"))

        run = run_linear(p, prog)
        full = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        for i, res in enumerate(run.results):
            assert np.allclose(res, full[i * nb:(i + 1) * nb])

    @pytest.mark.parametrize("op,expect", [
        ("min", 1.0), ("max", 6.0), ("prod", 720.0)])
    def test_other_ops(self, op, expect):
        p = 6

        def prog(env):
            ctx = CollContext(env)
            v = np.full(p, float(env.rank + 1))
            return (yield from bucket_reduce_scatter(ctx, v, op=op))

        run = run_linear(p, prog)
        for res in run.results:
            assert np.allclose(res, expect)

    @pytest.mark.parametrize("p", [2, 5, 8, 30])
    def test_cost_includes_gamma(self, p):
        nb = 4

        def prog(env):
            ctx = CollContext(env)
            v = np.zeros(nb * p)
            return (yield from bucket_reduce_scatter(ctx, v, op="sum"))

        run = run_linear(p, prog)
        assert run.time == pytest.approx((p - 1) * (1 + nb * 8 + nb))

    def test_uneven_partition(self):
        sizes = [4, 2, 0, 3]
        n = sum(sizes)
        offs = partition_offsets(sizes)

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64) + env.rank
            return (yield from bucket_reduce_scatter(ctx, v, op="sum",
                                                     sizes=sizes))

        run = run_linear(4, prog)
        full = np.arange(n, dtype=np.float64) * 4 + 6  # sum of +0..+3
        for i, res in enumerate(run.results):
            assert np.allclose(res, full[offs[i]:offs[i + 1]])

    def test_input_not_mutated(self):
        def prog(env):
            ctx = CollContext(env)
            v = np.ones(8)
            out = yield from bucket_reduce_scatter(ctx, v, op="sum")
            return bool(np.array_equal(v, np.ones(8)))

        run = run_linear(4, prog)
        assert all(run.results)

    @given(p=st.integers(1, 12), nb=st.integers(1, 9))
    @settings(max_examples=25, deadline=None)
    def test_reduce_scatter_then_collect_is_allreduce(self, p, nb):
        """The section 5.2 identity behind the long combine-to-all."""
        n = nb * p

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            mine = yield from bucket_reduce_scatter(ctx, v, op="sum")
            return (yield from bucket_collect(
                ctx, mine, sizes=partition_sizes(n, p)))

        run = run_linear(p, prog)
        ref = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        for res in run.results:
            assert np.allclose(res, ref)
