"""Tests for the public iCC API: all seven Table 1 operations, algorithm
overrides, group operation, and oracle agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import api
from repro.core.strategy import Strategy
from repro.core.validation import (ref_allreduce, ref_bcast, ref_collect,
                                   ref_reduce, ref_reduce_scatter,
                                   ref_scatter)
from repro.sim import PARAGON

from .conftest import run_linear, run_mesh

ALGOS = ["auto", "short", "long"]


class TestBcast:
    @pytest.mark.parametrize("algorithm", ALGOS + ["2x3:SMC"])
    def test_algorithms_agree(self, algorithm):
        n = 30
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            buf = x.copy() if env.rank == 2 else None
            return (yield from api.bcast(env, buf, root=2, total=n,
                                         algorithm=algorithm))

        run = run_linear(6, prog)
        for res, ref in zip(run.results, ref_bcast(x, 6)):
            assert np.array_equal(res, ref)

    def test_strategy_object_accepted(self):
        n = 24

        def prog(env):
            buf = np.arange(n, dtype=np.float64) if env.rank == 0 else None
            return (yield from api.bcast(
                env, buf, total=n, algorithm=Strategy((2, 2, 3), "SSMCC")))

        run = run_linear(12, prog)
        assert all(np.array_equal(r, np.arange(n, dtype=np.float64))
                   for r in run.results)

    def test_total_required_off_root(self):
        def prog(env):
            buf = np.zeros(4) if env.rank == 0 else None
            return (yield from api.bcast(env, buf))

        with pytest.raises(ValueError, match="total"):
            run_linear(4, prog)


class TestReduceFamily:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_reduce(self, algorithm):
        n = 12

        def prog(env):
            v = np.full(n, float(env.rank + 1))
            return (yield from api.reduce(env, v, "sum", 1,
                                          algorithm=algorithm))

        run = run_linear(5, prog)
        vectors = [np.full(n, float(i + 1)) for i in range(5)]
        for res, ref in zip(run.results, ref_reduce(vectors, "sum", 1)):
            if ref is None:
                assert res is None
            else:
                assert np.allclose(res, ref)

    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize("op", ["sum", "min", "max", "prod"])
    def test_allreduce_ops(self, algorithm, op):
        n = 9

        def prog(env):
            v = np.arange(1, n + 1, dtype=np.float64) * (env.rank + 1)
            return (yield from api.allreduce(env, v, op,
                                             algorithm=algorithm))

        run = run_linear(4, prog)
        vectors = [np.arange(1, n + 1, dtype=np.float64) * (i + 1)
                   for i in range(4)]
        ref = ref_allreduce(vectors, op)[0]
        for res in run.results:
            assert np.allclose(res, ref)

    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_reduce_scatter(self, algorithm):
        p, nb = 6, 2
        n = p * nb

        def prog(env):
            v = np.arange(n, dtype=np.float64) + env.rank
            return (yield from api.reduce_scatter(env, v, "sum",
                                                  algorithm=algorithm))

        run = run_linear(p, prog)
        vectors = [np.arange(n, dtype=np.float64) + i for i in range(p)]
        refs = ref_reduce_scatter(vectors, "sum")
        for res, ref in zip(run.results, refs):
            assert np.allclose(res, ref)


class TestCollectScatterGather:
    @pytest.mark.parametrize("algorithm", ALGOS)
    def test_collect(self, algorithm):
        p = 6
        sizes = [3, 1, 4, 1, 5, 9]

        def prog(env):
            mine = np.full(sizes[env.rank], float(env.rank))
            return (yield from api.collect(env, mine, sizes=sizes,
                                           algorithm=algorithm))

        run = run_linear(p, prog)
        blocks = [np.full(s, float(i)) for i, s in enumerate(sizes)]
        ref = ref_collect(blocks)[0]
        for res in run.results:
            assert np.array_equal(res, ref)

    def test_scatter(self):
        n = 22
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            buf = x.copy() if env.rank == 3 else None
            return (yield from api.scatter(env, buf, root=3, total=n))

        run = run_linear(5, prog)
        for res, ref in zip(run.results, ref_scatter(x, 5)):
            assert np.array_equal(res, ref)

    def test_gather(self):
        def prog(env):
            mine = np.full(4, float(env.rank))
            return (yield from api.gather(env, mine, root=2))

        run = run_linear(5, prog)
        blocks = [np.full(4, float(i)) for i in range(5)]
        assert np.array_equal(run.results[2], np.concatenate(blocks))
        assert run.results[0] is None


class TestBarrier:
    def test_barrier_synchronizes(self):
        """No rank may pass the barrier before the slowest arrives."""
        def prog(env):
            yield env.delay(float(env.rank) * 10)
            yield from api.barrier(env)
            return env.now

        run = run_linear(5, prog)
        slowest_arrival = 40.0
        for t in run.results:
            assert t >= slowest_arrival

    def test_barrier_is_short_vector_only(self):
        run = run_linear(8, lambda env: (yield from api.barrier(env)))
        # 2 * ceil(log2 8) rounds of alpha-only messages, zero bytes
        assert run.bytes_moved == 0.0


class TestGroups:
    def test_collective_on_subgroup(self):
        group = [1, 3, 5]

        def prog(env):
            if env.rank not in group:
                yield env.delay(0)
                return None
            v = np.full(6, float(env.rank))
            return (yield from api.allreduce(env, v, group=group))

        run = run_linear(6, prog)
        for i in group:
            assert np.allclose(run.results[i], 1 + 3 + 5)
        assert run.results[0] is None

    def test_disjoint_groups_concurrent(self):
        """Two halves reduce independently and concurrently."""
        def prog(env):
            half = [0, 1, 2] if env.rank < 3 else [3, 4, 5]
            v = np.full(4, 1.0)
            out = yield from api.allreduce(env, v, group=half)
            return float(out[0])

        run = run_linear(6, prog)
        assert all(v == 3.0 for v in run.results)

    def test_group_with_context_conflict_rejected(self):
        from repro.core.context import CollContext

        def prog(env):
            ctx = CollContext(env)
            return (yield from api.allreduce(ctx, np.zeros(2),
                                             group=[0, 1]))

        with pytest.raises(ValueError, match="not both"):
            run_linear(2, prog)


class TestAutoOnMesh:
    def test_whole_mesh_auto_is_valid_and_fast(self):
        """On a 4x8 mesh the auto long-vector broadcast must beat the
        topology-blind MST for long messages."""
        n = 8192

        def prog(env, algorithm):
            buf = np.arange(n, dtype=np.float64) if env.rank == 0 else None
            out = yield from api.bcast(env, buf, total=n,
                                       algorithm=algorithm)
            return bool(np.array_equal(out,
                                       np.arange(n, dtype=np.float64)))

        auto = run_mesh(4, 8, prog, "auto", params=PARAGON)
        short = run_mesh(4, 8, prog, "short", params=PARAGON)
        assert all(auto.results) and all(short.results)
        assert auto.time < short.time


class TestPropertyBased:
    @given(p=st.integers(1, 12), n=st.integers(1, 64),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_allreduce_matches_oracle(self, p, n, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((p, n))

        def prog(env):
            return (yield from api.allreduce(env, data[env.rank].copy(),
                                             "sum"))

        run = run_linear(p, prog)
        ref = data.sum(axis=0)
        for res in run.results:
            assert np.allclose(res, ref)

    @given(p=st.integers(1, 10), nb=st.integers(0, 7),
           root=st.integers(0, 9))
    @settings(max_examples=25, deadline=None)
    def test_gather_collect_consistent(self, p, nb, root):
        root %= p

        def prog(env):
            mine = np.full(nb, float(env.rank))
            full = yield from api.collect(env, mine)
            at_root = yield from api.gather(env, mine, root=root)
            if env.rank == root:
                return bool(np.array_equal(full, at_root))
            return at_root is None

        run = run_linear(p, prog)
        assert all(run.results)
