"""Tests for the MPI-like communicator layer (sections 9-10)."""

import typing

import numpy as np
import pytest

from repro.core import Communicator
from repro.core.protocol import RankEnvBase

from .conftest import run_linear, run_mesh


class TestWorld:
    def test_world_annotations_resolve(self):
        hints = typing.get_type_hints(Communicator.world)
        assert hints["env"] is RankEnvBase

    def test_world_shape(self):
        def prog(env):
            w = Communicator.world(env)
            yield env.delay(0)
            return w.rank, w.size

        run = run_linear(4, prog)
        assert run.results == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_world_collectives(self):
        def prog(env):
            w = Communicator.world(env)
            v = np.full(8, float(env.rank))
            s = yield from w.allreduce(v)
            return float(s[0])

        run = run_linear(5, prog)
        assert all(v == 10.0 for v in run.results)


class TestDerivation:
    def test_incl(self):
        def prog(env):
            w = Communicator.world(env)
            sub = w.incl([4, 2, 0])
            yield env.delay(0)
            return sub.rank

        run = run_linear(5, prog)
        assert run.results == [2, None, 1, None, 0]

    def test_dup_gets_fresh_context(self):
        def prog(env):
            w = Communicator.world(env)
            d = w.dup()
            yield env.delay(0)
            return d.context_id != w.context_id and d.group == w.group

        assert all(run_linear(3, prog).results)

    def test_split_by_parity(self):
        def prog(env):
            w = Communicator.world(env)
            sub = yield from w.split(color=env.rank % 2)
            v = np.array([float(env.rank)])
            s = yield from sub.allreduce(v)
            return float(s[0]), sub.rank, sub.size

        run = run_linear(6, prog)
        for i, (s, r, size) in enumerate(run.results):
            expect = 0 + 2 + 4 if i % 2 == 0 else 1 + 3 + 5
            assert s == expect
            assert size == 3
            assert r == i // 2

    def test_split_key_reorders(self):
        def prog(env):
            w = Communicator.world(env)
            sub = yield from w.split(color=0, key=-env.rank)
            yield env.delay(0)
            return sub.rank

        run = run_linear(4, prog)
        assert run.results == [3, 2, 1, 0]

    def test_derived_contexts_isolate_traffic(self):
        """Collectives on sibling communicators must not cross-match."""
        def prog(env):
            w = Communicator.world(env)
            evens = w.incl([0, 2])
            odds = w.incl([1, 3])
            mine = evens if env.rank % 2 == 0 else odds
            v = np.array([float(env.rank)])
            s = yield from mine.allreduce(v)
            return float(s[0])

        run = run_linear(4, prog)
        assert run.results == [2.0, 4.0, 2.0, 4.0]


class TestMeshComms:
    def test_row_and_col(self):
        def prog(env):
            w = Communicator.world(env)
            row = w.row_comm()
            col = w.col_comm()
            yield env.delay(0)
            return row.size, col.size, row.rank, col.rank

        run = run_mesh(3, 4, prog)
        for node, (rs, cs, rr, cr) in enumerate(run.results):
            assert (rs, cs) == (4, 3)
            assert rr == node % 4
            assert cr == node // 4

    def test_row_then_col_reduction_is_global(self):
        def prog(env):
            w = Communicator.world(env)
            row = w.row_comm()
            col = w.col_comm()
            v = np.array([1.0])
            v = yield from row.allreduce(v)
            v = yield from col.allreduce(v)
            return float(v[0])

        run = run_mesh(3, 4, prog)
        assert all(v == 12.0 for v in run.results)

    def test_non_mesh_group_rejected(self):
        def prog(env):
            w = Communicator.world(env)
            yield env.delay(0)
            w.row_comm()

        with pytest.raises(RuntimeError, match="mesh-aligned"):
            run_linear(4, prog)


class TestDelegatedCollectives:
    def test_bcast_scatter_gather(self):
        n = 12

        def prog(env):
            w = Communicator.world(env)
            x = np.arange(n, dtype=np.float64) if w.rank == 0 else None
            x = yield from w.bcast(x, total=n)
            mine = yield from w.scatter(x, root=0, total=n)
            back = yield from w.gather(mine, root=0)
            if w.rank == 0:
                return bool(np.array_equal(back, x))
            return back is None

        assert all(run_linear(4, prog).results)

    def test_allgather_alias_collect(self):
        def prog(env):
            w = Communicator.world(env)
            out = yield from w.collect(np.full(2, float(env.rank)))
            return float(out[-1])

        run = run_linear(3, prog)
        assert all(v == 2.0 for v in run.results)

    def test_barrier(self):
        def prog(env):
            w = Communicator.world(env)
            yield env.delay(float(5 - env.rank))
            yield from w.barrier()
            return env.now

        run = run_linear(4, prog)
        assert min(run.results) >= 5.0

    def test_reduce_scatter(self):
        p = 4

        def prog(env):
            w = Communicator.world(env)
            v = np.full(p * 2, 1.0)
            return (yield from w.reduce_scatter(v))

        run = run_linear(p, prog)
        for res in run.results:
            assert np.allclose(res, p)
