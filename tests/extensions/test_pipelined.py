"""Tests for the pipelined/EDST broadcast extension (section 8)."""

import math

import numpy as np
import pytest

from repro.core import api
from repro.core.context import CollContext
from repro.extensions import (chain_order, edst_bcast, gray_code_group,
                              optimal_chunks, pipelined_bcast)
from repro.sim import Hypercube, LinearArray, Machine, Mesh2D, PARAGON, UNIT


def run_linear(p, prog, *args, params=UNIT, **kw):
    return Machine(LinearArray(p), params).run(prog, *args, **kw)


class TestChainOrder:
    def test_mesh_snake_is_adjacent(self):
        mesh = Mesh2D(3, 4)
        order = chain_order(mesh)
        assert sorted(order) == list(range(12))
        for a, b in zip(order, order[1:]):
            assert len(mesh.route(a, b)) == 1

    def test_gray_code_is_adjacent_cycle(self):
        cube = Hypercube(4)
        order = chain_order(cube)
        assert sorted(order) == list(range(16))
        for a, b in zip(order, order[1:] + order[:1]):
            assert len(cube.route(a, b)) == 1

    def test_linear_identity(self):
        assert chain_order(LinearArray(5)) == [0, 1, 2, 3, 4]


class TestOptimalChunks:
    def test_sqrt_scaling(self):
        k = optimal_chunks(64, 1 << 20, PARAGON)
        ref = math.sqrt(62 * (1 << 20) * PARAGON.beta / PARAGON.alpha)
        assert abs(k - ref) <= 1

    def test_degenerate(self):
        assert optimal_chunks(1, 100, PARAGON) == 1
        assert optimal_chunks(8, 0, PARAGON) == 1

    def test_capped(self):
        assert optimal_chunks(1024, 1 << 30, PARAGON,
                              max_chunks=128) == 128


class TestPipelinedBcast:
    @pytest.mark.parametrize("p,root,n,k", [
        (2, 0, 10, 3), (5, 0, 50, 5), (5, 4, 50, 5), (5, 2, 47, 4),
        (8, 3, 64, 1), (12, 0, 120, 12), (7, 6, 13, 20),
    ])
    def test_correct(self, p, root, n, k):
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == root else None
            return (yield from pipelined_bcast(ctx, buf, root=root,
                                               total=n, chunks=k))

        run = run_linear(p, prog)
        for res in run.results:
            assert np.array_equal(res, x)

    def test_cost_formula_end_root(self):
        """(p - 1 + K - 1)(alpha + (n/K) beta) for a chain-end root."""
        p, n, k = 8, 64, 4

        def prog(env):
            ctx = CollContext(env)
            buf = np.zeros(n) if env.rank == 0 else None
            return (yield from pipelined_bcast(ctx, buf, root=0,
                                               total=n, chunks=k))

        t = run_linear(p, prog).time
        assert t == pytest.approx((p - 1 + k - 1) * (1 + (n // k) * 8))

    def test_asymptotically_beats_scatter_collect(self):
        """Section 8: the pipelined broadcast approaches n beta while
        scatter/collect needs 2 n beta — the factor-of-two claim, for
        vectors long enough to swamp the startup terms."""
        p = 16
        n = 1 << 19   # 4 MB: long enough that startups are negligible
        machine = Machine(LinearArray(p), PARAGON)
        x = np.zeros(n)

        def pipe(env):
            ctx = CollContext(env)
            buf = x if env.rank == 0 else None
            yield from pipelined_bcast(ctx, buf, root=0, total=n)

        def sc(env):
            buf = x if env.rank == 0 else None
            yield from api.bcast(env, buf, root=0, total=n,
                                 algorithm="long")

        t_pipe = machine.run(pipe).time
        t_sc = machine.run(sc).time
        assert t_pipe < t_sc
        assert t_sc / t_pipe > 1.5

    def test_latency_hurts_short_vectors(self):
        """The flip side: p-1 startups lose to the MST's ceil(log2 p)
        for short messages — why the hybrids win overall."""
        p = 16
        machine = Machine(LinearArray(p), PARAGON)

        def pipe(env):
            ctx = CollContext(env)
            buf = np.zeros(1) if env.rank == 0 else None
            yield from pipelined_bcast(ctx, buf, root=0, total=1)

        def mst(env):
            buf = np.zeros(1) if env.rank == 0 else None
            yield from api.bcast(env, buf, root=0, total=1,
                                 algorithm="short")

        assert machine.run(mst).time < machine.run(pipe).time

    def test_jitter_erodes_the_pipeline(self):
        """Section 8: pipelined algorithms are 'more susceptible to
        timing irregularities'.  Deterministic per-hop jitter that adds
        a fixed delay per forward must hurt the deep pipeline far more
        than the shallow scatter/collect tree."""
        p, n = 16, 1 << 15
        machine = Machine(LinearArray(p), PARAGON)
        x = np.zeros(n)
        jit = PARAGON.alpha * 5

        def pipe(env, jitter):
            ctx = CollContext(env)
            buf = x if env.rank == 0 else None
            yield from pipelined_bcast(ctx, buf, root=0, total=n,
                                       jitter=(lambda: jit) if jitter
                                       else None)

        clean = machine.run(pipe, False).time
        noisy = machine.run(pipe, True).time
        overhead = noisy - clean
        # the critical path crosses every forwarding stage, so the
        # jitter accumulates roughly (p + K) deep along the chain
        assert overhead > 10 * jit


class TestEdstOnHypercube:
    def test_correct_on_gray_code_group(self):
        cube = Hypercube(4)
        machine = Machine(cube, UNIT)
        grp = gray_code_group(cube)
        n = 64
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env, grp)
            buf = x.copy() if ctx.rank == 0 else None
            return (yield from edst_bcast(ctx, buf, root=0, total=n,
                                          chunks=4))

        run = machine.run(prog)
        for res in run.results:
            assert np.array_equal(res, x)

    def test_chain_hops_are_single_links(self):
        """Every pipelined hop must traverse exactly one hypercube edge
        (the point of the Gray-code embedding)."""
        cube = Hypercube(3)
        machine = Machine(cube, UNIT, trace=True)
        grp = gray_code_group(cube)

        def prog(env):
            ctx = CollContext(env, grp)
            buf = np.zeros(16) if ctx.rank == 0 else None
            return (yield from edst_bcast(ctx, buf, root=0, total=16,
                                          chunks=2))

        run = machine.run(prog)
        for rec in run.trace.completed():
            assert len(cube.route(rec.src, rec.dst)) == 1
