"""Tests for the mesh-aware techniques of section 7: physical rows,
columns and submeshes as groups, and the ``(C, R)`` strategies that run
one stage within rows and one within columns of an ``R x C`` mesh."""

import numpy as np
import pytest

from repro.core import api, selector_for
from repro.core.strategy import Strategy, family_ops
from repro.sim import Machine, Mesh2D, PARAGON, UNIT

from .conftest import run_mesh


class TestGroupBuilders:
    mesh = Mesh2D(4, 8)

    def test_row_col(self):
        assert self.mesh.row_nodes(1) == list(range(8, 16))
        assert self.mesh.col_nodes(2) == [2, 10, 18, 26]

    def test_submesh(self):
        g = self.mesh.submesh_nodes(1, 2, 2, 3)
        assert g == [10, 11, 12, 18, 19, 20]

    def test_submesh_bounds(self):
        with pytest.raises(ValueError):
            self.mesh.submesh_nodes(3, 0, 2, 4)
        with pytest.raises(ValueError):
            self.mesh.submesh_nodes(0, -1, 2, 2)


def mesh_candidates(operation, r, c):
    return selector_for(UNIT)._mesh_candidates(operation, r, c)


class TestTwoPhaseStrategy:
    """The Selector's mesh candidates include the two-phase ``(C, R)``
    all-long strategy of every family."""

    def test_collect_shape(self):
        assert Strategy((32, 16), "CC") in mesh_candidates("collect", 16, 32)

    def test_bcast_shape(self):
        assert Strategy((8, 4), "SSCC") in mesh_candidates("bcast", 4, 8)
        assert Strategy((8, 4), "SS") in mesh_candidates(
            "reduce_scatter", 4, 8)

    def test_degenerate_row(self):
        assert Strategy((8,), "C") in mesh_candidates("collect", 1, 8)
        assert Strategy((8,), family_ops("bcast", 1)[0]) in \
            mesh_candidates("bcast", 1, 8)


class TestTwoPhaseLatency:
    def test_collect_latency_is_r_plus_c_minus_2(self):
        """Section 7.1: latency drops from (p-1) alpha to
        (r + c - 2) alpha for the two-phase mesh bucket collect."""
        r, c = 4, 8
        nb = 1
        # beta tiny: time is dominated by alpha rounds
        params = UNIT.with_(beta=1e-9, gamma=0.0)

        def prog(env):
            mine = np.full(nb, float(env.rank))
            return (yield from api.collect(env, mine,
                                           algorithm=Strategy((c, r), "CC")))

        run = run_mesh(r, c, prog, params=params)
        assert run.time == pytest.approx(r + c - 2, rel=1e-3)

    def test_two_phase_collect_correct(self):
        r, c = 3, 4

        def prog(env):
            mine = np.full(2, float(env.rank))
            return (yield from api.collect(env, mine,
                                           algorithm=Strategy((c, r), "CC")))

        run = run_mesh(r, c, prog)
        ref = np.concatenate([np.full(2, float(i)) for i in range(12)])
        for res in run.results:
            assert np.array_equal(res, ref)

    def test_two_phase_reduce_scatter_correct(self):
        r, c = 3, 4
        p = r * c
        n = 2 * p

        def prog(env):
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from api.reduce_scatter(
                env, v, "sum", algorithm=Strategy((c, r), "SS")))

        run = run_mesh(r, c, prog)
        full = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        for i, res in enumerate(run.results):
            assert np.allclose(res, full[2 * i:2 * i + 2])

    def test_mesh_collect_beats_linear_collect_on_latency(self):
        """The reason for section 7: same beta, far less alpha."""
        r, c = 4, 8

        def prog(env, strategy):
            mine = np.full(1, float(env.rank))
            return (yield from api.collect(env, mine, algorithm=strategy))

        mesh_t = run_mesh(r, c, prog, Strategy((8, 4), "CC")).time
        ring_t = run_mesh(r, c, prog, Strategy((32,), "C")).time
        assert mesh_t < ring_t


class TestBestMeshChoice:
    def test_returns_mesh_aligned_for_long_vectors(self):
        choice = selector_for(PARAGON).best("collect", 16 * 32, 131072,
                                            mesh_shape=(16, 32))
        # conflict-free mesh strategy expected
        assert all(f == 1.0 for f in choice.conflicts)

    def test_group_collective_via_api_uses_submesh(self):
        """A submesh group routed through the public API must perform
        like the whole-mesh case (section 9)."""
        mesh = Mesh2D(4, 8)
        machine = Machine(mesh, PARAGON)
        grp = mesh.submesh_nodes(1, 2, 2, 4)

        def prog(env):
            if env.rank not in grp:
                yield env.delay(0)
                return None
            mine = np.full(512, float(env.rank))
            out = yield from api.collect(env, mine, group=grp)
            return float(out.sum())

        run = machine.run(prog)
        expect = 512.0 * sum(grp)
        for i in grp:
            assert run.results[i] == expect
