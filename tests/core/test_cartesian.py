"""Tests for the Cartesian grid layer."""

import numpy as np
import pytest

from repro.core import Communicator
from repro.core.cartesian import CartGrid

from .conftest import run_linear, run_mesh


def make_grid(env, rows, cols, periodic=(False, False)):
    return CartGrid(Communicator.world(env), rows, cols, periodic)


class TestCoordinates:
    def test_coords_roundtrip(self):
        def prog(env):
            g = make_grid(env, 3, 4)
            yield env.delay(0)
            r, c = g.coords()
            return g.rank_at(r, c) == env.rank

        assert all(run_linear(12, prog).results)

    def test_size_mismatch_rejected(self):
        def prog(env):
            make_grid(env, 3, 5)
            yield env.delay(0)

        with pytest.raises(ValueError, match="needs 15 ranks"):
            run_linear(12, prog)

    def test_shift_interior(self):
        def prog(env):
            g = make_grid(env, 3, 4)
            yield env.delay(0)
            return g.shift(0, 1), g.shift(1, 1)

        res = run_linear(12, prog).results
        # rank 5 = (1,1): row shift: src (0,1)=1, dst (2,1)=9
        assert res[5] == ((1, 9), (4, 6))

    def test_shift_edges_non_periodic(self):
        def prog(env):
            g = make_grid(env, 3, 4)
            yield env.delay(0)
            return g.shift(0, 1)

        res = run_linear(12, prog).results
        assert res[0] == (None, 4)      # top row: no source above
        assert res[8] == (4, None)      # bottom row: no dest below

    def test_shift_periodic_wraps(self):
        def prog(env):
            g = make_grid(env, 3, 4, periodic=(True, True))
            yield env.delay(0)
            return g.shift(0, 1), g.shift(1, 1)

        res = run_linear(12, prog).results
        assert res[0] == ((8, 4), (3, 1))

    def test_bad_dim(self):
        def prog(env):
            g = make_grid(env, 3, 4)
            yield env.delay(0)
            g.shift(2, 1)

        with pytest.raises(ValueError, match="dim must be"):
            run_linear(12, prog)


class TestSubcomms:
    def test_row_col_reduction(self):
        def prog(env):
            g = make_grid(env, 3, 4)
            row = g.row_comm()
            col = g.col_comm()
            v = np.array([1.0])
            v = yield from row.allreduce(v)
            v = yield from col.allreduce(v)
            return float(v[0])

        res = run_linear(12, prog).results
        assert all(v == 12.0 for v in res)

    def test_grid_on_physical_mesh_gets_mesh_groups(self):
        """When the grid matches the physical mesh, row communicators
        are physical rows — detected and accelerated."""
        from repro.core import classify

        def prog(env):
            g = make_grid(env, 4, 8)
            row = g.row_comm()
            yield env.delay(0)
            return classify(row.group, env.topology).kind

        res = run_mesh(4, 8, prog).results
        assert all(k == "row" for k in res)


class TestSendrecvAndHalo:
    def test_sendrecv_ring(self):
        def prog(env):
            g = make_grid(env, 1, 6, periodic=(False, True))
            src, dst = g.shift(1, 1)
            got = yield from g.sendrecv(dst, np.array([float(env.rank)]),
                                        src)
            return float(got[0])

        res = run_linear(6, prog).results
        assert res == [5.0, 0.0, 1.0, 2.0, 3.0, 4.0]

    def test_halo_exchange_interior_and_edges(self):
        def prog(env):
            g = make_grid(env, 1, 5)
            me = float(env.rank)
            frm_low, frm_high = yield from g.halo_exchange(
                1, np.array([me]), np.array([me]))
            return (None if frm_low is None else float(frm_low[0]),
                    None if frm_high is None else float(frm_high[0]))

        res = run_linear(5, prog).results
        assert res[0] == (None, 1.0)
        assert res[2] == (1.0, 3.0)
        assert res[4] == (3.0, None)

    def test_halo_exchange_periodic(self):
        def prog(env):
            g = make_grid(env, 1, 4, periodic=(False, True))
            me = float(env.rank)
            frm_low, frm_high = yield from g.halo_exchange(
                1, np.array([me]), np.array([me]))
            return float(frm_low[0]), float(frm_high[0])

        res = run_linear(4, prog).results
        assert res[0] == (3.0, 1.0)
        assert res[3] == (2.0, 0.0)

    def test_halo_transfers_share_the_injection_port(self):
        """The paper's port model: a node sends to only one partner at
        full rate, so an interior rank's two outgoing halo slabs share
        its injection port — elapsed time is alpha + 2 n beta (and the
        two *incoming* slabs overlap with the sends for free)."""
        n = 1000

        def prog(env):
            g = make_grid(env, 1, 5)
            buf = np.zeros(n)
            yield from g.halo_exchange(1, buf, buf)

        t = run_linear(5, prog).time
        assert t == pytest.approx(1 + 2 * n * 8, rel=0.01)
