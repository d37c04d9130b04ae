"""Tests for the wraparound mesh (reference [6]'s machine)."""

import numpy as np
import pytest

from repro.core.context import CollContext
from repro.core.primitives_long import bucket_collect
from repro.sim import Machine, Mesh2D, Torus2D, UNIT


class TestTorusRouting:
    torus = Torus2D(4, 6)

    def test_row_wrap_single_hop(self):
        assert self.torus.route(5, 0) == [(5, 0)]

    def test_col_wrap_single_hop(self):
        assert self.torus.route(18, 0) == [(18, 0)]

    def test_takes_shorter_way(self):
        # (0,1) -> (0,5): backward around the wrap is 2 hops
        path = self.torus.route(1, 5)
        assert len(path) == 2
        assert path == [(1, 0), (0, 5)]

    def test_routes_are_walks(self):
        for src in range(24):
            for dst in range(24):
                cur = src
                for u, v in self.torus.route(src, dst):
                    assert u == cur
                    cur = v
                assert cur == dst

    def test_route_length_is_torus_manhattan(self):
        t = self.torus
        for src in range(24):
            for dst in range(24):
                sr, sc = t.coords(src)
                dr, dc = t.coords(dst)
                dy = min((dr - sr) % 4, (sr - dr) % 4)
                dx = min((dc - sc) % 6, (sc - dc) % 6)
                assert len(t.route(src, dst)) == dx + dy

    def test_channel_count(self):
        # every node has 4 outgoing channels (wraps included)
        assert len(list(self.torus.channels())) == 4 * 24

    def test_row_col_nodes(self):
        assert self.torus.row_nodes(1) == [6, 7, 8, 9, 10, 11]
        assert self.torus.col_nodes(2) == [2, 8, 14, 20]


class TestTorusPerformance:
    def test_ring_collect_within_row_is_conflict_free(self):
        """On the torus the row ring is physical — the bucket collect's
        wrap message has its own link instead of the reverse channels."""
        t = Torus2D(1, 8)
        machine = Machine(t, UNIT)

        def prog(env):
            ctx = CollContext(env)
            return (yield from bucket_collect(ctx, np.zeros(4)))

        run = machine.run(prog)
        assert run.time == pytest.approx(7 * (1 + 4 * 8))

    def test_torus_not_slower_than_mesh(self):
        """Extra wrap links can only help: the whole-machine collect on
        a torus must cost at most the mesh's."""
        from repro.core import api
        nb = 64

        def prog(env):
            out = yield from api.collect(env, np.zeros(nb))
            return len(out) == nb * env.nranks

        t_mesh = Machine(Mesh2D(4, 4), UNIT).run(prog)
        t_torus = Machine(Torus2D(4, 4), UNIT).run(prog)
        assert all(t_mesh.results) and all(t_torus.results)
        assert t_torus.time <= t_mesh.time * 1.0 + 1e-9

    def test_collectives_correct_on_torus(self):
        from repro.core import api
        machine = Machine(Torus2D(3, 5), UNIT)

        def prog(env):
            v = np.full(30, float(env.rank))
            out = yield from api.allreduce(env, v, "sum")
            return float(out[0])

        run = machine.run(prog)
        assert all(v == sum(range(15)) for v in run.results)
