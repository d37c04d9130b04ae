"""Tests for group-structure detection and interned groups (section 9)."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core import api, classify, groups
from repro.core.context import CollContext
from repro.core.groups import Group, GroupStructure
from repro.sim import (PARAGON, UNIT, Hypercube, LinearArray, Machine,
                       Mesh2D, Ring)


class TestLinearArrayGroups:
    topo = LinearArray(16)

    def test_contiguous(self):
        s = classify([3, 4, 5, 6], self.topo)
        assert s.kind == "contiguous"
        assert s.stride == 1

    def test_strided(self):
        s = classify([0, 4, 8, 12], self.topo)
        assert s.kind == "strided"
        assert s.stride == 4

    def test_unstructured(self):
        assert classify([0, 1, 5], self.topo).kind == "unstructured"

    def test_reversed_is_unstructured(self):
        assert classify([5, 4, 3], self.topo).kind == "unstructured"

    def test_singleton(self):
        assert classify([7], self.topo).kind == "contiguous"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify([], self.topo)


class TestMeshGroups:
    mesh = Mesh2D(4, 8)

    def test_full_row(self):
        s = classify(self.mesh.row_nodes(2), self.mesh)
        assert s.kind == "row"
        assert s.shape == (1, 8)
        assert s.is_mesh_aligned

    def test_partial_row(self):
        s = classify([17, 18, 19], self.mesh)
        assert s.kind == "row"
        assert s.shape == (1, 3)

    def test_full_column(self):
        s = classify(self.mesh.col_nodes(5), self.mesh)
        assert s.kind == "col"
        assert s.stride == 8
        assert s.shape == (4, 1)

    def test_whole_mesh_is_submesh(self):
        s = classify(range(32), self.mesh)
        assert s.kind == "submesh"
        assert s.shape == (4, 8)

    def test_interior_submesh(self):
        nodes = [9, 10, 11, 17, 18, 19, 25, 26, 27]
        s = classify(nodes, self.mesh)
        assert s.kind == "submesh"
        assert s.shape == (3, 3)

    def test_submesh_requires_row_major_order(self):
        nodes = [9, 17, 10, 18]  # column-major 2x2
        s = classify(nodes, self.mesh)
        assert s.kind != "submesh"

    def test_scattered_is_unstructured(self):
        assert classify([0, 9, 27, 3], self.mesh).kind == "unstructured"

    def test_strided_non_column(self):
        # stride 3 on a width-8 mesh wraps across rows: not a column
        s = classify([0, 3, 6], self.mesh)
        assert s.kind in ("strided", "row")
        # ids 0,3,6 are all row 0 but stride 3 -> not kind "row"
        assert s.kind == "strided"


class TestOtherTopologies:
    def test_hypercube_falls_back_to_stride_rules(self):
        h = Hypercube(4)
        assert classify([0, 1, 2, 3], h).kind == "contiguous"
        assert classify([0, 2, 4, 6], h).kind == "strided"
        assert classify([0, 3, 5], h).kind == "unstructured"


class TestInternedGroup:
    """One validated :class:`Group` per (topology, members)."""

    def test_world_and_row_lines_are_shared_by_every_rank(self):
        mesh = Mesh2D(16, 32)

        def prog(env):
            ctx = CollContext(env)
            row = ctx.strided_line(env.rank // 32 * 32, 1, 32)
            yield env.delay(0)
            return ctx.grp, row.grp

        run = Machine(mesh, UNIT).run(prog)
        worlds = [w for w, _ in run.results]
        assert all(w is worlds[0] for w in worlds)
        assert worlds[0] is Group.of(mesh)
        assert worlds[0].members == tuple(range(512))
        rows = [r for _, r in run.results]
        for rank, row in enumerate(rows):
            assert row is rows[rank // 32 * 32]
            assert row is Group.of(mesh, mesh.row_nodes(rank // 32))
        assert len({id(r) for r in rows}) == 16

    def test_auto_allreduce_classifies_each_group_at_most_once(
            self, monkeypatch):
        calls = Counter()
        real = groups.classify

        def counting(nodes, topology):
            calls[tuple(nodes)] += 1
            return real(nodes, topology)

        monkeypatch.setattr(groups, "classify", counting)

        def prog(env):
            return (yield from api.allreduce(env, np.ones(1)))

        run = Machine(Mesh2D(16, 32), PARAGON).run(prog)
        assert all(np.array_equal(r, [512.0]) for r in run.results)
        assert calls and max(calls.values()) == 1
        assert sum(calls.values()) < 512

    def test_intern_table_is_freed_with_its_topology(self):
        mesh = Mesh2D(4, 4)

        def prog(env):
            return (yield from api.allreduce(env, np.ones(4)))

        Machine(mesh, UNIT).run(prog)
        assert Group.of(mesh) in mesh._groups.values()
        ref = weakref.ref(mesh)
        del mesh
        gc.collect()
        assert ref() is None

    def test_same_members_same_object(self):
        topo = LinearArray(8)
        g = Group.of(topo, [1, 3, 5])
        assert Group.of(topo, (1, 3, 5)) is g
        assert Group.of(topo, range(8)) is Group.of(topo)
        assert g.line(0, 2, 2) is Group.of(topo, [1, 5])
        assert Group.of(LinearArray(8), [1, 3, 5]) is not g

    def test_structure_is_classified_lazily_once(self):
        g = Group.of(Mesh2D(4, 8), [9, 10, 17, 18])
        assert g._structure is None
        assert g.structure is g.structure
        assert g.mesh_shape == (2, 2)

    def test_no_topology_builds_a_fresh_group(self):
        g = Group.of(None, None, 4)
        assert g.members == (0, 1, 2, 3)
        assert Group.of(None, None, 4) is not g
        assert g.mesh_shape is None

    @pytest.mark.parametrize("topo", [LinearArray(8), Ring(8)],
                             ids=["linear", "ring"])
    def test_out_of_range_members_rejected(self, topo):
        with pytest.raises(ValueError, match=r"node 99 out of range \[0, 8\)"):
            Group.of(topo, [5, 99, 200])
        with pytest.raises(ValueError, match=r"node -1 out of range"):
            Group.of(topo, [0, -1])

    def test_out_of_range_context_fails_when_built(self):
        def prog(env):
            CollContext(env, [5, 99, 200])
            yield env.delay(0)

        with pytest.raises(ValueError, match="out of range"):
            Machine(LinearArray(8), UNIT).run(prog)

    def test_no_topology_validates_against_world_size(self):
        with pytest.raises(ValueError, match=r"node 4 out of range \[0, 4\)"):
            Group.of(None, [0, 4], 4)
