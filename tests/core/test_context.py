"""Tests for the group context (logical-to-physical mapping, section 9)."""

import numpy as np
import pytest

from repro.core.context import CollContext

from .conftest import run_linear


class TestMapping:
    def test_whole_machine_default(self):
        def prog(env):
            ctx = CollContext(env)
            yield env.delay(0)
            return ctx.rank, ctx.size, ctx.group

        run = run_linear(4, prog)
        for i, (rank, size, group) in enumerate(run.results):
            assert rank == i
            assert size == 4
            assert group == (0, 1, 2, 3)

    def test_reordered_group(self):
        """The group array provides the logical-to-physical map — the
        ring collect example of section 9."""
        group = [3, 0, 2]

        def prog(env):
            ctx = CollContext(env, group)
            yield env.delay(0)
            return ctx.rank

        run = run_linear(4, prog)
        assert run.results == [1, None, 2, 0]

    def test_phys_and_logical(self):
        def prog(env):
            ctx = CollContext(env, [5, 1, 3])
            yield env.delay(0)
            return ctx.phys(0), ctx.phys(2), ctx.logical(1), ctx.logical(0)

        run = run_linear(6, prog)
        assert run.results[1] == (5, 3, 1, None)

    def test_duplicate_group_rejected(self):
        def prog(env):
            CollContext(env, [0, 1, 1])
            yield env.delay(0)

        with pytest.raises(ValueError, match="duplicate"):
            run_linear(3, prog)

    def test_empty_group_rejected(self):
        def prog(env):
            CollContext(env, [])
            yield env.delay(0)

        with pytest.raises(ValueError, match="at least one"):
            run_linear(2, prog)

    def test_require_member(self):
        def prog(env):
            ctx = CollContext(env, [0, 1])
            yield env.delay(0)
            if env.rank == 2:
                with pytest.raises(RuntimeError, match="not a member"):
                    ctx.require_member()
                return "checked"
            return ctx.require_member()

        run = run_linear(3, prog)
        assert run.results == [0, 1, "checked"]


class TestLogicalCommunication:
    def test_send_recv_in_logical_coords(self):
        group = [2, 0, 1]  # logical 0 = phys 2, etc.

        def prog(env):
            ctx = CollContext(env, group)
            if ctx.rank == 0:
                yield ctx.send(2, np.array([42.0]))
            elif ctx.rank == 2:
                data = yield ctx.recv(0)
                return float(data[0])

        run = run_linear(3, prog)
        # logical 2 is physical node 1
        assert run.results[1] == 42.0

    def test_tags_isolate_contexts(self):
        def prog(env):
            a = CollContext(env, None, tag=1)
            b = CollContext(env, None, tag=2)
            if env.rank == 0:
                s1 = a.isend(1, np.array([1.0]))
                s2 = b.isend(1, np.array([2.0]))
                yield env.waitall(s1, s2)
            else:
                datb = yield b.recv(0)
                data = yield a.recv(0)
                return float(data[0]), float(datb[0])

        run = run_linear(2, prog)
        assert run.results[1] == (1.0, 2.0)


class TestSubgroups:
    def test_strided_line(self):
        def prog(env):
            ctx = CollContext(env)
            line = ctx.strided_line(1, 3, 3)  # logical 1, 4, 7
            yield env.delay(0)
            return line.group, line.rank

        run = run_linear(9, prog)
        assert run.results[4] == ((1, 4, 7), 1)
        assert run.results[0] == ((1, 4, 7), None)

    def test_subgroup_of_reordered_group(self):
        def prog(env):
            ctx = CollContext(env, [8, 6, 4, 2, 0])
            sub = ctx.subgroup([4, 2, 0])  # phys 0, 4, 8
            yield env.delay(0)
            return sub.group

        run = run_linear(9, prog)
        assert run.results[0] == (0, 4, 8)

    def test_subgroup_inherits_tag(self):
        def prog(env):
            ctx = CollContext(env, None, tag=5)
            sub = ctx.subgroup([0, 1])
            yield env.delay(0)
            return sub.tag

        assert run_linear(2, prog).results[0] == 5
