"""Property-based tests for communicator derivation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Communicator
from repro.sim import LinearArray, Machine, UNIT


class TestSplitProperties:
    @given(p=st.integers(2, 10), ncolors=st.integers(1, 4),
           seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_split_partitions_the_world(self, p, ncolors, seed):
        """Every rank lands in exactly one subcommunicator; colors
        partition; keys order; collectives on the pieces are correct."""
        rng = np.random.default_rng(seed)
        colors = rng.integers(0, ncolors, size=p).tolist()
        keys = rng.integers(-5, 5, size=p).tolist()

        def prog(env):
            w = Communicator.world(env)
            sub = yield from w.split(colors[env.rank], keys[env.rank])
            v = np.array([float(env.rank)])
            s = yield from sub.allreduce(v)
            return sub.rank, sub.size, tuple(sub.group), float(s[0])

        run = Machine(LinearArray(p), UNIT).run(prog)
        for color in set(colors):
            members = [i for i in range(p) if colors[i] == color]
            expect_group = tuple(sorted(
                members, key=lambda i: (keys[i], i)))
            expect_sum = float(sum(members))
            for i in members:
                lrank, size, group, s = run.results[i]
                assert size == len(members)
                assert group == expect_group
                assert group[lrank] == i
                assert s == expect_sum

    @given(p=st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_nested_derivation_isolated(self, p):
        """Grandchild communicators still isolate traffic."""
        def prog(env):
            w = Communicator.world(env)
            d1 = w.dup()
            d2 = d1.dup()
            v = np.array([1.0])
            a = yield from d1.allreduce(v)
            b = yield from d2.allreduce(v)
            return float(a[0]), float(b[0]), len(
                {w.context_id, d1.context_id, d2.context_id})

        run = Machine(LinearArray(p), UNIT).run(prog)
        for a, b, distinct in run.results:
            assert a == b == float(p)
            assert distinct == 3
