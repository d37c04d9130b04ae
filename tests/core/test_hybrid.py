"""Tests for the hybrid executor (the Figure 3 template): all five
operation families, arbitrary strategies, uneven lengths, and the
Figure 1 staging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Strategy, api, candidates
from repro.core.context import CollContext
from repro.core import hybrid
from repro.sim import LinearArray, Machine, UNIT

from .conftest import run_linear

BCAST_CASES = [
    (12, (2, 2, 3), "SSMCC"),
    (12, (3, 4), "SMC"),
    (12, (3, 4), "SSCC"),
    (12, (12,), "M"),
    (12, (12,), "SC"),
    (30, (2, 3, 5), "SSMCC"),
    (30, (5, 6), "SSCC"),
    (30, (2, 15), "SMC"),
    (8, (2, 2, 2), "SSSCCC"),
    (6, (6,), "SMC"[1:]),  # (6,) "MC" is invalid -> replaced below
]
BCAST_CASES[-1] = (6, (2, 3), "SMC")


class TestHybridBcast:
    @pytest.mark.parametrize("p,dims,ops", BCAST_CASES)
    def test_correct_even_length(self, p, dims, ops):
        s = Strategy(dims, ops)
        n = 2 * p
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == 0 else None
            return (yield from hybrid.run(ctx, "bcast", buf, s, total=n))

        run = run_linear(p, prog)
        for res in run.results:
            assert np.array_equal(res, x)

    @pytest.mark.parametrize("root", [0, 1, 5, 11])
    def test_any_root(self, root):
        s = Strategy((2, 2, 3), "SSMCC")
        n = 60
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == root else None
            return (yield from hybrid.run(ctx, "bcast", buf, s, root=root,
                                          total=n))

        run = run_linear(12, prog)
        for res in run.results:
            assert np.array_equal(res, x)

    @pytest.mark.parametrize("n", [1, 5, 11, 59, 61, 121])
    def test_uneven_lengths(self, n):
        s = Strategy((3, 4), "SMC")
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == 7 else None
            return (yield from hybrid.run(ctx, "bcast", buf, s, root=7,
                                          total=n))

        run = run_linear(12, prog)
        for res in run.results:
            assert np.array_equal(res, x)

    def test_strategy_must_cover_group(self):
        s = Strategy((2, 3), "SMC")

        def prog(env):
            ctx = CollContext(env)
            return (yield from hybrid.run(ctx, "bcast", np.zeros(4), s,
                                          total=4))

        with pytest.raises(ValueError, match="covers 6"):
            run_linear(12, prog)

    def test_needs_total_off_root(self):
        s = Strategy((2, 2), "SSCC")

        def prog(env):
            ctx = CollContext(env)
            buf = np.zeros(8) if env.rank == 0 else None
            return (yield from hybrid.run(ctx, "bcast", buf, s))

        with pytest.raises(ValueError, match="total"):
            run_linear(4, prog)

    def test_figure1_staging(self):
        """Figure 1: 12 nodes as 2x2x3 SSMCC — scatters in consecutive
        pairs first, then stride-2 pairs, MST in stride-4 triples, then
        collects back out.  Verify the message pattern per stage."""
        s = Strategy((2, 2, 3), "SSMCC")
        n = 12
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == 0 else None
            return (yield from hybrid.run(ctx, "bcast", buf, s, total=n))

        machine = Machine(LinearArray(12), UNIT, trace=True)
        run = machine.run(prog)
        recs = sorted(run.trace.completed(), key=lambda r: r.t_match)
        # stage 1: one scatter send inside the root's pair (0 -> 1)
        assert (recs[0].src, recs[0].dst) == (0, 1)
        # stage 2: scatter at stride 2 (0->2 and 1->3)
        stage2 = {(r.src, r.dst) for r in recs[1:3]}
        assert stage2 == {(0, 2), (1, 3)}
        # stages 3-4: MST broadcasts within stride-4 triples from 0..3
        mst = {(r.src, r.dst) for r in recs[3:11]}
        assert mst == {(0, 8), (1, 9), (2, 10), (3, 11),
                       (0, 4), (1, 5), (2, 6), (3, 7)} or len(mst) == 8
        # total messages: 1 + 2 + 8 + 12 + 12 (collect rounds: 1 per
        # stride-2 pair then 1 per pair)
        assert run.trace.message_count() == 1 + 2 + 8 + 12 + 12


class TestHybridReduce:
    @pytest.mark.parametrize("p,dims,ops,root", [
        (12, (2, 2, 3), "SSMCC", 0),
        (12, (3, 4), "SSCC", 5),
        (12, (12,), "M", 11),
        (12, (12,), "SC", 3),
        (30, (2, 3, 5), "SSMCC", 29),
        (30, (5, 6), "SMC", 7),
    ])
    def test_correct(self, p, dims, ops, root):
        s = Strategy(dims, ops)
        n = 2 * p

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from hybrid.run(ctx, "reduce", v, s, op="sum",
                                          root=root))

        run = run_linear(p, prog)
        ref = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        assert np.allclose(run.results[root], ref)
        for i, res in enumerate(run.results):
            if i != root:
                assert res is None

    def test_min_op(self):
        s = Strategy((2, 3), "SMC")

        def prog(env):
            ctx = CollContext(env)
            v = np.full(12, float(env.rank))
            return (yield from hybrid.run(ctx, "reduce", v, s, op="min",
                                          root=2))

        run = run_linear(6, prog)
        assert np.allclose(run.results[2], 0.0)

    @pytest.mark.parametrize("operation,root", [("bcast", 12),
                                                ("reduce", -1)])
    def test_root_outside_group_rejected(self, operation, root):
        s = Strategy((3, 4), "SSCC")

        def prog(env):
            ctx = CollContext(env)
            return (yield from hybrid.run(ctx, operation, np.ones(12), s,
                                          root=root, total=12))

        with pytest.raises(ValueError, match="outside group of size 12"):
            run_linear(12, prog)


class TestHybridAllreduce:
    @pytest.mark.parametrize("p,dims,ops", [
        (12, (2, 2, 3), "SSMCC"),
        (12, (3, 4), "SSCC"),
        (12, (2, 6), "SMC"),
        (12, (12,), "M"),
        (12, (12,), "SC"),
        (30, (5, 6), "SSCC"),
    ])
    def test_correct(self, p, dims, ops):
        s = Strategy(dims, ops)
        n = 2 * p + 1

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from hybrid.run(ctx, "allreduce", v, s, op="sum"))

        run = run_linear(p, prog)
        ref = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        for res in run.results:
            assert np.allclose(res, ref)


class TestHybridCollect:
    @pytest.mark.parametrize("p,dims,ops", [
        (12, (2, 2, 3), "CCC"),
        (12, (3, 4), "MC"),
        (12, (4, 3), "CC"),
        (12, (12,), "C"),
        (12, (12,), "M"),
        (30, (2, 15), "MC"),
        (30, (5, 6), "CC"),
    ])
    def test_correct(self, p, dims, ops):
        s = Strategy(dims, ops)
        nb = 3

        def prog(env):
            ctx = CollContext(env)
            mine = np.full(nb, float(env.rank))
            return (yield from hybrid.run(ctx, "collect", mine, s))

        run = run_linear(p, prog)
        ref = np.concatenate([np.full(nb, float(i)) for i in range(p)])
        for res in run.results:
            assert np.array_equal(res, ref)

    def test_uneven_blocks(self):
        s = Strategy((2, 3), "CC")
        sizes = [1, 4, 0, 2, 3, 5]

        def prog(env):
            ctx = CollContext(env)
            mine = np.full(sizes[env.rank], float(env.rank))
            return (yield from hybrid.run(ctx, "collect", mine, s,
                                          sizes=sizes))

        run = run_linear(6, prog)
        ref = np.concatenate([np.full(sz, float(i))
                              for i, sz in enumerate(sizes)])
        for res in run.results:
            assert np.array_equal(res, ref)


class TestHybridReduceScatter:
    @pytest.mark.parametrize("p,dims,ops", [
        (12, (2, 2, 3), "SSS"),
        (12, (3, 4), "SM"),
        (12, (4, 3), "SS"),
        (12, (12,), "S"),
        (12, (12,), "M"),
        (30, (2, 15), "SM"),
        (30, (5, 6), "SS"),
    ])
    def test_correct(self, p, dims, ops):
        s = Strategy(dims, ops)
        nb = 3
        n = nb * p

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from hybrid.run(ctx, "reduce_scatter", v, s,
                                          op="sum"))

        run = run_linear(p, prog)
        full = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        for i, res in enumerate(run.results):
            assert np.allclose(res, full[i * nb:(i + 1) * nb])

    def test_uneven_partition(self):
        s = Strategy((2, 3), "SS")
        sizes = [1, 4, 0, 2, 3, 5]
        n = sum(sizes)
        from repro.core import partition_offsets
        offs = partition_offsets(sizes)

        def prog(env):
            ctx = CollContext(env)
            v = np.arange(n, dtype=np.float64)
            return (yield from hybrid.run(ctx, "reduce_scatter", v, s,
                                          op="sum", sizes=sizes))

        run = run_linear(6, prog)
        full = np.arange(n, dtype=np.float64) * 6
        for i, res in enumerate(run.results):
            assert np.allclose(res, full[offs[i]:offs[i + 1]])


class TestPropertyBased:
    @given(data=st.data(), n=st.integers(1, 80))
    @settings(max_examples=40, deadline=None)
    def test_random_smc_strategy_bcast(self, data, n):
        """Any valid strategy over any factorization broadcasts
        correctly with any root and any length."""
        p = data.draw(st.sampled_from([6, 8, 12, 18, 24, 30]))
        s = data.draw(st.sampled_from(candidates("bcast", p)))
        root = data.draw(st.integers(0, p - 1))
        x = np.arange(n, dtype=np.float64)

        def prog(env):
            ctx = CollContext(env)
            buf = x.copy() if env.rank == root else None
            return (yield from hybrid.run(ctx, "bcast", buf, s, root=root,
                                          total=n))

        run = run_linear(p, prog)
        assert all(np.array_equal(r, x) for r in run.results)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_allreduce_matches_oracle(self, data):
        p = data.draw(st.sampled_from([4, 6, 12, 16]))
        s = data.draw(st.sampled_from(candidates("bcast", p)))
        n = data.draw(st.integers(1, 40))

        def prog(env):
            ctx = CollContext(env)
            v = np.full(n, float(env.rank + 1))
            return (yield from hybrid.run(ctx, "allreduce", v, s, op="sum"))

        run = run_linear(p, prog)
        for res in run.results:
            assert np.allclose(res, p * (p + 1) / 2)


class TestLocalLengthChecked:
    """A rank whose data disagrees with the group-wide ``sizes`` fails
    the same way under every strategy, naming its group rank."""

    @pytest.mark.parametrize("s", candidates("collect", 6), ids=str)
    def test_collect_block(self, s):
        def prog(env):
            block = np.ones(3 if env.rank == 2 else 2)
            return (yield from api.collect(env, block, sizes=[2] * 6,
                                           algorithm=s))

        with pytest.raises(ValueError, match=r"^rank 2: block has 3 "
                           r"elements, partition says 2$"):
            run_linear(6, prog)

    @pytest.mark.parametrize("s", candidates("reduce_scatter", 6), ids=str)
    def test_reduce_scatter_vector(self, s):
        def prog(env):
            vec = np.ones(13 if env.rank == 2 else 12)
            return (yield from api.reduce_scatter(env, vec, sizes=[2] * 6,
                                                  algorithm=s))

        with pytest.raises(ValueError, match=r"^rank 2: vector has 13 "
                           r"elements, partition says 12$"):
            run_linear(6, prog)


#: the span phase the executor records for each operation's stage letter
STAGE_PHASES = {
    "bcast": {"S": "scatter", "M": "kernel", "C": "collect"},
    "reduce": {"S": "reduce-scatter", "M": "kernel", "C": "gather"},
    "allreduce": {"S": "reduce-scatter", "M": "kernel", "C": "collect"},
    "collect": {"M": "kernel", "C": "collect"},
    "reduce_scatter": {"S": "reduce-scatter", "M": "kernel"},
}


class TestExecutorsRunTheStageTable:
    """``hybrid.run`` walks ``Strategy.stages`` through its stage
    table; this pins the spans it records at the root to that order,
    the one the cost model prices."""

    @pytest.mark.parametrize("operation", sorted(STAGE_PHASES))
    @pytest.mark.parametrize("p", [6, 8, 12, 30])
    def test_root_stage_spans_follow_stages(self, operation, p):
        root = p - 1     # a root off digit zero in every dimension
        n = 2 * p

        def prog(env, s):
            v = np.ones(n)
            if operation == "bcast":
                return (yield from api.bcast(
                    env, v if env.rank == root else None, root, total=n,
                    algorithm=s))
            if operation == "reduce":
                return (yield from api.reduce(env, v, root=root,
                                              algorithm=s))
            if operation == "collect":
                return (yield from api.collect(env, v[:2], algorithm=s))
            return (yield from getattr(api, operation)(env, v, algorithm=s))

        for s in candidates(operation, p):
            run = run_linear(p, prog, s, trace=True)
            got = [(span.phase, int(span.label.rsplit("dim", 1)[1]) - 1,
                    span.attrs["d"])
                   for span in run.trace.spans_of(root) if span.depth == 1]
            want = [(STAGE_PHASES[operation][letter], i, s.dims[i])
                    for letter, i in s.stages(operation)]
            assert got == want, s
