"""Tests for the section 5 composed algorithms: semantics of all seven
operations in both short- and long-vector form, and the quoted costs.

The compositions are the one-dimension hybrids, ``(p, M)`` and ``(p,
SC)`` / ``(p, C)`` / ``(p, S)``, which ``api``'s ``algorithm="short"`` and
``algorithm="long"`` run."""

import math

import numpy as np
import pytest

from repro.core import api

from .conftest import run_linear


def L(p):
    return math.ceil(math.log2(p)) if p > 1 else 0


class TestShortCompositions:
    @pytest.mark.parametrize("p", [1, 2, 3, 7, 12])
    def test_short_collect(self, p):
        nb = 3

        def prog(env):
            mine = np.full(nb, float(env.rank))
            return (yield from api.collect(env, mine, algorithm="short"))

        run = run_linear(p, prog)
        ref = np.concatenate([np.full(nb, float(i)) for i in range(p)])
        for res in run.results:
            assert np.array_equal(res, ref)

    def test_short_collect_cost(self):
        """Gather + broadcast: both beta terms carry the full vector on
        the broadcast leg (2 L alpha to leading order, section 5.1)."""
        p, nb = 8, 2
        n = nb * p

        def prog(env):
            return (yield from api.collect(env, np.zeros(nb),
                                           algorithm="short"))

        run = run_linear(p, prog)
        gather = L(p) + (p - 1) / p * n * 8
        bcast = L(p) * (1 + n * 8)
        assert run.time == pytest.approx(gather + bcast)

    @pytest.mark.parametrize("p", [1, 2, 5, 8, 12])
    def test_short_reduce_scatter(self, p):
        nb = 4
        n = nb * p

        def prog(env):
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from api.reduce_scatter(env, v, op="sum",
                                                  algorithm="short"))

        run = run_linear(p, prog)
        full = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        for i, res in enumerate(run.results):
            assert np.allclose(res, full[i * nb:(i + 1) * nb])

    @pytest.mark.parametrize("p", [1, 2, 3, 9, 16])
    def test_short_allreduce(self, p):
        n = 10

        def prog(env):
            v = np.full(n, float(env.rank + 1))
            return (yield from api.allreduce(env, v, op="sum",
                                             algorithm="short"))

        run = run_linear(p, prog)
        for res in run.results:
            assert np.allclose(res, p * (p + 1) / 2)

    def test_short_allreduce_cost(self):
        """2 L alpha + 2 L n beta + L n gamma (section 5.1)."""
        p, n = 8, 4

        def prog(env):
            return (yield from api.allreduce(env, np.zeros(n), op="sum",
                                             algorithm="short"))

        run = run_linear(p, prog)
        expect = 2 * L(p) + 2 * L(p) * n * 8 + L(p) * n
        assert run.time == pytest.approx(expect)


class TestLongCompositions:
    @pytest.mark.parametrize("p,root", [(1, 0), (2, 1), (4, 0), (7, 3),
                                        (12, 11)])
    def test_long_bcast(self, p, root):
        n = 6 * p + 1  # deliberately uneven

        def prog(env):
            x = np.arange(n, dtype=np.float64)
            buf = x if env.rank == root else None
            return (yield from api.bcast(env, buf, root=root, total=n,
                                         algorithm="long"))

        run = run_linear(p, prog)
        for res in run.results:
            assert np.array_equal(res, np.arange(n, dtype=np.float64))

    def test_long_bcast_cost(self):
        """(L + p - 1) alpha + 2 ((p-1)/p) n beta (section 5.2)."""
        p, nb = 8, 4
        n = nb * p

        def prog(env):
            buf = np.zeros(n) if env.rank == 0 else None
            return (yield from api.bcast(env, buf, root=0, total=n,
                                         algorithm="long"))

        run = run_linear(p, prog)
        expect = (L(p) + p - 1) + 2 * (p - 1) / p * n * 8
        assert run.time == pytest.approx(expect)

    def test_long_bcast_needs_total_off_root(self):
        def prog(env):
            buf = np.zeros(8) if env.rank == 0 else None
            return (yield from api.bcast(env, buf, root=0, algorithm="long"))

        with pytest.raises(ValueError, match="total"):
            run_linear(4, prog)

    @pytest.mark.parametrize("p,root", [(1, 0), (3, 1), (8, 0), (13, 12)])
    def test_long_reduce(self, p, root):
        n = 5 * p

        def prog(env):
            v = np.full(n, float(env.rank + 1))
            return (yield from api.reduce(env, v, op="sum", root=root,
                                          algorithm="long"))

        run = run_linear(p, prog)
        assert np.allclose(run.results[root], p * (p + 1) / 2)
        for i, res in enumerate(run.results):
            if i != root:
                assert res is None

    def test_long_reduce_cost(self):
        """2 (p-1) alpha + 2 ((p-1)/p) n beta + ((p-1)/p) n gamma."""
        p, nb = 8, 4
        n = nb * p

        def prog(env):
            return (yield from api.reduce(env, np.zeros(n), op="sum", root=0,
                                          algorithm="long"))

        run = run_linear(p, prog)
        rs = (p - 1) * (1 + nb * 8 + nb)
        gather = L(p) + (p - 1) / p * n * 8
        assert run.time == pytest.approx(rs + gather)

    @pytest.mark.parametrize("p", [1, 2, 6, 11, 16])
    def test_long_allreduce(self, p):
        n = 4 * p + 3

        def prog(env):
            v = np.arange(n, dtype=np.float64) * (env.rank + 1)
            return (yield from api.allreduce(env, v, op="sum",
                                             algorithm="long"))

        run = run_linear(p, prog)
        ref = np.arange(n, dtype=np.float64) * (p * (p + 1) / 2)
        for res in run.results:
            assert np.allclose(res, ref)

    def test_long_allreduce_beta_term_is_asymptotically_optimal(self):
        """The 2 (p-1)/p n beta term of section 5.2, exactly."""
        p, nb = 8, 16
        n = nb * p

        def prog(env):
            return (yield from api.allreduce(env, np.zeros(n), op="sum",
                                             algorithm="long"))

        run = run_linear(p, prog)
        expect = 2 * (p - 1) * (1 + nb * 8) + (p - 1) * nb
        assert run.time == pytest.approx(expect)


class TestShortLongAgree:
    """Short and long algorithms must compute identical results."""

    @pytest.mark.parametrize("p", [2, 5, 9])
    def test_allreduce_variants_agree(self, p):
        n = 3 * p

        def prog(env, variant):
            v = np.arange(n, dtype=np.float64) + env.rank
            return (yield from api.allreduce(env, v, op="sum",
                                             algorithm=variant))

        a = run_linear(p, prog, "short").results
        b = run_linear(p, prog, "long").results
        for x, y in zip(a, b):
            assert np.allclose(x, y)
