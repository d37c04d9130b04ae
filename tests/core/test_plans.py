"""Tests for persistent collective plans."""

import numpy as np
import pytest

from repro.core import Strategy, api
from repro.core.plans import make_plan
from repro.core.strategy import OPERATIONS
from repro.sim import PARAGON

from .conftest import run_linear


class TestMakePlan:
    def test_plan_resolves_auto_strategy(self):
        def prog(env):
            plan = make_plan(env, "bcast", 8192)
            yield env.delay(0)
            return str(plan.strategy)

        res = run_linear(12, prog, params=PARAGON).results
        assert len(set(res)) == 1  # all ranks agree
        assert res[0] != "(12, M)"  # long vector: not the pure MST

    def test_unknown_operation(self):
        def prog(env):
            make_plan(env, "gossip", 10)
            yield env.delay(0)

        with pytest.raises(KeyError):
            run_linear(4, prog)

    def test_explicit_strategy_validated(self):
        def prog(env):
            make_plan(env, "collect", 12, algorithm=Strategy((3, 4), "SC"))
            yield env.delay(0)

        with pytest.raises(ValueError):
            run_linear(12, prog)

    def test_strategy_group_size_mismatch(self):
        def prog(env):
            make_plan(env, "bcast", 12,
                      algorithm=Strategy((2, 3), "SMC"))
            yield env.delay(0)

        with pytest.raises(ValueError, match="covers 6"):
            run_linear(12, prog)


class TestPlanExecution:
    def test_bcast_plan_repeated(self):
        n = 24

        def prog(env):
            plan = make_plan(env, "bcast", n, root=1)
            outs = []
            for k in range(3):
                buf = (np.arange(n, dtype=np.float64) * (k + 1)
                       if env.rank == 1 else None)
                out = yield from plan(buf)
                outs.append(float(out[-1]))
            return outs

        res = run_linear(6, prog).results
        for r in res:
            assert r == [23.0, 46.0, 69.0]

    def test_allreduce_plan(self):
        n = 16

        def prog(env):
            plan = make_plan(env, "allreduce", n, op="max")
            out = yield from plan(np.full(n, float(env.rank)))
            return float(out[0])

        res = run_linear(7, prog).results
        assert all(v == 6.0 for v in res)

    def test_reduce_scatter_plan(self):
        p, nb = 4, 3
        n = p * nb

        def prog(env):
            plan = make_plan(env, "reduce_scatter", n)
            out = yield from plan(np.full(n, 1.0))
            return out.tolist()

        res = run_linear(p, prog).results
        for r in res:
            assert r == [4.0] * nb

    def test_collect_plan(self):
        p, nb = 5, 2
        n = p * nb

        def prog(env):
            plan = make_plan(env, "collect", n)
            out = yield from plan(np.full(nb, float(env.rank)))
            return float(out.sum())

        res = run_linear(p, prog).results
        assert all(v == nb * sum(range(p)) for v in res)

    @pytest.mark.parametrize("operation", OPERATIONS)
    def test_plan_matches_unplanned_time(self, operation):
        """Planning must not change the communication or the result —
        the same strategy runs either way, off-zero roots and uneven
        blocks included."""
        p, n, root = 8, 4096, 5
        sizes = [600, 0, 1000, 24, 512, 900, 60, 1000]
        kwargs = {"bcast": {"root": root}, "reduce": {"root": root},
                  "collect": {"sizes": sizes},
                  "reduce_scatter": {"sizes": sizes}}.get(operation, {})

        def data(env):
            if operation == "collect":
                return np.full(sizes[env.rank], float(env.rank))
            if operation == "bcast" and env.rank != root:
                return None
            return np.arange(n, dtype=np.float64) * (env.rank + 1)

        def planned(env):
            plan = make_plan(env, operation, n, **kwargs)
            return (yield from plan(data(env)))

        def direct(env):
            extra = {"total": n} if operation == "bcast" else {}
            return (yield from getattr(api, operation)(env, data(env),
                                                       **kwargs, **extra))

        runs = [run_linear(p, prog, params=PARAGON)
                for prog in (planned, direct)]
        assert len({(r.time, r.messages, r.events) for r in runs}) == 1
        a, b = ([None if x is None else x.tolist() for x in r.results]
                for r in runs)
        assert a == b

    def test_plan_on_subgroup(self):
        group = [1, 3, 5, 7]

        def prog(env):
            if env.rank not in group:
                yield env.delay(0)
                return None
            plan = make_plan(env, "allreduce", 8, group=group)
            out = yield from plan(np.full(8, float(env.rank)))
            return float(out[0])

        res = run_linear(8, prog).results
        assert res[1] == 1 + 3 + 5 + 7
        assert res[0] is None
