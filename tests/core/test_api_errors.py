"""Error paths and misuse diagnostics across the public API.

A credible library fails loudly and early on SPMD mistakes — these
tests pin the error messages users will actually hit.
"""

import numpy as np
import pytest

from repro.core import Strategy, api
from repro.core.api import resolve_strategy
from repro.core.context import CollContext
from repro.sim import LinearArray, Machine, UNIT

from .conftest import run_linear


class TestResolveStrategy:
    def test_named_algorithms(self):
        machine = Machine(LinearArray(8), UNIT)

        def prog(env):
            ctx = CollContext(env)
            yield env.delay(0)
            return (resolve_strategy(ctx, "bcast", "short", 10, 8).ops,
                    resolve_strategy(ctx, "bcast", "long", 10, 8).ops,
                    resolve_strategy(ctx, "collect", "long", 10, 8).ops,
                    resolve_strategy(ctx, "reduce_scatter", "long",
                                     10, 8).ops)

        run = machine.run(prog)
        assert run.results[0] == ("M", "SC", "C", "S")

    def test_string_strategy_parsed(self):
        def prog(env):
            ctx = CollContext(env)
            yield env.delay(0)
            return resolve_strategy(ctx, "bcast", "2x3:SMC", 10, 8)

        run = run_linear(6, prog)
        assert run.results[0] == Strategy((2, 3), "SMC")

    def test_garbage_algorithm_raises(self):
        def prog(env):
            ctx = CollContext(env)
            yield env.delay(0)
            resolve_strategy(ctx, "bcast", "fastest-please", 10, 8)

        with pytest.raises(ValueError):
            run_linear(4, prog)


class TestApiMisuse:
    def test_bcast_wrong_strategy_size(self):
        def prog(env):
            buf = np.zeros(8) if env.rank == 0 else None
            return (yield from api.bcast(env, buf, total=8,
                                         algorithm="2x2:SMC"))

        with pytest.raises(ValueError, match="covers 4"):
            run_linear(8, prog)

    def test_collect_wrong_family_strategy(self):
        def prog(env):
            return (yield from api.collect(env, np.zeros(2),
                                           algorithm="4x2:SSCC"))

        with pytest.raises(ValueError,
                           match="collect strategy has ops CC or MC"):
            run_linear(8, prog)

    def test_collect_sizes_length_mismatch(self):
        def prog(env):
            return (yield from api.collect(env, np.zeros(2),
                                           sizes=[2, 2, 2]))

        with pytest.raises(ValueError):
            run_linear(4, prog)

    def test_reduce_invalid_op(self):
        def prog(env):
            return (yield from api.reduce(env, np.zeros(4), "median", 0))

        with pytest.raises(KeyError, match="unknown combine op"):
            run_linear(4, prog)

    def test_non_member_calling_group_collective(self):
        def prog(env):
            # every rank calls, but rank 3 is not in the group
            return (yield from api.allreduce(env, np.zeros(2),
                                             group=[0, 1, 2]))

        with pytest.raises(RuntimeError, match="not a member"):
            run_linear(4, prog)

    def test_scatter_root_out_of_range(self):
        def prog(env):
            buf = np.zeros(8) if env.rank == 0 else None
            return (yield from api.scatter(env, buf, root=9, total=8))

        with pytest.raises(ValueError, match="root 9"):
            run_linear(4, prog)

    def test_forgotten_yield_from_is_diagnosed(self):
        """Yielding a generator (instead of `yield from`-ing it) gets a
        helpful TypeError pointing at the mistake."""
        def prog(env):
            yield api.allreduce(env, np.zeros(2))  # missing `from`

        with pytest.raises(TypeError, match="yield from"):
            run_linear(2, prog)


class TestMixedLengthMisuse:
    def test_allreduce_mismatched_lengths_deadlock_or_error(self):
        """Ranks disagreeing on the vector length is an SPMD bug; the
        machine must not silently compute garbage."""
        from repro.sim import DeadlockError

        def prog(env):
            n = 8 if env.rank == 0 else 12
            return (yield from api.allreduce(env, np.zeros(n),
                                             algorithm="long"))

        with pytest.raises((DeadlockError, ValueError, AssertionError)):
            run_linear(4, prog)
