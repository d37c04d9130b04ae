"""Programs and validation oracles for collective cases.

The one source of "the rank program for op X and its expected result"
in the repo: :func:`repro.chaos.executor.execute_case` (the one chaos
classifier, which the autopilot, the minimizer and the fixed chaos grid
``benchmarks/chaos/`` run), both model audits (:mod:`repro.analysis.audit`
checks every measured candidate against :func:`expected_results`), the
building-block conflict verifier and drift fit
(:mod:`repro.obs.audit`), the runtime microbench
(``benchmarks/runtime/``), the figure sweeps and the ``--trace``
scenarios all run :func:`make_program`.

Input vectors are a pure function of the member's *logical* index, the
length and the dtype — values stay small (< 139) so integer dtypes
never wrap and float32 sums stay exact — so the oracle needs no clean
run: :func:`expected_results` is Table 1's sequential reference
(:mod:`repro.core.validation`) applied to those inputs.

Matching rule: pure data movement (``bcast``/``collect``/``scatter``/
``gather``) must be bit-exact no matter what the network does;
element-wise combines accumulate in strategy-dependent order, so float
results are correct within tolerance and integer results exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import api
from repro.core.partition import partition_sizes
from repro.core.validation import (ref_allreduce, ref_bcast, ref_collect,
                                   ref_gather, ref_reduce,
                                   ref_reduce_scatter, ref_scatter)
from repro.sim import Machine, preset

from .generator import ChaosCase, build_topology

#: ops whose payloads are moved, never combined — bit-exactness required
MOVEMENT_OPS = ("bcast", "collect", "scatter", "gather")


def case_vec(me: int, n: int, dtype: str) -> np.ndarray:
    """Member ``me``'s input vector: deterministic, small-valued."""
    base = (np.arange(n) % 19) * ((me % 7) + 1) + (me % 13)
    return base.astype(dtype)


def make_program(case: ChaosCase, algorithm="auto"):
    """The case's collective as an SPMD rank program (both backends).

    ``algorithm`` is ignored for ``scatter``/``gather``: the MST is
    their only algorithm (sections 4.1/4.2), so the API takes none.
    """
    op, n, dtype = case.op, case.n, case.dtype
    group = list(case.group) if case.group is not None else None

    def prog(env):
        g = group
        if g is not None and env.rank not in g:
            return None
        me = g.index(env.rank) if g is not None else env.rank
        size = len(g) if g is not None else env.nranks
        if op == "bcast":
            buf = case_vec(0, n, dtype) if me == 0 else None
            out = yield from api.bcast(env, buf, root=0, total=n, group=g,
                                       dtype=dtype, algorithm=algorithm)
        elif op == "reduce":
            out = yield from api.reduce(env, case_vec(me, n, dtype),
                                        op="sum", root=0, group=g,
                                        dtype=dtype, algorithm=algorithm)
        elif op == "allreduce":
            out = yield from api.allreduce(env, case_vec(me, n, dtype),
                                           op="sum", group=g, dtype=dtype,
                                           algorithm=algorithm)
        elif op == "collect":
            sizes = partition_sizes(n, size)
            out = yield from api.collect(env, case_vec(me, sizes[me],
                                                       dtype),
                                         sizes=sizes, group=g, dtype=dtype,
                                         algorithm=algorithm)
        elif op == "reduce_scatter":
            out = yield from api.reduce_scatter(env, case_vec(me, n, dtype),
                                                op="sum", group=g,
                                                dtype=dtype,
                                                algorithm=algorithm)
        elif op == "scatter":
            buf = case_vec(0, n, dtype) if me == 0 else None
            out = yield from api.scatter(env, buf, root=0,
                                         sizes=partition_sizes(n, size),
                                         group=g)
        elif op == "gather":
            sizes = partition_sizes(n, size)
            out = yield from api.gather(env, case_vec(me, sizes[me], dtype),
                                        root=0, sizes=sizes, group=g)
        else:  # pragma: no cover
            raise ValueError(op)
        return out
    return prog


def expected_results(case: ChaosCase) -> List[Optional[np.ndarray]]:
    """Per-physical-rank oracle (None for non-members/non-roots): the
    Table 1 reference of :mod:`repro.core.validation` over the
    :func:`case_vec` inputs."""
    op, n, dtype = case.op, case.n, case.dtype
    members = case.members()
    size = len(members)
    sizes = partition_sizes(n, size)
    if op in ("bcast", "scatter"):
        x = case_vec(0, n, dtype)
        vals = (ref_bcast(x, size) if op == "bcast"
                else ref_scatter(x, size, sizes))
    elif op in ("collect", "gather"):
        blocks = [case_vec(me, sizes[me], dtype) for me in range(size)]
        vals = (ref_collect(blocks) if op == "collect"
                else ref_gather(blocks, root=0))
    else:
        vecs = [case_vec(me, n, dtype) for me in range(size)]
        if op == "reduce":
            vals = ref_reduce(vecs, "sum", root=0)
        elif op == "allreduce":
            vals = ref_allreduce(vecs, "sum")
        elif op == "reduce_scatter":
            vals = ref_reduce_scatter(vecs, "sum", sizes)
        else:  # pragma: no cover
            raise ValueError(op)
    out: List[Optional[np.ndarray]] = [None] * case.nranks
    for me, member in enumerate(members):
        out[member] = vals[me]
    return out


def payload_matches(op: str, dtype: str, got, want) -> bool:
    """Delivered-vs-expected comparison with the op-appropriate rule."""
    if want is None or got is None:
        return (got is None) == (want is None)
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False
    if op in MOVEMENT_OPS or np.dtype(dtype).kind in "iu":
        return bool(np.array_equal(got, want))
    rtol = 1e-5 if np.dtype(dtype) == np.float32 else 1e-10
    return bool(np.allclose(got.astype(np.float64),
                            want.astype(np.float64), rtol=rtol, atol=0.0))


def mismatched_ranks(case: ChaosCase, results,
                     crashed=frozenset()) -> List[int]:
    """Physical ranks whose delivered payload violates the oracle."""
    oracle = expected_results(case)
    bad = []
    for rank in case.members():
        if rank in crashed:
            continue  # a crashed rank's result is undefined
        if not payload_matches(case.op, case.dtype, results[rank],
                               oracle[rank]):
            bad.append(rank)
    return bad


# -- clean runs (cached per configuration) ------------------------------

_CLEAN_CACHE: Dict[Tuple, Tuple[float, list]] = {}


def clean_run(case: ChaosCase) -> Tuple[float, list]:
    """Fault-free simulated ``(time, results)`` of the case's config.

    Deterministic (the simulator is), so schedule construction can
    scale event times by it without breaking replayability.  Cached per
    :meth:`ChaosCase.config_key` — the generator and the executor share
    one run per configuration.
    """
    key = case.config_key()
    if key not in _CLEAN_CACHE:
        machine = Machine(build_topology(case.topo), preset(case.params))
        run = machine.run(make_program(case))
        _CLEAN_CACHE[key] = (run.time, run.results)
    return _CLEAN_CACHE[key]
