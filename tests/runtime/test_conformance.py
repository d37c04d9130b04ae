"""Cross-backend conformance: real processes vs the simulator oracle.

Two layers of evidence that the process backend computes exactly what
the simulator computes:

* a **matrix** of all seven collectives over p in {2, 3, 4, 8} linear
  arrays (power-of-two and not), each run on both backends with the
  same machine description and compared **byte-identically** (same
  params + topology => ``algorithm="auto"`` resolves the same strategy
  on both backends => same combine order => bit-equal floats), plus
  checked against the sequential oracles of
  :mod:`repro.core.validation`;
* a **differential replay** of the frozen SPMD golden corpus
  (tests/sim/spmd_corpus.py): per-rank results of the real run must
  hash to the committed ``result_sha256`` goldens.  Entries that
  return ``env.now`` (barrier, point-to-point churn) are excluded —
  wall clocks are backend-dependent by design; payload entries are
  all covered.  A fast slice runs in tier-1; the full corpus runs
  when ``REPRO_RUNTIME_FULL`` is set (the runtime-smoke CI job).

Group collectives ride along: ``split`` / ``row_comm`` / ``col_comm``
derive the same context ids on both backends, so concurrent
subcommunicator traffic must also be byte-identical.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core import api
from repro.core import validation as V
from repro.core.communicator import Communicator
from repro.core.partition import partition_sizes
from repro.runtime import ProcessMachine
from repro.sim import LinearArray, Machine, Mesh2D, UNIT, preset
from tests.sim.spmd_corpus import (CORPUS, GOLDEN_PATH, _topo,
                                   canonical_results)

FULL = bool(os.environ.get("REPRO_RUNTIME_FULL"))

_N = 72  # uneven over p=3 on purpose

OPS = ["bcast", "reduce", "allreduce", "collect", "reduce_scatter",
       "scatter", "gather"]
P_VALUES = [2, 3, 4, 8]


def _vec(j, n):
    return np.arange(n, dtype=np.float64) * (j % 5 + 1) + 3 * j


def _op_prog(op, p):
    sizes = partition_sizes(_N, p)

    def prog(env):
        me = env.rank
        if op == "bcast":
            buf = _vec(0, _N) if me == 0 else None
            out = yield from api.bcast(env, buf, root=0, total=_N)
        elif op == "reduce":
            out = yield from api.reduce(env, _vec(me, _N), op="sum",
                                        root=0)
        elif op == "allreduce":
            out = yield from api.allreduce(env, _vec(me, _N), op="sum")
        elif op == "collect":
            out = yield from api.collect(env, _vec(me, sizes[me]),
                                         sizes=sizes)
        elif op == "reduce_scatter":
            out = yield from api.reduce_scatter(env, _vec(me, _N),
                                                op="sum", sizes=sizes)
        elif op == "scatter":
            buf = _vec(0, _N) if me == 0 else None
            out = yield from api.scatter(env, buf, root=0, total=_N,
                                         sizes=sizes)
        elif op == "gather":
            out = yield from api.gather(env, _vec(me, sizes[me]),
                                        root=0, sizes=sizes)
        else:  # pragma: no cover
            raise AssertionError(op)
        return out

    return prog, sizes


def _reference(op, p, sizes):
    if op == "bcast":
        return V.ref_bcast(_vec(0, _N), p)
    if op == "reduce":
        return V.ref_reduce([_vec(j, _N) for j in range(p)], "sum", root=0)
    if op == "allreduce":
        return V.ref_allreduce([_vec(j, _N) for j in range(p)], "sum")
    if op == "collect":
        return V.ref_collect([_vec(j, sizes[j]) for j in range(p)])
    if op == "reduce_scatter":
        return V.ref_reduce_scatter([_vec(j, _N) for j in range(p)],
                                    "sum", sizes=sizes)
    if op == "scatter":
        return V.ref_scatter(_vec(0, _N), p, sizes=sizes)
    if op == "gather":
        return V.ref_gather([_vec(j, sizes[j]) for j in range(p)], root=0)
    raise AssertionError(op)  # pragma: no cover


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("op", OPS)
def test_matrix_byte_identical_to_simulator(op, p):
    prog, sizes = _op_prog(op, p)
    topo = LinearArray(p)
    sim = Machine(topo, UNIT).run(prog)
    real = ProcessMachine(p, params=UNIT, topology=topo,
                          timeout=30).run(prog)

    refs = _reference(op, p, sizes)
    for j in range(p):
        got_sim, got_real, want = sim.results[j], real.results[j], refs[j]
        if want is None:
            assert got_sim is None and got_real is None, (op, p, j)
            continue
        # both backends vs the sequential oracle (combine order may
        # legitimately differ from the oracle's, hence allclose) ...
        assert np.allclose(got_real, want, rtol=1e-12, atol=0.0), (op, p, j)
        # ... and *byte-identical* to each other: same strategy, same
        # combine order, bit-equal floats
        assert got_sim.dtype == got_real.dtype, (op, p, j)
        assert np.array_equal(got_sim, got_real), (op, p, j)


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("op", OPS)
def test_traced_matrix_is_instrumentation_neutral(op, p):
    # wall-clock tracing (clock-sync exchange + per-message records)
    # must not perturb results: the traced real run stays byte-identical
    # to the simulator oracle
    prog, _ = _op_prog(op, p)
    topo = LinearArray(p)
    sim = Machine(topo, UNIT).run(prog)
    real = ProcessMachine(p, params=UNIT, topology=topo,
                          timeout=30).run(prog, trace=True)
    for j in range(p):
        got_sim, got_real = sim.results[j], real.results[j]
        if got_sim is None:
            assert got_real is None, (op, p, j)
            continue
        assert got_sim.dtype == got_real.dtype, (op, p, j)
        assert np.array_equal(got_sim, got_real), (op, p, j)
    assert real.trace is not None
    assert real.trace.ranks == list(range(p))
    assert real.trace.message_count() > 0


def test_matrix_byte_identical_over_tcp():
    prog, _ = _op_prog("allreduce", 4)
    topo = LinearArray(4)
    sim = Machine(topo, UNIT).run(prog)
    real = ProcessMachine(4, params=UNIT, topology=topo, transport="tcp",
                          timeout=30).run(prog)
    for j in range(4):
        assert np.array_equal(sim.results[j], real.results[j]), j


def test_barrier_orders_ranks():
    # each rank arrives staggered by its own clock; after the barrier
    # every rank's clock must have passed the slowest arrival (minus
    # slack for differing process start instants)
    def prog(env):
        yield env.delay(0.2 * env.rank)
        yield from api.barrier(env)
        return env.now

    res = ProcessMachine(4, timeout=30).run(prog)
    slowest_arrival = 0.2 * 3
    for r in range(4):
        assert res.results[r] >= slowest_arrival - 0.15, (r, res.results)


def test_alive_is_the_same_method_on_both_backends():
    # alive(node) is part of the shared env surface; the process backend
    # has no failure detector, so every peer reports alive there
    def prog(env):
        yield env.delay(0.0)
        return [env.alive(peer) for peer in range(env.nranks)]

    sim = Machine(LinearArray(2), preset("paragon")).run(prog)
    real = ProcessMachine(2, timeout=30).run(prog)
    assert sim.results == real.results == [[True, True], [True, True]]


def test_split_row_col_byte_identical():
    topo = Mesh2D(2, 3)

    def prog(env):
        comm = Communicator.world(env)
        sub = yield from comm.split(color=comm.rank % 2, key=-comm.rank)
        a = yield from sub.allreduce(_vec(env.rank, 48))
        row = comm.row_comm()
        b = yield from row.allgather(_vec(env.rank, 5))
        col = comm.col_comm()
        buf = _vec(2, 24) if col.rank == 0 else None
        c = yield from col.bcast(buf, root=0, total=24)
        yield from comm.barrier()
        return a, b, c, sub.context_id, row.context_id, col.context_id

    sim = Machine(topo, UNIT).run(prog)
    real = ProcessMachine(6, params=UNIT, topology=topo,
                          timeout=30).run(prog)
    for j in range(6):
        sa, sb, sc, *sids = sim.results[j]
        ra, rb, rc, *rids = real.results[j]
        assert sids == rids, f"context ids diverged on rank {j}"
        for s, r in ((sa, ra), (sb, rb), (sc, rc)):
            assert np.array_equal(s, r), j


# ----------------------------------------------------------------------
# differential corpus replay
# ----------------------------------------------------------------------

with open(GOLDEN_PATH) as _f:
    GOLDENS = json.load(_f)

#: corpus entries whose return values are payloads (byte-comparable);
#: barrier/ptp entries return env.now, which is backend-dependent.
PAYLOAD_ENTRIES = [n for n in CORPUS
                   if "barrier" not in n and "ptp" not in n]

#: diverse tier-1 slice: every op, both regimes, auto dispatch, a
#: non-power-of-two torus, a 24-node mesh, group-shaped entries
FAST_SLICE = [
    "bcast-short-p12",
    "reduce-long-p12",
    "allreduce-auto-p12",
    "collect-auto-p12",
    "reduce_scatter-auto-p12",
    "scatter-p12",
    "gather-p12",
    "collect-long-torus3x4",
    "allreduce-auto-mesh4x6",
    "bcast-auto-subset",
]

_SLOW = [n for n in PAYLOAD_ENTRIES if n not in FAST_SLICE]
_CASES = FAST_SLICE + [
    pytest.param(n, marks=pytest.mark.skipif(
        not FULL, reason="full corpus replay: set REPRO_RUNTIME_FULL=1"))
    for n in _SLOW
]


def test_fast_slice_is_current():
    missing = [n for n in FAST_SLICE if n not in PAYLOAD_ENTRIES]
    assert not missing, f"FAST_SLICE names unknown entries: {missing}"


@pytest.mark.parametrize("name", _CASES)
def test_corpus_replay_matches_golden(name):
    topo_spec, params_name, prog = CORPUS[name]
    topo = _topo(*topo_spec)
    machine = ProcessMachine(topo.nnodes, params=preset(params_name),
                             topology=topo, timeout=120)
    res = machine.run(prog)
    digest = hashlib.sha256(
        canonical_results(res).encode()).hexdigest()
    assert digest == GOLDENS[name]["result_sha256"], (
        f"real backend diverged from simulator golden on {name}")
