"""The benchmark workloads.

Each workload is one closed-loop client: it issues an op, waits for it,
checks the output against an oracle, and only then issues the next.
Every input derives from the run's ``--seed``; the library receives
only the generated arrays and plans.

A workload exposes:

``setup()``
    machine construction plus one checked warm-up op (timed as set-up);
``round(ref)``
    one block of ops, returned as ``(ops, busy_s)``: ``ops`` holds one
    ``(seconds, ok, cell)`` triple per op (``cell`` names the simulator
    cell, None elsewhere) and ``busy_s`` is the time the client spent
    waiting on the library over the block.  Between ops the workload
    lets ``ref``, the host-speed reference of :mod:`hostspeed`, take its
    samples, outside every timed region.  A simulator round runs every cell
    once, a service round is one session and a bulk round is one
    ``ProcessMachine.run`` of ``BLOCK_S`` seconds;
``counts``
    library-reported totals of the last round, for the per-layer
    figures;
``simulated_us_per_op()``
    the op's time on the modelled machine, in simulated microseconds.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
from time import perf_counter

import numpy as np

from repro.core import api
from repro.core.partition import partition_sizes
from repro.core.selection import Selector
from repro.core.validation import (ref_allreduce, ref_bcast, ref_collect,
                                   ref_reduce, ref_reduce_scatter)
from repro.runtime.launch import ProcessMachine
from repro.service import ServiceCore, execute, mixed_spec, traffic
from repro.sim import PARAGON, LinearArray, Machine, Mesh2D

OPS = ("bcast", "allreduce", "collect", "reduce_scatter")
#: payload values are small integers, so every float sum is exact
VALUE_RANGE = (-32, 33)

#: per simulator workload and cell, the (simulated s, messages, events,
#: flows, recomputations) every run must reproduce; they depend on the
#: topology, op and size only, never on the seed
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "signatures.json")) as _fh:
    SIGNATURES = json.load(_fh)


def _collect_garbage() -> None:
    """Free the finished op's reference cycles (rank generators and the
    engine they point to) as part of the op: the user pays for them,
    and collecting before the next op starts keeps two ops' buffers from
    being live at once, so peak memory does not depend on when the
    collector happened to run."""
    gc.collect()


def _ints(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(*VALUE_RANGE, size=shape).astype(np.float64)


# ----------------------------------------------------------------------
# simulated collectives
# ----------------------------------------------------------------------

def _sim_program(env, op, n, data):
    r = env.rank
    if op == "bcast":
        return (yield from api.bcast(env, data if r == 0 else None,
                                     root=0, total=n))
    if op == "allreduce":
        return (yield from api.allreduce(env, data[r]))
    if op == "collect":
        return (yield from api.collect(env, data[r],
                                       sizes=[len(b) for b in data]))
    return (yield from api.reduce_scatter(env, data[r]))


class _Cell:
    """One (op, size) pair: seeded inputs and the oracle's answers."""

    def __init__(self, op: str, nbytes: int, p: int, seed: int, index: int):
        self.op = op
        self.n = n = nbytes // 8
        self.name = f"{op}/{nbytes}B"
        #: reduce_scatter answers differ per rank; the others are one
        #: vector every rank must hold
        self.per_rank = op == "reduce_scatter"
        rng = np.random.default_rng([seed, index])
        if op == "bcast":
            self.data = _ints(rng, n)
            self.expected = ref_bcast(self.data, 1)
        elif op == "collect":
            full = _ints(rng, n)
            offs = np.cumsum([0] + partition_sizes(n, p))
            self.data = [full[offs[j]:offs[j + 1]] for j in range(p)]
            self.expected = ref_collect(self.data)[:1]
        else:
            self.data = _ints(rng, (p, n))
            self.expected = (ref_allreduce(self.data)[:1]
                             if op == "allreduce"
                             else ref_reduce_scatter(self.data))

    def check(self, results) -> bool:
        """Every rank's result equals the oracle's."""
        exp = self.expected
        return all(np.array_equal(res, exp[j] if self.per_rank else exp[0])
                   for j, res in enumerate(results))


class SimWorkload:
    """Auto-dispatched collectives on a simulated Paragon-class machine."""

    ranks = 0

    def __init__(self, name: str, topology, sizes, seed: int):
        self.expected = SIGNATURES.get(name, {})
        self.topology = topology
        p = topology.nnodes
        self.cells = [_Cell(op, nbytes, p, seed, i)
                      for i, (op, nbytes) in enumerate(
                          (op, b) for b in sizes for op in OPS)]
        self.order = random.Random(seed)
        #: per cell, as observed: (simulated s, messages, events, flows,
        #: recomputations)
        self.signatures = {}
        self.counts = {}
        self.machine = None

    def setup(self) -> bool:
        self.machine = Machine(self.topology, PARAGON)
        return self._op(self.cells[1])[1]          # allreduce, small

    def _op(self, cell: _Cell):
        t0 = perf_counter()
        run = self.machine.run(_sim_program, cell.op, cell.n, cell.data)
        results = run.results
        sig = [run.time, run.messages, run.events, run.flows,
               run.rate_recomputations]
        del run
        _collect_garbage()
        dt = perf_counter() - t0
        self.signatures[cell.name] = sig
        for key, v in zip(("messages", "events", "flows", "recomputations"),
                          sig[1:]):
            self.counts[key] = self.counts.get(key, 0) + v
        ok = sig == self.expected.get(cell.name) and cell.check(results)
        return dt, ok, cell.name

    def round(self, ref):
        self.counts = {}
        ops = []
        for cell in self.order.sample(self.cells, len(self.cells)):
            ref.pause()
            ops.append(self._op(cell))
        return ops, sum(t for t, _, _ in ops)

    def simulated_us_per_op(self) -> float:
        return 1e6 * statistics.fmean(s[0] for s in self.signatures.values())

    def header(self) -> dict:
        return {"cells": {k: list(v) for k, v in
                          sorted(self.signatures.items())}}


# ----------------------------------------------------------------------
# real processes
# ----------------------------------------------------------------------

def _process_machine() -> ProcessMachine:
    return ProcessMachine(2, params=PARAGON, topology=LinearArray(2),
                          use_profile=False)


def _bulk_input(seed: int, variant: int, rank: int, n: int) -> np.ndarray:
    return _ints(np.random.default_rng([seed, variant, rank]), n)


def _bulk_program(env, seed, n, variants, budget_s, max_ops):
    """Time back-to-back allreduces until the budget or op cap is hit.

    Before each op the ranks agree, with an untimed 8-byte allreduce,
    whether either one has run out of time; that also lines them up so
    each timed call starts together.  ``loop_s`` is the whole loop,
    agreement and checks included.
    """
    ranks = range(env.nranks)
    inputs = [_bulk_input(seed, v, env.rank, n) for v in range(variants)]
    expected = [ref_allreduce([_bulk_input(seed, v, r, n) for r in ranks])[0]
                for v in range(variants)]
    times, bad = [], []
    start = perf_counter()
    while True:
        done = (len(times) >= max_ops
                or perf_counter() - start >= budget_s)
        flag = yield from api.allreduce(env, np.array([float(done)]))
        if flag[0] > 0:
            break
        i = len(times)
        t0 = perf_counter()
        out = yield from api.allreduce(env, inputs[i % variants])
        times.append(perf_counter() - t0)
        if not np.array_equal(out, expected[i % variants]):
            bad.append(i)
    return {"times": times, "bad": bad, "loop_s": perf_counter() - start}


def _hermetic(machine: ProcessMachine) -> bool:
    """The machine prices with the explicit constants, not a profile."""
    return machine.params is PARAGON and machine.profile is None


class BulkWorkload:
    """1 MiB allreduces, ``BLOCK_S`` seconds per ``ProcessMachine(2).run``."""

    ranks = 2
    NBYTES = 1 << 20
    VARIANTS = 4
    BLOCK_S = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        self.counts = {}
        self.machine = None

    def setup(self) -> bool:
        self.machine = _process_machine()
        ops, _ = self._run(float("inf"), 1)
        return _hermetic(self.machine) and all(ok for _, ok, _ in ops)

    def _run(self, budget_s, max_ops):
        res = self.machine.run(_bulk_program, self.seed, self.NBYTES // 8,
                               self.VARIANTS, budget_s, max_ops).results
        bad = set().union(*(r["bad"] for r in res))
        ops = [(max(ts), i not in bad, None)
               for i, ts in enumerate(zip(*(r["times"] for r in res)))]
        return ops, max(r["loop_s"] for r in res)

    def round(self, ref):
        ref.pause()
        return self._run(self.BLOCK_S, float("inf"))

    def simulated_us_per_op(self) -> float:
        # the model's price of the op on the same constants; no seed in it
        choice = Selector(PARAGON).best("allreduce", self.ranks,
                                        self.NBYTES // 8)
        return 1e6 * choice.cost

    def header(self) -> dict:
        return {"nbytes": self.NBYTES, "block_s": self.BLOCK_S}


# ----------------------------------------------------------------------
# service sessions
# ----------------------------------------------------------------------

_ORACLES = {
    "allreduce": lambda xs, req: ref_allreduce(xs, req.redop),
    "reduce": lambda xs, req: ref_reduce(xs, req.redop, req.root),
    "bcast": lambda xs, req: ref_bcast(xs[req.root], len(xs)),
    "collect": lambda xs, req: ref_collect(xs),
    "reduce_scatter": lambda xs, req: ref_reduce_scatter(xs, req.redop),
}


def check_service(plan, report) -> bool:
    """No request lost or dead-lettered, and every delivered request
    equals the oracle applied to its materialized inputs."""
    if report.dead_letters or not report.accounted() or \
            plan.submitted != (report.completed + report.rejected
                               + report.dead_letters):
        return False
    for batch in plan.batches:
        for req in batch.requests:
            if report.outcomes[req.rid].status != "ok":
                continue
            got = report.results.get(req.rid, {})
            xs = [req.payload.materialize(j) for j in range(len(req.group))]
            want = _ORACLES[req.op](xs, req)
            for j, node in enumerate(req.group):
                w, g = want[j], got.get(node)
                if w is None:
                    if g is not None:
                        return False
                elif g is None or not np.array_equal(g, w):
                    return False
    return True


class ServiceWorkload:
    """Whole service sessions: plan seeded traffic, execute it on the
    simulated 2-node machine the process backend would model."""

    ranks = 0
    TOPOLOGY = LinearArray(2)
    #: seed of the warm-up session, the same whatever ``--seed`` is, so
    #: that its modelled time is a fixed figure
    WARMUP_SEED = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.session = 0
        self.counts = {}
        self.warmup_vtime = None
        self.machine = None
        self.spec = mixed_spec()

    def setup(self) -> bool:
        self.machine = Machine(self.TOPOLOGY, PARAGON)
        return self._session(self.WARMUP_SEED)[1]

    def _session(self, seed: int):
        t0 = perf_counter()
        core = ServiceCore(self.TOPOLOGY.nnodes, params=PARAGON,
                           topology=self.TOPOLOGY)
        plan = traffic.run_workload(core, self.spec, seed=seed)
        report = execute.execute_plan(self.machine, plan)
        _collect_garbage()
        dt = perf_counter() - t0
        if self.warmup_vtime is None:
            self.warmup_vtime = plan.vtime
        self.counts = {"batches": len(plan.batches),
                       "fused": plan.fused_requests,
                       "dispatched": plan.dispatched,
                       "submitted": plan.submitted,
                       "rejected": plan.rejected}
        return dt, check_service(plan, report), None

    def round(self, ref):
        ref.pause()
        self.session += 1
        op = self._session(self.seed * 1_000_003 + self.session)
        return [op], op[0]

    def simulated_us_per_op(self) -> float:
        return 1e6 * self.warmup_vtime

    def header(self) -> dict:
        return {"requests_per_session": self.spec.total_requests}


def make(name: str, seed: int):
    if name == "sim_paragon":
        return SimWorkload(name, Mesh2D(16, 32), (8, 1024), seed)
    if name == "sim_linear":
        return SimWorkload(name, LinearArray(64), (64 << 10, 1 << 20), seed)
    if name == "sim_service":
        return ServiceWorkload(seed)
    if name == "rt_bulk":
        return BulkWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sim_paragon", "sim_linear", "sim_service", "rt_bulk")
