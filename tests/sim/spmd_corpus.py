"""Frozen corpus of SPMD programs for the golden-equivalence gate.

The simulator's performance work (route caching, resource interning,
incremental max-min bookkeeping, event-churn reduction) must never change
a *simulated* result: elapsed time, message counts, payload semantics and
the full per-message trace all have to stay bit-identical.  This module
defines a frozen set of representative programs — one per collective
x algorithm family, plus group-shaped and adversarial point-to-point
patterns — together with a canonical serialization of a run.

``tests/sim/goldens/corpus_v1.json`` stores, for every corpus entry:

* ``time``      — ``repr()`` of the elapsed simulated time (bit-exact),
* ``messages``  — total point-to-point message count,
* ``trace_sha256`` — hash of the canonical trace serialization,
* ``result_sha256`` — hash of the canonical per-rank results.

Regenerate (only when an *intentional* model change is made, never for a
performance refactor) with::

    PYTHONPATH=src python -m tests.sim.spmd_corpus --write

The golden test (:mod:`tests.sim.test_golden_equivalence`) replays the
corpus and compares against the stored values.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core import api
from repro.core.faults import FaultSchedule
from repro.core.partition import partition_sizes
from repro.sim import (Hypercube, LinearArray, Machine, Mesh2D, Ring,
                      Torus2D, preset)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "goldens", "corpus_v1.json")

# ----------------------------------------------------------------------
# deterministic payloads
# ----------------------------------------------------------------------


def _vec(rank: int, n: int) -> np.ndarray:
    """Deterministic, rank-dependent test vector (no RNG state)."""
    base = np.arange(n, dtype=np.float64)
    return base * (rank % 7 + 1) + rank


# ----------------------------------------------------------------------
# program builders
# ----------------------------------------------------------------------


def _bcast(alg: str, n: int, group=None):
    def prog(env):
        g = list(group) if group is not None else list(range(env.nranks))
        if env.rank not in g:
            return None
        root_node = g[0]
        buf = _vec(1, n) if env.rank == root_node else None
        out = yield from api.bcast(env, buf, root=0, group=group,
                                   total=n, algorithm=alg)
        return out
    return prog


def _reduce(alg: str, n: int):
    def prog(env):
        out = yield from api.reduce(env, _vec(env.rank, n), op="sum",
                                    root=0, algorithm=alg)
        return out
    return prog


def _allreduce(alg: str, n: int):
    def prog(env):
        out = yield from api.allreduce(env, _vec(env.rank, n), op="sum",
                                       algorithm=alg)
        return out
    return prog


def _collect(alg: str, n: int, group=None):
    def prog(env):
        g = list(group) if group is not None else list(range(env.nranks))
        if env.rank not in g:
            return None
        p = len(g)
        sizes = partition_sizes(n, p)
        me = g.index(env.rank)
        blk = _vec(env.rank, sizes[me])
        out = yield from api.collect(env, blk, sizes=sizes, group=group,
                                     algorithm=alg)
        return out
    return prog


def _reduce_scatter(alg: str, n: int):
    def prog(env):
        out = yield from api.reduce_scatter(env, _vec(env.rank, n),
                                            op="sum", algorithm=alg)
        return out
    return prog


def _scatter(n: int):
    def prog(env):
        buf = _vec(3, n) if env.rank == 0 else None
        out = yield from api.scatter(env, buf, root=0, total=n)
        return out
    return prog


def _gather(n: int):
    def prog(env):
        sizes = partition_sizes(n, env.nranks)
        blk = _vec(env.rank, sizes[env.rank])
        out = yield from api.gather(env, blk, root=0, sizes=sizes)
        return out
    return prog


def _barrier():
    def prog(env):
        yield from api.barrier(env)
        return env.now
    return prog


def _ptp_pattern(seed: int, nflows: int, scale: int):
    """Adversarial concurrent point-to-point traffic: many overlapping
    flows of mixed sizes, so rates change repeatedly mid-flight."""
    def prog(env):
        rng = random.Random(seed)
        sends: List[Tuple[int, int, int]] = []
        pairs = set()
        for _ in range(nflows):
            s = rng.randrange(env.nranks)
            d = rng.randrange(env.nranks)
            if s == d or (s, d) in pairs:
                continue
            pairs.add((s, d))
            sends.append((s, d, rng.choice([8, 64, 555, 4096]) * scale))
        reqs = []
        for s, d, nb in sends:
            if env.rank == s:
                reqs.append(env.isend(d, np.zeros(nb, dtype=np.uint8)))
        for s, d, nb in sends:
            if env.rank == d:
                reqs.append(env.irecv(s))
        if reqs:
            got = yield env.waitall(*reqs)
            del got
        return env.now
    return prog


# ----------------------------------------------------------------------
# the frozen corpus
# ----------------------------------------------------------------------

def _topo(kind: str, *dims):
    return {"linear": LinearArray, "ring": Ring, "mesh": Mesh2D,
            "torus": Torus2D, "cube": Hypercube}[kind](*dims)


#: name -> (topology spec, params preset, program factory)
#: Frozen: do not reorder or change entries; add new ones at the end
#: with a version suffix if coverage must grow.
CORPUS: Dict[str, Tuple[tuple, str, Callable]] = {}


def _add(name, topo, params, prog):
    assert name not in CORPUS
    CORPUS[name] = (topo, params, prog)


# one per collective x algorithm family on the paper's linear array
for _alg in ("short", "long", "auto"):
    _add(f"bcast-{_alg}-p12", ("linear", 12), "unit", _bcast(_alg, 960))
    _add(f"reduce-{_alg}-p12", ("linear", 12), "unit", _reduce(_alg, 960))
    _add(f"allreduce-{_alg}-p12", ("linear", 12), "unit",
         _allreduce(_alg, 960))
    _add(f"collect-{_alg}-p12", ("linear", 12), "unit", _collect(_alg, 960))
    _add(f"reduce_scatter-{_alg}-p12", ("linear", 12), "unit",
         _reduce_scatter(_alg, 960))

_add("scatter-p12", ("linear", 12), "unit", _scatter(960))
_add("gather-p12", ("linear", 12), "unit", _gather(960))
_add("barrier-p12", ("linear", 12), "unit", _barrier())

# mesh / torus / hypercube machines under the Paragon model
_add("bcast-auto-mesh4x6", ("mesh", 4, 6), "paragon", _bcast("auto", 3072))
_add("collect-auto-mesh4x6", ("mesh", 4, 6), "paragon",
     _collect("auto", 3072))
_add("reduce_scatter-auto-mesh4x6", ("mesh", 4, 6), "paragon",
     _reduce_scatter("auto", 3072))
_add("allreduce-auto-mesh4x6", ("mesh", 4, 6), "paragon",
     _allreduce("auto", 3072))
_add("collect-long-torus3x4", ("torus", 3, 4), "unit", _collect("long", 600))
_add("allreduce-auto-cube4", ("cube", 4), "paragon", _allreduce("auto", 2048))

# group-shaped collectives (section 9): strided line, random subset
_add("collect-long-strided", ("mesh", 4, 6), "unit",
     _collect("long", 600, group=list(range(0, 24, 3))))
_add("bcast-auto-subset", ("mesh", 4, 6), "unit",
     _bcast("auto", 512, group=[17, 3, 11, 5, 22, 8, 0]))

# adversarial point-to-point traffic: heavy rate churn on shared links
_add("ptp-churn-ring16", ("ring", 16), "unit", _ptp_pattern(11, 40, 1))
_add("ptp-churn-mesh5x5", ("mesh", 5, 5), "paragon",
     _ptp_pattern(23, 60, 16))
_add("ptp-churn-cap2", ("linear", 10), "unit", _ptp_pattern(7, 30, 4))


# ----------------------------------------------------------------------
# canonical serialization
# ----------------------------------------------------------------------


def trace_stream(run) -> str:
    """Bit-exact, order-preserving serialization of the message trace.

    Sensitive to the engine's event ordering for same-time events; used
    by the determinism test (two runs must produce identical streams).
    """
    lines = []
    for m in run.trace.messages:
        lines.append(",".join((
            str(m.src), str(m.dst), str(m.tag), repr(m.nbytes),
            repr(m.t_send_post), repr(m.t_recv_post),
            repr(m.t_match), repr(m.t_complete))))
    for t, rank, label in run.trace.marks:
        lines.append(f"mark,{repr(t)},{rank},{label}")
    return "\n".join(lines)


def canonical_trace(run) -> str:
    """Canonically *sorted* trace serialization for the golden gate.

    Every timestamp must match bit-for-bit, but records carrying
    identical times may appear in any order: the pre-optimization engine
    recorded same-time messages in id()-dependent (hence run-dependent)
    order, so the cross-implementation golden cannot pin the stream
    order itself.  :func:`trace_stream` pins it for single-build
    determinism instead.
    """
    return "\n".join(sorted(trace_stream(run).splitlines()))


def canonical_results(run) -> str:
    """Bit-exact serialization of per-rank return values."""
    parts = []
    for i, r in enumerate(run.results):
        if r is None:
            parts.append(f"{i}:None")
        elif isinstance(r, np.ndarray):
            parts.append(f"{i}:{r.dtype}:{r.shape}:"
                         + hashlib.sha256(np.ascontiguousarray(r).tobytes())
                         .hexdigest())
        else:
            parts.append(f"{i}:{r!r}")
    return "\n".join(parts)


def run_entry(name: str, metrics: bool = False, audit: bool = False,
              faults=None):
    """Execute one corpus program with tracing on; returns the RunResult.

    ``metrics`` additionally turns on channel-metrics collection — the
    fingerprints must not change (instrumentation neutrality, see
    docs/observability.md and the CI job of the same name).  ``audit``
    turns metrics on AND forces the full model-audit readback
    (``run.audit`` + ``run.channel_metrics``) before fingerprinting:
    prediction capture and the audit layer must also be invisible to
    simulated results.  ``faults`` threads a
    :class:`~repro.core.faults.FaultSchedule` through the run — with an
    *empty* schedule the fingerprints must not change either (the fault
    layer is strictly passive, see docs/robustness.md), and with
    delay-only schedules (jitter/slowdown) ``result_sha256`` must not
    change (the property test in tests/sim/test_fault_properties.py).
    """
    topo_spec, params_name, prog = CORPUS[name]
    machine = Machine(_topo(*topo_spec), preset(params_name), trace=True)
    run = machine.run(prog, metrics=metrics or audit, faults=faults)
    if audit:
        assert run.audit is not None
        assert run.channel_metrics is not None
    return run


def fingerprint(run) -> Dict[str, object]:
    trace = canonical_trace(run)
    results = canonical_results(run)
    return {
        "time": repr(run.time),
        "messages": run.messages,
        "trace_sha256": hashlib.sha256(trace.encode()).hexdigest(),
        "result_sha256": hashlib.sha256(results.encode()).hexdigest(),
    }


def generate_goldens(metrics: bool = False, audit: bool = False,
                     faults=None) -> Dict[str, Dict[str, object]]:
    return {name: fingerprint(run_entry(name, metrics=metrics, audit=audit,
                                        faults=faults))
            for name in CORPUS}


def main(argv=None) -> int:
    import argparse
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--write", action="store_true",
                    help="(re)generate the golden file")
    ap.add_argument("--check", action="store_true",
                    help="compare a fresh run against the golden file")
    ap.add_argument("--metrics", action="store_true",
                    help="run with channel metrics enabled (the goldens "
                         "must still match: instrumentation neutrality)")
    ap.add_argument("--audit", action="store_true",
                    help="additionally force the model-audit readback "
                         "(run.audit) before fingerprinting; the goldens "
                         "must still match")
    ap.add_argument("--empty-faults", action="store_true",
                    help="thread an empty FaultSchedule through every run; "
                         "the goldens must still match (the fault layer is "
                         "strictly passive, docs/robustness.md)")
    args = ap.parse_args(argv)
    faults = None
    if args.empty_faults:
        faults = FaultSchedule()
    goldens = generate_goldens(metrics=args.metrics, audit=args.audit,
                               faults=faults)
    if args.write:
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "w") as f:
            json.dump(goldens, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")
        return 0
    with open(GOLDEN_PATH) as f:
        want = json.load(f)
    bad = [n for n in want
           if goldens.get(n) != want[n]] + [n for n in goldens
                                            if n not in want]
    for n in bad:
        print(f"MISMATCH {n}:\n  want {want.get(n)}\n  got  {goldens.get(n)}")
    print(f"{len(goldens) - len(bad)}/{len(goldens)} entries match")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
