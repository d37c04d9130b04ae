"""Section 7.1, reference [3]: alternating directions within the mesh.

Compares the unidirectional bucket collect/reduce-scatter against the
bidirectional variants across message lengths on a 64-node ring.  Under
the port-limited machine model the win is in the startup term — the
round count halves — so the gap is largest for short blocks and fades
as beta dominates."""

import os

import numpy as np

from repro.analysis import format_table, human_bytes, write_csv
from repro.core.bidirectional import (bidirectional_collect,
                                      bidirectional_reduce_scatter)
from repro.core.context import CollContext
from repro.core.primitives_long import bucket_collect, bucket_reduce_scatter
from repro.sim import Machine, PARAGON, Ring

P = 64
MACHINE = Machine(Ring(P), PARAGON)
BLOCK_BYTES = [8, 256, 4096, 65536]


def uni_collect(env, nb):
    ctx = CollContext(env)
    out = yield from bucket_collect(ctx, np.zeros(nb))
    return len(out) == nb * P


def bi_collect(env, nb):
    ctx = CollContext(env)
    out = yield from bidirectional_collect(ctx, np.zeros(nb))
    return len(out) == nb * P


def uni_rs(env, nb):
    ctx = CollContext(env)
    out = yield from bucket_reduce_scatter(ctx, np.zeros(nb * P), "sum")
    return len(out) == nb


def bi_rs(env, nb):
    ctx = CollContext(env)
    out = yield from bidirectional_reduce_scatter(ctx, np.zeros(nb * P),
                                                  "sum")
    return len(out) == nb


_CACHE = []


def run_sweep():
    if _CACHE:
        return _CACHE[0]
    rows = []
    for nbytes in BLOCK_BYTES:
        nb = max(1, nbytes // 8)
        for opname, uni, bi in (("collect", uni_collect, bi_collect),
                                ("reduce-scatter", uni_rs, bi_rs)):
            r_uni = MACHINE.run(uni, nb)
            r_bi = MACHINE.run(bi, nb)
            assert all(r_uni.results) and all(r_bi.results)
            rows.append([opname, nbytes, r_uni.time, r_bi.time,
                         r_uni.time / r_bi.time])
    _CACHE.append(rows)
    return rows


def test_alternating_directions_halve_latency(once, results_dir, report):
    rows = once(run_sweep)
    report("\n" + format_table(
        ["operation", "block", "unidirectional (s)", "bidirectional (s)",
         "speedup"],
        [[op, human_bytes(nb), f"{a:.6f}", f"{b:.6f}", f"{r:.2f}"]
         for op, nb, a, b, r in rows],
        title="section 7.1 [3]: alternating-direction buckets on a "
              "64-node ring"))
    write_csv(os.path.join(results_dir, "alternating_directions.csv"),
              ["operation", "block_bytes", "uni_s", "bi_s", "speedup"],
              rows)

    by = {(op, nb): r for op, nb, _, _, r in rows}
    # short blocks: the startup term dominates and the round count
    # halves -> close to a 2x win
    assert by[("collect", 8)] > 1.6
    assert by[("reduce-scatter", 8)] > 1.5
    # long blocks: the port-limited beta term dominates and the win
    # fades toward (but not below) 1
    assert 0.95 < by[("collect", 65536)] < 1.5

    # the win decays monotonically with block size for the collect
    speedups = [r for op, nb, _, _, r in rows if op == "collect"]
    assert all(b <= a + 0.05 for a, b in zip(speedups, speedups[1:]))


def test_bidirectional_uses_both_channel_sets(once, report):
    """Direct evidence: with tracing on, the bidirectional collect must
    send comparable byte volumes clockwise and counter-clockwise, where
    the unidirectional version sends everything one way."""
    machine = Machine(Ring(16), PARAGON, trace=True)

    def prog(env):
        ctx = CollContext(env)
        out = yield from bidirectional_collect(ctx, np.zeros(64))
        return len(out) == 16 * 64

    run = once(machine.run, prog)
    assert all(run.results)
    cw = sum(r.nbytes for r in run.trace.completed()
             if (r.src + 1) % 16 == r.dst)
    ccw = sum(r.nbytes for r in run.trace.completed()
              if (r.dst + 1) % 16 == r.src)
    report(f"\nclockwise bytes: {cw:.0f}, counter-clockwise: {ccw:.0f}")
    assert cw > 0 and ccw > 0
    assert 0.7 < cw / ccw < 1.5
