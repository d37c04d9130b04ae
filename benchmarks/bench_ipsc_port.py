"""Section 11: the iPSC/860 hypercube port.

"We also have a version tuned for the iPSC/860 that has the same
functionality, but uses algorithms more appropriate for hypercubes."

On a simulated 64-node iPSC/860 cube, compares the mesh library's ring
bucket algorithms (which work anywhere) against the hypercube-native
recursive halving/doubling (which exploit the cube wiring):

* same asymptotic bandwidth term,
* log2(p) startups instead of p-1 — a large win for short and medium
  vectors,
* both conflict-free on the cube.

Also reproduces the short/long trade-off *within* the cube family:
the dimension-exchange allreduce wins for tiny vectors, recursive
halving+doubling for long ones."""

import os

import numpy as np

from repro.analysis import format_table, human_bytes, write_csv
from repro.core.context import CollContext
from repro.core.primitives_long import bucket_collect
from repro.extensions.hypercube import (exchange_allreduce, rd_allreduce,
                                        rd_collect)
from repro.sim import Hypercube, IPSC860, Machine

CUBE = Hypercube(6)
MACHINE = Machine(CUBE, IPSC860)
LENGTHS = [8, 1024, 65536, 1 << 20]


def ring_collect_prog(env, nb):
    ctx = CollContext(env)
    out = yield from bucket_collect(ctx, np.zeros(nb))
    return len(out) == nb * 64


def cube_collect_prog(env, nb):
    ctx = CollContext(env)
    out = yield from rd_collect(ctx, np.zeros(nb))
    return len(out) == nb * 64


_CACHE = []


def run_port():
    if _CACHE:
        return _CACHE[0]
    rows = []
    for nbytes in LENGTHS:
        nb = max(1, nbytes // (8 * 64))
        ring = MACHINE.run(ring_collect_prog, nb)
        cube = MACHINE.run(cube_collect_prog, nb)
        assert all(ring.results) and all(cube.results)
        rows.append([nbytes, ring.time, cube.time,
                     ring.time / cube.time])
    _CACHE.append(rows)
    return rows


def test_hypercube_native_collect_wins(once, results_dir, report):
    rows = once(run_port)
    report("\n" + format_table(
        ["total length", "ring bucket (s)", "recursive doubling (s)",
         "speedup"],
        [[human_bytes(nb), f"{a:.6f}", f"{b:.6f}", f"{r:.2f}"]
         for nb, a, b, r in rows],
        title="section 11: collect on a 64-node iPSC/860 cube — "
              "generic ring vs cube-native"))
    write_csv(os.path.join(results_dir, "ipsc_port.csv"),
              ["bytes", "ring_s", "cube_s", "speedup"], rows)

    by = {nb: r for nb, _, _, r in rows}
    # tiny vectors: 63 startups vs 6 -> order of magnitude
    assert by[8] > 6.0
    # long vectors: same beta term, so the gap closes toward 1
    assert 0.95 < by[1 << 20] < 2.0
    # monotone decay of the advantage
    speedups = [r for _, _, _, r in rows]
    assert all(b <= a + 0.05 for a, b in zip(speedups, speedups[1:]))


def test_cube_short_long_crossover(once, report):
    """Even the cube port needs the hybrid idea: dimension exchange
    (latency-optimal) vs halve-then-double (bandwidth-optimal)."""
    def ex(env, n):
        ctx = CollContext(env)
        out = yield from exchange_allreduce(ctx, np.zeros(n), "sum")
        return len(out) == n

    def rd(env, n):
        ctx = CollContext(env)
        out = yield from rd_allreduce(ctx, np.zeros(n), "sum")
        return len(out) == n

    def run():
        out = []
        for nbytes in (8, 1 << 20):
            n = max(64, nbytes // 8)
            t_ex = MACHINE.run(ex, n).time
            t_rd = MACHINE.run(rd, n).time
            out.append((nbytes, t_ex, t_rd))
        return out

    rows = once(run)
    report("\n" + format_table(
        ["length", "dim exchange (s)", "halve+double (s)"],
        [[human_bytes(nb), f"{a:.6f}", f"{b:.6f}"] for nb, a, b in rows],
        title="cube allreduce: short vs long algorithm"))
    (s_nb, s_ex, s_rd), (l_nb, l_ex, l_rd) = rows
    assert s_ex < s_rd     # short: exchange wins on startups
    assert l_rd < l_ex     # long: halve+double wins on bandwidth
