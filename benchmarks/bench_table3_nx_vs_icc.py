"""Table 3: NX versus InterCom on the 512-node (16 x 32) Paragon.

The paper's headline numbers: for broadcast, collect (known lengths)
and global sum at 8 bytes, 64 KB and 1 MB, the InterCom library beats
the native NX collectives by up to an order of magnitude for long
vectors, while losing slightly (ratios 0.92 / 0.88) at 8 bytes because
its recursive short-vector primitives carry call overhead.

We assert the *shape*: who wins where, and rough factors — not the
absolute 1994 milliseconds (our substrate is a calibrated simulator).

Paper's measured rows for reference:

    op       length   NX (s)   iCC (s)   ratio
    bcast    8        0.0012   0.0013    0.92
    bcast    64K      0.032    0.013(*)  ~2.5    (*row partly garbled
    bcast    1M       0.94     0.075     12.5     in the source scan)
    collect  8        0.27     0.0035    77.1
    collect  64K      0.031    0.012     2.58
    collect  1M       0.51     0.10      5.10
    gsum     8        0.0036   0.0041    0.88
    gsum     64K      0.17     0.024     7.10
    gsum     1M       2.72     0.17      16.0
"""

import os

import numpy as np

from repro.analysis import (TABLE3_LENGTHS, format_table, human_bytes,
                            write_csv)
from repro.baselines import NXInterface
from repro.core.partition import partition_offsets, partition_sizes
from repro.sim import Machine, Mesh2D, PARAGON

MACHINE = Machine(Mesh2D(16, 32), PARAGON)


def _bcast(env, n, mode):
    nxif = NXInterface(env, mode=mode)
    x = np.arange(n, dtype=np.float64) if env.rank == 0 else None
    out = yield from nxif.icc_bcast(x, root=0, total=n)
    return bool(np.array_equal(out, np.arange(n, dtype=np.float64)))


def _collect(env, n, mode):
    nxif = NXInterface(env, mode=mode)
    p = env.nranks
    sizes = partition_sizes(n, p)
    offs = partition_offsets(sizes)
    mine = np.arange(offs[env.rank], offs[env.rank + 1],
                     dtype=np.float64)
    out = yield from nxif.gcolx(mine, sizes=sizes)
    return bool(np.array_equal(out, np.arange(n, dtype=np.float64)))


def _gsum(env, n, mode):
    nxif = NXInterface(env, mode=mode)
    v = np.full(n, 1.0)
    out = yield from nxif.gdsum(v)
    return bool(np.allclose(out, float(env.nranks)))


OPS = {"broadcast": _bcast, "collect": _collect, "global sum": _gsum}


_CACHE = []


def run_table3():
    if _CACHE:
        return _CACHE[0]
    rows = []
    for opname, prog in OPS.items():
        for nbytes in TABLE3_LENGTHS:
            n = max(1, nbytes // 8)
            nx = MACHINE.run(prog, n, "nx")
            icc = MACHINE.run(prog, n, "icc")
            assert all(nx.results) and all(icc.results), (opname, nbytes)
            rows.append([opname, nbytes, nx.time, icc.time,
                         nx.time / icc.time])
    _CACHE.append(rows)
    return rows


def test_table3_shape(once, results_dir, report):
    rows = once(run_table3)

    report("\n" + format_table(
        ["operation", "length", "NX (s)", "InterCom (s)", "ratio"],
        [[op, human_bytes(nb), f"{t1:.5f}", f"{t2:.5f}", f"{r:.2f}"]
         for op, nb, t1, t2, r in rows],
        title="Table 3: representative collectives on the 16x32 mesh "
              "(512 nodes)"))
    write_csv(os.path.join(results_dir, "table3_nx_vs_icc.csv"),
              ["operation", "bytes", "nx_seconds", "icc_seconds",
               "ratio"], rows)

    ratio = {(op, nb): r for op, nb, _, _, r in rows}

    # 8-byte messages: NX wins slightly on broadcast and global sum
    # (recursion overhead; the paper's 0.92 / 0.88 rows) — iCC within
    # 2x but not faster by much.
    assert 0.5 < ratio[("broadcast", 8)] < 1.1
    assert 0.5 < ratio[("global sum", 8)] < 1.1
    # ... but the 8-byte *collect* is where NX collapses: its ring
    # gcolx pays p-1 startups against the short collect's 2 log2 p
    # (the paper's 77x row; exact factor depends on alpha calibration)
    assert ratio[("collect", 8)] > 10.0

    # 1 MB: order-of-magnitude class wins for broadcast and global sum
    # (paper: 12.5 and 16.0)
    assert ratio[("broadcast", 1 << 20)] > 6.0
    assert ratio[("global sum", 1 << 20)] > 6.0

    # collect wins but by a smaller factor at 1 MB (paper: 5.1)
    assert 2.0 < ratio[("collect", 1 << 20)] < 25.0

    # 64 KB: iCC ahead for every operation
    for op in OPS:
        assert ratio[(op, 64 * 1024)] > 1.5

    # the iCC advantage grows with vector length for broadcast and
    # global sum (for collect it *shrinks* from the startup-dominated
    # extreme, as in the paper's 77 -> 2.6 -> 5.1 pattern)
    for op in ("broadcast", "global sum"):
        assert ratio[(op, 8)] < ratio[(op, 64 * 1024)] \
            <= ratio[(op, 1 << 20)] * 1.5


def test_table3_absolute_magnitudes(once):
    """Sanity-pin the absolute simulated times to the paper's order of
    magnitude: iCC 1 MB broadcast was 75 ms on the real machine; our
    calibrated simulator must land within a factor of ~3."""
    rows = once(run_table3)
    times = {(op, nb): (t1, t2) for op, nb, t1, t2, _ in rows}
    icc_bcast_1m = times[("broadcast", 1 << 20)][1]
    assert 0.075 / 3 < icc_bcast_1m < 0.075 * 3
    icc_gsum_1m = times[("global sum", 1 << 20)][1]
    assert 0.17 / 3 < icc_gsum_1m < 0.17 * 3
