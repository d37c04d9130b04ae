"""Figure 4 (left): measured collect on a 16 x 32 physical mesh.

The paper's figure shows the hybrid library's collect across message
lengths on the power-of-two-friendly 512-node partition.  We sweep the
same machine with the pure short algorithm (gather + MST broadcast),
the pure long algorithm (ring bucket collect), the library's auto
hybrid (mesh-aware two-phase buckets), and the NX baseline — and check
the shape: the hybrid tracks the best pure algorithm everywhere and
beats the single-technique baseline for long vectors."""

import os

import numpy as np

from repro.analysis import (format_table, human_bytes, plot_series,
                            series_to_rows, sweep_operation, write_csv)
from repro.baselines.nx import nx_collect
from repro.core.context import CollContext
from repro.core.partition import partition_offsets, partition_sizes
from repro.sim import Machine, Mesh2D, PARAGON

MACHINE = Machine(Mesh2D(16, 32), PARAGON)
LENGTHS = [8, 512, 8 * 1024, 64 * 1024, 512 * 1024, 1 << 20]


def nx_program(env, n):
    ctx = CollContext(env)
    p = env.nranks
    sizes = partition_sizes(n, p)
    offs = partition_offsets(sizes)
    mine = np.arange(offs[env.rank], offs[env.rank + 1], dtype=np.float64)
    out = yield from nx_collect(ctx, mine, sizes=sizes)
    assert len(out) == n
    return True


_CACHE = []


def run_fig4():
    if _CACHE:
        return _CACHE[0]
    series = sweep_operation(
        MACHINE, "collect", LENGTHS,
        {"short (gather+bcast)": "short",
         "long (ring bucket)": "long",
         "iCC hybrid (auto)": "auto",
         "NX gcolx": nx_program})
    _CACHE.append(series)
    return series


def test_fig4_collect_curves(once, results_dir, report):
    series = once(run_fig4)
    report("\n" + plot_series(
        series, title="Figure 4 (left): collect on a 16x32 mesh "
                      "(simulated Paragon)"))
    rows = series_to_rows(series)
    from repro.analysis import write_svg
    write_svg(os.path.join(results_dir, "fig4_collect.svg"), series,
              title="Figure 4 (left): collect on a 16x32 mesh")
    write_csv(os.path.join(results_dir, "fig4_collect.csv"),
              ["algorithm", "bytes", "seconds"], rows)
    report(format_table(
        ["algorithm", "length", "time (s)"],
        [[lab, human_bytes(nb), f"{t:.6f}"] for lab, nb, t in rows]))

    by = {s.label: s for s in series}
    auto = by["iCC hybrid (auto)"]
    short = by["short (gather+bcast)"]
    long_ = by["long (ring bucket)"]
    nx = by["NX gcolx"]

    # the hybrid must track (or beat) the best pure algorithm at every
    # length, within a small tolerance
    for n in LENGTHS:
        assert auto.time_at(n) <= min(short.time_at(n),
                                      long_.time_at(n)) * 1.05

    # long vectors: the mesh-aware hybrid beats the NX baseline clearly
    # (the paper's 5.1x at 1 MB)
    assert nx.time_at(1 << 20) / auto.time_at(1 << 20) > 2.0
    # and beats the pure ring, whose (p-1) alpha latency never pays off
    assert auto.time_at(8) < long_.time_at(8) / 4


def test_fig4_collect_bandwidth_saturates(once):
    """For long vectors the effective collect bandwidth must approach
    the injection bandwidth (the bucket algorithms are asymptotically
    optimal: total time ~ ((p-1)/p) n beta)."""
    series = once(run_fig4)
    auto = {s.label: s for s in series}["iCC hybrid (auto)"]
    t = auto.time_at(1 << 20)
    beta_effective = t / (1 << 20)
    assert beta_effective < 2.5 * PARAGON.beta
