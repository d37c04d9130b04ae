"""Figure 1: the 12-node broadcast hybrid, step by step.

Regenerates the paper's worked example — a broadcast on a linear array
of 12 nodes with node 0 as root, executed as scatters within subgroups
of two (steps 1-2), MST broadcasts within subgroups of three (steps
3-4), and collects within subgroups of two (steps 5-6) — and prints the
message schedule the figure depicts."""

import os

import numpy as np
import pytest

from repro.analysis import format_table, write_csv
from repro.core import Strategy
from repro.core.context import CollContext
from repro.core import hybrid
from repro.sim import LinearArray, Machine, UNIT

STRATEGY = Strategy((2, 2, 3), "SSMCC")
N = 12  # one element per node, as in the figure's x0..x3 quarters


def run_traced():
    machine = Machine(LinearArray(12), UNIT, trace=True)
    x = np.arange(N, dtype=np.float64)

    def prog(env):
        ctx = CollContext(env)
        buf = x.copy() if env.rank == 0 else None
        out = yield from hybrid.run(ctx, "bcast", buf, STRATEGY, total=N)
        assert np.array_equal(out, x)
        return True

    return machine.run(prog)


def test_fig1_step_schedule(once, results_dir, report):
    run = once(run_traced)
    assert all(run.results)

    steps = run.trace.step_table()
    rows = []
    for step, recs in steps:
        rows.append([step, f"{recs[0].t_match:g}",
                     ", ".join(f"{r.src}->{r.dst}" for r in recs)])
    report("\n" + format_table(
        ["step", "t", "messages"], rows,
        title="Figure 1: broadcast hybrid (2x2x3, SSMCC) on 12 nodes, "
              "root 0"))
    write_csv(os.path.join(results_dir, "fig1_trace.csv"),
              ["step", "t_match", "src", "dst", "nbytes"],
              [[step, r.t_match, r.src, r.dst, r.nbytes]
               for step, recs in steps for r in recs])

    # The stages have no barrier between them, so fast branches start
    # their collects while slow MST branches still run — classify the
    # paper's six logical stages by endpoints and sizes instead.
    recs = run.trace.completed()
    assert len(recs) == 1 + 2 + 8 + 12 + 12

    by_time = sorted(recs, key=lambda r: (r.t_match, r.src))
    # Stage 1: scatter within the root's pair {0,1}: half the vector
    assert (by_time[0].src, by_time[0].dst) == (0, 1)
    assert by_time[0].nbytes == 6 * 8
    # Stage 2: scatters within stride-2 pairs through the holders
    assert {(r.src, r.dst) for r in by_time[1:3]} == {(0, 2), (1, 3)}
    # Stages 3-4: MST broadcasts within the stride-4 triples move
    # quarters from the holders {0..3} to everyone else
    mst = {(r.src, r.dst) for r in recs
           if r.src < 4 and r.dst >= 4}
    assert mst == {(0, 8), (1, 9), (2, 10), (3, 11),
                   (0, 4), (1, 5), (2, 6), (3, 7)}
    # Stage 5: bucket collects within stride-2 pairs (bidirectional
    # exchanges of quarters) — plus the two stage-2 scatter messages
    # that also cross stride 2 with quarter payloads
    stride2 = [r for r in recs if abs(r.src - r.dst) == 2
               and r.nbytes == 3 * 8]
    assert len(stride2) == 12 + 2
    # Stage 6: final collects within adjacent pairs exchange halves —
    # plus the stage-1 scatter, which also moves a half one hop
    final = [r for r in recs if abs(r.src - r.dst) == 1
             and r.nbytes == 6 * 8]
    assert len(final) == 12 + 1

    # "Except for Step 1 and 6, limited network conflicts occur" — and
    # the fluid model reproduces the per-stage conflict factors of the
    # section 6 formulas exactly:
    #   stage 1 (adjacent pair) and stage 6 (adjacent pairs): full rate;
    #   stages 2 and 5 (stride-2 lines): two flows share each channel;
    #   stages 3-4 (stride-4 MST): four concurrent lines share.
    for rec in recs:
        dist = abs(rec.src - rec.dst)
        factor = {1: 1, 2: 2}.get(dist, 4)
        assert rec.duration == pytest.approx(1 + factor * rec.nbytes), \
            (rec.src, rec.dst, rec.nbytes, rec.duration)

    # Consequently the elapsed time equals the section 6 closed form
    # with the bold conflict factors — exactly.
    from repro.core import CostModel
    cm = CostModel(UNIT, itemsize=8)
    assert run.time == pytest.approx(cm.hybrid("bcast", STRATEGY, N))


def test_fig1_piece_sizes_shrink_then_grow(once):
    """The scatters quarter the message; the collects restore it —
    'the strategy benefits from the fact that network conflict is least
    when the vectors sent are long' (Figure 1 caption)."""
    run = once(run_traced)
    recs = sorted(run.trace.completed(), key=lambda r: r.t_match)
    sizes = [r.nbytes for r in recs]
    # 8-byte elements: halves, then quarters, ..., then halves again
    assert sizes[0] == 6 * 8
    assert min(sizes) == 3 * 8
    assert sizes[-1] == 6 * 8
    # total traffic: 1 half + 2 quarters + 8 quarters (MST) +
    # 12 quarters + 12 halves
    assert sum(sizes) == (6 + 2 * 3 + 8 * 3 + 12 * 3 + 12 * 6) * 8
