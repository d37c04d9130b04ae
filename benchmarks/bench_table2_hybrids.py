"""Table 2: hybrid broadcast strategies on a 30-node linear array.

Regenerates the (logical mesh, strategy) -> alpha/beta coefficient table
and checks the eight rows that are consistent with the paper's own
general formula (the scanned ninth row is a known misprint; see
EXPERIMENTS.md)."""

import math
import os

import pytest

from repro.analysis import format_table, write_csv
from repro.core import CostModel, Strategy, candidates
from repro.sim import MachineParams

#: the machine of Table 2: alpha = beta = 1, no refinements
T2_PARAMS = MachineParams(alpha=1, beta=1, gamma=0, sw_overhead=0,
                          link_capacity=1)

PAPER_ROWS = [
    # (dims, ops, alpha coeff, beta coeff numerator over 30)
    ((2, 3, 5), "SSMCC", 9, 160),
    ((30,), "M", 5, 150),
    ((2, 15), "SMC", 6, 150),
    ((3, 10), "SSCC", 17, 94),
    ((10, 3), "SSCC", 17, 94),
    ((2, 15), "SSCC", 20, 86),
    ((5, 6), "SSCC", 15, 98),
    ((6, 5), "SSCC", 15, 98),
]

#: the misprinted row, with the coefficient the general formula yields
MISPRINT_ROW = ((3, 10), "SMC", 8, 160)


def coefficients(cm, strategy):
    """Table 2's ``(A, B)``: the alpha and beta shares of a one-byte
    broadcast on the Table 2 machine."""
    terms = cm.terms("bcast", strategy, 1)
    return terms["alpha"], terms["beta"]


def compute_table():
    cm = CostModel(T2_PARAMS, itemsize=1)
    rows = []
    for dims, ops, _, _ in PAPER_ROWS + [MISPRINT_ROW]:
        A, B = coefficients(cm, Strategy(dims, ops))
        rows.append((dims, ops, A, B * 30))
    return cm, rows


def test_table2_reproduction(once, results_dir, report):
    cm, rows = once(compute_table)

    display = [["x".join(map(str, d)), ops, f"{a:g}", f"({b:g}/30)n"]
               for d, ops, a, b in rows]
    report("\n" + format_table(
        ["logical mesh", "hybrid", "alpha coeff", "beta coeff"],
        display,
        title="Table 2: broadcast hybrids on a 30-node linear array "
              "(cost = A*alpha + B*n*beta)"))
    write_csv(os.path.join(results_dir, "table2_hybrids.csv"),
              ["dims", "ops", "alpha_coeff", "beta_coeff_times_30"],
              [["x".join(map(str, d)), ops, a, b]
               for d, ops, a, b in rows])

    # exact agreement on the eight consistent rows
    got = {(d, ops): (a, b) for d, ops, a, b in rows}
    for dims, ops, a_ref, b_ref in PAPER_ROWS:
        a, b = got[(dims, ops)]
        assert a == pytest.approx(a_ref), (dims, ops)
        assert b == pytest.approx(b_ref), (dims, ops)

    # the misprinted row per the paper's own general formula
    a, b = got[MISPRINT_ROW[:2]]
    assert a == pytest.approx(MISPRINT_ROW[2])
    assert b == pytest.approx(MISPRINT_ROW[3])


def test_table2_footnote(once):
    """The paper's footnote: three of the tabulated hybrids have a beta
    coefficient worse than or equal to the MST broadcast's 150/30 —
    they are included 'to illustrate the mechanism'."""
    cm, rows = once(compute_table)
    mst_beta = dict(((d, o), b) for d, o, a, b in rows)[((30,), "M")]
    worse_or_equal = [r for r in rows
                      if r[3] >= mst_beta and (r[0], r[1]) != ((30,), "M")]
    assert len(worse_or_equal) >= 2


def test_full_candidate_enumeration(once, results_dir, report):
    """Beyond the paper's nine examples: enumerate *all* candidate
    hybrids for p=30 and verify the Pareto structure — decreasing beta
    coefficient costs increasing alpha."""
    def enumerate_all():
        cm = CostModel(T2_PARAMS, itemsize=1)
        out = []
        for s in candidates("bcast", 30):
            A, B = coefficients(cm, s)
            out.append((str(s), A, B * 30))
        return sorted(out, key=lambda r: r[2])

    rows = once(enumerate_all)
    write_csv(os.path.join(results_dir, "table2_all_candidates.csv"),
              ["strategy", "alpha_coeff", "beta_coeff_times_30"], rows)
    report("\n" + format_table(
        ["strategy", "A", "B*30"],
        [[s, f"{a:g}", f"{b:g}"] for s, a, b in rows],
        title=f"all {len(rows)} broadcast hybrid candidates for p=30"))

    # Pareto-optimal set: strategies not dominated in both alpha and
    # beta.  A real latency/bandwidth trade-off needs several of them.
    # Coefficients within a relative 1e-9 count as equal, so a last-ulp
    # difference in how a coefficient is summed cannot move a strategy
    # on or off the frontier.
    def lt(a, b):
        return a < b and not math.isclose(a, b, rel_tol=1e-9)

    def dominated(r):
        return any(not lt(r[1], o[1]) and not lt(r[2], o[2])
                   and (lt(o[1], r[1]) or lt(o[2], r[2])) for o in rows)

    frontier = [r for r in rows if not dominated(r)]
    report("\nPareto frontier: " +
           ", ".join(f"{s} (A={a:g}, B*30={b:g})" for s, a, b in frontier))
    assert len(frontier) >= 4  # a real latency/bandwidth trade-off
    # the pure MST (min alpha) and a deep scatter/collect hybrid
    # (min beta) must both be on it
    names = [s for s, _, _ in frontier]
    assert "(30, M)" in names
