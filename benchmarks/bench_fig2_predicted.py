"""Figure 2: predicted performance of broadcast hybrids on a linear
array of 30 nodes, over message lengths from bytes to a megabyte, with
machine parameters similar to those of the Paragon.

The figure's point: no single strategy wins everywhere — the MST
broadcast wins short, deep scatter/collect hybrids win long, and the
lower envelope (what the library's selector delivers) tracks the best
of all of them."""

import os

from repro.analysis import Series, plot_series, series_to_rows, write_csv
from repro.core import CostModel, Selector, Strategy
from repro.sim import PARAGON

P = 30
STRATEGIES = [
    Strategy((30,), "M"),
    Strategy((2, 15), "SMC"),
    Strategy((2, 3, 5), "SSMCC"),
    Strategy((5, 6), "SSCC"),
    Strategy((2, 15), "SSCC"),
    Strategy((30,), "SC"),
]
LENGTHS = [8 * 4 ** k for k in range(9)]  # 8 B .. 512 KB
LENGTHS.append(1 << 20)


def predict():
    cm = CostModel(PARAGON.with_(link_capacity=1.0), itemsize=1)
    series = []
    for s in STRATEGIES:
        ser = Series(str(s))
        for nbytes in LENGTHS:
            ser.add(nbytes, cm.hybrid("bcast", s, nbytes))
        series.append(ser)
    sel = Selector(PARAGON.with_(link_capacity=1.0), itemsize=1)
    best = Series("best (selector)")
    for nbytes in LENGTHS:
        best.add(nbytes, sel.best("bcast", P, nbytes).cost)
    series.append(best)
    return series


def test_fig2_predicted_curves(once, results_dir, report):
    series = once(predict)
    report("\n" + plot_series(
        series, title="Figure 2: predicted broadcast hybrids, "
                      "30-node linear array (Paragon parameters)"))
    from repro.analysis import write_svg
    write_svg(os.path.join(results_dir, "fig2_predicted.svg"), series,
              title="Figure 2: predicted broadcast hybrids, 30-node linear array")
    write_csv(os.path.join(results_dir, "fig2_predicted.csv"),
              ["strategy", "bytes", "seconds"], series_to_rows(series))

    by_label = {s.label: s for s in series}
    mst = by_label["(30, M)"]
    deep = by_label["(2x15, SSCC)"]
    best = by_label["best (selector)"]

    # short vectors: the MST broadcast wins (minimum startups)
    assert mst.time_at(8) == min(s.time_at(8) for s in series)
    # long vectors: the MST broadcast loses badly to the bandwidth
    # hybrids (its 5 n beta against ~3 n beta with conflicts)
    assert deep.time_at(1 << 20) < mst.time_at(1 << 20)
    # a crossover exists strictly inside the sweep
    diffs = [mst.time_at(n) - deep.time_at(n) for n in LENGTHS]
    assert diffs[0] < 0 < diffs[-1]
    # the selector envelope is the lower envelope of all strategies at
    # every length (up to candidate-set coverage)
    for n in LENGTHS:
        floor = min(s.time_at(n) for s in series if s is not best)
        assert best.time_at(n) <= floor * (1 + 1e-9)


def test_fig2_benefits_are_marginal_at_30_nodes(once):
    """The paper: 'While the benefits of these hybrids are marginal for
    30 nodes, this figure provides a representative illustration' —
    the best hybrid should beat the best *pure* algorithm by a modest
    factor (under ~2x) at every length."""
    series = once(predict)
    by_label = {s.label: s for s in series}
    best = by_label["best (selector)"]
    for n in LENGTHS:
        pure = min(by_label["(30, M)"].time_at(n),
                   by_label["(30, SC)"].time_at(n))
        assert best.time_at(n) <= pure
        assert pure / best.time_at(n) < 2.0
