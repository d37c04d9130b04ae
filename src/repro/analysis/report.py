"""Consolidated reproduction report.

Collects the CSV/text artifacts the benchmark harness wrote under
``bench_results/`` into one markdown report with the paper-reference
values alongside — the machine-generated companion to EXPERIMENTS.md.

Usage::

    python -m repro.analysis.report [bench_results_dir] [output.md]

The ``--trace`` mode instead runs one instrumented collective and
exports it for a trace viewer (docs/observability.md)::

    python -m repro.analysis.report --trace bcast --p 30 --bytes 8192 \\
        --params PARAGON --out bcast.trace.json

which writes a Chrome-trace/Perfetto JSON of the stage spans and
message transfers, and prints the critical path plus the busiest
channels to stdout.

The ``--audit`` mode runs the model-audit sweep
(:mod:`repro.analysis.audit`): selection regret over a grid of cells,
conflict-freedom verdicts for the four building blocks, and alpha/beta
drift, written as one ``AUDIT_model.json`` artifact::

    python -m repro.analysis.report --audit --grid smoke --check
"""

from __future__ import annotations

import csv
import os
import sys
from typing import Dict, List, Optional, Sequence

from ..chaos.generator import OPS
from ..obs.trace import write_chrome_trace

#: Paper reference values for Table 3 (operation, bytes) -> ratio.
PAPER_TABLE3 = {
    ("broadcast", 8): 0.92,
    ("broadcast", 1048576): 12.5,
    ("collect", 8): 77.1,
    ("collect", 65536): 2.58,
    ("collect", 1048576): 5.10,
    ("global sum", 8): 0.88,
    ("global sum", 65536): 7.10,
    ("global sum", 1048576): 16.0,
}


def read_csv(path: str) -> List[Dict[str, str]]:
    with open(path) as f:
        return list(csv.DictReader(f))


def md_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(out)


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def section_table3(results_dir: str) -> Optional[str]:
    path = os.path.join(results_dir, "table3_nx_vs_icc.csv")
    if not os.path.exists(path):
        return None
    rows = []
    for rec in read_csv(path):
        key = (rec["operation"], int(rec["bytes"]))
        paper = PAPER_TABLE3.get(key)
        rows.append([rec["operation"], rec["bytes"],
                     _fmt(float(rec["nx_seconds"])),
                     _fmt(float(rec["icc_seconds"])),
                     _fmt(float(rec["ratio"])),
                     _fmt(paper) if paper else "(illegible)"])
    return ("## Table 3 — NX vs InterCom (512 nodes)\n\n"
            + md_table(["operation", "bytes", "NX (s)", "iCC (s)",
                        "measured ratio", "paper ratio"], rows))


def section_table2(results_dir: str) -> Optional[str]:
    path = os.path.join(results_dir, "table2_hybrids.csv")
    if not os.path.exists(path):
        return None
    rows = [[r["dims"], r["ops"], _fmt(float(r["alpha_coeff"])),
             _fmt(float(r["beta_coeff_times_30"])) + "/30"]
            for r in read_csv(path)]
    return ("## Table 2 — broadcast hybrids, p = 30\n\n"
            + md_table(["logical mesh", "hybrid", "alpha coeff",
                        "beta coeff"], rows)
            + "\n\nEight rows match the paper exactly; the 3x10/SMC "
              "row is a documented misprint in the source scan.")


def section_sweep(results_dir: str, stem: str, title: str
                  ) -> Optional[str]:
    path = os.path.join(results_dir, stem + ".csv")
    if not os.path.exists(path):
        return None
    recs = read_csv(path)
    algs = sorted({r["algorithm"] for r in recs})
    lengths = sorted({int(r["bytes"]) for r in recs})
    t = {(r["algorithm"], int(r["bytes"])): float(r["seconds"])
         for r in recs}
    rows = [[n] + [_fmt(t.get((a, n), float("nan"))) for a in algs]
            for n in lengths]
    return f"## {title}\n\n" + md_table(["bytes"] + list(algs), rows)


def section_misc(results_dir: str) -> List[str]:
    out = []
    for stem, title, cols in [
        ("edst_hypercube", "Section 8 — pipelined vs scatter/collect",
         None),
        ("groups", "Section 9 — group collectives", None),
        ("alternating_directions",
         "Section 7.1 — alternating directions", None),
        ("ipsc_port", "Section 11 — iPSC/860 cube port", None),
    ]:
        path = os.path.join(results_dir, stem + ".csv")
        if not os.path.exists(path):
            continue
        recs = read_csv(path)
        if not recs:
            continue
        headers = list(recs[0].keys())
        rows = [[r[h] for h in headers] for r in recs]
        out.append(f"## {title}\n\n" + md_table(headers, rows))
    return out


def build_report(results_dir: str) -> str:
    parts = ["# Reproduction report (generated)",
             "",
             "Regenerate with `pytest benchmarks/ --benchmark-only` "
             "then `python -m repro.analysis.report`.",
             ""]
    for sec in [section_table2(results_dir), section_table3(results_dir),
                section_sweep(results_dir, "fig4_collect",
                              "Figure 4 (left) — collect on 16x32"),
                section_sweep(results_dir, "fig4_broadcast",
                              "Figure 4 (right) — broadcast on 15x30"),
                *section_misc(results_dir)]:
        if sec:
            parts.append(sec)
            parts.append("")
    if len(parts) <= 4:
        parts.append("*(no benchmark artifacts found — run the "
                     "benchmarks first)*")
    return "\n".join(parts)


# ----------------------------------------------------------------------
# --trace: run one instrumented collective and export it
# ----------------------------------------------------------------------

#: the --trace scenarios: the collectives the chaos generator draws
TRACE_OPS = OPS


def run_traced_scenario(op: str, p: int, nbytes: int,
                        params_name: str = "PARAGON",
                        algorithm: str = "auto"):
    """Run ``op`` on a ``p``-node linear array with spans + metrics on.

    Returns the :class:`~repro.sim.machine.RunResult`.
    """
    from ..sim.machine import Machine
    from ..core.params import preset
    from ..core.topology import LinearArray

    machine = Machine(LinearArray(p), preset(params_name))
    return machine.run(_trace_program(op, p, nbytes, algorithm),
                       trace=True, metrics=True)


def _trace_program(op: str, p: int, nbytes: int, algorithm: str):
    """The --trace scenario's rank program (both backends): the shared
    collective-case program of :mod:`repro.chaos.oracles` over all
    ``p`` ranks of a linear array."""
    from ..chaos.oracles import make_program
    from .audit import cell_case

    if op not in TRACE_OPS:
        raise SystemExit(f"unknown op {op!r}; known: {', '.join(TRACE_OPS)}")
    return make_program(cell_case(op, ("line", p), max(nbytes // 8, 1)),
                        algorithm)


def trace_main_runtime(op: str, p: int, nbytes: int, algorithm: str,
                       out_path: str, transport: str,
                       timescale: float) -> int:
    """--trace --backend runtime: measure a real multi-process run.

    Runs the scenario over OS processes with per-rank wall-clock
    tracing and cross-rank clock alignment, writes the merged
    Chrome/Perfetto trace (one process track per rank, send->recv flow
    arrows), and prints the predicted-vs-measured audit pairing.
    """
    from ..runtime.launch import ProcessMachine

    machine = ProcessMachine(p, transport=transport)
    res = machine.run(_trace_program(op, p, nbytes, algorithm), trace=True)
    write_chrome_trace(res.trace, out_path, timescale=timescale)
    print(f"{op} p={p} nbytes={nbytes} [runtime/{transport}]: "
          f"t={res.time:.3f}s wall, {res.trace.message_count()} "
          f"messages, {len(res.trace.closed_spans())} spans, clock "
          f"alignment +-{res.trace.max_uncertainty_s() * 1e6:.0f}us")
    print(f"wrote {out_path} (open in chrome://tracing or "
          f"ui.perfetto.dev)")
    if res.audit is not None:
        print("\npredicted vs measured (wall windows):")
        print(res.audit.render())
    return 0


def trace_main(op: str, p: int, nbytes: int, params_name: str,
               algorithm: str, out_path: str, timescale: float) -> int:
    from ..obs.metrics import busiest
    from ..core.params import preset
    from .critpath import critical_path, render_critical_path

    res = run_traced_scenario(op, p, nbytes, params_name, algorithm)
    write_chrome_trace(res.trace, out_path, timescale=timescale)
    print(f"{op} p={p} nbytes={nbytes} [{params_name}]: "
          f"t={res.time:g}, {res.trace.message_count()} messages, "
          f"{len(res.trace.closed_spans())} spans")
    print(f"wrote {out_path} (open in chrome://tracing or "
          f"ui.perfetto.dev)")
    alpha = preset(params_name).alpha
    print("\ncritical path:")
    print(render_critical_path(critical_path(res.trace, alpha=alpha)))
    hot = busiest(res.channel_metrics or {}, k=5)
    if hot:
        print("\nbusiest resources:")
        for st in hot:
            print(f"  {st.resource}: busy={st.busy_time:g} "
                  f"bytes={st.bytes:g} peak_flows={st.max_concurrent} "
                  f"sharing={st.sharing_factor:.2f}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--audit" in argv:
        import argparse

        from .audit import GRIDS, RUNTIME_GRIDS
        from .audit import main as audit_main
        ap = argparse.ArgumentParser(
            prog="python -m repro.analysis.report",
            description="run the model audit: selection regret, "
                        "conflict-freedom, alpha/beta drift.  With "
                        "--backend runtime, every ranked candidate is "
                        "executed over real OS processes under this "
                        "host's fitted calibration profile "
                        "(AUDIT_runtime.json)")
        ap.add_argument("--audit", action="store_true", required=True)
        ap.add_argument("--backend", choices=("sim", "runtime"),
                        default="sim",
                        help="measure candidates on the simulator "
                             "(default) or on real processes under the "
                             "fitted per-host profile")
        ap.add_argument("--grid",
                        choices=sorted(set(GRIDS) | set(RUNTIME_GRIDS)),
                        default="smoke")
        ap.add_argument("--params", default="paragon",
                        help="machine parameter preset (sim backend; "
                             "the runtime backend always prices with "
                             "the fitted profile)")
        ap.add_argument("--transport", choices=("local", "tcp"),
                        default="local",
                        help="runtime-backend transport")
        ap.add_argument("--out", default=None,
                        help="output JSON artifact path (default "
                             "AUDIT_model.json / AUDIT_runtime.json)")
        ap.add_argument("--check", action="store_true",
                        help="exit nonzero on violated conflict-freedom "
                             "or median regret above the gate")
        ap.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
        ap.add_argument("--workers", type=int, default=None,
                        help="shard the regret sweep across this many "
                             "processes (sim backend; deterministic "
                             "merge; default serial)")
        ap.add_argument("--reps", type=int, default=3,
                        help="collective repetitions per timed run "
                             "(runtime backend)")
        ap.add_argument("--trials", type=int, default=3,
                        help="repeated timed runs per candidate "
                             "(runtime backend)")
        ns = ap.parse_args(argv)
        return audit_main(ns.grid, ns.params, ns.out, ns.check,
                          verbose=not ns.quiet, workers=ns.workers,
                          backend=ns.backend, transport=ns.transport,
                          reps=ns.reps, trials=ns.trials)
    if "--trace" in argv:
        import argparse
        ap = argparse.ArgumentParser(
            prog="python -m repro.analysis.report",
            description="export one instrumented collective as a "
                        "Chrome trace")
        ap.add_argument("--trace", metavar="OP", choices=TRACE_OPS,
                        required=True, help="collective to run")
        ap.add_argument("--backend", choices=("sim", "runtime"),
                        default="sim",
                        help="trace the simulator (default) or a real "
                             "multi-process run with wall clocks "
                             "aligned across ranks")
        ap.add_argument("--p", type=int, default=30, help="group size")
        ap.add_argument("--bytes", type=int, default=8192,
                        dest="nbytes", help="vector size in bytes")
        ap.add_argument("--params", default="PARAGON",
                        help="machine parameter preset (sim backend)")
        ap.add_argument("--transport", choices=("local", "tcp"),
                        default="local",
                        help="runtime-backend transport")
        ap.add_argument("--algorithm", default="auto")
        ap.add_argument("--out", default=None,
                        help="output JSON path (default OP.trace.json)")
        ap.add_argument("--timescale", type=float, default=1e6,
                        help="traced seconds -> trace microseconds")
        ns = ap.parse_args(argv)
        out = ns.out or f"{ns.trace}.trace.json"
        if ns.backend == "runtime":
            return trace_main_runtime(ns.trace, ns.p, ns.nbytes,
                                      ns.algorithm, out, ns.transport,
                                      ns.timescale)
        return trace_main(ns.trace, ns.p, ns.nbytes, ns.params,
                          ns.algorithm, out, ns.timescale)
    results_dir = argv[0] if argv else "bench_results"
    out_path = argv[1] if len(argv) > 1 else os.path.join(
        results_dir, "REPORT.md")
    text = build_report(results_dir)
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as f:
        f.write(text + "\n")
    print(f"wrote {out_path} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
