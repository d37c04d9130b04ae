"""CLI entry point: replay the chaos grid and emit ``CHAOS_report.json``.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.chaos.run                # full grid
    PYTHONPATH=src python -m benchmarks.chaos.run --grid smoke   # CI smoke
    PYTHONPATH=src python -m benchmarks.chaos.run --check        # + exit 1
                                                  # on any gate violation

The gates (docs/robustness.md, enforced by the ``chaos-smoke`` CI job):

* **zero silent corruption** — no run may complete with a payload that
  differs from the clean-run / survivor oracle;
* **zero undiagnosed hangs** — every run that cannot complete must
  raise a typed :class:`FaultDiagnosis`, never a bare deadlock;
* **profile contracts** — delay-only profiles (baseline/jitter/
  slowdown) and crash-shrink must complete ``ok``; drop/crash profiles
  may be ``ok`` or ``diagnosed``.

The committed ``CHAOS_report.json`` is the full-grid run (210 seeded
cases); schedules derive from string-seeded RNGs, so a re-run
reproduces the same faults everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .cases import ALLOWED, GRIDS, run_case, run_case_entry

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
DEFAULT_OUTPUT = os.path.join(_REPO, "CHAOS_report.json")

FATAL_OUTCOMES = ("silent-corruption", "undiagnosed-hang")


def evaluate(records) -> dict:
    """Aggregate gate verdicts over per-case records."""
    counts = {}
    violations = []
    for rec in records:
        counts[rec["outcome"]] = counts.get(rec["outcome"], 0) + 1
        if rec["outcome"] not in ALLOWED[rec["profile"]]:
            violations.append(rec["id"])
    gates = {
        "zero_silent_corruption":
            counts.get("silent-corruption", 0) == 0,
        "zero_undiagnosed_hangs":
            counts.get("undiagnosed-hang", 0) == 0,
        "profile_contracts_hold": not violations,
    }
    return {
        "counts": counts,
        "violations": violations,
        "gates": gates,
        "passed": all(gates.values()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", choices=sorted(GRIDS), default="full")
    ap.add_argument("--output", default=DEFAULT_OUTPUT,
                    help="where to write the JSON report")
    ap.add_argument("--check", action="store_true",
                    help="exit nonzero if any gate fails")
    ap.add_argument("--verbose", action="store_true",
                    help="print one line per case as it runs")
    ap.add_argument("--workers", type=int, default=None,
                    help="shard the grid across this many processes "
                         "(schedules are string-seeded per case, and the "
                         "merge preserves grid order, so the report is "
                         "identical to a serial run; default serial)")
    args = ap.parse_args(argv)

    cases = GRIDS[args.grid]
    t0 = time.perf_counter()
    if args.workers is not None and args.workers != 1:
        from repro.analysis.parallel import parallel_map
        records = parallel_map(run_case_entry, cases,
                               workers=args.workers)
        if args.verbose:
            for rec in records:
                print(f"  {rec['id']:50s} {rec['outcome']}", flush=True)
    else:
        records = []
        for topo, op, profile, seed in cases:
            rec = run_case(topo, op, profile, seed)
            records.append(rec)
            if args.verbose:
                print(f"  {rec['id']:50s} {rec['outcome']}", flush=True)
    wall = time.perf_counter() - t0

    summary = evaluate(records)
    report = {
        "grid": args.grid,
        "cases": len(records),
        "wall_seconds": round(wall, 2),
        **summary,
        "records": records,
    }
    with open(args.output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=False)
        f.write("\n")

    print(f"chaos[{args.grid}]: {len(records)} cases in {wall:.1f}s "
          f"-> {args.output}")
    for outcome, n in sorted(summary["counts"].items()):
        print(f"  {outcome:20s} {n}")
    for gate, ok in summary["gates"].items():
        print(f"  gate {gate:28s} {'PASS' if ok else 'FAIL'}")
    if summary["violations"]:
        for cid in summary["violations"]:
            print(f"  VIOLATION: {cid}", file=sys.stderr)
    if args.check and not summary["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
