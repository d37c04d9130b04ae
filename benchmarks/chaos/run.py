"""CLI entry point: replay the chaos grid and emit ``CHAOS_report.json``.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.chaos.run                # full grid
    PYTHONPATH=src python -m benchmarks.chaos.run --grid smoke   # CI smoke
    PYTHONPATH=src python -m benchmarks.chaos.run --check        # + exit 1
                                                  # on any gate violation

Every case runs through :func:`repro.chaos.executor.execute_case`
(without the regret sweep), and each record is the executor's record.
The gates (docs/robustness.md, enforced by the ``chaos-smoke`` CI job):

* **zero silent corruption** — no run may complete with a payload that
  differs from the clean-run / survivor oracle, nor an empty schedule
  move the clock;
* **zero undiagnosed hangs** — every run that cannot complete must
  raise a typed :class:`FaultDiagnosis`, never a bare deadlock;
* **profile contracts** — every verdict is one that
  :data:`~repro.chaos.executor.PROFILE_CONTRACT` allows for its profile:
  delay-only profiles (baseline/jitter/slowdown) and crash-shrink must
  complete ``ok``; drop/crash profiles may be ``ok`` or
  ``diagnosed-fault``.

The committed ``CHAOS_report.json`` is the full-grid run (210 seeded
cases); schedules derive from string-seeded RNGs, so a re-run
reproduces the same faults everywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from repro.analysis.parallel import parallel_map
from repro.chaos.executor import breaks_contract, execute_case

from .cases import GRIDS, grid_case

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
DEFAULT_OUTPUT = os.path.join(_REPO, "CHAOS_report.json")


def evaluate(records) -> dict:
    """Aggregate gate verdicts over per-case records."""
    counts = {}
    for rec in records:
        counts[rec["verdict"]] = counts.get(rec["verdict"], 0) + 1
    violations = [rec["case"]["origin"] for rec in records
                  if breaks_contract(rec)]
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
                    help="print one line per case")
    ap.add_argument("--workers", type=int, default=None,
                    help="shard the grid across this many processes "
                         "(schedules are string-seeded per case, and the "
                         "merge preserves grid order, so the report is "
                         "identical to a serial run; default serial)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    records = parallel_map(functools.partial(execute_case, audit=False),
                           [grid_case(*e) for e in GRIDS[args.grid]],
                           workers=args.workers or 1)
    wall = time.perf_counter() - t0
    if args.verbose:
        for rec in records:
            print(f"  {rec['case']['origin']:50s} {rec['verdict']}")

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
    for verdict, n in sorted(summary["counts"].items()):
        print(f"  {verdict:20s} {n}")
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
