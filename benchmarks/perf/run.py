"""CLI entry point: run the simulator perf grid and emit ``BENCH_sim.json``.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf.run                 # full grid
    PYTHONPATH=src python -m benchmarks.perf.run --grid smoke    # CI smoke
    PYTHONPATH=src python -m benchmarks.perf.run --check         # counter gate
    PYTHONPATH=src python -m benchmarks.perf.run --update-baseline

``BENCH_sim.json`` records, per case, the current ("after") wall-clock
metrics next to the stored baseline ("before", captured from the
pre-optimization simulator in ``benchmarks/perf/baseline_seed.json``)
and the resulting speedup, so the perf trajectory is tracked from the
first optimization PR onward.  See ``docs/performance.md``.

``--check`` gates on the *tracked counters* (simulated time, messages,
events, flows, rate recomputations) against the committed
``BENCH_sim.json``: wall-clock may drift with the host, but a perf
refactor that changes any simulated quantity is a semantics change and
fails loudly here, not just in the golden corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from .cases import GRIDS, case_id, run_case, run_case_entry

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
BASELINE_PATH = os.path.join(_HERE, "baseline_seed.json")
DEFAULT_OUTPUT = os.path.join(_REPO, "BENCH_sim.json")

#: per-case quantities that must be bit-stable across perf work; all are
#: simulated statistics, independent of host speed.  ``sim_time`` is
#: compared via repr() — exact float equality, not approximate.
TRACKED_COUNTERS = ("sim_time", "messages", "events", "flows",
                    "rate_recomputations")


def load_baseline() -> dict:
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as f:
            return json.load(f)
    return {"cases": {}}


def check_counters(cases: dict, committed_path: str) -> list:
    """Compare tracked counters against the committed report.

    Only cases present in both runs are compared (the committed file is
    normally the full grid; a smoke run checks its subset).  Returns
    failure messages; empty means the gate passed.
    """
    if not os.path.exists(committed_path):
        return [f"no committed report at {committed_path} to check "
                "counters against"]
    with open(committed_path) as f:
        committed = json.load(f)
    failures = []
    overlap = 0
    for cid, entry in sorted(cases.items()):
        want_entry = committed.get("cases", {}).get(cid)
        if want_entry is None:
            continue
        overlap += 1
        got, want = entry["after"], want_entry["after"]
        for counter in TRACKED_COUNTERS:
            if counter not in want:
                continue  # counter landed after the committed report
            g, w = got.get(counter), want[counter]
            same = (repr(g) == repr(w)) if counter == "sim_time" \
                else (g == w)
            if not same:
                failures.append(
                    f"{cid}: {counter} changed {w!r} -> {g!r} "
                    "(simulated semantics drifted; if intentional, "
                    "refresh BENCH_sim.json)")
    if not overlap:
        failures.append(
            f"no overlapping cases between this run and {committed_path}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", choices=sorted(GRIDS), default="full")
    ap.add_argument("--output", default=DEFAULT_OUTPUT,
                    help="where to write the JSON report")
    ap.add_argument("--repeats", type=int, default=None,
                    help="override per-case repeat count")
    ap.add_argument("--check", action="store_true",
                    help="gate tracked counters (events, flows, "
                         "recomputations, messages, sim time) against "
                         "the committed BENCH_sim.json")
    ap.add_argument("--workers", type=int, default=None,
                    help="shard cases across this many processes "
                         "(deterministic merge; wall-clock numbers are "
                         "then cross-loaded — use serial runs for "
                         "publishable timings)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="store this run as the 'before' baseline "
                         "(only for intentional re-baselining)")
    args = ap.parse_args(argv)

    # always the committed report: a stale --output file from an
    # earlier run must not stand in for it
    committed_path = DEFAULT_OUTPUT
    writes_committed = (os.path.abspath(args.output)
                        == os.path.abspath(DEFAULT_OUTPUT))

    baseline = load_baseline()
    grid = GRIDS[args.grid]
    t_start = time.perf_counter()
    if args.workers is not None and args.workers != 1:
        from repro.analysis.parallel import parallel_map
        results = parallel_map(
            run_case_entry, [(op, p, n, args.repeats) for op, p, n in grid],
            workers=args.workers)
    else:
        results = []
        for op, p, n in grid:
            print(f"  {case_id(op, p, n)} ...", flush=True)
            results.append(run_case(op, p, n, repeats=args.repeats))

    cases = {}
    for (op, p, n), metrics in zip(grid, results):
        cid = case_id(op, p, n)
        before = baseline.get("cases", {}).get(cid)
        entry = {"after": metrics}
        if before is not None:
            entry["before"] = before
            if before.get("wall_s") and metrics.get("wall_s"):
                entry["speedup"] = before["wall_s"] / metrics["wall_s"]
        cases[cid] = entry
        extra = (f"  ({entry['speedup']:.2f}x vs baseline)"
                 if "speedup" in entry else "")
        if "metrics_overhead" in metrics:
            extra += f"  [+{metrics['metrics_overhead']:.1%} w/ metrics]"
        if "audit_overhead" in metrics:
            extra += f"  [+{metrics['audit_overhead']:.1%} w/ audit]"
        print(f"  {cid} {metrics['wall_s']:.3f}s{extra}")

    failures = []
    if args.check:
        failures = check_counters(cases, committed_path)
        for msg in failures:
            print(f"FAIL: {msg}", file=sys.stderr)
        if not failures:
            print(f"counter check passed: "
                  f"{', '.join(TRACKED_COUNTERS)} stable vs "
                  f"{committed_path}")

    report = {
        "schema": "repro-sim-perf/1",
        "grid": args.grid,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "total_wall_s": time.perf_counter() - t_start,
        "cases": cases,
    }
    overheads = sorted(e["after"]["metrics_overhead"]
                       for e in cases.values()
                       if "metrics_overhead" in e["after"])
    if overheads:
        # median over the grid: single-case numbers are dominated by
        # scheduler jitter (p=512 cases run once); the robust aggregate
        # is what the < 5% observability promise is checked against
        mid = len(overheads) // 2
        med = (overheads[mid] if len(overheads) % 2
               else (overheads[mid - 1] + overheads[mid]) / 2)
        report["metrics_overhead_median"] = med
        print(f"metrics overhead median: {med:+.1%}")
    # a checking run must not clobber the committed report it compared
    # against; it writes only to an --output elsewhere
    if not (args.check and writes_committed):
        with open(args.output, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.output}")

    if args.update_baseline:
        snap = {"captured": {"python": platform.python_version()},
                "cases": {cid: e["after"] for cid, e in cases.items()}}
        with open(BASELINE_PATH, "w") as f:
            json.dump(snap, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {BASELINE_PATH}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
