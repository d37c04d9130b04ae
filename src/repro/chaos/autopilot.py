"""The chaos autopilot: coverage-guided generate/execute/minimize loop.

One invocation::

    python -m repro.chaos.autopilot --budget-s 60 --seed 42 --check

draws cases from the seeded :class:`~repro.chaos.generator.CaseGenerator`
(biased toward coverage cells the persistent corpus has not explored),
executes each on the simulator — plus a periodic real-process
differential slice — classifies verdicts, auto-minimizes every finding
to a golden reproducer, and persists everything to the corpus store.

**Bit-reproducibility contract**: the wall-clock budget maps to a
deterministic case count (``ceil(budget_s * CASE_RATE)``) so the drawn
case sequence is a pure function of ``(seed, budget/max-cases,
profiles, runtime-every)`` plus the pre-existing corpus; records carry
simulated times only.  Same seed against the same starting corpus =>
byte-identical corpus store.  Wall-clock appears only in the summary
report, outside the store.

The ``--check`` gate mirrors CI: zero ``silent-corruption`` and zero
``undiagnosed-hang`` verdicts, and every verdict one that its
profile's contract (:data:`~repro.chaos.executor.PROFILE_CONTRACT`)
allows, or exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional, Sequence

from .corpus import CorpusStore, default_store_path
from .executor import (FATAL_VERDICTS, FINDING_VERDICTS, breaks_contract,
                       execute_case)
from .generator import (CaseGenerator, OPS, PROFILES, TOPO_CLASSES)
from .minimize import minimize_case

#: cases per budgeted second — the deterministic budget->work mapping.
#: Calibrated so a 60 s budget is comfortably met on CI hardware; the
#: wall-clock budget itself never feeds back into generation.
CASE_RATE = 1.0


def run_autopilot(seed: int, budget_s: float = 60.0,
                  max_cases: Optional[int] = None,
                  store_path: Optional[str] = None,
                  report_path: Optional[str] = "CHAOS_autopilot.json",
                  profiles: Optional[Sequence[str]] = None,
                  runtime_every: int = 0,
                  minimize: bool = True,
                  quiet: bool = False) -> Dict:
    """Run one autopilot session; returns the summary report dict.

    ``runtime_every=k`` replays every k-th executed case on the real
    multi-process backend (0 disables the slice).  ``max_cases``
    overrides the budget->count mapping exactly.
    """
    t_wall = time.monotonic()
    total = max_cases if max_cases is not None \
        else max(1, int(budget_s * CASE_RATE))
    store = CorpusStore(store_path)
    gen = CaseGenerator(seed, profiles=profiles)

    def say(msg: str) -> None:
        if not quiet:
            print(msg)

    say(f"autopilot: seed={seed} cases={total} "
        f"corpus={store.path} ({len(store)} existing)")
    executed = 0
    attempts = 0
    duplicates = 0
    verdicts: Dict[str, int] = {}
    new_findings = []
    violations = 0
    while executed < total and attempts < total * 4:
        attempts += 1
        case = gen.sample(explored=store.explored_cells())
        if case.case_hash in store:
            duplicates += 1
            continue
        executed += 1
        use_runtime = (runtime_every > 0
                       and executed % runtime_every == 0)
        record = execute_case(case, runtime_slice=use_runtime)
        verdict = record["verdict"]
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
        violations += breaks_contract(record)
        if verdict in FINDING_VERDICTS:
            say(f"  [{executed}/{total}] {verdict}: "
                f"{case.topo} {case.op} {case.profile} "
                f"n={case.n} {case.dtype} ({case.case_hash})")
            if minimize:
                minimal, info = minimize_case(case,
                                              target_verdict=verdict)
                record["minimized"] = {
                    "case": minimal.to_dict(),
                    "id": minimal.case_hash,
                    "nranks": minimal.nranks,
                    "steps": info["steps"],
                    "replays": info["replays"],
                }
                golden = dict(info["final_record"])
                golden["golden"] = True
                golden["minimized_from"] = record["id"]
                store.update(golden)
                say(f"      minimized {case.nranks} -> "
                    f"{minimal.nranks} ranks "
                    f"({info['replays']} replays)")
            new_findings.append(record["id"])
        store.add(record)
    store.save()

    axes = store.coverage()
    profile_matrix: Dict[str, Dict[str, int]] = {}
    for rec in store.records.values():
        row = profile_matrix.setdefault(
            rec["case"].get("profile", "?"), {})
        row[rec["verdict"]] = row.get(rec["verdict"], 0) + 1
    explored = store.explored_cells()
    possible = (len(TOPO_CLASSES) * len(OPS)
                * len(profiles if profiles else PROFILES))
    gates = {
        "zero_silent_corruption":
            verdicts.get("silent-corruption", 0) == 0,
        "zero_undiagnosed_hang":
            verdicts.get("undiagnosed-hang", 0) == 0,
        "profile_contracts_hold": violations == 0,
    }
    report = {
        "kind": "repro-chaos-autopilot",
        "version": 1,
        "seed": seed,
        "budget_s": budget_s,
        "cases": executed,
        "attempts": attempts,
        "duplicates": duplicates,
        "wall_s": round(time.monotonic() - t_wall, 3),
        "store": store.path,
        "store_records": len(store),
        "verdicts": verdicts,
        "coverage": axes,
        "cell_matrix": store.cell_matrix(),
        "profile_matrix": profile_matrix,
        "explored_cells": len(explored),
        "possible_cells": possible,
        "new_findings": new_findings,
        "open_findings": [
            {"id": r["id"], "verdict": r["verdict"],
             "topo": r["case"]["topo"], "op": r["case"]["op"],
             "profile": r["case"]["profile"],
             "golden": bool(r.get("golden")),
             "minimized_nranks":
                 (r.get("minimized") or {}).get("nranks")}
            for r in store.findings()],
        "golden": [r["id"] for r in store.golden()],
        "gates": gates,
        "passed": all(gates.values()),
    }
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")
    say(f"done: {executed} cases in {report['wall_s']}s, "
        f"verdicts={verdicts}, coverage "
        f"{report['explored_cells']}/{possible} cells, "
        f"{len(store.findings())} open finding(s)")
    for name, ok in gates.items():
        say(f"  gate {name}: {'PASS' if ok else 'FAIL'}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.autopilot",
        description="Coverage-guided chaos autopilot: generate, "
                    "execute, classify, minimize, persist.")
    parser.add_argument("--budget-s", type=float, default=60.0,
                        help="time budget; maps deterministically to a "
                             "case count (default 60)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-cases", type=int, default=None,
                        help="exact case count (overrides --budget-s)")
    parser.add_argument("--store", default=None,
                        help=f"corpus store path (default "
                             f"{default_store_path()!r}, or "
                             f"$REPRO_CHAOS_CORPUS)")
    parser.add_argument("--report", default="CHAOS_autopilot.json",
                        help="summary report path ('' disables)")
    parser.add_argument("--profiles", default=None,
                        help="comma-separated fault-profile subset, "
                             f"from {', '.join(PROFILES)}")
    parser.add_argument("--runtime-every", type=int, default=0,
                        help="replay every k-th case on real processes "
                             "(0 = simulator only)")
    parser.add_argument("--no-minimize", action="store_true",
                        help="skip auto-minimization of findings")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when a fatal verdict "
                             f"({', '.join(FATAL_VERDICTS)}) or one "
                             "its profile's contract forbids occurred")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    profiles = tuple(p.strip() for p in args.profiles.split(",")
                     if p.strip()) if args.profiles else None
    report = run_autopilot(
        seed=args.seed, budget_s=args.budget_s,
        max_cases=args.max_cases, store_path=args.store,
        report_path=args.report or None, profiles=profiles,
        runtime_every=args.runtime_every,
        minimize=not args.no_minimize, quiet=args.quiet)
    if args.check and not report["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
