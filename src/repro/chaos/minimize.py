"""Delta-debugging auto-minimizer for failing chaos cases.

Given a case whose verdict is a finding, :func:`minimize_case` searches
for the *smallest* case that still reproduces the same verdict: fewer
ranks (topology ladder), smaller payloads, fewer fault events, no
jitter, no subgroup.  Every candidate is **replayed deterministically**
(:func:`repro.chaos.executor.execute_case` — the simulator and the
schedule are both pure functions of the case dict) and accepted only
when the verdict is preserved and the case got strictly smaller, so the
greedy first-improvement loop terminates and never walks a reduction
that changes the failure mode.

Shrinking the topology *remaps* fault events instead of dropping them:
node/rank references clamp into the smaller world and link endpoints
must still be physical channels — a crash at node 9 of a 12-node line
survives as a crash at the last node of the shrunken line.  That is
what lets a planted 12-rank failure reduce to <= 4 ranks while staying
the same *kind* of failure.

``python -m repro.chaos.minimize --plant crash --check`` plants a known
failing case, minimizes it, writes the reproducer JSON, and gates on
the acceptance criteria (final world <= 4 ranks, verdict preserved).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.faults import (ByzantineRank, FaultSchedule, NodeCrash,
                               WithholdingRank)
from repro.sim import preset

from .executor import execute_case
from .generator import ChaosCase, topo_nranks
from .oracles import clean_run


def _shrunk_topos(topo: Tuple) -> List[Tuple]:
    """Strictly smaller topology descriptions, most aggressive first."""
    kind = topo[0]
    out: List[Tuple] = []
    if kind in ("linear", "ring"):
        p = topo[1]
        for q in (p // 2, p - 1):
            if 2 <= q < p:
                out.append((kind, q))
    elif kind in ("mesh", "torus"):
        r, c = topo[1], topo[2]
        for nr, nc in ((max(2, r // 2), c), (r, max(2, c // 2)),
                       (r - 1, c), (r, c - 1)):
            if nr >= 2 and nc >= 2 and nr * nc < r * c:
                out.append((kind, nr, nc))
    elif kind == "hypercube":
        d = topo[1]
        if d > 1:
            out.append((kind, d - 1))
    seen = set()
    uniq = []
    for t in out:
        if t not in seen:
            seen.add(t)
            uniq.append(t)
    return uniq


def _remap_events(events: List[Dict], old_p: int,
                  new_topo: Tuple) -> List[Dict]:
    """Remap fault-event node/rank references into the smaller world.

    Out-of-range node/rank references scale *proportionally* rather
    than clamping to the last node: an interior crash (which starves
    downstream ranks) stays interior, so the failure mode survives the
    shrink.  Link endpoints must name a physical channel of the new
    topology; links that remap onto nothing (or onto themselves) are
    dropped.
    """
    from .generator import build_topology

    new_p = topo_nranks(new_topo)
    channels = set(build_topology(new_topo).channels())

    def remap(ref: int) -> int:
        if old_p <= 1:
            return 0
        # proportional, floored: an interior reference stays interior
        # (only the exact last node maps to the new last node), so an
        # interior crash keeps starving downstream ranks after a shrink
        return min(new_p - 1, int(ref * (new_p - 1) / (old_p - 1)))

    out = []
    for ev in events:
        ev = dict(ev)
        for key in ("node", "rank"):
            if key in ev:
                ev[key] = remap(ev[key])
        if "u" in ev:
            u = remap(ev["u"])
            v = remap(ev["v"])
            if u == v or ((u, v) not in channels
                          and (v, u) not in channels):
                continue
            ev["u"], ev["v"] = u, v
        out.append(ev)
    return out


def _normalize(case: ChaosCase) -> ChaosCase:
    """Re-establish case invariants after a structural reduction."""
    size = len(case.members())
    if case.op in ("collect", "reduce_scatter") and case.n < size:
        case = replace(case, n=size)
    faults = case.faults
    if faults and not faults.get("events") and not faults.get("jitter"):
        case = replace(case, faults={})
    return case


def _with_topo(case: ChaosCase, new_topo: Tuple) -> ChaosCase:
    new_p = topo_nranks(new_topo)
    group = case.group
    if group is not None:
        group = tuple(m for m in group if m < new_p)
        if len(group) < 2:
            group = None
    faults = case.faults
    if faults:
        faults = dict(faults)
        faults["events"] = _remap_events(faults.get("events", []),
                                         case.nranks, new_topo)
    return _normalize(replace(case, topo=new_topo, group=group,
                              faults=faults))


def _rescale_times(old_case: ChaosCase, new_case: ChaosCase
                   ) -> ChaosCase:
    """Scale event times to the reduced config's clean duration.

    Event times are stored absolute, scaled to the original case's
    fault-free duration.  A structural reduction (fewer ranks, smaller
    payload) shrinks that duration — without rescaling, a mid-collective
    crash lands *after* the smaller collective already finished and the
    failure evaporates, walling the minimizer off from every further
    reduction.  Keeping the fault at the same relative phase preserves
    the failure mode; the replay check still has the final say.
    """
    faults = new_case.faults
    if not faults or not faults.get("events"):
        return new_case
    t_old, _ = clean_run(old_case)
    t_new, _ = clean_run(new_case)
    if t_old <= 0.0 or t_new <= 0.0 or t_new == t_old:
        return new_case
    ratio = t_new / t_old
    events = []
    for ev in faults["events"]:
        ev = dict(ev)
        for key in ("t", "duration"):
            if isinstance(ev.get(key), (int, float)):
                ev[key] = ev[key] * ratio
        events.append(ev)
    rescaled = dict(faults)
    rescaled["events"] = events
    return replace(new_case, faults=rescaled)


def _candidates(case: ChaosCase) -> List[Tuple[str, ChaosCase]]:
    """Deterministic reduction candidates, biggest wins first."""
    out: List[Tuple[str, ChaosCase]] = []
    for topo in _shrunk_topos(case.topo):
        out.append((f"topo->{topo}",
                    _rescale_times(case, _with_topo(case, topo))))
    if case.group is not None:
        out.append(("group->None",
                    _rescale_times(case,
                                   _normalize(replace(case,
                                                      group=None)))))
    faults = case.faults or {}
    if any(ev.get("t") for ev in faults.get("events", ())):
        zeroed = dict(faults)
        zeroed["events"] = [dict(ev, t=0.0) if ev.get("t") else ev
                            for ev in faults["events"]]
        out.append(("t->0", _normalize(replace(case, faults=zeroed))))
    for n in (case.n // 2, 1):
        if max(n, 1) < case.n:
            reduced = _normalize(replace(case, n=max(n, 1)))
            out.append((f"n->{reduced.n}",
                        _rescale_times(case, reduced)))
    events = list(faults.get("events", []))
    for i in range(len(events)):
        trimmed = dict(faults)
        trimmed["events"] = events[:i] + events[i + 1:]
        out.append((f"drop-event-{i}",
                    _normalize(replace(case, faults=trimmed))))
    if faults.get("jitter"):
        nojit = dict(faults)
        nojit["jitter"] = 0.0
        out.append(("jitter->0",
                    _normalize(replace(case, faults=nojit))))
    return out


def _weight(case: ChaosCase) -> Tuple:
    """Lexicographic size: candidates must strictly decrease it."""
    faults = case.faults or {}
    events = faults.get("events", ())
    return (case.nranks, case.n, len(events),
            sum(1 for ev in events if ev.get("t")),
            1 if faults.get("jitter") else 0,
            0 if case.group is None else 1)


def minimize_case(case: ChaosCase, target_verdict: Optional[str] = None,
                  max_steps: int = 64, **execute_kwargs
                  ) -> Tuple[ChaosCase, Dict]:
    """Greedy first-improvement minimization with replay at every step.

    Returns ``(minimal_case, info)``; ``info`` records the target
    verdict, accepted reduction steps, total replays, and the minimal
    case's final record.  A differential finding keeps the runtime
    slice on during replays (the verdict needs both backends);
    everything else minimizes on the simulator alone.
    """
    if target_verdict is None:
        target_verdict = execute_case(case, **execute_kwargs)["verdict"]
    if target_verdict == "sim-runtime-divergence":
        execute_kwargs.setdefault("runtime_slice", True)
    replays = 0
    steps: List[str] = []
    current = case
    final_record = None
    if target_verdict == "ok":
        return current, {"target_verdict": "ok", "steps": steps,
                         "replays": replays, "final_record": None}
    improved = True
    while improved and len(steps) < max_steps:
        improved = False
        for label, cand in _candidates(current):
            if _weight(cand) >= _weight(current):
                continue
            replays += 1
            rec = execute_case(cand, **execute_kwargs)
            if rec["verdict"] == target_verdict:
                current = cand
                final_record = rec
                steps.append(label)
                improved = True
                break
    if final_record is None:
        final_record = execute_case(current, **execute_kwargs)
        replays += 1
    info = {"target_verdict": target_verdict, "steps": steps,
            "replays": replays, "final_record": final_record}
    return current, info


# -- planted failures (CI gate + tests) ---------------------------------

PLANT_KINDS = ("crash", "byzantine", "withholding")


def plant_case(kind: str, seed: int = 0) -> ChaosCase:
    """A known failing case of the given kind, deterministic in seed.

    Used by the CI reproducer gate and the tests: plants produce a
    ``diagnosed-fault`` verdict on worlds well above the minimizer's
    <= 4 rank target, so minimization has real work to do.
    """
    if kind == "crash":
        base = ChaosCase(topo=("linear", 12), params="paragon",
                         op="bcast", n=64, dtype="float64", group=None,
                         profile="crash", faults={},
                         origin=f"plant/crash/{seed}")
        t_clean, _ = clean_run(base)
        sched = FaultSchedule(
            events=(NodeCrash(t=0.25 * t_clean, node=9),),
            deadline=5000.0 * t_clean
            + (1 << 16) * preset(base.params).alpha)
        return replace(base, faults=sched.to_dict())
    if kind == "byzantine":
        base = ChaosCase(topo=("ring", 8), params="paragon",
                         op="allreduce", n=64, dtype="float64",
                         group=None, profile="byzantine", faults={},
                         origin=f"plant/byzantine/{seed}")
        t_clean, _ = clean_run(base)
        sched = FaultSchedule(
            events=(ByzantineRank(rank=5),), seed=seed,
            deadline=5000.0 * t_clean
            + (1 << 16) * preset(base.params).alpha)
        return replace(base, faults=sched.to_dict())
    if kind == "withholding":
        base = ChaosCase(topo=("ring", 8), params="paragon",
                         op="reduce", n=32, dtype="float64",
                         group=None, profile="withholding", faults={},
                         origin=f"plant/withholding/{seed}")
        t_clean, _ = clean_run(base)
        sched = FaultSchedule(
            events=(WithholdingRank(rank=3),), seed=seed,
            deadline=5000.0 * t_clean
            + (1 << 16) * preset(base.params).alpha)
        return replace(base, faults=sched.to_dict())
    raise ValueError(f"unknown plant kind {kind!r}; expected one of "
                     f"{sorted(PLANT_KINDS)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos.minimize",
        description="Plant a known failing case, auto-minimize it, and "
                    "write the reproducer JSON.")
    parser.add_argument("--plant", choices=PLANT_KINDS, default="crash",
                        help="which failure to plant (default: crash)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="CHAOS_reproducer.json",
                        help="reproducer output path")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the minimal case has <= 4 "
                             "ranks and replays to the same verdict")
    args = parser.parse_args(argv)

    case = plant_case(args.plant, seed=args.seed)
    original_record = execute_case(case)
    target = original_record["verdict"]
    print(f"planted {args.plant}: {case.nranks} ranks, n={case.n}, "
          f"verdict={target}")
    minimal, info = minimize_case(case, target_verdict=target)
    print(f"minimized to {minimal.nranks} ranks, n={minimal.n} in "
          f"{len(info['steps'])} steps ({info['replays']} replays): "
          f"{' -> '.join(info['steps']) or '(irreducible)'}")
    final_verdict = info["final_record"]["verdict"]
    payload = {
        "kind": "repro-chaos-reproducer",
        "version": 1,
        "planted": args.plant,
        "seed": args.seed,
        "target_verdict": target,
        "original": case.to_dict(),
        "original_nranks": case.nranks,
        "minimized": minimal.to_dict(),
        "minimized_nranks": minimal.nranks,
        "minimized_verdict": final_verdict,
        "steps": info["steps"],
        "replays": info["replays"],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    if args.check:
        ok = minimal.nranks <= 4 and final_verdict == target
        print(f"check: nranks={minimal.nranks} (<=4 required), "
              f"verdict {final_verdict!r} == {target!r}: "
              f"{'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
