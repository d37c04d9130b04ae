"""Microbenchmarks for the process backend: emit ``BENCH_runtime.json``.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.runtime.run               # full
    PYTHONPATH=src python -m benchmarks.runtime.run --grid smoke  # CI
    PYTHONPATH=src python -m benchmarks.runtime.run --transport tcp
    PYTHONPATH=src python -m benchmarks.runtime.run --check       # gate

Two experiments:

* **calibration pass** (:mod:`repro.runtime.profile`): ping-pong probes
  at three concurrency levels (plain, disjoint pairs, full ring),
  repeated trials reduced by a deterministic aggregator, gamma from
  real ``np.add``, per-request overhead — fitted into this host's
  persisted :class:`~repro.runtime.profile.MachineProfile`;
* **collective wall times** on four ranks — per-operation wall seconds
  (median over repeated trials of the slowest rank's timed loop), next
  to the simulator's *predicted* time for the same collective under the
  **fitted profile** (the model applied to the machine the measurement
  says we have).  Both sides run the shared case program of
  :mod:`repro.chaos.oracles` through the model audit's measure path:
  :func:`repro.analysis.audit.timed_program` on real processes,
  :func:`repro.analysis.audit.measure_sim` for the prediction.

Two conditions keep the wall/predicted comparison fair:

* the prediction simulates the bare case program, without the barrier
  that starts the wall clock (including it adds ~4 alpha);
* the measuring :class:`ProcessMachine` carries the fitted profile, so
  auto dispatch resolves the same strategy the predictor simulates
  (with ``params=None`` it would fall back to the fixed threshold and,
  near the crossover, execute a *different strategy*).

``--check`` gates the wall/predicted ratios: the median over the
collective grid must land in ``[0.5, 2.0]`` — the fitted model must
track live hardware within 2x where the 1994 presets sat at 1.9-4x.
It also fails on any wrong payload (the ``wrong_ranks`` field of a
collective entry).

A third experiment rides along since runtime tracing landed: every
collective is re-measured with ``trace=True`` (the ``wall_s_traced``
column), and the calibration pass's two-rank ping-pong
(:func:`repro.analysis.calibrate.pingpong_prog`) compares traced vs
untraced round trips (min over interleaved trials — the robust
statistic for an overhead comparison), pinned to one CPU and reported
next to the untraced trials' own A/A spread.  ``--check`` additionally
gates that ping-pong trace overhead below 10%: observability must stay
passive.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import sys


_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
DEFAULT_OUTPUT = os.path.join(_REPO, "BENCH_runtime.json")

#: the --check gate: median wall/predicted ratio must land inside
RATIO_GATE = (0.5, 2.0)

#: the --check gate: traced/untraced ping-pong overhead must stay below
TRACE_OVERHEAD_GATE = 0.10

GRIDS = {
    "smoke": {"pingpong_reps": 15, "pingpong_trials": 2,
              "coll_ns": [1024], "coll_reps": 5, "coll_trials": 3,
              "overhead_reps": 40, "overhead_trials": 3},
    "full": {"pingpong_reps": 20, "pingpong_trials": 3,
             "coll_ns": [1024, 65536], "coll_reps": 5, "coll_trials": 5,
             "overhead_reps": 60, "overhead_trials": 5},
}

COLLECTIVES = ["bcast", "allreduce", "collect", "reduce_scatter"]
_COLL_P = 4


def measure_collectives(machine, ns, reps, trials, fitted_params):
    """Per-collective wall seconds (median of trials of the slowest
    rank), untraced and traced, next to the fitted model's
    barrier-free prediction; every payload is checked against the
    case's oracle."""
    from repro.analysis.audit import cell_case, measure_sim, timed_program
    from repro.analysis.calibrate import trial_spread
    from repro.chaos.oracles import mismatched_ranks

    out = {}
    for op in COLLECTIVES:
        for n in ns:
            case = cell_case(op, ("line", _COLL_P), n)
            prog = timed_program(case, "auto", reps)
            raw, raw_traced, wrong = [], [], set()
            for _ in range(trials):
                for trace, sink in ((False, raw), (True, raw_traced)):
                    res = machine.run(prog, trace=trace)
                    sink.append(max(t for t, _ in res.results))
                    wrong.update(mismatched_ranks(
                        case, [got for _, got in res.results]))
            wall = statistics.median(raw)
            predicted, results = measure_sim(case, "auto", fitted_params)
            wrong.update(mismatched_ranks(case, results))
            entry = {
                "wall_s": wall,
                "wall_s_traced": statistics.median(raw_traced),
                "wall_trials": [float(t) for t in raw],
                "wall_spread": trial_spread(raw),
                "predicted_s": predicted,
                "ratio": wall / predicted if predicted > 0 else None,
            }
            if wrong:
                entry["wrong_ranks"] = sorted(wrong)
            out[f"{op}/p{_COLL_P}/n{n}"] = entry
    return out


def measure_trace_overhead(machine, reps, trials,
                           nbytes: int = 1024) -> dict:
    """Traced vs untraced ping-pong round trips on two ranks: the
    calibration pass's own ping-pong, after its warm-up round trip.

    Interleaves traced and untraced trials (so OS noise hits both
    alike) and compares the **min** of each — the robust statistic for
    an overhead question: minima discard scheduler interference, and
    instrumentation cost is a strict per-event addition that survives
    in the minimum.

    Both ranks run pinned to one CPU, as ``perfbench/run.py`` pins its
    runs: on two vCPUs of a shared host, ranks wait on the host to wake
    each other, and that wait swings more than the collector costs.
    ``aa_spread`` is the untraced runs against themselves (min of the
    odd trials over min of the even ones, minus one): an ``overhead``
    no larger than it has not resolved.
    """
    from repro.analysis.calibrate import pingpong_prog

    def once(trace: bool) -> float:
        res = machine.run(pingpong_prog(nbytes, reps), trace=trace)
        # rank 0 returns half a round trip
        return 2.0 * max(t for t in res.results if t is not None)

    # rank processes are forked per run and inherit the pinning
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        once(False)                  # warm up forks, pipes, imports
        untraced, traced = [], []
        for _ in range(trials):
            untraced.append(once(False))
            traced.append(once(True))
    finally:
        os.sched_setaffinity(0, affinity)
    best_untraced, best_traced = min(untraced), min(traced)
    return {
        "nbytes": nbytes,
        "reps": reps,
        "trials": trials,
        "untraced_s": best_untraced,
        "traced_s": best_traced,
        "untraced_trials": [float(t) for t in untraced],
        "traced_trials": [float(t) for t in traced],
        "overhead": best_traced / best_untraced - 1.0,
        "aa_spread": min(untraced[1::2]) / min(untraced[0::2]) - 1.0,
        "gate": TRACE_OVERHEAD_GATE,
    }


def ratio_stats(collectives: dict) -> dict:
    ratios = sorted(e["ratio"] for e in collectives.values()
                    if e["ratio"] is not None)
    if not ratios:
        return {"count": 0}
    return {"count": len(ratios), "median": statistics.median(ratios),
            "min": ratios[0], "max": ratios[-1],
            "gate": list(RATIO_GATE)}


def main(argv=None) -> int:
    from repro.core.params import PRESETS
    from repro.core.topology import LinearArray
    from repro.runtime import ProcessMachine
    from repro.runtime.profile import ensure_profile

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", choices=sorted(GRIDS), default="full")
    ap.add_argument("--transport", choices=("local", "tcp"),
                    default="local")
    ap.add_argument("--output", default=DEFAULT_OUTPUT,
                    help="where to write the JSON report")
    ap.add_argument("--check", action="store_true",
                    help="exit nonzero unless the median wall/predicted "
                         f"ratio lands in {list(RATIO_GATE)}")
    ap.add_argument("--recalibrate", action="store_true",
                    help="force a fresh calibration pass even if a "
                         "usable profile is stored")
    args = ap.parse_args(argv)
    grid = GRIDS[args.grid]

    print(f"# calibration pass over {args.transport} transport")
    profile = ensure_profile(transport=args.transport,
                             force=args.recalibrate,
                             reps=grid["pingpong_reps"],
                             trials=grid["pingpong_trials"],
                             progress=lambda m: print(f"  {m}"))
    fitted = profile.params
    probes = profile.provenance["probes"]
    plain = probes["uncontended"]
    for s in plain["samples"]:
        print(f"  {s['nbytes']:>8} B  {s['value'] * 1e6:10.1f} us "
              f"(spread {s['spread'] * 100:.1f}%)")
    for name in ("uncontended", "pairs", "ring"):
        fit = probes[name]["fit"]
        print(f"  {name:<12} fit: alpha = {fit['alpha_s'] * 1e6:.1f} us, "
              f"beta = {fit['beta_s_per_byte'] * 1e9:.3f} ns/B")
    print(f"  effective (pooled contended): "
          f"alpha = {fitted.alpha * 1e6:.1f} us, "
          f"beta = {fitted.beta * 1e9:.3f} ns/B"
          + (f" ({1.0 / fitted.beta / 1e6:.1f} MB/s)"
             if fitted.beta > 0 else ""))

    # the measuring machine carries the fitted profile: auto dispatch
    # resolves the same strategy the predictor simulates
    print(f"# collectives on {_COLL_P} ranks (fitted profile pricing)")
    coll_machine = ProcessMachine(_COLL_P, params=fitted,
                                  topology=LinearArray(_COLL_P),
                                  transport=args.transport, timeout=300)
    collectives = measure_collectives(coll_machine, grid["coll_ns"],
                                      grid["coll_reps"],
                                      grid["coll_trials"], fitted)
    for cid, entry in collectives.items():
        print(f"  {cid:<28} {entry['wall_s'] * 1e6:10.1f} us wall "
              f"({entry['wall_s_traced'] * 1e6:.1f} traced), "
              f"{entry['predicted_s'] * 1e6:10.1f} us predicted, "
              f"ratio {entry['ratio']:.2f}")
    stats = ratio_stats(collectives)

    print("# trace overhead (2-rank ping-pong, traced vs untraced)")
    overhead_machine = ProcessMachine(2, params=fitted,
                                      transport=args.transport,
                                      timeout=300)
    trace_overhead = measure_trace_overhead(
        overhead_machine, grid["overhead_reps"],
        grid["overhead_trials"])
    print(f"  untraced {trace_overhead['untraced_s'] * 1e6:.1f} us, "
          f"traced {trace_overhead['traced_s'] * 1e6:.1f} us per round "
          f"trip -> overhead {trace_overhead['overhead'] * 100:+.1f}% "
          f"(gate < {TRACE_OVERHEAD_GATE * 100:.0f}%; untraced A/A "
          f"spread {trace_overhead['aa_spread'] * 100:+.1f}%)")

    report = {
        "meta": {
            "transport": args.transport,
            "grid": args.grid,
            "host": socket.gethostname(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "profile": profile.to_json(),
        "pingpong": {
            "reps": grid["pingpong_reps"],
            "trials": grid["pingpong_trials"],
            "samples": [[s["nbytes"], s["value"]]
                        for s in plain["samples"]],
            "fitted": plain["fit"],
            "fitted_effective": {"alpha_s": fitted.alpha,
                                 "beta_s_per_byte": fitted.beta},
        },
        "model_presets": {
            name: {"alpha_s": p.alpha, "beta_s_per_byte": p.beta}
            for name, p in sorted(PRESETS.items())
        },
        "collectives": collectives,
        "ratio_stats": stats,
        "trace_overhead": trace_overhead,
    }
    with open(args.output, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}")

    if stats.get("count"):
        print(f"ratio median={stats['median']:.2f} "
              f"range [{stats['min']:.2f}, {stats['max']:.2f}] "
              f"gate {list(RATIO_GATE)}")
    if args.check:
        lo, hi = RATIO_GATE
        if not stats.get("count"):
            print("FAIL: no ratio samples")
            return 1
        wrong = {cid: e["wrong_ranks"] for cid, e in collectives.items()
                 if e.get("wrong_ranks")}
        if wrong:
            print(f"FAIL: wrong payloads (collective -> ranks): {wrong}")
            return 1
        if not lo <= stats["median"] <= hi:
            print(f"FAIL: median wall/predicted ratio "
                  f"{stats['median']:.3f} outside [{lo}, {hi}]")
            return 1
        if trace_overhead["overhead"] >= TRACE_OVERHEAD_GATE:
            print(f"FAIL: ping-pong trace overhead "
                  f"{trace_overhead['overhead'] * 100:.1f}% >= "
                  f"{TRACE_OVERHEAD_GATE * 100:.0f}%")
            return 1
        print(f"check passed: median ratio {stats['median']:.3f} "
              f"within [{lo}, {hi}]; trace overhead "
              f"{trace_overhead['overhead'] * 100:+.1f}% < "
              f"{TRACE_OVERHEAD_GATE * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
