"""Benchmark of the collective library: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim_paragon --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (see perfbench/README.md).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it is the run header.  The library is
imported from ``src/`` next to this directory; without it the run exits
with status 2 and prints no result.
"""

from time import perf_counter

_T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: percentile of ``op_tail_ms`` on workloads whose ops are alike; on the
#: simulator workloads the tail is the slowest cell's median instead
TAIL_PCT = 90
#: set-up is timed in this many fresh processes besides the run's own
SETUP_CHILDREN = 4
#: samples of the reference kernel behind each set-up figure
SETUP_REF_SAMPLES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up once and print it (used internally)")
    return ap.parse_args(argv)


def _hermetic_env() -> list:
    """Drop every REPRO_* switch so no ambient profile or flag can
    change which algorithm runs; keep temporary files in the checkout."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in cleared:
        del os.environ[k]
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    # multiprocessing backs shared arrays with a file in /dev/shm when it
    # can; this sends them to TMPDIR as well
    import multiprocessing.heap
    multiprocessing.heap.Arena._dir_candidates = []
    return cleared


def typical(ops):
    """``(p50, p50 label, tail, tail label)`` of the op times, in seconds.

    Simulator ops mix cells that take 10 ms to 1 s, so a percentile over
    all of them would land on whichever cell the op count puts there.
    There every cell counts once: the p50 is the median of the cells'
    medians and the tail is the mean of the slowest cell, whose handful
    of ops a mean sums up more steadily than a median.  Ops that are
    alike use the median and the fixed TAIL_PCT percentile.
    """
    cells = {}
    for t, _, cell in ops:
        cells.setdefault(cell, []).append(t)
    if None not in cells:
        medians = [statistics.median(ts) for ts in cells.values()]
        means = {c: statistics.fmean(ts) for c, ts in cells.items()}
        slowest = max(means, key=means.get)
        return (statistics.median(medians), "median of cell medians",
                means[slowest], f"mean of {slowest}")
    times = cells[None]
    tail_s = (statistics.quantiles(times, n=100)[TAIL_PCT - 1]
              if len(times) > 1 else times[0])
    return statistics.median(times), "p50", tail_s, f"p{TAIL_PCT}"


def _rss_mb(ranks: int, ref) -> float:
    """Peak RSS of this process plus ``ranks`` times its largest reaped
    child (the rank processes), without the reference kernel's data,
    which every forked rank holds as well."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + ranks * child) / 1024.0 - (1 + ranks) * ref.footprint_mb


def _setup_children(args) -> list:
    samples = []
    for _ in range(SETUP_CHILDREN):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def _measure(wl, seconds: float, ref, tracer=None):
    """Run rounds until ``seconds`` have passed.

    Untraced, every round counts.  Traced, rounds alternate between
    wrapped and unwrapped library code until both kinds ran.  Returns
    ``{traced: (ops, busy seconds)}`` and the library counts of the
    traced rounds.
    """
    got = {False: ([], 0.0), True: ([], 0.0)}
    counts = {}
    start = perf_counter()
    i = 0
    while True:
        if perf_counter() - start >= seconds and (
                tracer is None or (got[False][0] and got[True][0])):
            break
        on = tracer is not None and i % 2 == 0
        if on:
            tracer.install()
        try:
            ops, busy = wl.round(ref)
        finally:
            if on:
                tracer.uninstall()
        done, busy_total = got[on]
        got[on] = (done + ops, busy_total + busy)
        if on:
            for k, v in wl.counts.items():
                counts[k] = counts.get(k, 0) + v
        i += 1
    return got, counts


#: how a per-layer figure of each unit scales with host speed
_HOST_TIME = {"us": 1, "ms": 1, "s": 1, "GB/s": -1}


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: library sources not found under {SRC}",
              file=sys.stderr)
        return 2
    cleared = _hermetic_env()
    # the run, its reference kernel and rank processes (forked, so they
    # inherit this) share one CPU: ranks on two vCPUs of a shared VM wait
    # on the host to wake each other, and that wait swings 2-3x with the
    # host's load, unseen by a kernel on either vCPU
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, SRC)
    import numpy
    import workloads
    t_imported = perf_counter()

    wl = workloads.make(args.workload, args.seed)
    t0 = perf_counter()
    setup_ok = wl.setup()
    setup_s = (t_imported - _T_START) + (perf_counter() - t0)

    from hostspeed import Reference
    ref = Reference()
    for _ in range(SETUP_REF_SAMPLES):
        ref.sample()
    setup = {"setup_s": setup_s, "scaled_s": setup_s * ref.scale()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    ref.restart()
    got, counts = _measure(wl, args.seconds, ref, tracer)
    rss = _rss_mb(wl.ranks, ref)
    plain, busy = got[False]
    traced, traced_busy = got[True]
    ops = plain + traced
    scale = ref.scale()
    failed = sum(1 for _, ok, _ in ops if not ok) + (not setup_ok)

    header = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": platform.node(), "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "cleared_env": cleared,
        "profile_priced": getattr(wl.machine, "profile", None) is not None,
        "host_scale": scale, "ref_samples": len(ref.samples),
        "ref_footprint_mb": ref.footprint_mb,
        **wl.header(),
    }
    if tracer is None:
        p50_s, p50_of, tail_s, tail_of = typical(plain)
        setups = [setup] + _setup_children(args)
        header.update(op_p50=p50_of, op_tail=tail_of, op_samples=len(plain),
                      setup_samples=setups,
                      raw={"ops_per_s": len(plain) / busy,
                           "op_p50_ms": 1e3 * p50_s,
                           "op_tail_ms": 1e3 * tail_s})
        metrics = {
            "setup_s": (statistics.median(s["scaled_s"] for s in setups),
                        "s"),
            "ops_per_s": (len(plain) / (busy * scale), "1/s"),
            "op_p50_ms": (1e3 * scale * p50_s, "ms"),
            "op_tail_ms": (1e3 * scale * tail_s, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "simulated_us_per_op": (wl.simulated_us_per_op(), "sim_us"),
        }
    else:
        from spans import UNITS, layer_metrics
        layers = layer_metrics(tracer.spans, len(traced), counts)
        for k, v in layers.items():
            layers[k] = v * scale ** _HOST_TIME.get(UNITS[k], 0)
        layers["trace.overhead"] = 100.0 * (
            (len(plain) / busy) / (len(traced) / traced_busy) - 1.0)
        metrics = {k: (v, UNITS[k]) for k, v in layers.items()}
        header.update(traced_ops=len(traced), untraced_ops=len(plain),
                      spans=len(tracer.spans))
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    print(json.dumps({"header": header}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops) + 1,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
