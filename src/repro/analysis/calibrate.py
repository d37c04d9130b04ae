"""Machine characterization: measure alpha, beta, gamma and overhead.

Section 11: "To port the library between platforms or tune it for new
operating system releases, it suffices to enter a few parameters that
describe the latency, bandwidth and computation characteristics of the
system" — and reference [9] (Littlefield, *Characterizing and Tuning
Communications Performance on the Touchstone Delta and iPSC/860*) is
the measurement methodology.

One set of probe programs measures both backends.  Each program times
itself on ``env.now``, which is simulated seconds on
:class:`~repro.sim.Machine` and wall seconds on
:class:`~repro.runtime.ProcessMachine`, treating the machine as a
black box exactly as one would on real hardware:

* :func:`pingpong_prog` over a range of message lengths: half a round
  trip is ``alpha + n beta``, so a least-squares line through (bytes,
  half-round-trip) yields alpha (intercept) and beta (slope);
* :func:`ring_prog`: the same line with every rank's message in flight
  at once;
* :func:`gamma_prog`: real ``np.add`` over an ``n``-vector, charged as
  one ``env.compute``, yields gamma;
* :func:`overhead_prog`: timed ``env.overhead()`` calls yield the
  per-call software overhead.

:func:`probe` runs a program per length for ``trials`` repeated runs,
takes the slowest rank of each run, and reduces the runs with a
**deterministic aggregator** (median, min-of-k or mean) so one
scheduler hiccup cannot skew a fitted constant; every raw trial and
its dispersion stay on the :class:`TrialSample` for provenance.  On
the deterministic simulator repeated trials are bit-identical, so
``trials=1`` remains exact there.

:func:`calibrate` is the simulator's porting procedure (the far-corner
pair plus the link-capacity probe) and returns a
:class:`~repro.core.params.MachineParams` ready to feed the strategy
:class:`~repro.core.selection.Selector`;
:func:`repro.runtime.profile.calibrate_runtime` builds the process
backend's per-host profile from the same programs.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from statistics import median
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.params import MachineParams

#: Deterministic reducers for repeated noisy trials.  ``median`` is
#: robust to symmetric jitter; ``min`` is the classic "best observed
#: time" estimator for one-sided (always-additive) OS noise.
AGGREGATORS: dict = {
    "median": lambda values: float(median(values)),
    "min": lambda values: float(min(values)),
    "mean": lambda values: float(sum(values) / len(values)),
}


def aggregate_trials(values: Sequence[float], how: str = "median") -> float:
    """Reduce repeated measurements of one quantity deterministically."""
    if not values:
        raise ValueError("no trial values to aggregate")
    try:
        fn: Callable[[Sequence[float]], float] = AGGREGATORS[how]
    except KeyError:
        raise KeyError(f"unknown aggregator {how!r}; "
                       f"available: {sorted(AGGREGATORS)}") from None
    return fn(list(values))


def trial_spread(values: Sequence[float]) -> float:
    """Relative dispersion ``(max - min) / median`` of repeated trials
    (0.0 for a single trial or an all-zero median)."""
    if len(values) < 2:
        return 0.0
    mid = median(values)
    if mid == 0:
        return 0.0
    return (max(values) - min(values)) / abs(mid)


class TrialSample(NamedTuple):
    """One measured quantity with its repeated-trial provenance.

    Its first two fields are the ``(length, seconds)`` point that
    :func:`fit_alpha_beta` fits.
    """

    nbytes: int          #: message length (or element count) probed
    value: float         #: aggregated seconds
    trials: Tuple[float, ...]  #: every raw trial, in measurement order
    spread: float        #: relative dispersion of the trials

    def to_json(self) -> dict:
        return {"nbytes": self.nbytes, "value": self.value,
                "trials": list(self.trials), "spread": self.spread}


# ----------------------------------------------------------------------
# probe programs (each returns its measurement, timed on env.now)
# ----------------------------------------------------------------------


def pingpong_prog(nbytes: int, reps: int = 1,
                  pair: Optional[Tuple[int, int]] = None,
                  echo_delay_s: float = 0.0):
    """Ping-pong: the leading rank of a pair returns its mean
    half-round-trip seconds over ``reps`` round trips.

    ``pair=(a, b)`` times ``a <-> b`` with ``a`` leading; other ranks
    idle.  By default the disjoint pairs ``2i <-> 2i+1`` run at once:
    the plain probe on 2 ranks, ``c/2`` concurrent messages on ``c``
    (on an odd world the last rank has no partner and idles).
    One untimed round trip warms the path first.  ``echo_delay_s``
    delays every echo by a known amount (a synthetic machine with
    chosen constants on top of a real transport).
    """
    if pair is not None and pair[0] == pair[1]:
        raise ValueError("ping-pong needs two distinct nodes")

    def prog(env):
        if pair is None:
            other, leads = env.rank ^ 1, env.rank % 2 == 0
            if other >= env.nranks:
                return None
        elif env.rank in pair:
            leads = env.rank == pair[0]
            other = pair[1] if leads else pair[0]
        else:
            return None
        payload = np.zeros(int(nbytes), dtype=np.uint8)
        if leads:
            yield env.send(other, payload)      # warm the path
            yield env.recv(other)
            t0 = env.now
            for _ in range(reps):
                yield env.send(other, payload)
                yield env.recv(other)
            return (env.now - t0) / (2.0 * reps)
        for _ in range(reps + 1):
            got = yield env.recv(other)
            if echo_delay_s > 0.0:
                yield env.delay(echo_delay_s)
            yield env.send(other, got)
        return None
    return prog


def ring_prog(nbytes: int, reps: int = 1):
    """Full ring exchange: every rank sends to ``(r+1) % p`` and
    receives from ``(r-1) % p``, ``p`` messages in flight per step.
    Each rank returns its mean per-step seconds.
    """
    def prog(env):
        payload = np.zeros(int(nbytes), dtype=np.uint8)
        nxt = (env.rank + 1) % env.nranks
        prv = (env.rank - 1) % env.nranks
        s = env.isend(nxt, payload)             # warm the path
        r = env.irecv(prv)
        yield env.waitall(s, r)
        t0 = env.now
        for _ in range(reps):
            s = env.isend(nxt, payload)
            r = env.irecv(prv)
            yield env.waitall(s, r)
        return (env.now - t0) / reps
    return prog


def gamma_prog(nelems: int, reps: int = 1):
    """Per-element combine seconds: ``reps`` real ``np.add`` calls over
    ``nelems`` elements, charged as one ``env.compute`` (the simulator
    prices the charge; real processes pay for the arithmetic)."""
    def prog(env):
        a = np.arange(nelems, dtype=np.float64)
        b = np.ones(nelems, dtype=np.float64)
        out = np.empty_like(a)
        np.add(a, b, out=out)                   # warm caches/ufunc
        t0 = env.now
        for _ in range(reps):
            np.add(a, b, out=out)
        yield env.compute(nelems * reps)
        return (env.now - t0) / (nelems * reps)
    return prog


def overhead_prog(calls: int):
    """Per-call library software overhead: ``calls`` timed
    ``env.overhead()`` requests through the env's dispatch loop."""
    def prog(env):
        yield env.overhead()                    # warm the dispatch path
        t0 = env.now
        for _ in range(calls):
            yield env.overhead()
        return (env.now - t0) / calls
    return prog


def probe(machine, make_prog: Callable[[int], Callable],
          lengths: Sequence[int], *, trials: int,
          aggregate: str) -> List[TrialSample]:
    """Measure ``make_prog(n)`` for every length ``n`` on either backend.

    Each of ``trials`` runs yields the maximum over the ranks that
    return a value; the runs are reduced by ``aggregate``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    out: List[TrialSample] = []
    for n in lengths:
        prog = make_prog(n)
        raw = tuple(max(t for t in machine.run(prog).results
                        if t is not None)
                    for _ in range(trials))
        out.append(TrialSample(int(n), aggregate_trials(raw, aggregate),
                               raw, trial_spread(raw)))
    return out


def fit_alpha_beta(samples: Sequence[Tuple[int, float]]
                   ) -> Tuple[float, float]:
    """Least-squares fit of ``t = alpha + n beta`` through ping-pong
    samples (``(length, seconds)`` pairs or :class:`TrialSample`\\ s),
    constrained to the physical region alpha, beta >= 0.

    The unconstrained line can fit a negative intercept (one-sided
    noise at small lengths) or a negative slope.  Clamping the negative
    coefficient *after* the fit would leave the other coefficient
    biased by the discarded term, so the offending coefficient is
    pinned at zero and the remaining one refit — the active-set
    solution of the non-negative least-squares problem for a line.
    """
    if len(samples) < 2:
        raise ValueError("need at least two lengths to fit a line")
    n = np.array([s[0] for s in samples], dtype=np.float64)
    t = np.array([s[1] for s in samples], dtype=np.float64)
    A = np.vstack([np.ones_like(n), n]).T
    (alpha, beta), *_ = np.linalg.lstsq(A, t, rcond=None)
    alpha, beta = float(alpha), float(beta)
    if alpha < 0.0:
        # refit the slope through the origin instead of keeping the
        # slope that compensated for the impossible negative intercept
        denom = float(n @ n)
        alpha, beta = 0.0, (float(n @ t) / denom if denom > 0 else 0.0)
    if beta < 0.0:
        # flat (or decreasing-with-noise) samples: pure latency
        alpha, beta = float(np.mean(t)), 0.0
    return max(alpha, 0.0), max(beta, 0.0)


def calibrate(machine,
              lengths: Sequence[int] = (0, 64, 1024, 16384, 262144),
              trials: int = 1, aggregate: str = "median",
              ) -> MachineParams:
    """Full characterization of a simulated machine: returns
    MachineParams fitted from black-box measurements.

    The ping-pong runs between node 0 and the far corner (distance is
    irrelevant under wormhole routing, but measuring the far corner
    proves it).  ``trials``/``aggregate`` harden every measurement
    against wall-clock noise (no-ops on the deterministic simulator);
    ``link_capacity`` is probed with the two-interleaved-flows
    experiment: if two messages crossing the same channel still run at
    full rate, the machine has excess link bandwidth.
    """
    far = (0, machine.nnodes - 1)

    def measure(make_prog, lengths):
        return probe(machine, make_prog, lengths, trials=trials,
                     aggregate=aggregate)

    alpha, beta = fit_alpha_beta(
        measure(partial(pingpong_prog, pair=far), lengths))
    (gamma,) = measure(gamma_prog, [65536])
    (overhead,) = measure(overhead_prog, [64])
    capacity = _probe_link_capacity(machine, alpha, beta)
    return MachineParams(alpha=alpha, beta=beta, gamma=gamma.value,
                         sw_overhead=overhead.value,
                         link_capacity=capacity)


def _probe_link_capacity(machine, alpha: float, beta: float) -> float:
    """Estimate how many interleaved messages a channel carries at full
    rate, by timing k flows forced through one channel for growing k."""
    nbytes = 65536
    base = alpha + nbytes * beta
    # degenerate fits (beta ~ 0: no per-byte signal; base ~ 0: the
    # probe's full-rate criterion `t <= base * 1.05` would be vacuous
    # or divide-by-zero-adjacent) cannot resolve capacity — report the
    # conservative 1.0 of the plain section 2 model
    if machine.nnodes < 4 or beta <= 0 or base <= 0:
        return 1.0

    def contended(env, k):
        # flows i -> i+k for i in 0..k-1 share the middle channels
        reqs = []
        if env.rank < k:
            reqs.append(env.isend(env.rank + k,
                                  np.zeros(nbytes, dtype=np.uint8)))
        elif env.rank < 2 * k:
            reqs.append(env.irecv(env.rank - k))
        if reqs:
            yield env.waitall(*reqs)

    capacity = 1.0
    for k in (2, 3, 4, 6, 8):
        if 2 * k > machine.nnodes:
            break
        # the probe is only meaningful if all k routes really do cross
        # a common channel (on a mesh, large k wraps into the next row
        # and the flows separate)
        counts = Counter()
        for i in range(k):
            counts.update(machine.topology.route(i, i + k))
        if not counts or max(counts.values()) < k:
            break
        t = machine.run(contended, k, ranks=range(2 * k)).time
        if t <= base * 1.05:
            capacity = float(k)
        else:
            break
    return capacity
