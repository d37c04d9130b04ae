"""Machine characterization: measure alpha, beta and gamma empirically.

Section 11: "To port the library between platforms or tune it for new
operating system releases, it suffices to enter a few parameters that
describe the latency, bandwidth and computation characteristics of the
system" — and reference [9] (Littlefield, *Characterizing and Tuning
Communications Performance on the Touchstone Delta and iPSC/860*) is
the measurement methodology.

This module runs the classic experiments against a machine — treating
it as a black box, exactly as one would on real hardware:

* **ping-pong** over a range of message lengths: round-trip time is
  ``2 (alpha + n beta)``, so a least-squares line through
  (bytes, half-round-trip) yields alpha (intercept) and beta (slope);
* **combine loop**: timing ``k`` element-wise additions of an
  ``n``-vector yields gamma.

Real machines are noisy: every measurement accepts a ``trials`` count
and reduces repeated runs with a **deterministic aggregator** (median
by default, min-of-k available) so one scheduler hiccup cannot skew a
fitted constant, and the per-length dispersion is available through the
``*_trials`` variants for provenance recording (the per-host profiles
of :mod:`repro.runtime.profile` persist it).  On the deterministic
simulator repeated trials are bit-identical, so ``trials=1`` remains
exact there.

The result is a :class:`~repro.core.params.MachineParams` ready to feed
the strategy :class:`~repro.core.selection.Selector` — the library's
entire porting procedure, automated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from statistics import median
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.machine import Machine
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


@dataclass(frozen=True)
class TrialSample:
    """One measured quantity with its repeated-trial provenance."""

    nbytes: int          #: message length (or element count) probed
    value: float         #: aggregated seconds
    trials: Tuple[float, ...]  #: every raw trial, in measurement order
    spread: float        #: relative dispersion of the trials

    def to_json(self) -> dict:
        return {"nbytes": self.nbytes, "value": self.value,
                "trials": list(self.trials), "spread": self.spread}


def measure_pingpong_trials(machine: Machine, lengths: Sequence[int],
                            src: int = 0, dst: Optional[int] = None,
                            trials: int = 1, aggregate: str = "median"
                            ) -> List[TrialSample]:
    """Half round-trip times with full repeated-trial provenance.

    ``dst`` defaults to the most distant node (distance is irrelevant
    under wormhole routing, but measuring the far corner proves it).
    """
    if dst is None:
        dst = machine.nnodes - 1
    if src == dst:
        raise ValueError("ping-pong needs two distinct nodes")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    out: List[TrialSample] = []
    for nbytes in lengths:
        def prog(env):
            payload = np.zeros(int(nbytes), dtype=np.uint8)
            if env.rank == src:
                yield env.send(dst, payload)
                yield env.recv(dst)
            elif env.rank == dst:
                data = yield env.recv(src)
                yield env.send(src, data)

        raw = tuple(machine.run(prog, ranks=[src, dst]).time / 2.0
                    for _ in range(trials))
        out.append(TrialSample(int(nbytes), aggregate_trials(raw, aggregate),
                               raw, trial_spread(raw)))
    return out


def measure_pingpong(machine: Machine, lengths: Sequence[int],
                     src: int = 0, dst: Optional[int] = None,
                     trials: int = 1, aggregate: str = "median"
                     ) -> List[Tuple[int, float]]:
    """Aggregated half round-trip times between two nodes per length."""
    return [(s.nbytes, s.value)
            for s in measure_pingpong_trials(machine, lengths, src, dst,
                                             trials=trials,
                                             aggregate=aggregate)]


def fit_alpha_beta(samples: Sequence[Tuple[int, float]]
                   ) -> Tuple[float, float]:
    """Least-squares fit of ``t = alpha + n beta`` through ping-pong
    samples, constrained to the physical region alpha, beta >= 0.

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


def measure_gamma(machine: Machine, nelems: int = 65536,
                  trials: int = 1, aggregate: str = "median") -> float:
    """Per-element combine time, measured on one node."""
    def prog(env):
        yield env.compute(nelems)

    raw = [machine.run(prog, ranks=[0]).time / nelems
           for _ in range(trials)]
    return aggregate_trials(raw, aggregate)


def measure_overhead(machine: Machine, calls: int = 64,
                     trials: int = 1, aggregate: str = "median") -> float:
    """Per-call library software overhead, measured on one node."""
    def prog(env):
        yield env.overhead(calls)

    raw = [machine.run(prog, ranks=[0]).time / calls
           for _ in range(trials)]
    return aggregate_trials(raw, aggregate)


def calibrate(machine: Machine,
              lengths: Sequence[int] = (0, 64, 1024, 16384, 262144),
              trials: int = 1, aggregate: str = "median",
              ) -> MachineParams:
    """Full characterization: returns MachineParams fitted from
    black-box measurements of the machine.

    ``trials``/``aggregate`` harden every measurement against
    wall-clock noise (no-ops on the deterministic simulator);
    ``link_capacity`` is probed with the two-interleaved-flows
    experiment: if two messages crossing the same channel still run at
    full rate, the machine has excess link bandwidth.
    """
    samples = measure_pingpong(machine, lengths, trials=trials,
                               aggregate=aggregate)
    alpha, beta = fit_alpha_beta(samples)
    gamma = measure_gamma(machine, trials=trials, aggregate=aggregate)
    overhead = measure_overhead(machine, trials=trials, aggregate=aggregate)
    capacity = _probe_link_capacity(machine, alpha, beta)
    return MachineParams(alpha=alpha, beta=beta, gamma=gamma,
                         sw_overhead=overhead, link_capacity=capacity)


def _probe_link_capacity(machine: Machine, alpha: float,
                         beta: float) -> float:
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
