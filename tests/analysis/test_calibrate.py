"""Tests for machine characterization (the section 11 porting story)."""

import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import (aggregate_trials, calibrate, fit_alpha_beta,
                            gamma_prog, overhead_prog, pingpong_prog,
                            probe, trial_spread)
from repro.runtime import ProcessMachine
from repro.sim import (DELTA, LinearArray, Machine, Mesh2D, PARAGON,
                       MachineParams, UNIT)


def halftrips(machine, lengths, pair=None, trials=1, aggregate="median"):
    """``(length, half round trip)`` points of the shared ping-pong."""
    return [(s.nbytes, s.value)
            for s in probe(machine, partial(pingpong_prog, pair=pair),
                           lengths, trials=trials, aggregate=aggregate)]


class TestPingPong:
    def test_halftrip_is_alpha_plus_n_beta(self):
        m = Machine(LinearArray(4), UNIT)
        samples = halftrips(m, [0, 10, 100])
        assert samples == [(0, 1.0), (10, 11.0), (100, 101.0)]

    def test_odd_world_idles_the_unpaired_rank(self):
        m = Machine(LinearArray(3), UNIT)
        samples = halftrips(m, [0, 10, 100])
        assert samples == [(0, 1.0), (10, 11.0), (100, 101.0)]

    def test_distance_insensitive(self):
        """Wormhole routing: the far corner costs the same as the
        neighbor."""
        m = Machine(Mesh2D(4, 8), PARAGON)
        near = halftrips(m, [1024], pair=(0, 1))
        far = halftrips(m, [1024], pair=(0, 31))
        assert near[0][1] == pytest.approx(far[0][1])

    def test_same_node_rejected(self):
        m = Machine(LinearArray(2), UNIT)
        with pytest.raises(ValueError):
            halftrips(m, [8], pair=(0, 0))


class TestFitting:
    def test_exact_line(self):
        alpha, beta = fit_alpha_beta([(0, 5.0), (10, 25.0), (20, 45.0)])
        assert alpha == pytest.approx(5.0)
        assert beta == pytest.approx(2.0)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_alpha_beta([(8, 1.0)])

    def test_clamped_non_negative(self):
        alpha, beta = fit_alpha_beta([(0, 1.0), (10, 0.5), (20, 0.0)])
        assert beta == 0.0

    def test_negative_intercept_refits_slope(self):
        """Regression: clamping a negative intercept after the
        unconstrained fit used to keep the slope that had compensated
        for it, biasing beta.  The constrained fit pins the intercept
        at zero and *refits* the slope through the origin."""
        samples = [(0, 0.0), (10, 18.0), (100, 205.0)]
        n = np.array([s[0] for s in samples], dtype=np.float64)
        t = np.array([s[1] for s in samples], dtype=np.float64)
        A = np.vstack([np.ones_like(n), n]).T
        a_unc, b_unc = np.linalg.lstsq(A, t, rcond=None)[0]
        assert a_unc < 0.0  # premise: the free fit crosses below zero

        alpha, beta = fit_alpha_beta(samples)
        assert alpha == 0.0
        # the refit slope is the through-origin least-squares solution,
        # not the biased unconstrained slope
        assert beta == pytest.approx(float(n @ t) / float(n @ n))
        assert beta != pytest.approx(float(b_unc), rel=1e-6)
        # ...and it tracks the generating slope (~2 s/byte) closely
        assert beta == pytest.approx(2.0, rel=0.05)

    def test_all_negative_slope_degrades_to_pure_latency(self):
        alpha, beta = fit_alpha_beta([(0, 3.0), (100, 1.0)])
        assert beta == 0.0
        assert alpha == pytest.approx(2.0)  # mean of the samples
        assert alpha >= 0.0


class TestAggregation:
    def test_aggregators(self):
        vals = [3.0, 1.0, 2.0, 10.0, 2.0]
        assert aggregate_trials(vals, "median") == 2.0
        assert aggregate_trials(vals, "min") == 1.0
        assert aggregate_trials(vals, "mean") == pytest.approx(3.6)

    def test_unknown_aggregator(self):
        with pytest.raises(KeyError, match="unknown aggregator"):
            aggregate_trials([1.0], "mode")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_trials([])

    def test_trial_spread(self):
        assert trial_spread([5.0]) == 0.0
        assert trial_spread([]) == 0.0
        assert trial_spread([1.0, 2.0, 3.0]) == pytest.approx(1.0)
        assert trial_spread([0.0, 0.0]) == 0.0  # zero median guarded

    def test_trials_are_noops_on_deterministic_sim(self):
        m = Machine(Mesh2D(4, 8), PARAGON)
        assert calibrate(m, trials=3) == calibrate(m)
        samples = probe(m, pingpong_prog, [0, 1024], trials=3,
                        aggregate="median")
        for s in samples:
            assert len(s.trials) == 3
            assert s.spread == 0.0
            assert s.value == s.trials[0]

    def test_trial_sample_provenance_json(self):
        m = Machine(LinearArray(4), UNIT)
        (s,) = probe(m, pingpong_prog, [10], trials=2, aggregate="median")
        d = s.to_json()
        assert d == {"nbytes": 10, "value": 11.0,
                     "trials": [11.0, 11.0], "spread": 0.0}

    def test_trials_must_be_positive(self):
        m = Machine(LinearArray(2), UNIT)
        with pytest.raises(ValueError, match="trials"):
            probe(m, pingpong_prog, [8], trials=0, aggregate="median")


class _JitterMachine:
    """The exact simulator plus seeded one-sided timing noise — a stand
    in for a real host where the OS only ever makes you *slower*.

    One draw of noise lengthens each run's round trip, so every rank's
    half-round-trip result carries half of it."""

    def __init__(self, inner, scale, seed):
        self._inner = inner
        self._rng = np.random.default_rng(seed)
        self._scale = scale

    def run(self, *args, **kwargs):
        res = self._inner.run(*args, **kwargs)
        noise = float(self._rng.exponential(self._scale))
        return SimpleNamespace(results=[
            None if r is None else r + noise / 2.0 for r in res.results])


class TestJitterStability:
    """Regression: single-shot calibration let one scheduler hiccup
    skew the fitted constants; repeated trials with a deterministic
    aggregator keep the fit stable."""

    LENGTHS = [0, 10, 100, 1000]

    def _fit(self, seed, trials, aggregate):
        noisy = _JitterMachine(Machine(LinearArray(2), UNIT),
                               scale=2.0, seed=seed)
        samples = halftrips(noisy, self.LENGTHS, trials=trials,
                            aggregate=aggregate)
        return fit_alpha_beta(samples)

    def test_min_of_k_recovers_truth(self):
        # UNIT: alpha = 1, beta = 1; jitter scale 2.0 is twice alpha
        alpha, beta = self._fit(seed=7, trials=9, aggregate="min")
        assert alpha == pytest.approx(UNIT.alpha, rel=0.25)
        assert beta == pytest.approx(UNIT.beta, rel=0.05)

    def test_multi_trial_beats_single_shot(self):
        def err(alpha, beta):
            return (abs(alpha - UNIT.alpha) / UNIT.alpha
                    + abs(beta - UNIT.beta) / UNIT.beta)

        seeds = range(5)
        single = [err(*self._fit(s, trials=1, aggregate="min"))
                  for s in seeds]
        multi = [err(*self._fit(s, trials=9, aggregate="min"))
                 for s in seeds]
        assert max(multi) < max(single)
        assert sum(multi) < sum(single)

    def test_median_aggregate_stable_across_seeds(self):
        fits = [self._fit(seed, trials=9, aggregate="median")
                for seed in range(4)]
        alphas = [a for a, _ in fits]
        betas = [b for _, b in fits]
        assert max(alphas) - min(alphas) < 1.5  # jitter scale is 2.0
        assert max(betas) == pytest.approx(min(betas), rel=0.1)
        # dispersion is recorded on every sample
        noisy = _JitterMachine(Machine(LinearArray(2), UNIT),
                               scale=2.0, seed=11)
        samples = probe(noisy, pingpong_prog, [0], trials=5,
                        aggregate="median")
        assert samples[0].spread > 0.0


class TestFullCalibration:
    @pytest.mark.parametrize("true", [PARAGON, DELTA])
    def test_recovers_presets(self, true):
        machine = Machine(Mesh2D(4, 8), true)
        fitted = calibrate(machine)
        assert fitted.alpha == pytest.approx(true.alpha, rel=1e-6)
        assert fitted.beta == pytest.approx(true.beta, rel=1e-6)
        assert fitted.gamma == pytest.approx(true.gamma, rel=1e-6)
        assert fitted.sw_overhead == pytest.approx(true.sw_overhead,
                                                   rel=1e-6)
        assert fitted.link_capacity == true.link_capacity

    def test_recovers_custom_machine(self):
        true = MachineParams(alpha=7e-5, beta=2e-8, gamma=3e-8,
                             sw_overhead=9e-6, link_capacity=2.0)
        fitted = calibrate(Machine(Mesh2D(6, 6), true))
        assert fitted.alpha == pytest.approx(true.alpha, rel=1e-6)
        assert fitted.beta == pytest.approx(true.beta, rel=1e-6)
        assert fitted.link_capacity == 2.0

    def test_gamma_and_overhead_probes(self):
        m = Machine(LinearArray(2), UNIT.with_(gamma=0.25,
                                               sw_overhead=3.0))
        (gamma,) = probe(m, gamma_prog, [100], trials=1,
                         aggregate="median")
        (overhead,) = probe(m, overhead_prog, [10], trials=1,
                            aggregate="median")
        assert gamma.value == pytest.approx(0.25)
        assert overhead.value == pytest.approx(3.0)

    def test_fitted_params_drive_identical_selection(self):
        """The point of the exercise: the selector fed with fitted
        parameters chooses the same strategies as with the truth."""
        from repro.core import Selector
        true = PARAGON
        fitted = calibrate(Machine(Mesh2D(4, 8), true))
        st = Selector(true, itemsize=8)
        sf = Selector(fitted, itemsize=8)
        for n in (1, 512, 8192, 131072):
            a = st.best("bcast", 32, n, mesh_shape=(4, 8))
            b = sf.best("bcast", 32, n, mesh_shape=(4, 8))
            # exact ties between equal-cost strategies may break either
            # way under 1e-15 parameter noise; the *predicted cost* of
            # the chosen strategies must agree
            assert b.cost == pytest.approx(a.cost, rel=1e-9), n


class TestCrossBackendProbe:
    def test_same_programs_measure_both_backends(self):
        """One set of probe programs: exact alpha + n beta, gamma and
        overhead on the simulator; finite, positive wall seconds on
        real processes."""
        probes = [(pingpong_prog, [0, 10, 100]), (gamma_prog, [100]),
                  (overhead_prog, [10])]
        sim = Machine(LinearArray(2), UNIT.with_(gamma=0.25,
                                                 sw_overhead=3.0))
        pingpong, (gamma,), (overhead,) = (
            probe(sim, make_prog, lengths, trials=1, aggregate="median")
            for make_prog, lengths in probes)
        assert [(s.nbytes, s.value) for s in pingpong] == [
            (0, 1.0), (10, 11.0), (100, 101.0)]
        assert gamma.value == pytest.approx(0.25)
        assert overhead.value == pytest.approx(3.0)

        real = ProcessMachine(2, use_profile=False, timeout=60)
        for make_prog, lengths in probes:
            samples = probe(real, make_prog, lengths, trials=2,
                            aggregate="median")
            assert [s.nbytes for s in samples] == lengths
            for s in samples:
                assert len(s.trials) == 2
                for t in s.trials + (s.value,):
                    assert math.isfinite(t) and t > 0.0
