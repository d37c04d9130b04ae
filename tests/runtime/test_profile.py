"""Per-host profile store, auto-load wiring, and calibration round-trip."""

import json
import time

import pytest

from repro.analysis import aggregate_trials, fit_alpha_beta, pingpong_prog
from repro.core.params import MachineParams, PARAGON
from repro.runtime import ProcessMachine
from repro.runtime import profile as profile_mod
from repro.runtime.profile import (MachineProfile, calibrate_runtime,
                                   ensure_profile, load_profile,
                                   load_profile_params, profile_key,
                                   save_profile)

PARAMS = MachineParams(alpha=2e-4, beta=5e-9, gamma=1e-9,
                       sw_overhead=1e-6, link_capacity=1.0)


def make_profile(**kw):
    base = dict(host=profile_mod.host_tag(),
                platform=profile_mod.platform_tag(),
                transport="local", params=PARAMS, created=time.time())
    base.update(kw)
    return MachineProfile(**base)


@pytest.fixture
def store(tmp_path, monkeypatch):
    path = str(tmp_path / "profiles.json")
    monkeypatch.setenv(profile_mod.ENV_PROFILE_PATH, path)
    return path


class TestStore:
    def test_round_trip(self, store):
        saved = make_profile(noise={"max_rel_spread": 0.1},
                             provenance={"lengths": [0, 1024]})
        assert save_profile(saved) == store
        loaded = load_profile("local")
        assert loaded is not None
        assert loaded.params == PARAMS
        assert loaded.host == saved.host
        assert loaded.noise == saved.noise
        assert loaded.provenance == saved.provenance
        assert load_profile_params("local") == PARAMS

    def test_json_round_trip(self):
        p = make_profile()
        assert MachineProfile.from_json(p.to_json()) == p

    def test_missing_store(self, store):
        assert load_profile("local") is None
        assert load_profile_params("local") is None

    def test_corrupt_store(self, store):
        with open(store, "w") as f:
            f.write("{not json")
        assert load_profile("local") is None
        # a corrupt store is recoverable: save just overwrites it
        save_profile(make_profile())
        assert load_profile("local") is not None

    def test_keyed_by_transport(self, store):
        save_profile(make_profile(transport="local"))
        save_profile(make_profile(
            transport="tcp", params=PARAMS.with_(alpha=9e-4)))
        assert load_profile("local").params.alpha == PARAMS.alpha
        assert load_profile("tcp").params.alpha == 9e-4
        with open(store) as f:
            keys = set(json.load(f))
        assert keys == {profile_key("local"), profile_key("tcp")}

    def test_version_mismatch_invalidates(self, store):
        save_profile(make_profile(version=profile_mod.PROFILE_VERSION + 1))
        assert load_profile("local") is None

    def test_platform_mismatch_invalidates(self, store):
        save_profile(make_profile(platform="Linux-oldkernel/py2.7"))
        assert load_profile("local") is None

    def test_staleness_invalidates(self, store):
        old = make_profile(created=time.time() - 90 * 86400)
        save_profile(old)
        assert old.is_stale()
        assert load_profile("local") is None
        # but an explicitly wider window accepts it
        assert load_profile("local", max_age_s=365 * 86400) is not None

    def test_other_hosts_profile_not_loaded(self, store):
        save_profile(make_profile(host="someone-elses-box"))
        assert load_profile("local") is None


class TestAutoLoad:
    def test_machine_picks_up_stored_profile(self, store):
        save_profile(make_profile())
        m = ProcessMachine(2, timeout=20)
        assert m.params == PARAMS
        assert m.profile is not None
        assert m.profile.key == profile_key("local")

    def test_explicit_params_win(self, store):
        save_profile(make_profile())
        m = ProcessMachine(2, params=PARAGON, timeout=20)
        assert m.params == PARAGON
        assert m.profile is None

    def test_use_profile_false_opts_out(self, store):
        save_profile(make_profile())
        m = ProcessMachine(2, use_profile=False, timeout=20)
        assert m.params is None
        assert m.profile is None

    def test_autotune_env_kill_switch(self, store, monkeypatch):
        save_profile(make_profile())
        monkeypatch.setenv(profile_mod.ENV_AUTOTUNE, "0")
        m = ProcessMachine(2, timeout=20)
        assert m.params is None
        # explicit opt-in overrides the ambient kill switch
        assert ProcessMachine(2, use_profile=True,
                              timeout=20).params == PARAMS

    def test_no_profile_means_fallback_dispatch(self, store):
        m = ProcessMachine(2, timeout=20)
        assert m.params is None
        assert m.profile is None


class TestCalibrationPass:
    def test_calibrate_runtime_smoke(self, store):
        prof = calibrate_runtime(transport="local", lengths=(0, 4096),
                                 reps=3, trials=2, concurrency_ranks=2,
                                 timeout=60)
        p = prof.params
        assert p.alpha > 0.0
        assert p.beta >= 0.0
        assert p.gamma > 0.0
        assert p.sw_overhead >= 0.0
        assert p.link_capacity == 1.0
        assert prof.transport == "local"
        assert prof.host == profile_mod.host_tag()
        probes = prof.provenance["probes"]
        assert set(probes) == {"uncontended", "pairs", "ring"}
        for probe in probes.values():
            assert [s["nbytes"] for s in probe["samples"]] == [0, 4096]
            for s in probe["samples"]:
                assert len(s["trials"]) == 2
                assert s["spread"] >= 0.0
            assert probe["fit"]["alpha_s"] >= 0.0
        drift = prof.provenance["drift"]
        assert drift["alpha_effective"] == p.alpha
        assert set(prof.noise) == {"max_rel_spread", "median_rel_spread",
                                   "gamma_rel_spread",
                                   "overhead_rel_spread"}

    @pytest.mark.parametrize("ranks", [0, 1, 3, 5])
    def test_odd_concurrency_rejected_before_launch(self, store, ranks,
                                                    monkeypatch):
        """The pair probe pairs rank 2i with 2i+1: an odd (or empty)
        contended world would leave a rank pinging outside the group,
        so it is rejected before any rank process starts."""
        def no_launch(*args, **kwargs):  # pragma: no cover
            raise AssertionError("a rank process was started")

        monkeypatch.setattr(ProcessMachine, "run", no_launch)
        with pytest.raises(ValueError, match="concurrency_ranks"):
            calibrate_runtime(concurrency_ranks=ranks, lengths=(0, 64),
                              reps=1, trials=1, timeout=10)

    def test_ensure_profile_prefers_store(self, store, monkeypatch):
        save_profile(make_profile())

        def boom(**kw):  # pragma: no cover
            raise AssertionError("should not recalibrate")

        monkeypatch.setattr(profile_mod, "calibrate_runtime", boom)
        assert ensure_profile("local").params == PARAMS

    def test_ensure_profile_calibrates_and_persists(self, store,
                                                    monkeypatch):
        fresh = make_profile(params=PARAMS.with_(alpha=7e-4))
        monkeypatch.setattr(profile_mod, "calibrate_runtime",
                            lambda **kw: fresh)
        got = ensure_profile("local")
        assert got.params.alpha == 7e-4
        assert load_profile("local").params.alpha == 7e-4
        # force recalibrates even over a fresh store entry
        forced = make_profile(params=PARAMS.with_(alpha=8e-4))
        monkeypatch.setattr(profile_mod, "calibrate_runtime",
                            lambda **kw: forced)
        assert ensure_profile("local",
                              force=True).params.alpha == 8e-4


class TestRoundTripKnownConstants:
    def test_runtime_recovers_injected_constants(self):
        """Satellite: a machine with *known* constants — injected echo
        delays far above the real transport's own cost — is recovered
        by the ping-pong fit within tolerance on real processes.

        Host noise only ever lengthens a round trip, so each length
        keeps the fastest of three trials (the ``"min"`` estimator)."""
        alpha_true, beta_true = 0.03, 1e-6   # 30 ms, 1 MB/s
        machine = ProcessMachine(2, use_profile=False, timeout=60)
        samples = []
        for nbytes in (0, 16384):
            prog = pingpong_prog(
                nbytes, reps=3,
                echo_delay_s=2.0 * (alpha_true + nbytes * beta_true))
            trials = [machine.run(prog).results[0] for _ in range(3)]
            samples.append((nbytes, aggregate_trials(trials, "min")))
        alpha, beta = fit_alpha_beta(samples)
        assert alpha == pytest.approx(alpha_true, rel=0.25)
        assert beta == pytest.approx(beta_true, rel=0.25)
