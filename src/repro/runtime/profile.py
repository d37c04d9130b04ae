"""Per-host calibration profiles: runtime-native autotuning.

The paper's porting procedure (section 11) is "enter a few parameters
that describe the latency, bandwidth and computation characteristics of
the system".  This module automates it for the machine the process
backend actually runs on: an online calibration pass measures the
transport with real rank processes, fits
:class:`~repro.core.params.MachineParams`, and persists the result as a
versioned **per-host profile** keyed by ``hostname|platform|transport``.
:class:`~repro.runtime.launch.ProcessMachine` auto-loads the profile
when launched without an explicit machine description, so
``algorithm="auto"`` dispatch on the runtime backend is priced with
constants fitted to *this* host instead of 1994 presets (explicit
``params=`` always wins).

Calibration methodology (the measured-characterisation approach of
Barchet-Estefanel & Mounié, PAPERS.md cs/0408032):

* **three ping-pong probes at increasing concurrency** — a plain
  2-process ping-pong (one message in flight), disjoint pairs on ``c``
  processes (``c/2`` concurrent messages), and a full ``c``-process
  ring exchange (``c`` concurrent messages).  On a host with spare
  cores the three fits agree; on an oversubscribed host (CI containers
  are routinely 1-2 cores) concurrent messages serialize on the CPU and
  the contended probes fit visibly larger constants.  The **effective**
  alpha/beta fed to the Selector is a pooled least-squares fit over the
  contended probes — the concurrency regime collectives actually run
  in — while every per-probe fit is kept as provenance;
* **repeated trials with a deterministic aggregator** (median by
  default, min-of-k available) and recorded per-length dispersion, so
  one scheduler hiccup cannot skew a persisted constant
  (:func:`repro.analysis.calibrate.aggregate_trials`);
* **gamma from real arithmetic** — timed ``np.add`` on one rank
  (``env.compute`` is a model annotation and free on this backend, so
  the simulator-oriented :func:`~repro.analysis.calibrate.measure_gamma`
  would measure nothing here);
* **per-request software overhead** — timed no-op request dispatch
  through the env progress loop;
* **drift refit** — the audit layer's check
  (:mod:`repro.obs.audit`-style relative errors) comparing the
  uncontended fit against the effective constants, recorded as the
  profile's contention-drift stats.

Profiles are stored in one JSON file (``REPRO_PROFILE_PATH`` or
``~/.cache/repro/profiles.json``), invalidated by schema version,
hostname/platform mismatch, and age (``max_age_s``, default 30 days).

Command line::

    python -m repro.runtime.profile                 # calibrate + persist
    python -m repro.runtime.profile --transport tcp --trials 7
    python -m repro.runtime.profile --show          # print stored profile
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.calibrate import (TrialSample, aggregate_trials,
                                  fit_alpha_beta, trial_spread)
from ..core.params import MachineParams
from ..obs.audit import _rel_err

PROFILE_VERSION = 1

#: profile store location override and autotune kill-switch
ENV_PROFILE_PATH = "REPRO_PROFILE_PATH"
ENV_AUTOTUNE = "REPRO_AUTOTUNE"

#: a persisted profile older than this is considered stale and ignored
#: (hosts drift: kernel updates, container migrations, noisy neighbors)
DEFAULT_MAX_AGE_S = 30 * 86400.0

#: message lengths of the ping-pong probes (bytes)
CALIBRATION_LENGTHS = (0, 1024, 16384, 262144)

#: world size of the contended probes (pairs and ring)
CALIBRATION_RANKS = 4


def default_profile_path() -> str:
    """Where profiles live: ``$REPRO_PROFILE_PATH`` if set, else
    ``~/.cache/repro/profiles.json``."""
    env = os.environ.get(ENV_PROFILE_PATH)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "profiles.json")


def autotune_enabled() -> bool:
    """Profile auto-loading is on unless ``REPRO_AUTOTUNE`` disables it."""
    return os.environ.get(ENV_AUTOTUNE, "1").lower() not in (
        "0", "off", "false", "no")


def host_tag() -> str:
    return socket.gethostname()


def platform_tag() -> str:
    return f"{_platform.platform()}/py{_platform.python_version()}"


def profile_key(transport: str, host: Optional[str] = None) -> str:
    """Store key of one host's profile for one transport."""
    return f"{host or host_tag()}|{transport}"


@dataclass
class MachineProfile:
    """One host's fitted machine description with sample provenance.

    ``params`` is what the Selector prices with; everything else is
    provenance — which probes ran, their raw trials and dispersion, the
    per-probe fits, and the drift of the effective constants against
    the uncontended fit.
    """

    host: str
    platform: str
    transport: str
    params: MachineParams
    created: float                        #: unix timestamp of the fit
    version: int = PROFILE_VERSION
    provenance: Dict[str, object] = field(default_factory=dict)
    noise: Dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return profile_key(self.transport, self.host)

    def age_s(self, now: Optional[float] = None) -> float:
        return (time.time() if now is None else now) - self.created

    def is_stale(self, max_age_s: float = DEFAULT_MAX_AGE_S,
                 now: Optional[float] = None) -> bool:
        return self.age_s(now) > max_age_s

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "host": self.host,
            "platform": self.platform,
            "transport": self.transport,
            "created": self.created,
            "created_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(self.created)),
            "params": self.params.to_dict(),
            "provenance": self.provenance,
            "noise": self.noise,
        }

    @classmethod
    def from_json(cls, d: dict) -> "MachineProfile":
        return cls(host=d["host"], platform=d["platform"],
                   transport=d["transport"],
                   params=MachineParams.from_dict(d["params"]),
                   created=float(d["created"]),
                   version=int(d["version"]),
                   provenance=dict(d.get("provenance", {})),
                   noise=dict(d.get("noise", {})))

    def describe(self) -> str:
        p = self.params
        bw = (f"{p.injection_bandwidth / 1e6:.0f} MB/s"
              if p.beta > 0 else "inf")
        return (f"profile[{self.key}] v{self.version} "
                f"age={self.age_s() / 3600:.1f}h: "
                f"alpha={p.alpha * 1e6:.1f}us "
                f"beta={p.beta * 1e9:.3f}ns/B ({bw}) "
                f"gamma={p.gamma * 1e9:.2f}ns/elem "
                f"overhead={p.sw_overhead * 1e6:.2f}us")


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


def _read_store(path: str) -> dict:
    try:
        with open(path) as f:
            store = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return store if isinstance(store, dict) else {}


def save_profile(profile: MachineProfile,
                 path: Optional[str] = None) -> str:
    """Merge one profile into the keyed store (atomic rename write)."""
    path = path or default_profile_path()
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    store = _read_store(path)
    store[profile.key] = profile.to_json()
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(store, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return path


def load_profile(transport: str, path: Optional[str] = None,
                 host: Optional[str] = None,
                 max_age_s: float = DEFAULT_MAX_AGE_S
                 ) -> Optional[MachineProfile]:
    """The stored profile for this host/transport, or None.

    Returns None — never a wrong or half-usable profile — when the
    store is missing/corrupt, the schema version differs, the platform
    fingerprint changed (container image swap, python upgrade), or the
    profile is older than ``max_age_s``.
    """
    path = path or default_profile_path()
    entry = _read_store(path).get(profile_key(transport, host))
    if not isinstance(entry, dict):
        return None
    try:
        profile = MachineProfile.from_json(entry)
    except (KeyError, TypeError, ValueError):
        return None
    if profile.version != PROFILE_VERSION:
        return None
    if profile.platform != platform_tag():
        return None
    if profile.is_stale(max_age_s):
        return None
    return profile


def load_profile_params(transport: str, path: Optional[str] = None
                        ) -> Optional[MachineParams]:
    """Fitted constants for auto-load, or None (fallback dispatch)."""
    profile = load_profile(transport, path)
    return profile.params if profile is not None else None


# ----------------------------------------------------------------------
# calibration rank programs (timed inside the ranks, wall clock around
# the message loop — process spawn and mesh wiring excluded)
# ----------------------------------------------------------------------


def pingpong_prog(nbytes: int, reps: int, echo_delay_s: float = 0.0):
    """Disjoint-pair ping-pong: rank ``2i`` exchanges with ``2i+1``.

    On 2 ranks this is the plain uncontended probe; on ``c`` ranks it
    drives ``c/2`` concurrent messages.  Even ranks return their mean
    half-round-trip seconds.  ``echo_delay_s`` injects a known extra
    delay at the echo side (round-trip test hook: a synthetic machine
    with chosen constants on top of the real transport).
    """
    def prog(env):
        payload = np.zeros(int(nbytes), dtype=np.uint8)
        other = env.rank ^ 1
        if env.rank % 2 == 0:
            yield env.send(other, payload)      # warm the path
            yield env.recv(other)
            t0 = time.perf_counter()
            for _ in range(reps):
                yield env.send(other, payload)
                yield env.recv(other)
            return (time.perf_counter() - t0) / (2.0 * reps)
        for _ in range(reps + 1):
            got = yield env.recv(other)
            if echo_delay_s > 0.0:
                yield env.delay(echo_delay_s)
            yield env.send(other, got)
        return None
    return prog


def ring_prog(nbytes: int, reps: int):
    """Full ring exchange: every rank sends to ``(r+1) % p`` and
    receives from ``(r-1) % p`` — ``p`` messages in flight per step.
    Each rank returns its mean per-step seconds.
    """
    def prog(env):
        payload = np.zeros(int(nbytes), dtype=np.uint8)
        nxt = (env.rank + 1) % env.nranks
        prv = (env.rank - 1) % env.nranks
        s = env.isend(nxt, payload)             # warm the path
        r = env.irecv(prv)
        yield env.waitall(s, r)
        t0 = time.perf_counter()
        for _ in range(reps):
            s = env.isend(nxt, payload)
            r = env.irecv(prv)
            yield env.waitall(s, r)
        return (time.perf_counter() - t0) / reps
    return prog


def gamma_prog(nelems: int, reps: int):
    """Per-element combine time from real ``np.add`` on one rank."""
    def prog(env):
        a = np.arange(nelems, dtype=np.float64)
        b = np.ones(nelems, dtype=np.float64)
        out = np.empty_like(a)
        np.add(a, b, out=out)                   # warm caches/ufunc
        t0 = time.perf_counter()
        for _ in range(reps):
            np.add(a, b, out=out)
        elapsed = time.perf_counter() - t0
        yield env.delay(0.0)
        return elapsed / (reps * nelems)
    return prog


def overhead_prog(calls: int):
    """Per-request dispatch cost of the env progress loop."""
    def prog(env):
        yield env.delay(0.0)                    # warm the dispatch path
        t0 = time.perf_counter()
        for _ in range(calls):
            yield env.delay(0.0)
        return (time.perf_counter() - t0) / calls
    return prog


# ----------------------------------------------------------------------
# the calibration pass
# ----------------------------------------------------------------------


def _probe(machine, make_prog, lengths: Sequence[int], reps: int,
           trials: int, aggregate: str) -> List[dict]:
    """Run one ping-pong-style probe: per length, repeated trials of
    the max-over-ranks measurement, reduced deterministically."""
    samples = []
    for nbytes in lengths:
        raw = []
        for _ in range(trials):
            res = machine.run(make_prog(nbytes, reps))
            raw.append(max(t for t in res.results if t is not None))
        samples.append(TrialSample(
            nbytes=int(nbytes), value=aggregate_trials(raw, aggregate),
            trials=tuple(float(t) for t in raw),
            spread=trial_spread(raw)).to_json())
    return samples


def _fit(samples: Sequence[dict]) -> Tuple[float, float]:
    return fit_alpha_beta([(s["nbytes"], s["value"]) for s in samples])


def calibrate_runtime(transport: str = "local",
                      lengths: Sequence[int] = CALIBRATION_LENGTHS,
                      reps: int = 20, trials: int = 3,
                      aggregate: str = "median",
                      concurrency_ranks: int = CALIBRATION_RANKS,
                      timeout: float = 300.0,
                      progress=None) -> MachineProfile:
    """Run the full calibration pass against real rank processes.

    Returns a :class:`MachineProfile` whose ``params`` carry the pooled
    contended alpha/beta fit, the measured gamma and per-request
    overhead, and ``link_capacity=1.0`` (a single shared host has no
    excess link bandwidth to probe).  Use :func:`save_profile` to
    persist it, or :func:`ensure_profile` for the load-or-calibrate
    convenience.
    """
    from .launch import ProcessMachine

    def say(msg):
        if progress is not None:
            progress(msg)

    say(f"calibrating {transport!r} transport: ping-pong probe (2 ranks)")
    pp2 = ProcessMachine(2, transport=transport, timeout=timeout)
    uncontended = _probe(pp2, pingpong_prog, lengths, reps, trials,
                         aggregate)
    alpha_u, beta_u = _fit(uncontended)

    say(f"contended probes ({concurrency_ranks} ranks: disjoint pairs, "
        f"full ring)")
    ppc = ProcessMachine(concurrency_ranks, transport=transport,
                         timeout=timeout)
    pairs = _probe(ppc, pingpong_prog, lengths, reps, trials, aggregate)
    ring = _probe(ppc, ring_prog, lengths, reps, trials, aggregate)
    # effective constants: one line through every contended sample —
    # the concurrency regime collective stages actually run in
    pooled = [(s["nbytes"], s["value"]) for s in pairs + ring]
    alpha_e, beta_e = fit_alpha_beta(pooled)

    say("gamma (np.add) and per-request overhead probes (1 rank)")
    single = ProcessMachine(1, transport="local", timeout=timeout)
    gamma_raw = [single.run(gamma_prog(65536, 20)).results[0]
                 for _ in range(trials)]
    gamma = aggregate_trials(gamma_raw, aggregate)
    ovh_raw = [single.run(overhead_prog(256)).results[0]
               for _ in range(trials)]
    overhead = aggregate_trials(ovh_raw, aggregate)

    params = MachineParams(alpha=alpha_e, beta=max(beta_e, 0.0),
                           gamma=max(gamma, 0.0),
                           sw_overhead=max(overhead, 0.0),
                           link_capacity=1.0)
    spreads = [s["spread"] for s in uncontended + pairs + ring]
    noise = {
        "max_rel_spread": max(spreads) if spreads else 0.0,
        "median_rel_spread": (sorted(spreads)[len(spreads) // 2]
                              if spreads else 0.0),
        "gamma_rel_spread": trial_spread(gamma_raw),
        "overhead_rel_spread": trial_spread(ovh_raw),
    }
    provenance = {
        "lengths": [int(n) for n in lengths],
        "reps": reps,
        "trials": trials,
        "aggregate": aggregate,
        "probes": {
            "uncontended": {
                "nprocs": 2, "concurrent_messages": 1,
                "samples": uncontended,
                "fit": {"alpha_s": alpha_u, "beta_s_per_byte": beta_u},
            },
            "pairs": {
                "nprocs": concurrency_ranks,
                "concurrent_messages": concurrency_ranks // 2,
                "samples": pairs,
                "fit": dict(zip(("alpha_s", "beta_s_per_byte"),
                                _fit(pairs))),
            },
            "ring": {
                "nprocs": concurrency_ranks,
                "concurrent_messages": concurrency_ranks,
                "samples": ring,
                "fit": dict(zip(("alpha_s", "beta_s_per_byte"),
                                _fit(ring))),
            },
        },
        "gamma": {"trials": [float(g) for g in gamma_raw],
                  "nelems": 65536, "reps": 20},
        "overhead": {"trials": [float(o) for o in ovh_raw],
                     "calls": 256},
        # the audit layer's drift refit: how far the effective
        # (contended) constants drift from the uncontended fit — the
        # host's contention signature, zero-ish on an idle multi-core
        "drift": {
            "alpha_uncontended": alpha_u,
            "beta_uncontended": beta_u,
            "alpha_effective": alpha_e,
            "beta_effective": beta_e,
            "alpha_rel_err": _rel_err(alpha_e, alpha_u),
            "beta_rel_err": _rel_err(beta_e, beta_u),
        },
    }
    profile = MachineProfile(host=host_tag(), platform=platform_tag(),
                             transport=transport, params=params,
                             created=time.time(),
                             provenance=provenance, noise=noise)
    say(profile.describe())
    return profile


def ensure_profile(transport: str = "local", path: Optional[str] = None,
                   force: bool = False,
                   max_age_s: float = DEFAULT_MAX_AGE_S,
                   progress=None, **calibrate_kw) -> MachineProfile:
    """Load the stored profile, calibrating (and persisting) if it is
    missing, stale, or ``force`` is set."""
    if not force:
        profile = load_profile(transport, path, max_age_s=max_age_s)
        if profile is not None:
            return profile
    profile = calibrate_runtime(transport=transport, progress=progress,
                                **calibrate_kw)
    save_profile(profile, path)
    return profile


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.runtime.profile",
        description="calibrate this host's process-backend transport "
                    "and persist the fitted machine profile")
    ap.add_argument("--transport", choices=("local", "tcp"),
                    default="local")
    ap.add_argument("--trials", type=int, default=3,
                    help="repeated trials per measurement")
    ap.add_argument("--reps", type=int, default=20,
                    help="message round trips per trial")
    ap.add_argument("--aggregate", choices=("median", "min", "mean"),
                    default="median")
    ap.add_argument("--path", default=None,
                    help="profile store (default: REPRO_PROFILE_PATH "
                         "or ~/.cache/repro/profiles.json)")
    ap.add_argument("--force", action="store_true",
                    help="recalibrate even if a fresh profile exists")
    ap.add_argument("--show", action="store_true",
                    help="print the stored profile and exit")
    ns = ap.parse_args(argv)

    if ns.show:
        profile = load_profile(ns.transport, ns.path)
        if profile is None:
            print(f"no usable profile for "
                  f"{profile_key(ns.transport)!r}", file=sys.stderr)
            return 1
        print(json.dumps(profile.to_json(), indent=1, sort_keys=True))
        return 0

    profile = ensure_profile(transport=ns.transport, path=ns.path,
                             force=ns.force, trials=ns.trials,
                             reps=ns.reps, aggregate=ns.aggregate,
                             progress=print)
    path = ns.path or default_profile_path()
    print(f"profile stored at {path} under key {profile.key!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
