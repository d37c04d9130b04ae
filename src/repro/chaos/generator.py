"""Seeded case generation for the chaos autopilot.

A :class:`ChaosCase` is a fully self-contained scenario: topology,
machine preset, collective, group shape, payload length/dtype, and a
serialized :class:`~repro.core.faults.FaultSchedule`.  Its hash is the
corpus key; replaying a case needs nothing but the case dict.

:class:`CaseGenerator` samples cases from a **private**
``random.Random`` instance (string-seeded, so hash randomization can't
perturb it) — chaos runs never touch the global RNG state, and the
k-th case of a seed is the same on every machine.  Given the corpus
store's explored-cell set it biases sampling toward
(topology class x collective x fault profile) cells nothing has
exercised yet: up to ``_BIAS_REDRAWS`` redraws per case, taking the
first unexplored cell (all draws come from the same private stream, so
the bias is itself deterministic).

Fault schedules come from :func:`fault_schedule`, the one
profile -> schedule mapping that the fixed chaos grid
(``benchmarks/chaos/``, whose cases the same classifier,
:func:`repro.chaos.executor.execute_case`, judges) and the service
storms (:mod:`repro.service.chaos`) also use.  Event times are scaled
to the case's *clean* simulated duration (the simulator is
deterministic, so ``t_clean`` is a pure function of the case config).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.faults import (ByzantineRank, FaultSchedule, LinkFault,
                               LinkSlowdown, MisroutingRank, NodeCrash,
                               WithholdingRank)
from repro.core.strategy import OPERATIONS
from repro.sim import (Hypercube, LinearArray, Mesh2D, Ring, Torus2D,
                       preset)

#: every topology class the generator samples (the coverage axis)
TOPO_CLASSES = ("linear", "ring", "mesh", "torus", "hypercube")

#: every collective the generator samples: the five hybrid operations
OPS = OPERATIONS

#: fault profiles (the coverage fault-type axis) that
#: :func:`fault_schedule` builds.  The last three are the
#: Byzantine-model adversaries.
PROFILES = ("none", "jitter", "slowdown", "link-permanent",
            "link-transient", "crash", "byzantine", "withholding",
            "misrouting")

ADVERSARIAL_PROFILES = ("byzantine", "withholding", "misrouting")

DTYPES = ("float64", "float32", "int64", "int32")

PRESET_NAMES = ("unit", "paragon", "delta", "ipsc860")

LENGTHS = (1, 8, 64, 256, 1024)

#: how many redraws the coverage bias may spend hunting an unexplored
#: (topology class x op x profile) cell before keeping the last draw
_BIAS_REDRAWS = 8


def build_topology(desc: Sequence):
    """Materialize a topology description tuple like ``("mesh", 3, 4)``."""
    kind = desc[0]
    if kind == "linear":
        return LinearArray(desc[1])
    if kind == "ring":
        return Ring(desc[1])
    if kind == "mesh":
        return Mesh2D(desc[1], desc[2])
    if kind == "torus":
        return Torus2D(desc[1], desc[2])
    if kind == "hypercube":
        return Hypercube(desc[1])
    raise ValueError(f"unknown topology class {kind!r}; expected one of "
                     f"{sorted(TOPO_CLASSES)}")


def topo_nranks(desc: Sequence) -> int:
    kind = desc[0]
    if kind in ("linear", "ring"):
        return desc[1]
    if kind in ("mesh", "torus"):
        return desc[1] * desc[2]
    if kind == "hypercube":
        return 1 << desc[1]
    raise ValueError(f"unknown topology class {kind!r}")


@dataclass(frozen=True)
class ChaosCase:
    """One self-contained autopilot scenario (the corpus unit).

    ``faults`` is a ``FaultSchedule.to_dict()`` payload with *absolute*
    event times (already scaled to this case's clean duration), so a
    stored case replays bit-identically with no external state.
    ``origin`` is provenance only — it does not enter the case hash.
    """

    topo: Tuple
    params: str
    op: str
    n: int
    dtype: str
    group: Optional[Tuple[int, ...]]
    profile: str
    faults: Dict = field(default_factory=dict)
    origin: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "topo", tuple(self.topo))
        if self.group is not None:
            object.__setattr__(self, "group", tuple(self.group))

    @property
    def nranks(self) -> int:
        return topo_nranks(self.topo)

    @property
    def case_hash(self) -> str:
        """Stable content hash (origin excluded): the corpus key."""
        d = self.to_dict()
        d.pop("origin", None)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def topology(self):
        return build_topology(self.topo)

    def schedule(self) -> FaultSchedule:
        if not self.faults:
            return FaultSchedule()
        return FaultSchedule.from_dict(self.faults)

    def members(self) -> Tuple[int, ...]:
        """The ranks participating in the collective."""
        return self.group if self.group is not None \
            else tuple(range(self.nranks))

    def config_key(self) -> Tuple:
        """Identity of the fault-free configuration (clean-run cache key)."""
        return (self.topo, self.params, self.op, self.n, self.dtype,
                self.group)

    def to_dict(self) -> Dict:
        return {
            "topo": list(self.topo),
            "params": self.params,
            "op": self.op,
            "n": self.n,
            "dtype": self.dtype,
            "group": list(self.group) if self.group is not None else None,
            "profile": self.profile,
            "faults": self.faults,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "ChaosCase":
        known = {"topo", "params", "op", "n", "dtype", "group", "profile",
                 "faults", "origin"}
        extra = set(d) - known
        if extra:
            raise ValueError(
                f"unknown ChaosCase fields {sorted(extra)}; expected a "
                f"subset of {sorted(known)}")
        group = d.get("group")
        return cls(topo=tuple(d["topo"]), params=d["params"], op=d["op"],
                   n=d["n"], dtype=d["dtype"],
                   group=tuple(group) if group is not None else None,
                   profile=d["profile"], faults=d.get("faults", {}),
                   origin=d.get("origin", ""))


class CaseGenerator:
    """Deterministic, coverage-biased case sampler.

    Parameters
    ----------
    seed:
        Everything derives from it.  The RNG is a private
        ``random.Random(f"repro-chaos-autopilot/{seed}")`` — global
        ``random`` / ``numpy.random`` state is never read or written.
    profiles:
        Restrict sampling to these fault profiles (default: all of
        :data:`PROFILES`).  The CI byzantine probe and targeted tests
        use this to guarantee a profile appears within a small budget.
    max_p:
        Upper bound on world size for 1-D topologies.
    """

    def __init__(self, seed: int, profiles: Optional[Sequence[str]] = None,
                 max_p: int = 16):
        self.seed = seed
        self.profiles = tuple(profiles) if profiles else PROFILES
        for prof in self.profiles:
            if prof not in PROFILES:
                raise ValueError(f"unknown fault profile {prof!r}; "
                                 f"expected a subset of {sorted(PROFILES)}")
        self.max_p = max_p
        self._rng = random.Random(f"repro-chaos-autopilot/{seed}")
        self._count = 0

    # -- sampling ------------------------------------------------------

    def sample(self, explored: Optional[Iterable[Tuple]] = None
               ) -> ChaosCase:
        """Draw the next case, biased away from explored coverage cells."""
        rng = self._rng
        explored = frozenset(explored) if explored is not None \
            else frozenset()
        topo_class = rng.choice(TOPO_CLASSES)
        op = rng.choice(OPS)
        profile = rng.choice(self.profiles)
        if explored:
            for _ in range(_BIAS_REDRAWS):
                if (topo_class, op, profile) not in explored:
                    break
                topo_class = rng.choice(TOPO_CLASSES)
                op = rng.choice(OPS)
                profile = rng.choice(self.profiles)
        # misrouting's wrong-peer redirect needs a third rank to be
        # distinguishable from a self-send
        min_p = 3 if profile == "misrouting" else 2
        topo = self._sample_topo(topo_class, min_p)
        p = topo_nranks(topo)
        params_name = rng.choice(PRESET_NAMES)
        n = rng.choice(LENGTHS)
        dtype = rng.choice(DTYPES)
        group = self._sample_group(p)
        size = len(group) if group is not None else p
        if op in ("collect", "reduce_scatter") and n < size:
            n = size  # partitioned ops need at least one element a rank
        case = ChaosCase(topo=topo, params=params_name, op=op, n=n,
                         dtype=dtype, group=group, profile=profile,
                         faults={},
                         origin=f"seed={self.seed}/case={self._count}")
        faults = self._sample_faults(case)
        self._count += 1
        return replace(case, faults=faults)

    def _sample_topo(self, topo_class: str, min_p: int) -> Tuple:
        rng = self._rng
        if topo_class in ("linear", "ring"):
            return (topo_class, rng.randint(min_p, self.max_p))
        if topo_class in ("mesh", "torus"):
            r = rng.randint(2, 4)
            c = rng.randint(2, 4)
            return (topo_class, r, c)
        if topo_class == "hypercube":
            return (topo_class, rng.randint(2, 4))
        raise ValueError(topo_class)

    def _sample_group(self, p: int) -> Optional[Tuple[int, ...]]:
        rng = self._rng
        if p < 4 or rng.random() >= 0.25:
            return None
        size = rng.randint(2, p - 1)
        if rng.random() < 0.5:
            start = rng.randint(0, p - size)
            return tuple(range(start, start + size))
        stride = 2
        size = min(size, (p + 1) // stride)
        start = rng.randint(0, p - 1 - stride * (size - 1))
        return tuple(start + stride * i for i in range(size))

    # -- fault schedules ------------------------------------------------

    def _sample_faults(self, case: ChaosCase) -> Dict:
        """Build the profile's schedule, scaled to the clean duration."""
        from .oracles import clean_run

        if case.profile == "none":
            return {}
        t_clean, _ = clean_run(case)
        return fault_schedule(case.profile, self._rng, case.topology(),
                              preset(case.params).alpha, t_clean,
                              members=case.members()).to_dict()


def fault_schedule(profile: str, rng: random.Random, topology,
                   alpha: float, t_clean: float,
                   members: Optional[Sequence[int]] = None
                   ) -> FaultSchedule:
    """One fault profile as a seeded schedule scaled to ``t_clean``.

    The single profile -> schedule mapping shared by the autopilot, the
    fixed chaos grid and the service storms: event times are fractions
    of the fault-free duration ``t_clean`` (simulated seconds), link
    faults hit one physical directed channel of ``topology``, crashes
    (``crash``, and ``crash-shrink``, whose program shrinks the crash
    away) one of its nodes, and adversaries one of ``members`` (default
    every node).  Every draw comes from ``rng``, in a fixed order, so a
    string-seeded ``rng`` replays the same faults on every machine.
    """
    if profile == "none":
        return FaultSchedule()
    deadline = 5000.0 * t_clean + (1 << 16) * alpha

    def channel() -> Tuple[int, int]:
        return rng.choice(sorted(set(topology.channels())))

    if profile == "jitter":
        return FaultSchedule(jitter=alpha * rng.uniform(0.5, 3.0),
                             seed=rng.randrange(2 ** 31),
                             deadline=deadline)
    if profile == "slowdown":
        u, v = channel()
        return FaultSchedule(
            events=(LinkSlowdown(t=rng.uniform(0.0, 0.5) * t_clean,
                                 u=u, v=v, factor=rng.uniform(2.0, 8.0)),),
            deadline=deadline)
    if profile == "link-permanent":
        u, v = channel()
        return FaultSchedule(
            events=(LinkFault(t=rng.uniform(0.0, 0.8) * t_clean,
                              u=u, v=v),),
            deadline=deadline)
    if profile == "link-transient":
        u, v = channel()
        return FaultSchedule(
            events=(LinkFault(t=rng.uniform(0.0, 0.8) * t_clean, u=u, v=v,
                              duration=rng.uniform(0.5, 1.5) * t_clean),),
            max_retries=14, deadline=deadline)
    if profile in ("crash", "crash-shrink"):
        return FaultSchedule(
            events=(NodeCrash(t=rng.uniform(0.0, 0.9) * t_clean,
                              node=rng.randrange(topology.nnodes)),),
            deadline=deadline)
    cls = {"byzantine": ByzantineRank,
           "withholding": WithholdingRank,
           "misrouting": MisroutingRank}[profile]
    if members is None:
        members = range(topology.nnodes)
    return FaultSchedule(
        events=(cls(rank=rng.choice(members), every=rng.choice((1, 2, 3)),
                    start=rng.choice((0, 1))),),
        seed=rng.randrange(2 ** 31), deadline=deadline)
