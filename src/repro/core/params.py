"""Machine performance parameters (the alpha/beta/gamma model constants).

Backend-neutral machine *description*: both the discrete-event simulator
(:mod:`repro.sim`) and the real multi-process runtime
(:mod:`repro.runtime`) attach a :class:`MachineParams` to their rank
envs so ``algorithm="auto"`` strategy selection prices candidates the
same way on every backend.

The SC'94 InterCom paper (section 2) models the target architecture with
three constants:

``alpha``
    latency (startup time) for sending a message, in seconds;
``beta``
    communication time per byte, in seconds per byte, in the absence of
    network conflicts;
``gamma``
    time for one arithmetic (combine) operation on one vector element,
    in seconds per element.

Two further parameters capture the refinements the paper discusses:

``sw_overhead``
    per-recursion-level software overhead of the library implementation
    (section 7.2 observes that the iCC short-vector primitives are
    implemented "using recursive function calls, which carry a measurable
    overhead" and therefore lose slightly to NX for 8-byte messages);
``link_capacity``
    the number of messages a single mesh channel can carry at full
    node-injection bandwidth before they start sharing (section 7.1:
    "there is an excess of bandwidth on each link of the network compared
    to the bandwidth from a node to the network. As a result, each link
    can in effect accommodate more than one message simultaneously
    without penalty").

All presets are calibrated so that the *shape* of the paper's results is
reproduced; the original machines no longer exist, so absolute times are
approximations documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineParams:
    """Performance constants of a simulated distributed-memory machine.

    Attributes
    ----------
    alpha:
        Message startup latency in seconds.  Charged once per message,
        independent of length (wormhole routing makes the cost nearly
        distance-insensitive, section 2).
    beta:
        Per-byte transfer time in seconds in the absence of conflicts.
        The reciprocal is the node-to-network injection bandwidth.
    gamma:
        Per-element combine (arithmetic) time in seconds.
    sw_overhead:
        Per-call/per-recursion-level software overhead in seconds,
        charged by the library implementation (not by the network).
    link_capacity:
        How many full-bandwidth messages a single directed mesh channel
        carries before max-min sharing kicks in.  ``1.0`` gives the plain
        model of section 2; the Paragon preset uses a larger value per
        section 7.1.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    sw_overhead: float = 0.0
    link_capacity: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("alpha, beta and gamma must be non-negative")
        if self.sw_overhead < 0:
            raise ValueError("sw_overhead must be non-negative")
        if self.link_capacity <= 0:
            raise ValueError("link_capacity must be positive")

    @property
    def injection_bandwidth(self) -> float:
        """Node-to-network bandwidth in bytes per second (``1/beta``)."""
        if self.beta == 0:
            return float("inf")
        return 1.0 / self.beta

    @property
    def channel_bandwidth(self) -> float:
        """Bandwidth of one directed mesh channel in bytes per second."""
        return self.injection_bandwidth * self.link_capacity

    def with_(self, **kw) -> "MachineParams":
        """Return a copy with some fields replaced."""
        return replace(self, **kw)

    def to_dict(self) -> dict:
        """JSON-ready field mapping (the per-host profile wire format,
        see :mod:`repro.runtime.profile`)."""
        return {"alpha": self.alpha, "beta": self.beta,
                "gamma": self.gamma, "sw_overhead": self.sw_overhead,
                "link_capacity": self.link_capacity}

    @classmethod
    def from_dict(cls, d: dict) -> "MachineParams":
        """Rebuild from :meth:`to_dict` output; unknown keys rejected so
        a profile written by a newer schema fails loudly, not quietly."""
        known = {"alpha", "beta", "gamma", "sw_overhead", "link_capacity"}
        extra = set(d) - known
        if extra:
            raise ValueError(
                f"unknown MachineParams fields {sorted(extra)}; "
                f"expected a subset of {sorted(known)}")
        return cls(**{k: float(v) for k, v in d.items()})

    def transfer_time(self, nbytes: float) -> float:
        """Conflict-free point-to-point time ``alpha + n*beta`` (section 2)."""
        return self.alpha + nbytes * self.beta

    def combine_time(self, nelems: float) -> float:
        """Time to combine ``nelems`` vector elements (``n*gamma``)."""
        return nelems * self.gamma


#: Unit-cost model: alpha = beta = gamma = 1, no overheads.  Used by the
#: analytic tests, where simulated time must match the paper's closed-form
#: expressions exactly.
UNIT = MachineParams(alpha=1.0, beta=1.0, gamma=1.0, sw_overhead=0.0,
                     link_capacity=1.0)

#: Intel Paragon XP/S under OSF R1.1 (the machine of section 7).  Latency
#: and bandwidth approximate contemporaneous measurements of the OSF
#: message layer; the link capacity reflects the excess mesh bandwidth of
#: section 7.1 (the Paragon backplane was ~175 MB/s/link against ~35 MB/s
#: sustained node injection under OSF R1.1).
PARAGON = MachineParams(
    alpha=100e-6,          # 100 microseconds startup
    beta=1.0 / 35e6,       # ~35 MB/s sustained injection bandwidth
    gamma=1.0e-7,          # ~10 M combined elements/s (memory bound sum)
    sw_overhead=12e-6,     # per-recursion-level library overhead
    link_capacity=4.0,
)

#: Intel Touchstone Delta: higher latency, lower bandwidth, and no excess
#: link bandwidth relative to node injection.
DELTA = MachineParams(
    alpha=150e-6,
    beta=1.0 / 25e6,
    gamma=1.5e-7,
    sw_overhead=15e-6,
    link_capacity=1.0,
)

#: Intel iPSC/860 hypercube (section 11 mentions a hypercube-tuned
#: version using EDST-style algorithms).
IPSC860 = MachineParams(
    alpha=160e-6,
    beta=1.0 / 2.8e6,
    gamma=1.5e-7,
    sw_overhead=15e-6,
    link_capacity=1.0,
)

PRESETS = {
    "unit": UNIT,
    "paragon": PARAGON,
    "delta": DELTA,
    "ipsc860": IPSC860,
}


def preset(name: str) -> MachineParams:
    """Look up a named parameter preset (case-insensitive)."""
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown machine preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
