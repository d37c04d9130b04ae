"""Request, session, and outcome types of the collective service.

Every request is *declarative*: instead of carrying rank-local numpy
buffers (which would not survive the trip from a front-end client to
``p`` executing ranks), a request carries a :class:`PayloadSpec` — a
seeded recipe every rank materializes locally and deterministically.
That keeps requests picklable (the process backend forks them to every
rank) and keeps the whole service SPMD-safe: each rank derives exactly
the same plan and exactly the same local payloads.

Payload values are deliberately drawn as *small integers* (stored in
the requested dtype).  Element-wise sums of small integers are exact
in every supported dtype regardless of association order, which is
what makes the service's fused-vs-unfused **bit-exactness gate**
well-defined even for float payloads: combining 17 float64 vectors in
a different tree order yields identical bits when every partial sum is
exactly representable.  See docs/service.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.strategy import OPERATIONS

#: operations the service accepts: the five Selector-priced collectives
#: of Table 1 (scatter/gather have no strategy choice and no fusion
#: upside — submit them as bcast/collect workloads instead).
SERVICE_OPS = OPERATIONS

#: ops the fusion planner may combine: element-wise (allreduce/reduce)
#: and root-sourced movement (bcast).  collect/reduce_scatter have
#: per-rank block structure that segmented concatenation would break.
FUSIBLE_OPS = ("allreduce", "reduce", "bcast")

#: request deadline classes, strictest first.  Within one tenant's
#: queue, stricter classes dispatch first (FIFO within a class); the
#: scheduler never reorders *across* tenants on class — fairness
#:  between tenants is the DRR's job, not the deadline's.
DEADLINE_CLASSES = ("interactive", "batch", "bulk")

#: bound on payload values (exclusive); small enough that any sum of
#: ``p * length`` terms stays exactly representable in float32.
_VALUE_BOUND = 33


@dataclass(frozen=True)
class PayloadSpec:
    """A seeded, rank-deterministic payload recipe.

    ``materialize(lrank)`` returns logical rank ``lrank``'s local
    vector: ``length`` elements of ``dtype`` whose values derive only
    from ``(seed, lrank)`` — identical on every backend and every run.
    """

    length: int
    dtype: str = "float64"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("payload length must be positive")
        np.dtype(self.dtype)  # raises for unknown dtype names

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def nbytes(self) -> int:
        return self.length * self.itemsize

    def materialize(self, lrank: int) -> np.ndarray:
        # A tiny splitmix-style hash, not random.Random: materialize is
        # called p times per request on the hot path and only needs
        # decorrelated small integers.
        idx = np.arange(self.length, dtype=np.uint64)
        x = idx + np.uint64((self.seed & 0xFFFFFFFF) * 0x9E3779B9
                            + lrank * 0x85EBCA6B + 1)
        x = (x ^ (x >> np.uint64(16))) * np.uint64(0x45D9F3B)
        x = (x ^ (x >> np.uint64(13))) * np.uint64(0xC2B2AE35)
        vals = (x % np.uint64(2 * _VALUE_BOUND - 1)).astype(np.int64) \
            - (_VALUE_BOUND - 1)
        return vals.astype(np.dtype(self.dtype))

    def to_dict(self) -> Dict[str, Any]:
        return {"length": self.length, "dtype": self.dtype,
                "seed": self.seed}


@dataclass(frozen=True)
class Session:
    """One tenant's handle onto a communicator-backed group.

    Sessions map 1:1 onto derived :class:`~repro.core.communicator.
    Communicator` instances in the executor (in ``sid`` order, so every
    rank allocates the same context ids — the base-1024 escape scheme
    keeps thousands of concurrent sessions collision-free).
    """

    sid: int
    tenant: str
    group: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.group) < 2:
            raise ValueError("session group needs at least 2 members")
        if len(set(self.group)) != len(self.group):
            raise ValueError("session group contains duplicate nodes")


@dataclass(frozen=True)
class CollectiveRequest:
    """One tenant-submitted collective.

    ``arrival_v`` is the virtual-clock submission time (the service's
    deterministic model timeline, docs/service.md); the request's
    logical group and tag space come from its session.
    """

    rid: str
    tenant: str
    sid: int
    op: str
    group: Tuple[int, ...]
    payload: PayloadSpec
    deadline_class: str = "batch"
    redop: str = "sum"          #: combine op for reduce-family requests
    root: int = 0               #: logical root for rooted ops
    arrival_v: float = 0.0
    seq: int = 0                #: per-tenant submission ordinal

    def __post_init__(self) -> None:
        if self.op not in SERVICE_OPS:
            raise ValueError(f"unknown service op {self.op!r}; expected "
                             f"one of {SERVICE_OPS}")
        if self.deadline_class not in DEADLINE_CLASSES:
            raise ValueError(
                f"unknown deadline class {self.deadline_class!r}; "
                f"expected one of {DEADLINE_CLASSES}")
        if not 0 <= self.root < len(self.group):
            raise ValueError(f"root {self.root} outside group of "
                             f"{len(self.group)}")

    @property
    def fusible_op(self) -> bool:
        return self.op in FUSIBLE_OPS

    @property
    def nbytes(self) -> int:
        return self.payload.nbytes

    def fusion_key(self) -> Tuple:
        """Requests with equal keys may share one fused collective."""
        return (self.op, self.group, self.payload.dtype, self.redop,
                self.root)


@dataclass(frozen=True)
class Rejection:
    """Typed admission rejection — never a silent drop.

    ``kind`` is one of ``"rate-limit"`` (token bucket empty),
    ``"queue-full"`` (per-tenant backlog cap), ``"invalid"`` (the
    request itself is malformed).  ``retry_after_v`` tells rate-limited
    clients when the bucket next holds a token (virtual seconds).
    """

    kind: str
    tenant: str
    detail: str
    retry_after_v: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "tenant": self.tenant,
                "detail": self.detail,
                "retry_after_v": self.retry_after_v}


@dataclass
class RequestOutcome:
    """Terminal state of one submitted request.

    ``status`` is ``"ok"`` (dispatched and executed), ``"rejected"``
    (typed :class:`Rejection` attached), or ``"dead-letter"`` (the
    executing run faulted before the request's batch completed; the
    typed diagnosis rides on the report).  Exactly one outcome exists
    per submission — the zero-silent-drop invariant the chaos tests
    pin.
    """

    rid: str
    tenant: str
    status: str
    arrival_v: float = 0.0
    completion_v: float = float("nan")
    batch: Optional[int] = None      #: executing batch id, when dispatched
    fused: bool = False
    rejection: Optional[Rejection] = None

    @property
    def latency_v(self) -> float:
        return self.completion_v - self.arrival_v

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "rid": self.rid, "tenant": self.tenant, "status": self.status,
            "arrival_v": self.arrival_v, "batch": self.batch,
            "fused": self.fused,
        }
        if self.status == "ok":
            d["completion_v"] = self.completion_v
            d["latency_v"] = self.latency_v
        if self.rejection is not None:
            d["rejection"] = self.rejection.to_dict()
        return d
