"""Small-message fusion: combine compatible collectives into one.

The alpha/beta model says a tiny collective pays almost pure latency:
``k`` concurrent 8-byte allreduces cost ``k`` alphas executed
back-to-back, but a *single* allreduce over their concatenation costs
one alpha and ``k`` times the (negligible) bandwidth term — the
message-combining observation of Träff et al. (PAPERS.md) that this
service turns into throughput.

Fusion here is a **costed decision, not a heuristic**: a candidate
fused batch is kept only when the existing Selector prices the fused
collective cheaper than the sum of its members executed separately.
Big requests never fuse (they are bandwidth-dominated and only add
serialization); incompatible requests (different op/group/dtype/
combine-op/root) never fuse; and when the model says fusion loses,
the planner emits singletons — the decision is auditable in the plan
(:meth:`PlannedBatch.to_dict` carries both prices).

Correctness contract: a fused element-wise collective combines each
request's elements over exactly the same ranks as the unfused one;
bit-exactness of float results additionally needs exactly-representable
partial sums (the service's :class:`~repro.service.request.PayloadSpec`
guarantees this; arbitrary float payloads get the library's usual
allclose contract).  See docs/service.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from .request import CollectiveRequest

#: a request priced at or below this many payload bytes is a fusion
#: candidate by default (well inside the alpha-dominated regime of
#: every configured machine preset)
DEFAULT_FUSION_THRESHOLD_BYTES = 2048

#: cap on requests per fused batch: bounds the concatenated payload
#: and keeps result scatter-back O(small)
DEFAULT_MAX_FUSED = 64

#: cost function signature: (op, group, nelems, itemsize) -> virtual
#: seconds.  Provided by the core (Selector-backed when the machine
#: has a cost model, nominal-constant fallback otherwise).
PriceFn = Callable[[str, Tuple[int, ...], int, int], float]


@dataclass(frozen=True)
class PlannedBatch:
    """One unit of execution: a fused group or a single request.

    ``slices`` maps each member request to its element range in the
    concatenated fused payload (``(offset, length)``); for singleton
    batches it is the trivial full range.  ``cost_v`` is the priced
    execution time the virtual clock advances by; ``unfused_cost_v``
    is what the same requests would have cost separately — their ratio
    is the audited win of the fusion decision.
    """

    bid: int
    op: str
    group: Tuple[int, ...]
    dtype: str
    redop: str
    root: int
    requests: Tuple[CollectiveRequest, ...]
    fused: bool
    cost_v: float
    unfused_cost_v: float
    slices: Tuple[Tuple[int, int], ...]

    @property
    def total_elems(self) -> int:
        return sum(r.payload.length for r in self.requests)

    @property
    def nbytes(self) -> int:
        return sum(r.nbytes for r in self.requests)

    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(sorted({r.tenant for r in self.requests}))

    def tenant_cost_shares(self) -> Dict[str, float]:
        """``cost_v`` attributed per tenant, proportional to each
        request's unfused price (the service-time fairness ledger)."""
        weights: Dict[str, float] = {}
        total = 0.0
        for r, w in zip(self.requests, self._request_weights()):
            weights[r.tenant] = weights.get(r.tenant, 0.0) + w
            total += w
        if total <= 0:
            even = self.cost_v / max(1, len(weights))
            return {t: even for t in weights}
        return {t: self.cost_v * w / total for t, w in weights.items()}

    def _request_weights(self) -> List[float]:
        if len(self.requests) == 1:
            return [self.unfused_cost_v]
        # proportional to payload bytes: the per-request unfused costs
        # of one batch differ only through n, and bytes is the
        # deterministic, model-free proxy already agreed on every rank
        return [float(max(1, r.nbytes)) for r in self.requests]

    def to_dict(self) -> dict:
        return {
            "bid": self.bid, "op": self.op, "group": list(self.group),
            "dtype": self.dtype, "redop": self.redop, "root": self.root,
            "fused": self.fused, "requests": [r.rid for r in self.requests],
            "tenants": list(self.tenants),
            "slices": [list(s) for s in self.slices],
            "total_elems": self.total_elems, "nbytes": self.nbytes,
            "cost_v": self.cost_v, "unfused_cost_v": self.unfused_cost_v,
        }


@dataclass
class FusionPlanner:
    """Coalesce a dispatch set into priced :class:`PlannedBatch` es.

    ``enabled=False`` short-circuits to singleton batches (the
    benchmark's unfused baseline — same scheduling, no combining).
    """

    price: PriceFn
    threshold_bytes: int = DEFAULT_FUSION_THRESHOLD_BYTES
    max_fused: int = DEFAULT_MAX_FUSED
    enabled: bool = True
    _next_bid: int = field(default=0)

    def __post_init__(self) -> None:
        if self.threshold_bytes < 0:
            raise ValueError("threshold_bytes must be non-negative")
        if self.max_fused < 2:
            raise ValueError("max_fused must be at least 2")

    # ------------------------------------------------------------------

    def _price_request(self, req: CollectiveRequest) -> float:
        return self.price(req.op, req.group, req.payload.length,
                          req.payload.itemsize)

    def _singleton(self, req: CollectiveRequest) -> PlannedBatch:
        cost = self._price_request(req)
        bid = self._next_bid
        self._next_bid += 1
        return PlannedBatch(
            bid=bid, op=req.op, group=req.group,
            dtype=req.payload.dtype, redop=req.redop, root=req.root,
            requests=(req,), fused=False, cost_v=cost,
            unfused_cost_v=cost,
            slices=((0, req.payload.length),))

    def _fused(self, reqs: Sequence[CollectiveRequest],
               fused_cost: float, unfused_cost: float) -> PlannedBatch:
        head = reqs[0]
        slices: List[Tuple[int, int]] = []
        off = 0
        for r in reqs:
            slices.append((off, r.payload.length))
            off += r.payload.length
        bid = self._next_bid
        self._next_bid += 1
        return PlannedBatch(
            bid=bid, op=head.op, group=head.group,
            dtype=head.payload.dtype, redop=head.redop, root=head.root,
            requests=tuple(reqs), fused=True, cost_v=fused_cost,
            unfused_cost_v=unfused_cost, slices=tuple(slices))

    # ------------------------------------------------------------------

    def plan(self, dispatch: Sequence[CollectiveRequest]
             ) -> List[PlannedBatch]:
        """Batches for one dispatch set, in first-request order.

        Requests sharing a fusion key (op/group/dtype/redop/root) whose
        payloads sit at or below the size threshold form candidate
        chunks of at most ``max_fused``; each chunk fuses only if the
        priced fused cost beats the summed unfused cost.  Everything
        else executes as singletons.  Deterministic: chunking follows
        dispatch order, batch ids follow first-member order.
        """
        batches: List[PlannedBatch] = []
        pending_keys: Dict[Tuple, List[CollectiveRequest]] = {}
        order: List[Tuple[str, object]] = []  # emission order markers

        for req in dispatch:
            if (not self.enabled or not req.fusible_op
                    or req.nbytes > self.threshold_bytes):
                order.append(("single", req))
                continue
            key = req.fusion_key()
            bucket = pending_keys.setdefault(key, [])
            if not bucket:
                order.append(("key", key))
            bucket.append(req)

        for kind, item in order:
            if kind == "single":
                batches.append(self._singleton(item))
                continue
            reqs = pending_keys[item]
            for i in range(0, len(reqs), self.max_fused):
                chunk = reqs[i:i + self.max_fused]
                if len(chunk) == 1:
                    batches.append(self._singleton(chunk[0]))
                    continue
                head = chunk[0]
                total = sum(r.payload.length for r in chunk)
                fused_cost = self.price(head.op, head.group, total,
                                        head.payload.itemsize)
                unfused_cost = sum(self._price_request(r) for r in chunk)
                if fused_cost < unfused_cost:
                    batches.append(self._fused(chunk, fused_cost,
                                               unfused_cost))
                else:
                    batches.extend(self._singleton(r) for r in chunk)
        return batches
