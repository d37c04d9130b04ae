"""Fluid-flow transport model with max-min fair bandwidth sharing.

This module implements the communication model of section 2 of the paper:

* sending a message of ``n`` bytes between any two nodes costs
  ``alpha + n * beta`` in the absence of network conflicts;
* a processor can send and receive simultaneously, but the node-to-network
  injection port and the network-to-node ejection port are each a single
  shared resource;
* "when two messages traverse the same physical link on the communication
  interconnect, we assume they share the bandwidth of that link".

We realize the sharing rule as a *fluid* model: every in-flight message is
a flow across an ordered set of resources — the sender's injection port,
the directed channels of its wormhole route, and the receiver's ejection
port.  At any instant the flow receives the max-min fair rate over all its
resources (computed by the classic progressive-filling / water-filling
algorithm).  Whenever a flow starts or finishes, rates are recomputed —
but only inside the *connected component* of flows that transitively share
a resource with the changed flow, so the common conflict-free case stays
O(route length) per event.

The paper's Paragon refinement (section 7.1) — excess link bandwidth so a
channel can carry several messages without penalty — enters through
``MachineParams.link_capacity``: channel capacity is ``link_capacity``
times the injection bandwidth, so up to that many flows cross a channel
at full speed.

Performance notes (see ``docs/performance.md``)
-----------------------------------------------
The hot path of every simulated message is ``start_flow`` -> one or two
max-min recomputations -> a completion event.  Every recomputation runs
one progressive-filling loop, :meth:`FluidNetwork._fill`.  To keep
that path cheap:

* **Resource interning.**  Resources (``("inj", node)``, ``("ch", u, v)``,
  ``("ej", node)``) are interned to dense integer ids at first use;
  capacities, flow indices and scratch stamps live in flat lists indexed
  by id, so the water-filling loop never hashes a tuple.
* **Route caching.**  The interned resource sequence of every
  ``(src, dst)`` pair is computed once per network and reused; repeated
  ring/mesh traffic patterns hit a single dict lookup.
* **Incremental flow indices.**  ``_res_flows[rid]`` is an
  insertion-ordered dict acting as an ordered set, updated as flows
  start and finish — components and counts are never rebuilt from
  scratch, and the deterministic order makes whole runs reproducible
  (the previous ``set``-of-objects indices iterated in ``id()`` order,
  which could permute same-time events between runs).
* **Stamped component walks.**  Component discovery and the progressive
  filling bookkeeping use generation stamps on flows/resources instead
  of per-call ``set``/``dict`` allocations.
* **Heap-keyed bottlenecks.**  Each filling round takes its bottleneck
  from a lazily invalidated min-heap of ``(share, first-seen position)``
  keys instead of rescanning every resource, so a recomputation costs
  heap operations per round plus one update per route occurrence, not
  rounds x resources.  The pick and the arithmetic are the textbook
  scan's exactly.
* **Fill memo.**  The building blocks and hybrids are data-independent
  step patterns, so a bucket or ring phase hands the network the same
  component at every step.  ``_fill_memo`` maps a component's routes, in
  discovery order, to the rates ``_fill`` gave it; a repeat costs the
  component walk and one dict lookup.  The memo is exact because
  ``_fill`` is a pure function of two inputs.  The first is the routes
  in component order, which fix first-seen positions and so bottleneck
  tie-breaks; the order of ``_res_flows`` does not matter, since every
  flow fixed in one round drains the same share.  The second is the
  resource capacities, which are fixed per rid except in
  :meth:`FluidNetwork.apply_slowdown`, which clears the memo (a channel
  born degraded gets a new rid).  The memo lives and dies with the
  network, that is with one ``Machine.run``.
* **Completion-event elision.**  A recomputation that leaves a flow's
  predicted finish time bit-identical (the common case when several
  flows start at one timestamp) keeps the already-scheduled completion
  event instead of scheduling a replacement and letting the old one go
  stale.

All of the above preserve the *simulated* results bit-for-bit — the
golden-equivalence corpus (``tests/sim/test_golden_equivalence.py``)
enforces exactly that.
"""

from __future__ import annotations

import itertools
import math
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from ..core.params import MachineParams
from ..core.topology import Topology

Resource = Tuple  # ("inj", node) | ("ej", node) | ("ch", u, v)

#: tolerance for "flow has finished" in bytes
_EPS_BYTES = 1e-9

_INF = math.inf

#: degraded-route cache sentinel: the pair is disconnected
_NO_ROUTE = ()


class Flow:
    """One in-flight message moving through the fluid network.

    ``route`` holds the network's *interned* resource ids (ints); use
    :meth:`FluidNetwork.resources_of` to translate back to the
    ``("inj", node)`` / ``("ch", u, v)`` / ``("ej", node)`` tuples.
    """

    __slots__ = ("fid", "src", "dst", "route", "remaining", "rate",
                 "last_update", "epoch", "on_complete", "started_at",
                 "_sched_at", "_sched_epoch", "_cstamp", "_fstamp")

    def __init__(self, fid: int, src: int, dst: int,
                 route: Tuple[int, ...], nbytes: float,
                 on_complete, now: float):
        self.fid = fid
        self.src = src
        self.dst = dst
        self.route = route
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.last_update = now
        self.started_at = now
        #: bumped on every reschedule; stale completion events are ignored
        self.epoch = 0
        self.on_complete = on_complete
        #: time of the pending completion event, and the epoch it carries
        self._sched_at = -1.0
        self._sched_epoch = -1
        #: generation stamps for component walks / progressive filling
        self._cstamp = 0
        self._fstamp = 0

    def settle(self, now: float) -> None:
        """Account for bytes transferred since the last rate change.

        Residues smaller than ``_EPS_BYTES`` (including negative
        float-drift underflow) are clamped to exactly zero so that
        repeated rate changes cannot accumulate a stale sub-epsilon
        remainder that keeps scheduling zero-duration completion epochs.
        """
        dt = now - self.last_update
        if dt > 0.0 and self.rate > 0.0:
            self.remaining -= self.rate * dt
            if self.remaining < _EPS_BYTES:
                self.remaining = 0.0
        self.last_update = now

    def eta(self, now: float) -> float:
        """Predicted completion time at the current rate."""
        if self.remaining <= _EPS_BYTES:
            return now
        if self.rate <= 0.0:
            return _INF
        return now + self.remaining / self.rate

    def __repr__(self) -> str:
        return (f"Flow({self.src}->{self.dst}, rem={self.remaining:.1f}B, "
                f"rate={self.rate:.3g})")


class FluidNetwork:
    """Shared-bandwidth transport over a :class:`Topology`.

    The network does not own the simulation clock; an engine drives it by
    calling :meth:`start_flow`, and by invoking :meth:`fire_completion`
    when a scheduled completion event fires.

    ``schedule(t, cb)`` is the generic event hook; when the driving
    engine also passes ``schedule_completion(t, flow, epoch)`` the
    network uses it for flow completions so the engine can represent
    them as plain tuples instead of per-event closures.
    """

    def __init__(self, topology: Topology, params: MachineParams,
                 schedule: Callable[[float, Callable[[], None]], None],
                 schedule_completion: Optional[
                     Callable[[float, Flow, int], None]] = None,
                 complete: Optional[Callable[[object, float], None]] = None,
                 metrics=None, faults=None):
        self.topology = topology
        self.params = params
        #: runtime fault state (:class:`repro.sim.engine.FaultState`) or
        #: None; with no injected link faults every code path below is
        #: byte-identical to a fault-free network
        self._faults = faults
        #: (src, dst) -> interned degraded route, valid for the current
        #: failed-link set; flushed by :meth:`fault_routes_changed`
        self._degraded_routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: optional passive per-resource accounting
        #: (:class:`repro.obs.metrics.ResourceMetrics`); never affects
        #: simulated results — see docs/observability.md
        self.metrics = metrics
        # bound append of the collector's event log: the hot-path cost
        # of metering is exactly one tuple + list append per flow event
        self._mev = metrics._events.append if metrics is not None else None
        self._schedule = schedule
        if schedule_completion is None:
            def schedule_completion(t: float, flow: Flow,
                                    epoch: int) -> None:
                schedule(t, lambda: self.fire_completion(flow, epoch, t))
        self._schedule_completion = schedule_completion
        if complete is None:
            def complete(token: object, when: float) -> None:
                token(when)  # standalone use: the token is a callback
        self._complete = complete
        self._fid = itertools.count()
        self._fidn = self._fid.__next__
        self._port_cap = params.injection_bandwidth
        self._chan_cap = params.channel_bandwidth
        #: interning tables: resource tuple <-> dense integer id
        self._res_index: Dict[Resource, int] = {}
        self._res_list: List[Resource] = []
        self._res_cap: List[float] = []
        #: rid -> insertion-ordered dict of flows currently crossing it
        self._res_flows: List[Dict[Flow, None]] = []
        #: scratch stamps/positions for component walks and water-filling
        self._bfs_rstamp: List[int] = []
        self._wf_rstamp: List[int] = []
        self._wf_rpos: List[int] = []
        self._stamp = 0
        #: (src, dst) -> tuple of interned resource ids
        self._route_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._active: Dict[Flow, None] = {}
        #: component routes in discovery order -> the rates _fill gives
        #: them; exact while capacities hold, so apply_slowdown clears it
        self._fill_memo: Dict[tuple, Tuple[float, ...]] = {}
        #: statistics
        self.flows_started = 0
        self.bytes_carried = 0.0
        self.rate_recomputations = 0

    # ------------------------------------------------------------------
    # public interface used by the engine
    # ------------------------------------------------------------------

    def start_flow(self, src: int, dst: int, nbytes: float, now: float,
                   on_complete) -> Optional[Flow]:
        """Begin streaming ``nbytes`` from src to dst at time ``now``.

        ``on_complete`` is an opaque completion token: when the last
        byte arrives (exactly once) the network invokes the ``complete``
        callback it was constructed with as ``complete(token, t)``.
        Without an explicit ``complete`` the token must itself be a
        callable and is invoked as ``token(t)``.  The ``alpha`` latency
        is *not* charged here — the engine charges it before starting
        the flow, matching the paper's ``alpha + n*beta`` decomposition.

        When injected link faults leave src and dst disconnected the
        flow cannot start: returns ``None`` and the engine's retry layer
        takes over (docs/robustness.md).
        """
        if src == dst:
            raise ValueError("self-sends never enter the network")
        if nbytes <= 0 or self._port_cap == _INF:
            # Zero-length messages, or an idealized beta == 0 machine:
            # the transfer completes instantly.
            self._schedule(now, lambda: self._complete(on_complete, now))
            return Flow(self._fidn(), src, dst, (), 0.0,
                        on_complete, now)

        fs = self._faults
        if fs is not None and fs.failed:
            route = self._degraded_route(src, dst, fs)
            if route is None:
                return None
        else:
            route = self._route_cache.get((src, dst))
            if route is None:
                route = self._intern_route(src, dst)
        flow = Flow(self._fidn(), src, dst, route, nbytes,
                    on_complete, now)
        self._active[flow] = None
        res_flows = self._res_flows
        for rid in route:
            res_flows[rid][flow] = None
        self.flows_started += 1
        self.bytes_carried += nbytes
        if self._mev is not None:
            self._mev((now, route, nbytes))
        self._recompute_component(flow, now)
        return flow

    def active_flow_count(self) -> int:
        return len(self._active)

    def resources_of(self, flow: Flow) -> Tuple[Resource, ...]:
        """The resource tuples of a flow's route (un-interned view)."""
        return tuple(self._res_list[rid] for rid in flow.route)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _intern_route(self, src: int, dst: int) -> Tuple[int, ...]:
        route = self._intern_path(src, dst, self.topology.route(src, dst))
        self._route_cache[(src, dst)] = route
        return route

    def _intern_path(self, src: int, dst: int, chans) -> Tuple[int, ...]:
        res: List[Resource] = [("inj", src)]
        res.extend(("ch",) + ch for ch in chans)
        res.append(("ej", dst))
        return tuple(self._intern(r) for r in res)

    def _intern(self, r: Resource) -> int:
        rid = self._res_index.get(r)
        if rid is None:
            rid = len(self._res_list)
            self._res_index[r] = rid
            self._res_list.append(r)
            if r[0] in ("inj", "ej"):
                cap = self._port_cap
            else:
                cap = self._chan_cap
                # A channel first used while a slowdown is in force must
                # be born degraded; apply_slowdown only touches channels
                # that were already interned.
                fs = self._faults
                if fs is not None and fs.slow:
                    factor = fs.slow.get((r[1], r[2]))
                    if factor:
                        cap = self._chan_cap / factor
            self._res_cap.append(cap)
            self._res_flows.append({})
            self._bfs_rstamp.append(0)
            self._wf_rstamp.append(0)
            self._wf_rpos.append(0)
        return rid

    # ------------------------------------------------------------------
    # fault hooks (driven by the engine; see docs/robustness.md)
    # ------------------------------------------------------------------

    def _degraded_route(self, src: int, dst: int, fs) -> \
            Optional[Tuple[int, ...]]:
        """Interned route avoiding currently-failed channels, or None."""
        route = self._degraded_routes.get((src, dst))
        if route is None:
            chans = self.topology.route_avoiding(src, dst, fs.failed)
            if chans is None:
                route = _NO_ROUTE
            else:
                route = self._intern_path(src, dst, chans)
            self._degraded_routes[(src, dst)] = route
        return None if route is _NO_ROUTE else route

    def fault_routes_changed(self) -> None:
        """Flush degraded-route cache after the failed-link set changed."""
        self._degraded_routes.clear()

    def apply_slowdown(self, u: int, v: int, factor: Optional[float],
                       now: float) -> None:
        """Divide channel ``(u, v)`` bandwidth by ``factor`` (None
        restores full capacity) and rerate flows currently crossing it."""
        rid = self._res_index.get(("ch", u, v))
        if rid is None:
            return  # not interned yet; _intern will pick up fs.slow
        self._res_cap[rid] = (self._chan_cap if factor is None
                              else self._chan_cap / factor)
        self._fill_memo.clear()
        flows = self._res_flows[rid]
        if flows:
            # Any flow on the channel seeds the component walk; the walk
            # reaches everything transitively sharing a resource with it.
            self._recompute_component(next(iter(flows)), now)

    def abort_flows_crossing(self, chans, now: float) -> List[Flow]:
        """Kill every in-flight flow whose route uses one of ``chans``
        (a link just failed mid-transfer).  Survivors sharing resources
        with the victims get their rates raised.  Returns the victims;
        ``flow.on_complete`` is the engine's completion token, which the
        retry layer uses to retransmit."""
        victims: Dict[Flow, None] = {}
        for ch in chans:
            rid = self._res_index.get(("ch",) + tuple(ch))
            if rid is None:
                continue
            for f in self._res_flows[rid]:
                victims[f] = None
        return self._abort(list(victims), now)

    def abort_flows_of_node(self, node: int, now: float) -> List[Flow]:
        """Kill every in-flight flow to or from a crashed node."""
        victims = [f for f in self._active
                   if f.src == node or f.dst == node]
        return self._abort(victims, now)

    def _abort(self, victims: List[Flow], now: float) -> List[Flow]:
        for f in victims:
            f.settle(now)
            f.epoch += 1  # orphan any scheduled completion event
            self._remove(f, now)
        for f in victims:
            # removed-seed recompute: raise the survivors' rates
            self._recompute_component(f, now)
        return victims

    def _component(self, seed: Flow) -> Tuple[List[Flow], tuple]:
        """All active flows transitively sharing a resource with ``seed``,
        and their routes as the component's fill-memo key.

        When the seed has just been removed from the network, the
        component is seeded from its route's resources so that the flows
        it was sharing with get their rates raised.  Flows are returned
        in deterministic discovery order, and the key lists their routes
        in that order.
        """
        self._stamp += 1
        stamp = self._stamp
        rstamp = self._bfs_rstamp
        res_flows = self._res_flows
        comp: List[Flow] = []
        routes: List[Tuple[int, ...]] = []
        flow_stack: List[Flow] = []
        if seed in self._active:
            seed._cstamp = stamp
            flow_stack.append(seed)
        res_stack: List[int] = list(seed.route)
        while flow_stack or res_stack:
            if flow_stack:
                f = flow_stack.pop()
                comp.append(f)
                routes.append(f.route)
                for rid in f.route:
                    if rstamp[rid] != stamp:
                        res_stack.append(rid)
            else:
                rid = res_stack.pop()
                if rstamp[rid] == stamp:
                    continue
                rstamp[rid] = stamp
                for f in res_flows[rid]:
                    if f._cstamp != stamp:
                        f._cstamp = stamp
                        flow_stack.append(f)
        return comp, tuple(routes)

    def _recompute_component(self, seed: Flow, now: float) -> None:
        """Re-run water-filling for the component touched by ``seed``."""
        res_flows = self._res_flows
        if seed in self._active:
            # Fast path: the seed shares no resource with any other flow
            # (the common conflict-free case) — its rate is the minimum
            # of its resources' full capacities, exactly what the
            # general progressive filling would compute for a singleton
            # component.
            for rid in seed.route:
                if len(res_flows[rid]) > 1:
                    break
            else:
                self.rate_recomputations += 1
                seed.settle(now)
                cap = self._res_cap
                rate = _INF
                for rid in seed.route:
                    c = cap[rid]
                    if c < rate:
                        rate = c
                seed.rate = rate
                self._reschedule(seed, now)
                return
            comp, key = self._component(seed)
        else:
            # Fast path: the seed has just been removed and none of its
            # resources carry another flow — nothing to recompute.
            for rid in seed.route:
                if res_flows[rid]:
                    break
            else:
                return
            comp, key = self._component(seed)
            if not comp:
                return
        self.rate_recomputations += 1
        # Settle transferred bytes at the old rates before changing them.
        for f in comp:
            f.settle(now)

        # Progressive filling (max-min fairness).  Only the resources
        # used by component flows matter; by construction no flow
        # outside the component crosses them.  A component whose
        # ordered routes were filled before gets the same rates back.
        rates = self._fill_memo.get(key)
        if rates is None:
            self._fill(comp)
            self._fill_memo[key] = tuple([f.rate for f in comp])
        else:
            for f, rate in zip(comp, rates):
                f.rate = rate

        # Reschedule completion events at the new rates.
        for f in comp:
            self._reschedule(f, now)

    def _fill(self, comp: List[Flow]) -> None:
        """Textbook progressive filling, bottlenecks drawn from a heap.

        Capacities and counts live in scratch lists indexed by
        first-seen position.  Each round fixes the flows of the resource
        with the smallest share ``caps[i] / cnts[i]``, ties going to the
        lowest position — exactly the resource a full scan with strict
        ``<`` picks — and drains one clamped subtraction per route
        occurrence, so results match the textbook scan bit-for-bit.

        The heap holds ``(key, position)`` entries, invalidated lazily:
        every unsaturated resource has an entry whose key is a *lower
        bound* on its share (``keys[i]`` is the newest).  A popped entry
        whose key equals the current share is therefore the argmin; one
        whose share has grown is pushed back once at the new share.
        Draining only raises shares in exact arithmetic, so an eager
        push is needed only when rounding or the ``0.0`` clamp lowers a
        share below its key.
        """
        res_flows = self._res_flows
        self._stamp += 1
        stamp = self._stamp
        rstamp = self._wf_rstamp
        rpos = self._wf_rpos
        cap_full = self._res_cap
        rids: List[int] = []
        caps: List[float] = []
        cnts: List[int] = []
        for f in comp:
            for rid in f.route:
                if rstamp[rid] != stamp:
                    rstamp[rid] = stamp
                    rpos[rid] = len(rids)
                    rids.append(rid)
                    caps.append(cap_full[rid])
                    cnts.append(1)
                else:
                    cnts[rpos[rid]] += 1

        keys = [c / n for c, n in zip(caps, cnts)]
        heap = list(zip(keys, range(len(keys))))
        heapify(heap)
        nleft = len(comp)
        # every unfixed flow keeps its finite-capacity ports unsaturated,
        # so the heap cannot run dry while nleft > 0
        while nleft:
            key, b = heappop(heap)
            c = cnts[b]
            if not c:
                continue  # saturated since this entry was pushed
            share = caps[b] / c
            if share != key:
                # the share has grown since this key: re-key it once
                keys[b] = share
                heappush(heap, (share, b))
                continue
            for f in res_flows[rids[b]]:
                if f._fstamp != stamp:
                    f._fstamp = stamp
                    f.rate = share
                    nleft -= 1
                    for rid in f.route:
                        i = rpos[rid]
                        nc = caps[i] - share
                        nc = caps[i] = nc if nc > 0.0 else 0.0
                        c = cnts[i] = cnts[i] - 1
                        if c and nc / c < keys[i]:
                            # rounding or the clamp lowered the share
                            # below its key: keep the key a lower bound
                            k = keys[i] = nc / c
                            heappush(heap, (k, i))

    def _reschedule(self, flow: Flow, now: float) -> None:
        """Schedule the flow's completion — unless an event carrying the
        flow's current epoch is already pending at the bit-identical
        time, in which case that event is kept (completion behaviour is
        unchanged: the handler settles from current state)."""
        t = flow.eta(now)
        if t == flow._sched_at and flow._sched_epoch == flow.epoch:
            return
        flow.epoch += 1
        if t != _INF:
            flow._sched_at = t
            flow._sched_epoch = flow.epoch
            self._schedule_completion(t, flow, flow.epoch)
        else:
            flow._sched_at = -1.0
            flow._sched_epoch = -1

    def fire_completion(self, flow: Flow, epoch: int, when: float) -> None:
        """Handle a scheduled completion event (engine callback)."""
        if flow.epoch != epoch or flow not in self._active:
            return  # stale event from before a rate change
        # settle and verify the flow really drained
        flow.settle(when)
        if flow.remaining > _EPS_BYTES:
            # Floating-point residue: a few bytes remain because the
            # settle arithmetic differs slightly from the eta that
            # scheduled this event.  Stream the tail out rather than
            # waiting for an event that may never come — unless the
            # tail is so small that its ETA cannot advance the clock,
            # in which case the flow is done for all purposes.
            flow.epoch += 1
            t = flow.eta(when)
            advances = t > when + 1e-12 * max(1.0, abs(when))
            if t != _INF and advances:
                flow._sched_at = t
                flow._sched_epoch = flow.epoch
                self._schedule_completion(t, flow, flow.epoch)
                return
            flow.remaining = 0.0
        self._remove(flow, when)
        self._recompute_component(flow, when)
        self._complete(flow.on_complete, when)

    def _remove(self, flow: Flow, when: float) -> None:
        self._active.pop(flow, None)
        res_flows = self._res_flows
        for rid in flow.route:
            res_flows[rid].pop(flow, None)
        if self._mev is not None:
            self._mev((when, flow.route, None))
