"""Tests for the fluid-flow network: the section 2 sharing semantics.

These tests pin the simulator to the paper's model: conflict-free
messages run at full injection bandwidth; messages sharing a channel
split it max-min fairly; the Paragon's excess link capacity lets several
messages coexist penalty-free.
"""

import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import api
from repro.sim import (FullyConnected, Hypercube, LinearArray, Machine,
                       Mesh2D, MachineParams, PARAGON, Torus2D, UNIT)
from repro.core.faults import FaultSchedule
from repro.sim.engine import FaultState
from repro.sim.network import _EPS_BYTES, Flow, FluidNetwork


def timed_sends(machine, sends, nbytes):
    """Run a program where each (src, dst) in ``sends`` transfers
    ``nbytes`` bytes starting at t=0; returns elapsed time."""
    by_src = {}
    by_dst = {}
    for s, d in sends:
        by_src.setdefault(s, []).append(d)
        by_dst.setdefault(d, []).append(s)

    def prog(env):
        reqs = []
        for d in by_src.get(env.rank, []):
            reqs.append(env.isend(d, np.zeros(nbytes, dtype=np.uint8)))
        for s in by_dst.get(env.rank, []):
            reqs.append(env.irecv(s))
        if reqs:
            yield env.waitall(*reqs)

    return machine.run(prog).time


class TestConflictFree:
    def test_single_transfer_costs_alpha_plus_n_beta(self):
        m = Machine(LinearArray(4), UNIT)
        assert timed_sends(m, [(0, 3)], 100) == pytest.approx(101.0)

    def test_disjoint_transfers_do_not_interact(self):
        m = Machine(LinearArray(6), UNIT)
        t = timed_sends(m, [(0, 1), (2, 3), (4, 5)], 50)
        assert t == pytest.approx(51.0)

    def test_opposite_directions_full_speed(self):
        # forward and backward traffic use independent channels
        m = Machine(LinearArray(4), UNIT)
        t = timed_sends(m, [(0, 3), (3, 0)], 80)
        assert t == pytest.approx(81.0)

    def test_distance_does_not_matter(self):
        # wormhole routing: alpha + n beta regardless of hops
        m = Machine(LinearArray(32), UNIT)
        near = timed_sends(m, [(0, 1)], 64)
        far = timed_sends(m, [(0, 31)], 64)
        assert near == far


class TestChannelSharing:
    def test_two_flows_share_a_channel_at_half_rate(self):
        # 0->2 and 1->3 both cross channel (1,2)
        m = Machine(LinearArray(4), UNIT)
        t = timed_sends(m, [(0, 2), (1, 3)], 100)
        assert t == pytest.approx(1 + 200.0)

    def test_three_flows_one_channel(self):
        m = Machine(LinearArray(6), UNIT)
        t = timed_sends(m, [(0, 3), (1, 4), (2, 5)], 60)
        # all cross (2,3): one third rate each
        assert t == pytest.approx(1 + 180.0)

    def test_rates_rise_when_a_flow_finishes(self):
        # short flow shares, then the long one speeds back up:
        # both start at rate 1/2; the 50-byte flow ends at 1+100;
        # the 150-byte one then has 100 left at full rate.
        m = Machine(LinearArray(4), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(2, np.zeros(50, dtype=np.uint8))
            elif env.rank == 1:
                yield env.send(3, np.zeros(150, dtype=np.uint8))
            elif env.rank == 2:
                yield env.recv(0)
            elif env.rank == 3:
                yield env.recv(1)

        assert m.run(prog).time == pytest.approx(1 + 100 + 100)

    def test_max_min_not_bottlenecked_flows_keep_full_rate(self):
        # 0->2 and 1->3 share (1,2); 4->5 is independent and must not
        # be slowed by the others.
        m = Machine(LinearArray(6), UNIT, trace=True)
        res_t = None

        def prog(env):
            if env.rank == 0:
                yield env.send(2, np.zeros(100, dtype=np.uint8))
            elif env.rank == 1:
                yield env.send(3, np.zeros(100, dtype=np.uint8))
            elif env.rank == 4:
                yield env.send(5, np.zeros(100, dtype=np.uint8))
            elif env.rank in (2, 3):
                yield env.recv(env.rank - 2)
            elif env.rank == 5:
                yield env.recv(4)

        run = m.run(prog)
        done = {(r.src, r.dst): r.t_complete for r in run.trace.completed()}
        assert done[(4, 5)] == pytest.approx(101.0)
        assert done[(0, 2)] == pytest.approx(201.0)


class TestInjectionEjectionPorts:
    def test_two_sends_from_one_node_share_injection(self):
        m = Machine(FullyConnected(3), UNIT)
        t = timed_sends(m, [(0, 1), (0, 2)], 100)
        assert t == pytest.approx(1 + 200.0)

    def test_two_recvs_at_one_node_share_ejection(self):
        m = Machine(FullyConnected(3), UNIT)
        t = timed_sends(m, [(1, 0), (2, 0)], 100)
        assert t == pytest.approx(1 + 200.0)

    def test_send_and_recv_simultaneously_full_rate(self):
        # section 2: "A processor can both send and receive at the same
        # time."
        m = Machine(FullyConnected(3), UNIT)
        t = timed_sends(m, [(0, 1), (2, 0)], 100)
        assert t == pytest.approx(101.0)


class TestExcessLinkCapacity:
    def test_capacity_two_carries_two_flows_penalty_free(self):
        # section 7.1: Paragon links carry several messages unpenalized
        params = UNIT.with_(link_capacity=2.0)
        m = Machine(LinearArray(4), params)
        t = timed_sends(m, [(0, 2), (1, 3)], 100)
        assert t == pytest.approx(101.0)

    def test_capacity_two_with_three_flows_shares(self):
        params = UNIT.with_(link_capacity=2.0)
        m = Machine(LinearArray(6), params)
        t = timed_sends(m, [(0, 3), (1, 4), (2, 5)], 100)
        # channel rate 2.0 split three ways -> 2/3 each
        assert t == pytest.approx(1 + 150.0)

    def test_ports_still_bind_at_high_link_capacity(self):
        params = UNIT.with_(link_capacity=100.0)
        m = Machine(FullyConnected(3), params)
        t = timed_sends(m, [(0, 1), (0, 2)], 100)
        assert t == pytest.approx(1 + 200.0)


class TestMeshConflicts:
    def test_row_traffic_in_distinct_rows_is_free(self):
        m = Machine(Mesh2D(4, 4), UNIT)
        sends = [(4 * r, 4 * r + 3) for r in range(4)]
        assert timed_sends(m, sends, 100) == pytest.approx(101.0)

    def test_interleaved_row_traffic_shares(self):
        # 0->2 and 1->3 in row 0 share channel (1,2)
        m = Machine(Mesh2D(2, 4), UNIT)
        t = timed_sends(m, [(0, 2), (1, 3)], 100)
        assert t == pytest.approx(201.0)

    def test_xy_routing_conflict(self):
        # (0,0)->(1,1) routes through (0,1); (0,1)->(1,1)'s column hop
        # uses the same vertical channel (0,1)->(1,1).
        m = Machine(Mesh2D(2, 2), UNIT)
        t = timed_sends(m, [(0, 3), (1, 3)], 100)
        # both share the vertical channel into node 3 *and* node 3's
        # ejection port -> half rate
        assert t == pytest.approx(201.0)


class TestZeroByteAndEdgeCases:
    def test_zero_byte_message_costs_alpha(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, None)
            else:
                data = yield env.recv(0)
                assert data is None

        assert m.run(prog).time == pytest.approx(1.0)

    def test_infinite_bandwidth_machine(self):
        m = Machine(LinearArray(2), MachineParams(alpha=1.0, beta=0.0))

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(10 ** 6, dtype=np.uint8))
            else:
                yield env.recv(0)

        assert m.run(prog).time == pytest.approx(1.0)

    def test_statistics_accumulate(self):
        m = Machine(LinearArray(4), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(10, dtype=np.uint8))
                yield env.send(2, np.zeros(20, dtype=np.uint8))
            elif env.rank in (1, 2):
                yield env.recv(0)

        run = m.run(prog)
        assert run.messages == 2
        assert run.bytes_moved == pytest.approx(30.0)


class TestFloatDriftClamp:
    """Regression tests for the ``Flow.settle`` epsilon clamp.

    Repeated rate changes settle a flow many times; the subtractions can
    underflow to a tiny positive or *negative* remainder.  Before the
    clamp, such a stale sub-epsilon residue could keep a "live" flow
    whose eta() no longer advances the clock, scheduling zero-duration
    completion epochs.  ``settle`` now snaps any residue below
    ``_EPS_BYTES`` to exactly zero.
    """

    def test_settle_clamps_negative_drift_to_exact_zero(self):
        f = Flow(0, 0, 1, (), 0.3, lambda t: None, 0.0)
        f.rate = 0.1
        for k in range(1, 4):          # 0.3 - 3*0.1 < 0 in binary fp
            f.settle(float(k))
        assert f.remaining == 0.0      # exactly, not approximately
        assert f.eta(3.0) == 3.0

    def test_settle_clamps_subeps_residue_to_exact_zero(self):
        f = Flow(0, 0, 1, (), 1.0, lambda t: None, 0.0)
        f.rate = 1.0 / 3.0
        f.settle(2.9999999999999996)   # leaves ~2e-16 bytes
        assert f.remaining == 0.0

    def test_settle_keeps_real_residue(self):
        f = Flow(0, 0, 1, (), 100.0, lambda t: None, 0.0)
        f.rate = 1.0
        f.settle(40.0)
        assert f.remaining == pytest.approx(60.0)
        assert f.remaining > _EPS_BYTES

    def _drive_standalone(self, topo, specs):
        """Run flows on a bare FluidNetwork under a minimal event loop;
        returns {(src, dst): [completion times]} and the event count."""
        heap = []
        ctr = itertools.count()

        def schedule(t, cb):
            heapq.heappush(heap, (t, next(ctr), cb))

        net = FluidNetwork(topo, UNIT, schedule)
        fired = {}

        def make_cb(key):
            def cb(t):
                fired.setdefault(key, []).append(t)
            return cb

        for s, d, nb in specs:
            net.start_flow(s, d, float(nb), 0.0, make_cb((s, d)))
        steps = 0
        limit = 20 * len(specs) + 50
        while heap:
            steps += 1
            assert steps < limit, "completion-event spin (stale epochs?)"
            _, _, cb = heapq.heappop(heap)
            cb()
        return net, fired, steps

    def test_adversarial_shared_channel_fires_each_flow_once(self):
        # four flows of coprime sizes through one channel: every finish
        # re-rates the rest (1/4 -> 1/3 -> 1/2 -> 1), settling repeatedly
        specs = [(0, 4, 61), (1, 5, 233), (2, 6, 397), (3, 7, 1009)]
        net, fired, _ = self._drive_standalone(LinearArray(8), specs)
        assert sorted(fired) == sorted((s, d) for s, d, _ in specs)
        assert all(len(v) == 1 for v in fired.values())
        assert net.active_flow_count() == 0

    def test_engine_rate_churn_bounded_events(self):
        # Dense random overlap: many mid-flight rate changes, fractional
        # shares.  Every message must complete and the event count must
        # stay linear in the message count (no zero-duration epochs).
        rng = random.Random(5)
        pairs = set()
        sends = []
        for _ in range(60):
            s, d = rng.randrange(10), rng.randrange(10)
            if s != d and (s, d) not in pairs:
                pairs.add((s, d))
                sends.append((s, d, rng.choice([61, 233, 997, 4093])))
        m = Machine(LinearArray(10), UNIT)

        def prog(env):
            reqs = []
            for s, d, nb in sends:
                if env.rank == s:
                    reqs.append(env.isend(d, np.zeros(nb, dtype=np.uint8)))
            for s, d, nb in sends:
                if env.rank == d:
                    reqs.append(env.irecv(s))
            if reqs:
                yield env.waitall(*reqs)

        run = m.run(prog)
        assert run.messages == len(sends)
        assert run.events <= 20 * run.messages + 4 * 10


def bare_network(topology, params=UNIT):
    """A FluidNetwork with no event loop: rates are read straight off
    the flows after each start."""
    return FluidNetwork(topology, params, schedule=lambda t, cb: None,
                        complete=lambda token, t: None)


class TestProgressiveFilling:
    """Exact rates out of the max-min fill, and the fairness property."""

    def test_zero_capacity_component_gets_rate_zero(self):
        # a channel slowed by an infinite factor has capacity 0.0: the
        # fill must hand out exactly zero, not divide into a blow-up
        net = bare_network(FullyConnected(9))
        flows = [net.start_flow(s, 8, 1000.0, 0.0, object())
                 for s in range(4)]
        for s in range(4):
            net.apply_slowdown(s, 8, math.inf, 0.0)
        assert [f.rate for f in flows] == [0.0] * 4

    def test_single_flow_takes_its_route_capacity(self):
        # a singleton component skips the fill; its rate is still the
        # route's narrowest capacity
        net = bare_network(FullyConnected(9))
        assert net.start_flow(0, 1, 1000.0, 0.0, object()).rate == 1.0

    def test_incast_gets_exact_share_of_ejection_port(self):
        # the same IEEE quotient cap/k, not an approximation
        for k in (2, 3, 5, 7):
            net = bare_network(FullyConnected(9))
            flows = [net.start_flow(s, 8, 1000.0, 0.0, object())
                     for s in range(k)]
            assert [f.rate for f in flows] == [1.0 / k] * k


_TOPOLOGIES = [
    LinearArray(8), Mesh2D(3, 4), Mesh2D(4, 4), Torus2D(3, 4),
    Hypercube(4), FullyConnected(8),
]


@st.composite
def _loaded_networks(draw):
    """A random concurrent pattern on one of the topologies, with a
    seeded subset of its channels slowed down mid-flight."""
    topo = draw(st.sampled_from(_TOPOLOGIES))
    n = topo.nnodes
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda sd: sd[0] != sd[1]),
        min_size=1, max_size=16))
    capacity = draw(st.sampled_from([1.0, 2.0, 4.0]))
    seed = draw(st.integers(0, 2 ** 16))
    return topo, pairs, capacity, seed


def _assert_max_min_fair(net, flows, params, slow):
    """Every resource carries at most its capacity, and every flow
    crosses a saturated resource on which no other flow runs faster —
    the defining property of the max-min fair allocation."""
    def cap(r):
        if r[0] in ("inj", "ej"):
            return params.injection_bandwidth
        return params.channel_bandwidth / slow.get(r[1:], 1.0)

    on = {}
    for f in flows:
        for r in net.resources_of(f):
            on.setdefault(r, []).append(f.rate)
    for r, rates in on.items():
        assert sum(rates) <= cap(r) * (1 + 1e-12), r
    for f in flows:
        assert any(
            sum(on[r]) >= cap(r) * (1 - 1e-12)
            and f.rate >= max(on[r]) * (1 - 1e-12)
            for r in net.resources_of(f)), (f, slow)


@settings(max_examples=60, deadline=None)
@given(case=_loaded_networks())
def test_rates_are_max_min_fair(case):
    topo, pairs, capacity, seed = case
    params = UNIT.with_(link_capacity=capacity)
    net = bare_network(topo, params)
    flows = [net.start_flow(s, d, 500.0, 0.0, object()) for s, d in pairs]
    rng = random.Random(seed)
    chans = sorted({ch for s, d in pairs for ch in topo.route(s, d)})
    slow = {ch: 1.0 + 3.0 * rng.random()
            for ch in rng.sample(chans, rng.randint(0, len(chans)))}
    for (u, v), factor in slow.items():
        net.apply_slowdown(u, v, factor, 0.0)
    _assert_max_min_fair(net, flows, params, slow)


def test_seeded_small_components_are_max_min_fair():
    """A brute seeded sweep of tiny patterns on one crossbar, some of
    their channels slowed mid-flight: the one- and two-flow components
    that hypothesis rarely dwells on."""
    for seed in range(10):
        rng = random.Random(seed)
        pairs = sorted({(rng.randrange(9), rng.randrange(9))
                        for _ in range(rng.randint(1, 8))})
        pairs = [(s, d) for s, d in pairs if s != d]
        net = bare_network(FullyConnected(9))
        flows = [net.start_flow(s, d, 500.0, 0.0, object())
                 for s, d in pairs]
        slow = {ch: 1.0 + 3.0 * rng.random()
                for ch in pairs[:rng.randint(0, len(pairs))]}
        for (u, v), factor in slow.items():
            net.apply_slowdown(u, v, factor, 0.0)
        _assert_max_min_fair(net, flows, UNIT, slow)


def _reference_fill(net, comp):
    """The textbook max-min scan over ``comp``, kept independent of the
    network's bottleneck selection: resources in first-seen order, every
    round rescans all of them and picks the smallest ``cap / count`` by
    strict ``<`` (ties go to the lowest position), and every fixed flow
    drains one clamped subtraction per route occurrence.

    Returns the rates in ``comp`` order, the bottleneck share of every
    round, and whether any round's smallest share was tied."""
    rids, pos, caps, cnts = [], {}, [], []
    for f in comp:
        for rid in f.route:
            if rid in pos:
                cnts[pos[rid]] += 1
            else:
                pos[rid] = len(rids)
                rids.append(rid)
                caps.append(net._res_cap[rid])
                cnts.append(1)
    rates, shares, tied = {}, [], False
    while len(rates) < len(comp):
        live = [i for i in range(len(rids)) if cnts[i]]
        share, b = math.inf, -1
        for i in live:
            if caps[i] / cnts[i] < share:
                share, b = caps[i] / cnts[i], i
        shares.append(share)
        tied |= sum(caps[i] / cnts[i] == share for i in live) > 1
        for f in net._res_flows[rids[b]]:
            if f not in rates:
                rates[f] = share
                for rid in f.route:
                    i = pos[rid]
                    nc = caps[i] - share
                    caps[i] = nc if nc > 0.0 else 0.0
                    cnts[i] -= 1
    return [rates[f] for f in comp], shares, tied


def _components(net, flows):
    seen = set()
    for f in flows:
        if f not in seen:
            comp, _ = net._component(f)
            seen.update(comp)
            yield comp


def _random_load(seed):
    """Random traffic on a small topology, up to three of its channels
    slowed: by a finite factor, or by ``math.inf`` to capacity zero."""
    rng = random.Random(seed)
    topo = rng.choice(_TOPOLOGIES)
    net = bare_network(
        topo, UNIT.with_(link_capacity=rng.choice([1.0, 2.0, 3.0])))
    flows = [net.start_flow(*rng.sample(range(topo.nnodes), 2), 500.0,
                            0.0, object())
             for _ in range(rng.randint(2, 16))]
    chans = sorted({r[1:] for f in flows for r in net.resources_of(f)
                    if r[0] == "ch"})
    for u, v in rng.sample(chans, rng.randint(0, min(3, len(chans)))):
        factor = rng.choice([math.inf, 1.5, 3.0, 1.0 + 2.0 * rng.random()])
        net.apply_slowdown(u, v, factor, 0.0)
    return net, flows


def _fan_out_load(seed):
    """Forced ties on a crossbar: every sender injects the same number
    ``k`` of flows, so all injection ports start at the share ``1 / k``."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    net = bare_network(FullyConnected(n),
                       UNIT.with_(link_capacity=rng.choice([1.0, 2.0])))
    k = rng.choice([3, 5, 6, 7, 9])
    flows = [net.start_flow(s, rng.choice([d for d in range(n) if d != s]),
                            500.0, 0.0, object())
             for s in rng.sample(range(n), rng.randint(2, n))
             for _ in range(k)]
    return net, flows


class TestFillMatchesReferenceScan:
    """The network's bottleneck choice must reproduce the full scan's
    IEEE-754 operation sequence, so rates compare with ``==``."""

    def _check(self, net, flows):
        for comp in _components(net, flows):
            expected, shares, tied = _reference_fill(net, comp)
            net._fill(comp)
            assert [f.rate for f in comp] == expected, net.topology
            yield shares, tied

    def test_random_and_tied_components(self):
        zero = ties = 0
        for seed in range(150):
            for load in (_random_load, _fan_out_load):
                for shares, tied in self._check(*load(seed)):
                    zero += 0.0 in shares
                    ties += tied
        assert zero and ties

    def test_rounding_that_lowers_a_share_partway_through_a_fill(self):
        # In exact arithmetic draining only raises shares, so successive
        # bottleneck shares never fall; rounding can make one fall by an
        # ulp.  A seeded search collects components where that happens.
        found = 0
        for seed in range(2000):
            for shares, _ in self._check(*_fan_out_load(seed)):
                found += any(b < a for a, b in zip(shares, shares[1:]))
            if found >= 10:
                break
        assert found >= 10


def _counted_fills(net):
    """Record every call the network makes into ``_fill``: a rerate
    that makes none took its rates from the fill memo."""
    calls = []
    fill = net._fill

    def counted(comp):
        calls.append(len(comp))
        fill(comp)
    net._fill = counted
    return calls


def _restart(net, flows):
    """The same pattern again with fresh flows: abort every flow, then
    start one per (src, dst) pair, in the order given."""
    net._abort(list(flows), 0.0)
    return [net.start_flow(f.src, f.dst, 500.0, 0.0, object())
            for f in flows]


def _shared(net, flows):
    """The components of ``flows`` that go through the fill (singletons
    take the fast path)."""
    return [c for c in _components(net, flows) if len(c) > 1]


class TestFillMemoIsExact:
    """A component whose ordered routes were filled before gets rates
    ``==`` to a fresh fill's, and a capacity change is never papered
    over by an older entry."""

    def test_miss_then_hit_match_reference_scan(self):
        zero = ties = hits = 0
        for seed in range(150):
            for load in (_random_load, _fan_out_load):
                net, flows = load(seed)
                fills = _counted_fills(net)
                comps = _shared(net, flows)
                expected = [_reference_fill(net, c) for c in comps]
                net._fill_memo.clear()
                for comp, (rates, shares, tied) in zip(comps, expected):
                    net._recompute_component(comp[0], 0.0)
                    assert [f.rate for f in comp] == rates
                    zero += 0.0 in shares
                    ties += tied
                assert len(fills) == len(comps)  # every one a miss

                again = _shared(net, _restart(net, flows))
                assert ([[(f.src, f.dst) for f in c] for c in again]
                        == [[(f.src, f.dst) for f in c] for c in comps])
                for f in itertools.chain(*again):
                    f.rate = math.nan
                n = len(fills)
                for comp, (rates, _, _) in zip(again, expected):
                    net._recompute_component(comp[0], 0.0)
                    assert [f.rate for f in comp] == rates
                assert len(fills) == n  # every one a hit
                hits += len(again)

                # the same routes discovered in another order are another
                # key: their rates follow their own first-seen positions
                for comp in _shared(net, _restart(net, flows[::-1])):
                    rates, _, _ = _reference_fill(net, comp)
                    net._recompute_component(comp[0], 0.0)
                    assert [f.rate for f in comp] == rates
        assert zero and ties and hits

    def test_slowdown_between_two_identical_patterns(self):
        net = bare_network(FullyConnected(4))
        first = [net.start_flow(s, 3, 500.0, 0.0, object()) for s in (0, 1)]
        assert [f.rate for f in first] == [0.5, 0.5]
        net._abort(first, 0.0)
        # no flow crosses the channel now, so nothing is rerated here;
        # the next identical pattern must still see the new capacity
        net.apply_slowdown(0, 3, 4.0, 0.0)
        second = [net.start_flow(s, 3, 500.0, 0.0, object())
                  for s in (0, 1)]
        assert [f.rate for f in second] == [0.25, 0.75]

    def test_channel_born_degraded_never_reuses_a_full_capacity_entry(self):
        fs = FaultState(FaultSchedule())
        net = FluidNetwork(FullyConnected(6), UNIT,
                           schedule=lambda t, cb: None,
                           complete=lambda token, t: None, faults=fs)
        full = [net.start_flow(s, 2, 500.0, 0.0, object()) for s in (0, 1)]
        assert [f.rate for f in full] == [0.5, 0.5]
        # channel (3, 5) is slowed before its first use: apply_slowdown
        # has no rid to touch, and the channel is interned degraded
        fs.slow[(3, 5)] = 4.0
        net.apply_slowdown(3, 5, 4.0, 0.0)
        assert net._fill_memo
        slow = [net.start_flow(s, 5, 500.0, 0.0, object()) for s in (3, 4)]
        assert [f.rate for f in slow] == [0.25, 0.75]
        assert [f.rate for f in _restart(net, full)] == [0.5, 0.5]


_CELLS = [(op, nbytes) for nbytes in (4096, 65536)
          for op in ("bcast", "allreduce", "collect", "reduce_scatter")]


def _cell_program(env, op, n):
    """One ``sim_linear``-shaped cell: an auto-dispatched collective of
    ``n`` doubles (``collect``: ``n`` in all)."""
    x = np.arange(n, dtype=np.float64) + env.rank
    if op == "bcast":
        return (yield from api.bcast(env, x if env.rank == 0 else None,
                                     root=0, total=n))
    if op == "allreduce":
        return (yield from api.allreduce(env, x))
    if op == "collect":
        return (yield from api.collect(env, x[:n // env.nranks]))
    return (yield from api.reduce_scatter(env, x))


class TestFillMemoIsPerNetwork:
    """The memo lives and dies with one run's network: no cell depends
    on what the machine ran before it."""

    @staticmethod
    def _signatures(machine, cells):
        out = {}
        for op, nbytes in cells:
            run = machine.run(_cell_program, op, nbytes // 8)
            out[op, nbytes] = (repr(run.time), run.messages, run.events,
                               run.flows, run.rate_recomputations)
        return out

    def test_cell_counters_do_not_depend_on_run_order(self, monkeypatch):
        rerates = fills = 0
        component, fill = FluidNetwork._component, FluidNetwork._fill

        def counted_component(net, seed):
            nonlocal rerates
            comp, key = component(net, seed)
            rerates += bool(comp)
            return comp, key

        def counted_fill(net, comp):
            nonlocal fills
            fills += 1
            fill(net, comp)
        monkeypatch.setattr(FluidNetwork, "_component", counted_component)
        monkeypatch.setattr(FluidNetwork, "_fill", counted_fill)
        machine = Machine(LinearArray(16), PARAGON)
        forward = self._signatures(machine, _CELLS)
        assert self._signatures(machine, _CELLS[::-1]) == forward
        # over a quarter of these cells' shared-component rerates are
        # memo hits, so the order test does exercise the memo
        assert 4 * (rerates - fills) > rerates

    def test_each_run_starts_with_an_empty_memo(self):
        sizes = []

        def prog(env):
            memo = env.engine.network._fill_memo
            if env.rank == 0:
                sizes.append(len(memo))
            yield from _cell_program(env, "allreduce", 512)
            if env.rank == 0:
                sizes.append(len(memo))

        machine = Machine(LinearArray(16), PARAGON)
        machine.run(prog)
        machine.run(prog)
        assert sizes[0] == sizes[2] == 0
        assert sizes[1] > 0 and sizes[3] > 0
