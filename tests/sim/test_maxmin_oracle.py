"""Fuzzing the fluid network against an independent reference.

The production :class:`~repro.sim.network.FluidNetwork` uses incremental
component-restricted water-filling plus event-epoch bookkeeping.  This
test builds an *independent* oracle — a tiny quasi-static simulator that
at every instant recomputes global max-min rates from scratch and
advances to the next flow completion analytically — and checks that
random concurrent transfer patterns finish at identical times in both.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (FullyConnected, Hypercube, LinearArray, Machine, Mesh2D,
                       Ring, Torus2D, UNIT)


def global_maxmin(flows, capacity):
    """Reference water-filling over *all* flows at once.

    ``flows``: list of (id, set_of_resources); ``capacity``: resource ->
    bytes/sec.  Returns id -> rate.
    """
    caps = dict(capacity)
    counts = {}
    for fid, res in flows:
        for r in res:
            counts[r] = counts.get(r, 0) + 1
    unfixed = {fid: res for fid, res in flows}
    rates = {}
    while unfixed:
        share, bottleneck = min(
            ((caps[r] / counts[r], r) for r in counts if counts[r] > 0),
            key=lambda x: x[0])
        for fid in list(unfixed):
            if bottleneck in unfixed[fid]:
                rates[fid] = share
                for r in unfixed[fid]:
                    caps[r] -= share
                    caps[r] = max(caps[r], 0.0)
                    counts[r] -= 1
                del unfixed[fid]
    return rates


def oracle_completion_times(topology, params, sends):
    """Quasi-static fluid reference: all transfers start at t=alpha
    (after their latency), rates are globally recomputed whenever any
    flow finishes.  Returns {(src, dst): completion_time}.

    Assumes every (src, dst) pair appears at most once and that all
    sends are posted at t=0 with matching receives.
    """
    port = params.injection_bandwidth
    chan = params.channel_bandwidth

    def resources(src, dst):
        res = {("inj", src), ("ej", dst)}
        res |= {("ch",) + ch for ch in topology.route(src, dst)}
        return res

    remaining = {}
    res_of = {}
    for src, dst, nbytes in sends:
        key = (src, dst)
        remaining[key] = float(nbytes)
        res_of[key] = resources(src, dst)

    capacity = {}
    for res in res_of.values():
        for r in res:
            capacity[r] = port if r[0] in ("inj", "ej") else chan

    done = {}
    t = params.alpha  # all flows begin after the latency
    while remaining:
        rates = global_maxmin(list(res_of.items()), capacity)
        # time until first completion at current rates
        dt = min(remaining[k] / rates[k] for k in remaining)
        t += dt
        finished = [k for k in list(remaining)
                    if remaining[k] - rates[k] * dt <= 1e-6]
        for k in list(remaining):
            remaining[k] -= rates[k] * dt
        for k in finished:
            done[k] = t
            del remaining[k]
            del res_of[k]
    return done


def run_sends(topology, params, sends):
    """Run the same pattern on the production engine with tracing."""
    machine = Machine(topology, params, trace=True)
    by_src = {}
    by_dst = {}
    for s, d, n in sends:
        by_src.setdefault(s, []).append((d, n))
        by_dst.setdefault(d, []).append(s)

    def prog(env):
        reqs = []
        for d, n in by_src.get(env.rank, []):
            reqs.append(env.isend(d, np.zeros(int(n), dtype=np.uint8)))
        for s in by_dst.get(env.rank, []):
            reqs.append(env.irecv(s))
        if reqs:
            yield env.waitall(*reqs)

    run = machine.run(prog)
    return {(r.src, r.dst): r.t_complete for r in run.trace.completed()}


def random_pattern(rng, nnodes, max_flows=10):
    """Random set of concurrent transfers with unique (src, dst) pairs
    and at most one send and one recv... (multiple per node allowed —
    ports are shared resources and the models must agree anyway)."""
    nflows = rng.randint(2, max_flows)
    pairs = set()
    sends = []
    for _ in range(nflows):
        src = rng.randrange(nnodes)
        dst = rng.randrange(nnodes)
        if src == dst or (src, dst) in pairs:
            continue
        pairs.add((src, dst))
        sends.append((src, dst, rng.choice([64, 256, 1000, 4096, 9999])))
    return sends


TOPOLOGIES = [
    LinearArray(8),
    Ring(7),
    Mesh2D(3, 4),
    Torus2D(3, 4),
    FullyConnected(6),
]


@pytest.mark.parametrize("topology", TOPOLOGIES,
                         ids=lambda t: repr(t))
@pytest.mark.parametrize("capacity", [1.0, 2.0])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_fluid_network_matches_global_oracle(topology, capacity, seed):
    rng = random.Random(seed * 1000 + topology.nnodes)
    params = UNIT.with_(link_capacity=capacity)
    sends = random_pattern(rng, topology.nnodes)
    if not sends:
        return
    got = run_sends(topology, params, sends)
    want = oracle_completion_times(topology, params, sends)
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-6), \
            (key, sends)


# ----------------------------------------------------------------------
# property-based fuzzing (hypothesis): the incremental component-
# restricted recomputation must agree with brute-force global
# progressive filling on arbitrary concurrent patterns
# ----------------------------------------------------------------------

_HYP_TOPOLOGIES = [
    Mesh2D(3, 3), Mesh2D(2, 5), Mesh2D(4, 4),
    Torus2D(3, 3), Torus2D(3, 4),
    Hypercube(3), Hypercube(4),
]


@st.composite
def _flow_patterns(draw):
    topo_idx = draw(st.integers(0, len(_HYP_TOPOLOGIES) - 1))
    topo = _HYP_TOPOLOGIES[topo_idx]
    n = topo.nnodes
    npairs = draw(st.integers(min_value=2, max_value=14))
    raw = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from([16, 128, 777, 2048, 30_000])),
        min_size=npairs, max_size=npairs))
    seen = set()
    sends = []
    for s, d, nb in raw:
        if s != d and (s, d) not in seen:
            seen.add((s, d))
            sends.append((s, d, nb))
    capacity = draw(st.sampled_from([1.0, 2.0, 4.0]))
    return topo, capacity, sends


@settings(max_examples=40, deadline=None)
@given(pattern=_flow_patterns())
def test_property_incremental_matches_bruteforce_filling(pattern):
    """Random concurrent flows on mesh/torus/hypercube machines finish
    at the same instants under the production incremental network and
    the brute-force global water-filling oracle."""
    topo, capacity, sends = pattern
    if not sends:
        return
    params = UNIT.with_(link_capacity=capacity)
    got = run_sends(topo, params, sends)
    want = oracle_completion_times(topo, params, sends)
    assert set(got) == set(want)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-6), \
            (key, topo, capacity, sends)


def test_oracle_sanity_single_flow():
    """The oracle itself must reproduce alpha + n beta for one flow."""
    t = oracle_completion_times(LinearArray(4), UNIT, [(0, 3, 100)])
    assert t[(0, 3)] == pytest.approx(101.0)


def test_oracle_sanity_shared_channel():
    t = oracle_completion_times(LinearArray(4), UNIT,
                                [(0, 2, 100), (1, 3, 100)])
    assert t[(0, 2)] == pytest.approx(201.0)
    assert t[(1, 3)] == pytest.approx(201.0)


def test_staggered_finish_rate_rises():
    """Mixed sizes through one channel: the short flow finishes, the
    long one accelerates — both models must track the same trajectory."""
    sends = [(0, 2, 100), (1, 3, 500)]
    got = run_sends(LinearArray(4), UNIT, sends)
    want = oracle_completion_times(LinearArray(4), UNIT, sends)
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-9)
    # analytically: both at rate 1/2 until t=1+200 (first done), then
    # the long one drains its remaining 400 at full rate
    assert want[(0, 2)] == pytest.approx(201.0)
    assert want[(1, 3)] == pytest.approx(1 + 200 + 400)
