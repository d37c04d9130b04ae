"""Fault-injection subsystem tests (docs/robustness.md).

Covers the tentpole behaviours end to end: degraded-topology rerouting,
permanent/transient link faults with message-layer retry, node crashes
with typed diagnosis and survivor completion, slowdown/jitter
determinism, strict passivity of the empty schedule, ULFM-style
``Communicator.shrink()``, degraded-link strategy pricing, the
simulated-time watchdog, and dead-letter accounting.
"""

import math

import numpy as np
import pytest

from repro.core import api, validation
from repro.core.communicator import Communicator
from repro.core.faults import (FaultDiagnosis, FaultSchedule, LinkFault,
                               LinkSlowdown, NodeCrash)
from repro.sim import (DeadlockError, LinearArray, Machine, Mesh2D, PARAGON,
                       Ring, Torus2D, UNIT)

from .spmd_corpus import run_entry


def _send_prog(src, dst, n=1000):
    def prog(env):
        if env.rank == src:
            yield env.send(dst, np.arange(float(n)))
            return "sent"
        if env.rank == dst:
            data = yield env.recv(src)
            return float(data.sum())
        return None
    return prog


_CHECKSUM = sum(range(1000))


# ----------------------------------------------------------------------
# schedule validation & serialization
# ----------------------------------------------------------------------

class TestSchedule:
    def test_empty_schedule_properties(self):
        fs = FaultSchedule()
        assert fs.is_empty
        assert fs.crashed_nodes() == frozenset()
        assert fs.pricing_beta_multiplier() == 1.0
        assert fs.describe() == "empty schedule"

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFault(t=-1.0, u=0, v=1)
        with pytest.raises(ValueError):
            LinkFault(t=0.0, u=0, v=1, duration=0.0)
        with pytest.raises(ValueError):
            LinkSlowdown(t=0.0, u=0, v=1, factor=0.5)
        with pytest.raises(ValueError):
            FaultSchedule(jitter=-1.0)
        with pytest.raises(ValueError):
            FaultSchedule(deadline=0.0)

    def test_roundtrip_serialization(self):
        fs = FaultSchedule(
            events=(LinkFault(t=1.0, u=0, v=1, duration=5.0),
                    LinkSlowdown(t=2.0, u=3, v=4, factor=2.5),
                    NodeCrash(t=3.0, node=7)),
            jitter=0.25, seed=99, max_retries=3, backoff=0.125,
            deadline=1e6)
        assert FaultSchedule.from_dict(fs.to_dict()) == fs

    def test_roundtrip_infinite_duration(self):
        fs = FaultSchedule(events=(LinkFault(t=0.0, u=1, v=2),))
        back = FaultSchedule.from_dict(fs.to_dict())
        assert math.isinf(back.events[0].duration)
        assert math.isinf(back.deadline)


# ----------------------------------------------------------------------
# degraded routing
# ----------------------------------------------------------------------

class TestDegradedRouting:
    def test_mesh_alt_route_is_yx(self):
        mesh = Mesh2D(3, 3)
        # 0 -> 4: XY goes 0-1-4; YX goes 0-3-4
        assert mesh.route(0, 4) == [(0, 1), (1, 4)]
        assert mesh.alt_route(0, 4) == [(0, 3), (3, 4)]

    def test_route_avoiding_prefers_primary(self):
        mesh = Mesh2D(3, 3)
        assert mesh.route_avoiding(0, 4, set()) == mesh.route(0, 4)

    def test_route_avoiding_falls_back_to_alt(self):
        mesh = Mesh2D(3, 3)
        failed = {(0, 1), (1, 0)}
        assert mesh.route_avoiding(0, 4, failed) == mesh.alt_route(0, 4)

    def test_route_avoiding_bfs_when_both_blocked(self):
        mesh = Mesh2D(3, 3)
        # Block both XY (0-1-4) and YX (0-3-4) first hops.
        failed = {(0, 1), (1, 0), (0, 3), (3, 0)}
        route = mesh.route_avoiding(0, 4, failed)
        assert route is None or route  # must not be the blocked routes
        # 0 is fully disconnected (only neighbors are 1 and 3)
        assert route is None

    def test_bfs_route_around_partial_cut(self):
        mesh = Mesh2D(3, 3)
        # Cut 1-4 and 3-4: both two-hop routes die, BFS finds a longer way.
        failed = {(1, 4), (4, 1), (3, 4), (4, 3)}
        route = mesh.route_avoiding(0, 4, failed)
        assert route is not None
        assert not any(ch in failed for ch in route)
        # walk continuity: route really leads 0 -> 4
        assert route[0][0] == 0 and route[-1][1] == 4
        for a, b in zip(route, route[1:]):
            assert a[1] == b[0]

    def test_bfs_is_deterministic(self):
        mesh = Mesh2D(4, 4)
        failed = {(1, 2), (2, 1)}
        r1 = mesh.bfs_route(0, 15, failed)
        r2 = mesh.bfs_route(0, 15, failed)
        assert r1 == r2

    def test_ring_alt_route_goes_the_long_way(self):
        ring = Ring(6)
        assert ring.route(0, 2) == [(0, 1), (1, 2)]
        assert ring.alt_route(0, 2) == \
            [(0, 5), (5, 4), (4, 3), (3, 2)]

    def test_torus_alt_route_is_yx(self):
        torus = Torus2D(3, 3)
        primary = torus.route(0, 4)
        alt = torus.alt_route(0, 4)
        assert alt != primary
        assert alt[0][0] == 0 and alt[-1][1] == 4


# ----------------------------------------------------------------------
# link faults
# ----------------------------------------------------------------------

class TestLinkFaults:
    def test_permanent_fault_reroutes(self):
        """XY route dies at t=0; the message takes YX and still lands."""
        m = Machine(Mesh2D(3, 3))
        clean = m.run(_send_prog(0, 8))
        fs = FaultSchedule(events=(LinkFault(t=0.0, u=0, v=1),))
        run = m.run(_send_prog(0, 8), faults=fs)
        assert run.results[8] == clean.results[8] == _CHECKSUM
        assert run.fault_report.injected[0][1] == "link-fault"

    def test_fault_mid_transfer_retries(self):
        """A link failing mid-worm kills the flow; the message layer
        retransmits over the degraded route, bit-correct."""
        m = Machine(Mesh2D(3, 3), UNIT)
        clean = m.run(_send_prog(0, 8))
        # UNIT alpha=1, beta=1: the 8000B transfer spans [1, 8001].
        fs = FaultSchedule(events=(LinkFault(t=100.0, u=2, v=5),))
        run = m.run(_send_prog(0, 8), faults=fs)
        assert run.results[8] == clean.results[8]
        assert run.fault_report.retries >= 1
        assert run.time > clean.time  # the retry cost is visible

    def test_transient_fault_heals(self):
        """With every route from 0 cut, retries back off until the link
        heals, then the transfer goes through."""
        m = Machine(LinearArray(3), UNIT)
        # only one path on a linear array: 0-1-2
        fs = FaultSchedule(
            events=(LinkFault(t=100.0, u=0, v=1, duration=2000.0),),
            max_retries=12)
        run = m.run(_send_prog(0, 2), faults=fs)
        assert run.results[2] == _CHECKSUM
        assert run.fault_report.retries >= 1

    def test_permanent_cut_dead_letters_and_diagnoses(self):
        """A permanent cut with no alternative route exhausts retries;
        the run raises a FaultDiagnosis naming the fault and the dead
        letter — never a silent hang."""
        m = Machine(LinearArray(3), UNIT)
        fs = FaultSchedule(events=(LinkFault(t=100.0, u=0, v=1),),
                           max_retries=3)
        with pytest.raises(FaultDiagnosis) as exc:
            m.run(_send_prog(0, 2), faults=fs)
        diag = exc.value
        assert diag.injected[0][1] == "link-fault"
        assert len(diag.dead_letters) == 1
        dl = diag.dead_letters[0]
        assert (dl.src, dl.dst) == (0, 2)
        assert "link 0<->1 failed" in str(diag)
        assert "dead letter" in str(diag)

    def test_asymmetric_fault_only_kills_one_direction(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            # 0 -> 1 uses (0,1); 1 -> 0 uses (1,0)
            if env.rank == 0:
                yield env.send(1, np.arange(100.0))
                data = yield env.recv(1)
                return float(data.sum())
            data = yield env.recv(0)
            yield env.send(0, data * 2.0)
            return "ok"

        fs = FaultSchedule(
            events=(LinkFault(t=0.0, u=1, v=0, symmetric=False),),
            max_retries=0, deadline=1e9)
        # the forward message still flows; the reply dead-letters
        with pytest.raises(FaultDiagnosis) as exc:
            m.run(prog, faults=fs)
        assert exc.value.dead_letters[0].src == 1


# ----------------------------------------------------------------------
# node crashes
# ----------------------------------------------------------------------

class TestNodeCrash:
    def test_crash_before_recv_diagnoses_sender(self):
        m = Machine(Mesh2D(3, 3))
        fs = FaultSchedule(events=(NodeCrash(t=0.0, node=8),))
        with pytest.raises(FaultDiagnosis) as exc:
            m.run(_send_prog(0, 8), faults=fs)
        diag = exc.value
        assert diag.crashed == (8,)
        assert any(kind == "send" and peer == 8
                   for (_, kind, peer, _, _) in diag.blocked)
        assert "(crashed)" in str(diag)

    def test_crash_mid_transfer_dead_letters(self):
        m = Machine(LinearArray(2), UNIT)
        # transfer of 8000B spans [1, 8001]; crash the receiver at 50
        fs = FaultSchedule(events=(NodeCrash(t=50.0, node=1),))
        with pytest.raises(FaultDiagnosis) as exc:
            m.run(_send_prog(0, 1, n=1000), faults=fs)
        assert any("crashed mid-transfer" in dl.reason
                   for dl in exc.value.dead_letters)

    def test_survivors_complete_without_the_crashed_rank(self):
        """Ranks that never talk to the dead node finish normally."""
        m = Machine(LinearArray(4), UNIT)
        fs = FaultSchedule(events=(NodeCrash(t=0.0, node=3),))

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.arange(10.0))
                return "sent"
            if env.rank == 1:
                data = yield env.recv(0)
                return float(data.sum())
            return None  # ranks 2, 3 idle

        run = m.run(prog, faults=fs)
        assert run.results[1] == 45.0
        assert run.results[3] is None
        assert run.fault_report.crashed == (3,)

    def test_env_alive_reflects_crash(self):
        m = Machine(LinearArray(3), UNIT)
        fs = FaultSchedule(events=(NodeCrash(t=5.0, node=2),))

        def prog(env):
            before = env.alive(2)
            yield env.delay(10.0)
            return (before, env.alive(2))

        run = m.run(prog, faults=fs)
        assert run.results[0] == (True, False)


# ----------------------------------------------------------------------
# delay-only faults: slowdown and jitter
# ----------------------------------------------------------------------

class TestDelayOnlyFaults:
    def test_slowdown_changes_time_not_results(self):
        m = Machine(Mesh2D(3, 3))
        clean = m.run(_send_prog(0, 8))
        fs = FaultSchedule(
            events=(LinkSlowdown(t=0.0, u=0, v=1, factor=4.0),))
        run = m.run(_send_prog(0, 8), faults=fs)
        assert run.results[8] == clean.results[8]
        assert run.time > clean.time

    def test_transient_slowdown_restores(self):
        m = Machine(LinearArray(2), UNIT)
        clean = m.run(_send_prog(0, 1))
        fs = FaultSchedule(
            events=(LinkSlowdown(t=0.0, u=0, v=1, factor=10.0,
                                 duration=50.0),))
        run = m.run(_send_prog(0, 1), faults=fs)
        assert run.results[1] == clean.results[1]
        # slowed for 50s then full speed: strictly between the extremes
        assert clean.time < run.time < clean.time * 10

    def test_jitter_is_deterministic_per_seed(self):
        m = Machine(Mesh2D(3, 3))
        fs = FaultSchedule(jitter=0.5, seed=1234)
        a = m.run(_send_prog(0, 8), faults=fs)
        b = m.run(_send_prog(0, 8), faults=fs)
        assert a.time == b.time
        assert a.results == b.results

    def test_different_seeds_differ(self):
        m = Machine(Mesh2D(3, 3))
        t = {m.run(_send_prog(0, 8),
                   faults=FaultSchedule(jitter=0.5, seed=s)).time
             for s in range(5)}
        assert len(t) > 1  # at least two seeds produce distinct times

    def test_jitter_preserves_collective_payloads(self):
        """An auto-dispatched allreduce under heavy jitter returns the
        oracle result on every rank."""
        m = Machine(Mesh2D(3, 4), PARAGON)

        def prog(env):
            vec = np.arange(60.0) + env.rank
            out = yield from api.allreduce(env, vec)
            return out

        fs = FaultSchedule(jitter=PARAGON.alpha * 3, seed=7)
        run = m.run(prog, faults=fs)
        want = validation.ref_allreduce(
            [np.arange(60.0) + r for r in range(12)])
        for r in range(12):
            np.testing.assert_array_equal(run.results[r], want[r])


# ----------------------------------------------------------------------
# strict passivity of the empty schedule
# ----------------------------------------------------------------------

class TestEmptySchedulePassivity:
    def test_goldens_unchanged_with_empty_schedule(self):
        """A representative golden-corpus slice must fingerprint
        bit-identically with an empty FaultSchedule threaded through
        (the full 29/29 sweep runs in CI via --empty-faults)."""
        from .spmd_corpus import fingerprint
        for name in ("allreduce-auto-p12", "bcast-auto-mesh4x6",
                     "ptp-churn-ring16"):
            base = fingerprint(run_entry(name))
            with_faults = fingerprint(run_entry(name,
                                                faults=FaultSchedule()))
            assert base == with_faults, name

    def test_no_fault_state_for_empty_schedule(self):
        m = Machine(LinearArray(2), UNIT)
        run = m.run(_send_prog(0, 1), faults=FaultSchedule())
        assert run.fault_report is None


# ----------------------------------------------------------------------
# shrink + degraded pricing
# ----------------------------------------------------------------------

class TestShrink:
    def test_shrink_excludes_scheduled_crashes(self):
        m = Machine(Mesh2D(3, 4))
        crash_t = 5.0
        fs = FaultSchedule(events=(NodeCrash(t=crash_t, node=5),),
                           deadline=1e8)

        def prog(env):
            comm = Communicator.world(env)
            yield env.delay(2 * crash_t)
            sub = comm.shrink()
            vec = np.full(24, float(env.rank))
            out = yield from sub.allreduce(vec)
            return float(out[0])

        run = m.run(prog, faults=fs)
        want = float(sum(r for r in range(12) if r != 5))
        for r in range(12):
            if r == 5:
                assert run.results[r] is None
            else:
                assert run.results[r] == want

    def test_sequential_crashes_shrink_twice(self):
        """shrink, crash again, shrink again: the perfect failure
        detector is time-independent, so both shrinks agree on the full
        crash set and the second is a no-op on the first's survivors."""
        m = Machine(LinearArray(8), UNIT)
        fs = FaultSchedule(events=(NodeCrash(t=10.0, node=2),
                                   NodeCrash(t=30.0, node=5)),
                           deadline=1e9)

        def prog(env):
            comm = Communicator.world(env)
            yield env.delay(20.0)          # after crash 1, before crash 2
            first = comm.shrink()
            yield env.delay(20.0)          # after crash 2
            second = first.shrink()
            vec = np.full(6, float(env.rank))
            out = yield from second.allreduce(vec)
            return (first.group, second.group, float(out[0]))

        run = m.run(prog, faults=fs)
        survivors = tuple(r for r in range(8) if r not in (2, 5))
        want = float(sum(survivors))
        for r in range(8):
            if r in (2, 5):
                assert run.results[r] is None
            else:
                g1, g2, total = run.results[r]
                # crashed_nodes() is schedule-wide: the first shrink
                # already excludes the *future* crash of node 5
                assert g1 == survivors
                assert g2 == survivors
                assert total == want

    def test_shrink_inside_degraded_route(self):
        """A crash plus a live link slowdown: survivors shrink and the
        collective completes correctly over the degraded route."""
        m = Machine(LinearArray(6), UNIT)
        fs = FaultSchedule(
            events=(NodeCrash(t=1.0, node=5),
                    LinkSlowdown(t=0.0, u=1, v=2, factor=8.0)),
            deadline=1e9)

        def prog(env):
            comm = Communicator.world(env)
            yield env.delay(5.0)
            sub = comm.shrink()
            vec = np.full(4, float(env.rank))
            out = yield from sub.allreduce(vec)
            return float(out[0])

        run = m.run(prog, faults=fs)
        want = float(sum(range(5)))
        for r in range(5):
            assert run.results[r] == want
        assert run.results[5] is None

    def test_shrink_without_faults_is_identity(self):
        m = Machine(LinearArray(4), UNIT)

        def prog(env):
            comm = Communicator.world(env)
            sub = comm.shrink()
            yield env.delay(0.0)
            return sub.group

        run = m.run(prog)
        assert run.results[0] == (0, 1, 2, 3)

    def test_shrink_raises_when_all_dead(self):
        m = Machine(LinearArray(2), UNIT)
        fs = FaultSchedule(events=(NodeCrash(t=1e9, node=0),
                                   NodeCrash(t=1e9, node=1)))

        def prog(env):
            comm = Communicator.world(env)
            with pytest.raises(RuntimeError, match="no surviving"):
                comm.shrink()
            yield env.delay(0.0)
            return "checked"

        # crashes scheduled far in the future: programs finish first,
        # but shrink's perfect failure detector already knows.
        run = m.run(prog, faults=fs)
        assert run.results == ["checked", "checked"]


class TestDegradedPricing:
    def _crossover(self, op="bcast", p=16):
        """Find a vector length where the UNIT-model choice differs from
        the 8x-degraded-beta choice (selection re-ranks), if any."""
        from repro.core.selection import selector_for
        sel_clean = selector_for(UNIT, itemsize=8)
        sel_slow = selector_for(UNIT.with_(beta=UNIT.beta * 8.0),
                                itemsize=8)
        for n in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096):
            a = sel_clean.best(op, p, n).strategy
            b = sel_slow.best(op, p, n).strategy
            if str(a) != str(b):
                return n, a, b
        return None

    def test_degraded_beta_rerankings_exist(self):
        """A degraded beta genuinely flips the chosen strategy somewhere
        (else the pricing hook would be untestable)."""
        assert self._crossover() is not None

    def test_auto_dispatch_prices_with_degraded_beta(self):
        """With a declared slowdown, every rank resolves the degraded
        choice — and because pricing reads the schedule (not the clock),
        ranks resolving at different times agree (no hang)."""
        found = self._crossover()
        assert found is not None
        n, clean_strat, slow_strat = found
        m = Machine(LinearArray(16), UNIT, trace=True)
        fs = FaultSchedule(
            events=(LinkSlowdown(t=0.0, u=0, v=1, factor=8.0),))

        def prog(env):
            buf = np.arange(float(n)) if env.rank == 0 else None
            out = yield from api.bcast(env, buf, root=0, total=n)
            return out

        run = m.run(prog, faults=fs)
        for r in range(16):
            np.testing.assert_array_equal(run.results[r],
                                          np.arange(float(n)))
        ops = run.trace.op_spans()
        assert ops, "bcast must open an op span"
        strategies = {s.attrs.get("strategy") for s in ops if s.attrs}
        assert strategies == {str(slow_strat)}
        mult = {s.attrs.get("selector_beta_multiplier")
                for s in ops if s.attrs}
        assert mult == {8.0}


# ----------------------------------------------------------------------
# watchdog
# ----------------------------------------------------------------------

class TestWatchdog:
    def test_deadline_converts_hang_to_diagnosis(self):
        """An undiagnosable-by-drain hang (livelock of retries would
        take ages) is cut at the simulated deadline."""
        m = Machine(LinearArray(3), UNIT)
        # huge retry budget: without the watchdog the heap drains only
        # after ~2^30 backoff; the deadline cuts much earlier.
        fs = FaultSchedule(events=(LinkFault(t=100.0, u=0, v=1),),
                           max_retries=30, deadline=50_000.0)
        with pytest.raises(FaultDiagnosis) as exc:
            m.run(_send_prog(0, 2), faults=fs)
        assert exc.value.watchdog
        assert "watchdog" in str(exc.value)
        assert "deadline" in str(exc.value)

    def test_deadline_not_triggered_by_healthy_run(self):
        m = Machine(LinearArray(3), UNIT)
        fs = FaultSchedule(deadline=1e9)
        run = m.run(_send_prog(0, 2), faults=fs)
        assert run.results[2] == _CHECKSUM


# ----------------------------------------------------------------------
# diagnosis content
# ----------------------------------------------------------------------

class TestDiagnosis:
    def test_to_dict_is_json_ready(self):
        import json
        m = Machine(LinearArray(3), UNIT)
        fs = FaultSchedule(events=(NodeCrash(t=0.0, node=2),))
        with pytest.raises(FaultDiagnosis) as exc:
            m.run(_send_prog(0, 2), faults=fs)
        blob = json.dumps(exc.value.to_dict())
        assert "node 2 crashed" in blob

    def test_op_span_attribution(self):
        """When tracing, the diagnosis names the collective op span each
        blocked rank was inside."""
        m = Machine(LinearArray(4), UNIT, trace=True)
        fs = FaultSchedule(events=(NodeCrash(t=0.0, node=3),))

        def prog(env):
            vec = np.arange(16.0)
            out = yield from api.allreduce(env, vec)
            return out

        with pytest.raises(FaultDiagnosis) as exc:
            m.run(prog, faults=fs)
        assert exc.value.op_spans  # at least one blocked rank attributed
        assert any("allreduce" in label
                   for label in exc.value.op_spans.values())
        assert "inside op span" in str(exc.value)

    def test_plain_deadlock_still_deadlock_error(self):
        """No injected faults => DeadlockError, not FaultDiagnosis (a
        genuine program bug must not masquerade as a fault)."""
        m = Machine(LinearArray(2), UNIT)
        fs = FaultSchedule(deadline=1e9)  # installed but nothing fires

        def prog(env):
            if env.rank == 0:
                yield env.recv(1)

        with pytest.raises(DeadlockError) as exc:
            m.run(prog, faults=fs)
        assert not isinstance(exc.value, FaultDiagnosis)


# ----------------------------------------------------------------------
# fault records on the tracer
# ----------------------------------------------------------------------

class TestChaosHarness:
    """Spot checks of the seeded chaos grid (benchmarks/chaos), which
    runs its cases through ``execute_case``."""

    def test_case_is_reproducible(self):
        from benchmarks.chaos.cases import grid_case
        from repro.chaos import execute_case
        a = execute_case(grid_case("mesh4x6", "allreduce", "crash", 101),
                         audit=False)
        b = execute_case(grid_case("mesh4x6", "allreduce", "crash", 101),
                         audit=False)
        assert a == b

    def test_baseline_case_is_passive(self):
        from benchmarks.chaos.cases import grid_case
        from repro.chaos import clean_run, execute_case
        case = grid_case("linear12", "bcast", "baseline", 101)
        rec = execute_case(case, audit=False)
        assert rec["verdict"] == "ok"
        assert rec["sim_time"] == clean_run(case)[0]

    def test_crash_shrink_case_completes(self):
        from benchmarks.chaos.cases import grid_case
        from repro.chaos import execute_case
        rec = execute_case(
            grid_case("linear12", "reduce_scatter", "crash-shrink", 202),
            audit=False)
        assert rec["verdict"] == "ok"

    def test_evaluate_flags_violations(self):
        from benchmarks.chaos.run import evaluate

        def rec(origin, profile, verdict):
            return {"id": origin, "verdict": verdict,
                    "case": {"profile": profile, "origin": origin}}
        records = [
            rec("a", "jitter", "ok"),
            rec("b", "jitter", "diagnosed-fault"),
            rec("c", "crash", "diagnosed-fault"),
            rec("d", "crash", "silent-corruption"),
        ]
        summary = evaluate(records)
        assert not summary["passed"]
        assert not summary["gates"]["zero_silent_corruption"]
        assert summary["gates"]["zero_undiagnosed_hangs"]
        # b: delay-only must complete; d: corruption is always fatal
        assert summary["violations"] == ["b", "d"]

    def test_committed_report_passes_its_gates(self):
        import json
        import os
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, os.pardir, "CHAOS_report.json")
        with open(path) as f:
            report = json.load(f)
        assert report["grid"] == "full"
        assert report["cases"] >= 200
        assert report["passed"]
        assert all(report["gates"].values())


class TestFaultTraceRecords:
    def test_faults_appear_in_trace_and_chrome_export(self):
        from repro.sim import chrome_trace
        m = Machine(Mesh2D(3, 3), UNIT, trace=True)
        fs = FaultSchedule(
            events=(LinkSlowdown(t=0.0, u=0, v=1, factor=2.0),))
        run = m.run(_send_prog(0, 8), faults=fs)
        kinds = [f.kind for f in run.trace.faults]
        assert "link-slowdown" in kinds
        blob = chrome_trace(run.trace)
        assert any(e.get("cat") == "fault" for e in blob["traceEvents"])
