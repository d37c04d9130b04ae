"""Channel-metrics collection: accounting exactness and neutrality."""

import numpy as np
import pytest

from repro.obs import (ChannelStats, ResourceMetrics, busiest, channels_only,
                       total_contention)
from repro.sim import LinearArray, Machine, Mesh2D, PARAGON, UNIT


def one_send(nbytes):
    def prog(env):
        if env.rank == 0:
            yield env.send(1, np.zeros(int(nbytes), dtype=np.uint8),
                           nbytes=float(nbytes))
        elif env.rank == 1:
            yield env.recv(0)
    return prog


class TestAccounting:
    def test_conflict_free_busy_time_is_exactly_n_beta(self):
        # Acceptance invariant: on a conflict-free linear send the
        # channel's busy time is the wire term n*beta of the cost model,
        # bit-exact under the unit parameters (alpha is charged by the
        # engine before the flow enters the network).
        n = 256
        res = Machine(LinearArray(4), UNIT).run(one_send(n), metrics=True)
        ch = res.channel_metrics[("ch", 0, 1)]
        assert ch.busy_time == n * UNIT.beta
        assert ch.bytes == n
        assert ch.flows == 1
        assert ch.max_concurrent == 1
        assert ch.sharing_factor == 1.0

    def test_paragon_busy_time_matches_n_beta(self):
        n = 4096
        res = Machine(LinearArray(4), PARAGON).run(one_send(n), metrics=True)
        ch = res.channel_metrics[("ch", 0, 1)]
        assert ch.busy_time == pytest.approx(n * PARAGON.beta, rel=1e-12)

    def test_injection_and_ejection_ports_metered(self):
        res = Machine(LinearArray(4), UNIT).run(one_send(64), metrics=True)
        assert res.channel_metrics[("inj", 0)].busy_time == 64.0
        assert res.channel_metrics[("ej", 1)].busy_time == 64.0

    def test_untouched_resources_omitted(self):
        res = Machine(LinearArray(4), UNIT).run(one_send(64), metrics=True)
        assert ("ch", 2, 3) not in res.channel_metrics
        assert all(s.flows > 0 for s in res.channel_metrics.values())

    def test_sharing_factor_counts_conflicts(self):
        # Two same-direction transfers interleaved on channel 1->2: the
        # fluid model halves each flow's rate, the collector must see
        # peak concurrency 2 and a time-weighted sharing factor > 1.
        def prog(env):
            n = 1024
            if env.rank in (0, 1):
                yield env.send(env.rank + 2,
                               np.zeros(n, dtype=np.uint8), nbytes=float(n))
            elif env.rank in (2, 3):
                yield env.recv(env.rank - 2)

        res = Machine(LinearArray(4), UNIT).run(prog, metrics=True)
        ch = res.channel_metrics[("ch", 1, 2)]
        assert ch.max_concurrent == 2
        assert ch.flows == 2
        assert 1.0 < ch.sharing_factor <= 2.0
        assert total_contention(res.channel_metrics) > 1.0

    def test_busy_time_not_double_counted_under_sharing(self):
        # Same scenario: busy time is wall time with >=1 flow, which for
        # two perfectly overlapped halved-rate flows is 2n * beta (each
        # flow alone would take n*beta at full rate, 2n*beta at half).
        def prog(env):
            n = 1024
            if env.rank in (0, 1):
                yield env.send(env.rank + 2,
                               np.zeros(n, dtype=np.uint8), nbytes=float(n))
            elif env.rank in (2, 3):
                yield env.recv(env.rank - 2)

        res = Machine(LinearArray(4), UNIT).run(prog, metrics=True)
        ch = res.channel_metrics[("ch", 1, 2)]
        assert ch.busy_time == pytest.approx(2048.0)

    def test_metrics_off_is_none(self):
        res = Machine(LinearArray(4), UNIT).run(one_send(64))
        assert res.channel_metrics is None

    def test_machine_level_default(self):
        m = Machine(LinearArray(4), UNIT, metrics=True)
        assert m.run(one_send(64)).channel_metrics is not None
        assert m.run(one_send(64), metrics=False).channel_metrics is None


class TestNeutrality:
    def test_results_identical_with_metrics_on(self):
        from repro.core import api

        def prog(env):
            vec = np.arange(100, dtype=np.float64) * (env.rank + 1)
            out = yield from api.allreduce(env, vec)
            return out

        m = Machine(Mesh2D(3, 4), PARAGON)
        off = m.run(prog, trace=True)
        on = m.run(prog, trace=True, metrics=True)
        assert on.time == off.time
        assert on.messages == off.messages
        assert on.events == off.events
        for a, b in zip(off.results, on.results):
            np.testing.assert_array_equal(a, b)
        # message streams identical record for record
        for ma, mb in zip(off.trace.by_completion(), on.trace.by_completion()):
            assert (ma.src, ma.dst, ma.nbytes, ma.t_match, ma.t_complete) \
                == (mb.src, mb.dst, mb.nbytes, mb.t_match, mb.t_complete)


class TestHelpers:
    def _snapshot(self):
        res = Machine(LinearArray(6), UNIT).run(one_send(64), metrics=True)
        return res.channel_metrics

    def test_channels_only_filters_ports(self):
        ch = channels_only(self._snapshot())
        assert ch and all(r[0] == "ch" for r in ch)

    def test_busiest_descending_and_capped(self):
        top = busiest(self._snapshot(), k=2)
        assert len(top) == 2
        assert top[0].busy_time >= top[1].busy_time

    def test_utilization_fraction(self):
        res = Machine(LinearArray(4), UNIT).run(one_send(64), metrics=True)
        u = res.channel_metrics[("ch", 0, 1)].utilization(res.time)
        assert 0.0 < u <= 1.0
        assert res.channel_metrics[("ch", 0, 1)].utilization(0.0) == 0.0

    def test_empty_collector_snapshot(self):
        assert ResourceMetrics().snapshot([("ch", 0, 1)]) == {}
        assert total_contention({}) == 0.0

    def test_stats_for_unseen_id(self):
        st = ResourceMetrics().stats(5, ("ch", 9, 8))
        assert isinstance(st, ChannelStats)
        assert st.busy_time == 0.0 and st.flows == 0
