"""Byzantine-model adversarial faults: engine semantics + serialization.

Covers the three adversarial event types (ByzantineRank /
WithholdingRank / MisroutingRank): corruption is deterministic and
surfaced as Tamper records, withholding starves receivers into a
*typed* diagnosis, misrouting redirects to a wrong-but-valid peer,
cadence fields gate per-send application, rank-program exceptions under
injection wrap into FaultDiagnosis, and the strict ``from_dict``
round-trips reject unknown keys by name (mirroring
``MachineParams.from_dict``).
"""

import random

import numpy as np
import pytest

from repro.core import api
from repro.core.faults import (AdversaryState, ByzantineRank,
                               FaultDiagnosis, FaultSchedule, LinkSlowdown,
                               MisroutingRank, Tamper, WithholdingRank,
                               corrupt_payload)
from repro.sim import LinearArray, Machine, Ring, preset

PARAGON = preset("paragon")


def _allreduce_prog(n=8):
    def prog(env):
        vec = np.arange(float(n)) + env.rank
        out = yield from api.allreduce(env, vec)
        return out
    return prog


class TestByzantine:
    def test_corrupts_results_and_records_tampers(self):
        m = Machine(Ring(4), PARAGON)
        clean = m.run(_allreduce_prog())
        fs = FaultSchedule(events=(ByzantineRank(rank=1),), seed=7)
        run = m.run(_allreduce_prog(), faults=fs)
        assert run.fault_report is not None
        tampered = run.fault_report.tampered
        assert tampered and all(isinstance(t, Tamper) for t in tampered)
        assert all(t.kind == "byzantine-rank" for t in tampered)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(clean.results, run.results))

    def test_corruption_is_deterministic(self):
        m = Machine(Ring(4), PARAGON)
        fs = FaultSchedule(events=(ByzantineRank(rank=1),), seed=7)
        a = m.run(_allreduce_prog(), faults=fs)
        b = m.run(_allreduce_prog(), faults=fs)
        for x, y in zip(a.results, b.results):
            assert np.array_equal(x, y)
        assert [t.describe() for t in a.fault_report.tampered] == \
            [t.describe() for t in b.fault_report.tampered]

    def test_different_seed_different_corruption(self):
        m = Machine(Ring(4), PARAGON)
        runs = []
        for seed in (7, 8):
            fs = FaultSchedule(events=(ByzantineRank(rank=1),),
                               seed=seed)
            runs.append(m.run(_allreduce_prog(n=64), faults=fs))
        assert any(not np.array_equal(a, b)
                   for a, b in zip(runs[0].results, runs[1].results))


class TestWithholding:
    def test_starved_receiver_gets_typed_diagnosis(self):
        m = Machine(Ring(4), PARAGON)
        fs = FaultSchedule(events=(WithholdingRank(rank=2),))
        with pytest.raises(FaultDiagnosis) as exc_info:
            m.run(_allreduce_prog(), faults=fs)
        diag = exc_info.value
        assert diag.tampered
        assert all(t.kind == "withholding-rank" for t in diag.tampered)
        assert any(k == "withholding-rank" for _, k, _ in diag.injected)

    def test_sender_side_completes(self):
        # the withholding rank's own send handle completes: only the
        # *receiver* starves (that is what makes the fault silent)
        m = Machine(LinearArray(2), PARAGON)
        fs = FaultSchedule(events=(WithholdingRank(rank=0),))

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.ones(4))
                return "sent"
            h = env.irecv(0)
            yield env.delay(1.0)
            return ("pending", h.done)

        run = m.run(prog, faults=fs)
        assert run.results[0] == "sent"
        assert run.results[1] == ("pending", False)


class TestMisrouting:
    def test_misrouting_raises_typed_diagnosis(self):
        m = Machine(Ring(4), PARAGON)
        fs = FaultSchedule(events=(MisroutingRank(rank=1),))
        with pytest.raises(FaultDiagnosis) as exc_info:
            m.run(_allreduce_prog(), faults=fs)
        assert any(t.kind == "misrouting-rank"
                   for t in exc_info.value.tampered)

    def test_wrong_peer_is_valid_and_different(self):
        for nranks in (3, 4, 7, 16):
            for src in range(nranks):
                for dst in range(nranks):
                    if dst == src:
                        continue
                    wrong = AdversaryState.wrong_peer(src, dst, nranks)
                    assert 0 <= wrong < nranks
                    assert wrong != dst
                    assert wrong != src


class TestRankExceptionWrapping:
    def test_program_exception_under_injection_is_diagnosed(self):
        # a victim rank blowing up on corrupted data must surface as a
        # typed diagnosis, not an anonymous ValueError
        m = Machine(LinearArray(2), PARAGON)
        fs = FaultSchedule(events=(ByzantineRank(rank=0),), seed=3)

        def prog(env):
            data = np.arange(8.0)
            if env.rank == 0:
                yield env.send(1, data)
                return None
            got = (yield env.recv(0))[0]
            if not np.array_equal(got, data):
                raise ValueError("checksum mismatch")
            return got

        with pytest.raises(FaultDiagnosis) as exc_info:
            m.run(prog, faults=fs)
        assert isinstance(exc_info.value.__cause__, ValueError)
        assert exc_info.value.tampered

    def test_program_exception_without_injection_propagates(self):
        m = Machine(LinearArray(2), PARAGON)
        fs = FaultSchedule(events=(ByzantineRank(rank=0, start=99),),
                           seed=3)

        def prog(env):
            yield env.delay(0.0)
            raise KeyError("plain bug")

        # adversary never fires (start=99): nothing injected, so the
        # program's own bug must NOT be misattributed to faults
        with pytest.raises(KeyError):
            m.run(prog, faults=fs)


class TestCadence:
    def _acts(self, event, sends=6):
        fs = FaultSchedule(events=(event,), seed=1)
        adv = AdversaryState(fs)
        hits = []
        for k in range(sends):
            got = adv.act(event.rank, 1, 0, np.ones(4), 0.0, 4)
            hits.append(got is not None)
        return hits

    def test_every_and_start(self):
        assert self._acts(ByzantineRank(rank=0)) == [True] * 6
        assert self._acts(ByzantineRank(rank=0, every=2)) == \
            [True, False, True, False, True, False]
        assert self._acts(ByzantineRank(rank=0, start=2)) == \
            [False, False, True, True, True, True]
        assert self._acts(ByzantineRank(rank=0, every=3, start=1)) == \
            [False, True, False, False, True, False]

    def test_other_ranks_unaffected(self):
        fs = FaultSchedule(events=(ByzantineRank(rank=0),), seed=1)
        adv = AdversaryState(fs)
        assert adv.act(1, 0, 0, np.ones(4), 0.0, 4) is None

    def test_time_gate(self):
        ev = ByzantineRank(rank=0, t=5.0)
        fs = FaultSchedule(events=(ev,), seed=1)
        adv = AdversaryState(fs)
        assert adv.act(0, 1, 0, np.ones(4), 4.9, 4) is None
        assert adv.act(0, 1, 0, np.ones(4), 5.1, 4) is not None


class TestCorruptPayload:
    def test_flips_exactly_one_element(self):
        rng = random.Random("t")
        data = np.arange(16.0)
        out, detail = corrupt_payload(data, rng)
        assert out is not None and detail
        assert np.array_equal(data, np.arange(16.0))  # input untouched
        assert (out != data).sum() == 1

    def test_non_numeric_payloads_skipped(self):
        rng = random.Random("t")
        assert corrupt_payload("hello", rng) == (None, None)
        assert corrupt_payload(np.array([], dtype=float), rng) == \
            (None, None)

    def test_integer_dtypes_supported(self):
        rng = random.Random("t")
        out, _ = corrupt_payload(np.arange(8, dtype=np.int32), rng)
        assert out is not None
        assert out.dtype == np.int32


class TestPassivity:
    def test_no_adversary_state_without_adversarial_events(self):
        fs = FaultSchedule(events=(LinkSlowdown(t=0.0, u=0, v=1,
                                                factor=2.0),))
        assert not fs.has_adversaries
        assert fs.adversarial_ranks() == frozenset()
        m = Machine(LinearArray(2), PARAGON)
        clean = m.run(_allreduce_prog())
        run = m.run(_allreduce_prog(), faults=fs)
        assert run.fault_report.tampered == ()
        for a, b in zip(clean.results, run.results):
            assert np.array_equal(a, b)  # slowdown shifts time, not data

    def test_adversarial_schedule_is_not_empty(self):
        fs = FaultSchedule(events=(ByzantineRank(rank=0),))
        assert not fs.is_empty
        assert fs.has_adversaries
        assert fs.adversarial_ranks() == frozenset({0})


class TestSerialization:
    @pytest.mark.parametrize("event", [
        ByzantineRank(rank=3, t=1.5, every=2, start=1),
        WithholdingRank(rank=0),
        MisroutingRank(rank=2, every=3),
    ])
    def test_adversarial_round_trip(self, event):
        fs = FaultSchedule(events=(event,), seed=11, deadline=100.0)
        assert FaultSchedule.from_dict(fs.to_dict()) == fs

    def test_unknown_schedule_field_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"bogus"):
            FaultSchedule.from_dict({"jitter": 0.0, "bogus": 1})

    def test_unknown_event_kind_lists_known_kinds(self):
        with pytest.raises(ValueError, match=r"byzantine-rank"):
            FaultSchedule.from_dict(
                {"events": [{"kind": "gremlin", "rank": 0}]})

    def test_unknown_event_field_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"wobble.*expected a subset"):
            FaultSchedule.from_dict(
                {"events": [{"kind": "byzantine-rank", "rank": 0,
                             "wobble": 2}]})

    @pytest.mark.parametrize("kwargs", [
        {"rank": -1}, {"rank": 0, "every": 0}, {"rank": 0, "start": -1},
    ])
    def test_invalid_adversary_fields_raise(self, kwargs):
        for cls in (ByzantineRank, WithholdingRank, MisroutingRank):
            with pytest.raises(ValueError):
                cls(**kwargs)

    def test_describe_mentions_cadence(self):
        ev = ByzantineRank(rank=4, every=2, start=1)
        text = ev.describe()
        assert "rank 4" in text
        assert "every 2 sends" in text
