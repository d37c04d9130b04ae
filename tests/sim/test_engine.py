"""Tests for the discrete-event engine: matching, blocking semantics,
nonblocking requests, deadlock detection, payload sizing."""

import numpy as np
import pytest

from repro.sim import (DeadlockError, LinearArray, Machine, UNIT,
                       payload_nbytes)


class TestPayloadNbytes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.int32)) == 40

    def test_scalar_types(self):
        assert payload_nbytes(np.float64(1.0)) == 8
        assert payload_nbytes(3) == 8
        assert payload_nbytes(2.5) == 8

    def test_bytes_and_str(self):
        assert payload_nbytes(b"abcd") == 4
        assert payload_nbytes("hi") == 2

    def test_none_is_zero(self):
        assert payload_nbytes(None) == 0

    def test_sequences_sum(self):
        assert payload_nbytes([np.zeros(4, np.float64), b"xy"]) == 34

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="nbytes"):
            payload_nbytes(object())


class TestMatching:
    def test_fifo_per_pair(self):
        """Two messages between the same pair arrive in program order."""
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.array([1.0]))
                yield env.send(1, np.array([2.0]))
            else:
                a = yield env.recv(0)
                b = yield env.recv(0)
                return float(a[0]), float(b[0])

        assert m.run(prog).results[1] == (1.0, 2.0)

    def test_tags_isolate_streams(self):
        """Receives by tag pick the right message even out of order.

        (The sender posts both nonblocking: with rendezvous semantics a
        blocking send of the first message while the receiver waits on
        the second would deadlock — as in MPI.)"""
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                s1 = env.isend(1, np.array([1.0]), tag=7)
                s2 = env.isend(1, np.array([2.0]), tag=9)
                yield env.waitall(s1, s2)
            else:
                b = yield env.recv(0, tag=9)
                a = yield env.recv(0, tag=7)
                return float(a[0]), float(b[0])

        assert m.run(prog).results[1] == (1.0, 2.0)

    def test_reversed_blocking_tag_order_deadlocks(self):
        """Rendezvous semantics: the MPI-unsafe ordering really hangs."""
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.array([1.0]), tag=7)
                yield env.send(1, np.array([2.0]), tag=9)
            else:
                yield env.recv(0, tag=9)
                yield env.recv(0, tag=7)

        with pytest.raises(DeadlockError):
            m.run(prog)

    def test_rendezvous_waits_for_late_receiver(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(10, dtype=np.uint8))
            else:
                yield env.delay(100)
                yield env.recv(0)

        # transfer starts at t=100: 100 + 1 + 10
        assert m.run(prog).time == pytest.approx(111.0)

    def test_rendezvous_waits_for_late_sender(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.delay(50)
                yield env.send(1, np.zeros(10, dtype=np.uint8))
            else:
                yield env.recv(0)

        assert m.run(prog).time == pytest.approx(61.0)

    def test_self_send_is_free(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                s = env.isend(0, np.array([5.0]))
                r = env.irecv(0)
                yield env.waitall(s, r)
                return float(r.data[0])
            return None
            yield  # pragma: no cover

        run = m.run(prog)
        assert run.results[0] == 5.0
        assert run.time == pytest.approx(0.0)


class TestNonblocking:
    def test_isend_irecv_overlap(self):
        """A rank can have a send and a receive in flight at once."""
        m = Machine(LinearArray(3), UNIT)

        def prog(env):
            n = 100
            reqs = []
            if env.rank == 1:
                reqs.append(env.isend(2, np.zeros(n, dtype=np.uint8)))
                reqs.append(env.irecv(0))
            elif env.rank == 0:
                reqs.append(env.isend(1, np.zeros(n, dtype=np.uint8)))
            else:
                reqs.append(env.irecv(1))
            yield env.waitall(*reqs)

        # both transfers overlap: 1 + 100
        assert m.run(prog).time == pytest.approx(101.0)

    def test_waitall_returns_payloads_in_order(self):
        m = Machine(LinearArray(3), UNIT)

        def prog(env):
            if env.rank == 0:
                r1 = env.irecv(1)
                r2 = env.irecv(2)
                vals = yield env.waitall(r1, r2)
                return [float(v[0]) for v in vals]
            yield env.send(0, np.array([float(env.rank)]))

        assert m.run(prog).results[0] == [1.0, 2.0]

    def test_single_recv_waitall_returns_payload_directly(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                data = yield env.waitall(env.irecv(1))
                return float(data[0])
            yield env.send(0, np.array([9.0]))

        assert m.run(prog).results[0] == 9.0

    def test_yielding_bare_handle_blocks_on_it(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.isend(1, np.zeros(4, dtype=np.uint8))
            else:
                yield env.irecv(0)

        assert m.run(prog).time == pytest.approx(5.0)


class TestComputeAndOverhead:
    def test_compute_charges_gamma(self):
        m = Machine(LinearArray(1), UNIT.with_(gamma=0.5))

        def prog(env):
            yield env.compute(10)

        assert m.run(prog).time == pytest.approx(5.0)

    def test_overhead_charges_sw_overhead(self):
        m = Machine(LinearArray(1), UNIT.with_(sw_overhead=2.0))

        def prog(env):
            yield env.overhead(3)

        assert m.run(prog).time == pytest.approx(6.0)

    def test_negative_delay_rejected(self):
        m = Machine(LinearArray(1), UNIT)

        def prog(env):
            yield env.delay(-1.0)

        with pytest.raises(ValueError):
            m.run(prog)


class TestErrors:
    def test_unmatched_recv_deadlocks_with_diagnostics(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.recv(1)

        with pytest.raises(DeadlockError, match="rank 0"):
            m.run(prog)

    def test_send_without_recv_deadlocks(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.array([1.0]))

        with pytest.raises(DeadlockError):
            m.run(prog)

    def test_yielding_garbage_raises_typeerror(self):
        m = Machine(LinearArray(1), UNIT)

        def prog(env):
            yield 42

        with pytest.raises(TypeError, match="not a request"):
            m.run(prog)

    def test_plain_function_rejected(self):
        m = Machine(LinearArray(1), UNIT)

        def not_a_generator(env):
            return 1

        with pytest.raises(TypeError, match="generator"):
            m.run(not_a_generator)

    def test_send_to_invalid_rank_rejected(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(5, np.array([1.0]))

        with pytest.raises(ValueError):
            m.run(prog)


class TestDeterminism:
    def test_identical_runs_identical_times(self):
        m = Machine(LinearArray(8), UNIT)

        def prog(env):
            right = (env.rank + 1) % 8
            left = (env.rank - 1) % 8
            for _ in range(5):
                s = env.isend(right, np.zeros(64, dtype=np.uint8))
                r = env.irecv(left)
                yield env.waitall(s, r)

        t1 = m.run(prog).time
        t2 = m.run(prog).time
        assert t1 == t2
