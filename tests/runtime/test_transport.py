"""Transport-layer tests: FIFO delivery, tag matching, eager buffering.

The matching rule — receives match sends with the same ``(source,
tag)`` in FIFO order per pair — is the determinism contract both
backends share.  These tests pin it at the transport/env level, below
the collective algorithms.
"""

import multiprocessing
import os
import pickle
import struct
import threading
import time

import numpy as np
import pytest

from repro.runtime import ProcessMachine, RankTransport
from repro.runtime.env import ProcessEnv
from repro.runtime.transport import TcpMesh


def _mesh(transport, p):
    """``p`` wired RankTransports inside this process, one per rank.

    ``"local"`` wires a duplex ``multiprocessing`` pipe per pair, as
    ``LocalMesh`` does; ``"tcp"`` runs ``TcpMesh.connect`` for every
    rank on its own thread, through a real rendezvous.
    """
    if transport == "local":
        ctx = multiprocessing.get_context("fork")
        conns = {r: {} for r in range(p)}
        for a in range(p):
            for b in range(a + 1, p):
                conns[a][b], conns[b][a] = ctx.Pipe(duplex=True)
        return [RankTransport(r, p, conns[r]) for r in range(p)]
    listener = TcpMesh.make_rendezvous(p)
    out = [None] * p

    def wire(rank):
        out[rank] = TcpMesh.connect(rank, range(p), listener.address,
                                    listener if rank == 0 else None)

    threads = [threading.Thread(target=wire, args=(r,)) for r in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10.0)
    assert all(out), "TCP wiring did not finish"
    return out


@pytest.fixture(params=["local", "tcp"])
def mesh(request):
    made = []

    def make(p):
        made.extend(_mesh(request.param, p))
        return made[-p:]

    yield make
    for tr in made:
        tr.flush_and_close()


def _recv_all(tr, count, timeout=5.0):
    got = []
    deadline = time.monotonic() + timeout
    while len(got) < count:
        assert time.monotonic() < deadline, f"only {len(got)}/{count}"
        msg = tr.recv_any(timeout=0.05)
        if msg is not None:
            got.append(msg)
    return got


class TestRankTransport:
    def test_per_pair_fifo_order(self):
        ta, tb = _mesh("local", 2)
        for i in range(100):
            ta.send(1, i % 5, i)
        got = _recv_all(tb, 100)
        # global per-pair order is preserved, hence per-(src, tag) too
        assert [payload for _, _, payload in got] == list(range(100))
        assert all(src == 0 and tag == payload % 5
                   for src, tag, payload in got)

    def test_self_send_is_local(self):
        ta, _ = _mesh("local", 2)
        ta.send(0, 7, "hello")
        assert ta.recv_any(timeout=0.1) == (0, 7, "hello")

    def test_large_payloads_do_not_block_sender(self):
        # 2 MB is far beyond the OS pipe buffer: without the writer
        # thread, send() would block and this test would hang.
        ta, tb = _mesh("local", 2)
        big = np.arange(256 * 1024, dtype=np.float64)  # 2 MiB
        t0 = time.monotonic()
        for k in range(3):
            ta.send(1, k, big * k)
        assert time.monotonic() - t0 < 1.0  # eager: no wire wait
        got = _recv_all(tb, 3, timeout=20.0)
        for k, (_, tag, payload) in enumerate(got):
            assert tag == k
            assert np.array_equal(payload, big * k)

    def test_flush_and_close_delivers_queued_frames(self):
        ta, tb = _mesh("local", 2)
        for i in range(10):
            ta.send(1, 0, i)
        ta.flush_and_close()
        got = _recv_all(tb, 10)
        assert [p for _, _, p in got] == list(range(10))


def _payloads():
    c = np.arange(24, dtype=np.float64).reshape(4, 6) / 7
    objects = np.empty(3, dtype=object)
    objects[:] = [1, "two", (3.0, None)]
    return {
        "C float64": c,
        "F float64": np.asfortranarray(c),
        "C int32": np.arange(-12, 12, dtype=np.int32).reshape(2, 3, 4),
        "F int32": np.asfortranarray(
            np.arange(-12, 12, dtype=np.int32).reshape(2, 3, 4)),
        "C complex": (c + 1j * c[::-1]).astype(np.complex128),
        "F complex": np.asfortranarray(c - 2j * c),
        "strided view": c[::2, 1::3],
        "zero-length": np.zeros((0, 5)),
        "object dtype": objects,
        "bytes": b"\x00frame\xff",
        "bytearray": bytearray(b"mutable\x00"),
        "numpy scalar": np.float32(2.5),
        "None": None,
        "nested": ({"blocks": [c[:2], np.ones(3, np.int32)],
                    "tag": (7, [np.asfortranarray(c), "x"])},
                   [np.arange(5, dtype=np.complex128)]),
    }


def _assert_same(sent, got):
    assert type(got) is type(sent)
    if isinstance(sent, np.ndarray):
        assert got.dtype == sent.dtype and got.shape == sent.shape
        # a contiguous array keeps its order; a strided view arrives
        # as a C-ordered copy (it went in band)
        contiguous = sent.flags.c_contiguous or sent.flags.f_contiguous
        assert got.flags.c_contiguous == (sent.flags.c_contiguous
                                          or not contiguous)
        assert got.flags.f_contiguous == sent.flags.f_contiguous
        assert np.array_equal(got, sent)
        assert got.flags.writeable
        assert not np.shares_memory(got, sent)
    elif isinstance(sent, (tuple, list)):
        assert len(got) == len(sent)
        for s, g in zip(sent, got):
            _assert_same(s, g)
    elif isinstance(sent, dict):
        assert list(got) == list(sent)
        for key in sent:
            _assert_same(sent[key], got[key])
    else:
        assert got == sent


class TestWireFraming:
    """One framing path for both meshes: arrays out of band, the rest
    in band, every received buffer fresh and writable."""

    def test_payload_round_trip(self, mesh):
        ta, tb = mesh(2)
        payloads = _payloads()
        for k, payload in enumerate(payloads.values()):
            ta.send(1, k, payload)
        got = _recv_all(tb, len(payloads))
        for k, (name, sent) in enumerate(payloads.items()):
            src, tag, payload = got[k]
            assert (src, tag) == (0, k), name
            _assert_same(sent, payload)

    def test_simultaneous_large_exchange_no_deadlock(self, mesh):
        # 3 x 4 MiB each way, all posted before either end receives:
        # far beyond any pipe or socket buffer
        ta, tb = mesh(2)
        blocks = 512 * 1024
        for k in range(3):
            ta.send(1, k, np.full(blocks, 1.0 + k))
            tb.send(0, k, np.full(blocks, -1.0 - k))
        got_b = _recv_all(tb, 3, timeout=30.0)
        got_a = _recv_all(ta, 3, timeout=30.0)
        for k in range(3):
            assert got_b[k][1] == k and np.all(got_b[k][2] == 1.0 + k)
            assert got_a[k][1] == k and np.all(got_a[k][2] == -1.0 - k)

    def test_fifo_per_pair_with_small_frames_between_large(self, mesh):
        # rank 1 streams 4 MiB frames to rank 0 while rank 2 posts small
        # frames between them: rank 0 reads a big frame piecewise while
        # rank 2's frames queue up, and each pair stays in order
        t0, t1, t2 = mesh(3)
        big = np.arange(512 * 1024, dtype=np.float64)
        for k in range(3):
            t1.send(0, 0, big + k)
            for i in range(10):
                t2.send(0, 1, (k, i))
        got = _recv_all(t0, 33, timeout=30.0)
        from_1 = [p for src, _, p in got if src == 1]
        from_2 = [p for src, _, p in got if src == 2]
        assert len(from_1) == 3
        for k, payload in enumerate(from_1):
            assert np.array_equal(payload, big + k)
        assert from_2 == [(k, i) for k in range(3) for i in range(10)]

    def test_small_frames_do_not_stall(self, mesh):
        # a frame is two writes (header, then the array's bytes): with
        # Nagle's algorithm on a TCP socket the second one waits for the
        # peer's delayed ACK, about 40 ms per round trip
        ta, tb = mesh(2)
        block = np.arange(128, dtype=np.float64)
        t0 = time.monotonic()
        for i in range(50):
            ta.send(1, i, block)
            (_, tag, payload), = _recv_all(tb, 1)
            tb.send(0, tag, payload)
            assert _recv_all(ta, 1)[0][1] == i
        assert time.monotonic() - t0 < 1.0

    def test_peer_closing_inside_a_frame_drops_the_connection(self):
        # the header promises a 1 MiB buffer, the peer dies after 1000
        # bytes of it: the receiver must stop watching that connection,
        # not spin on an empty read or deliver a torn frame
        ctx = multiprocessing.get_context("fork")
        a_end, b_end = ctx.Pipe(duplex=True)
        tb = RankTransport(1, 2, {0: b_end})
        head = pickle.dumps((0, np.zeros(1 << 17)), protocol=5,
                            buffer_callback=lambda buf: None)
        a_end.send_bytes(struct.pack("!IQ", 1, 1 << 20) + head)
        os.write(a_end.fileno(), bytes(1000))
        a_end.close()
        assert tb.recv_any(timeout=1.0) is None


class TestEnvMatching:
    """(source, tag) FIFO matching at the ProcessEnv layer."""

    def _loopback_env(self):
        t0, t1 = _mesh("local", 2)
        return (ProcessEnv(0, 2, t0, poll=0.01),
                ProcessEnv(1, 2, t1, poll=0.01))

    def test_unexpected_messages_match_posted_recvs_by_tag(self):
        e0, e1 = self._loopback_env()
        # sends arrive before any recv is posted, in tag order 5 then 3
        e0.isend(1, "tag5-payload", tag=5)
        e0.isend(1, "tag3-payload", tag=3)
        time.sleep(0.1)
        # recvs posted in the *opposite* order still match by tag
        h3 = e1.irecv(0, tag=3)
        h5 = e1.irecv(0, tag=5)
        assert e1.execute(e1.waitall(h3, h5)) == ["tag3-payload",
                                                 "tag5-payload"]

    def test_same_tag_matches_fifo(self):
        e0, e1 = self._loopback_env()
        for i in range(5):
            e0.isend(1, f"msg{i}", tag=9)
        handles = [e1.irecv(0, tag=9) for _ in range(5)]
        assert e1.execute(e1.waitall(*handles)) == [f"msg{i}"
                                                   for i in range(5)]

    def test_single_recv_returns_bare_payload(self):
        e0, e1 = self._loopback_env()
        e0.isend(1, 42, tag=0)
        assert e1.execute(e1.recv(0, tag=0)) == 42

    def test_peer_range_checked(self):
        e0, _ = self._loopback_env()
        with pytest.raises(ValueError, match="out of range"):
            e0.isend(5, b"x")
        with pytest.raises(ValueError, match="out of range"):
            e0.irecv(-1)


class TestAcrossProcesses:
    """The same guarantees over real forked rank processes."""

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_interleaved_tags_across_processes(self, transport):
        def prog(env):
            if env.rank == 0:
                for i in range(20):
                    env.isend(1, (i, "a"), tag=i % 2)
                yield env.delay(0.0)
                return None
            a = [env.irecv(0, tag=0) for _ in range(10)]
            b = [env.irecv(0, tag=1) for _ in range(10)]
            got = yield env.waitall(a, b)
            return got

        m = ProcessMachine(2, transport=transport, timeout=20)
        res = m.run(prog)
        got = res.results[1]
        assert [v for v, _ in got[:10]] == list(range(0, 20, 2))
        assert [v for v, _ in got[10:]] == list(range(1, 20, 2))

    def test_simultaneous_large_exchange_no_deadlock(self):
        # Both ranks eagerly send 3 x 4 MiB before posting their
        # receives, over each mesh: deadlocks unless sends are buffered
        # off the wire.
        def prog(env):
            other = 1 - env.rank
            sends = [env.isend(other, np.full(512 * 1024,
                                              10.0 * env.rank + k), tag=k)
                     for k in range(3)]
            recvs = [env.irecv(other, tag=k) for k in range(3)]
            got = yield env.waitall(sends, recvs)
            return [float(a[0]) for a in got[3:]
                    if np.all(a == a[0]) and a.flags.writeable]

        for transport in ("local", "tcp"):
            res = ProcessMachine(2, transport=transport,
                                 timeout=30).run(prog)
            assert res.results[0] == [10.0, 11.0, 12.0], transport
            assert res.results[1] == [0.0, 1.0, 2.0], transport
