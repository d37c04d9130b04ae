"""Transport layer for the real multi-process backend.

A transport moves ``(tag, payload)`` frames between rank processes
with **per-pair FIFO ordering** — the delivery guarantee the
matching rule of :mod:`repro.core.protocol` is built on.  Matching
itself (``(source, tag)`` FIFO) lives in
:class:`~repro.runtime.env.ProcessEnv`; the transport only promises
that frames from one sender arrive in the order they were sent.

Two implementations share the per-rank interface:

* :class:`LocalMesh` — a full mesh of ``multiprocessing`` pipes for
  single-host runs (created in the launcher parent, adopted by forked
  children);
* :class:`TcpMesh` — TCP sockets with a rank-0 rendezvous, behind the
  same interface, for multi-host use (addresses are exchanged through
  a rendezvous listener, then the full mesh is wired pairwise).

Both put a frame on the wire the same way (:class:`FramedConnection`):
the frame is pickled with protocol 5, and every contiguous buffer in it
(a C- or F-order NumPy array's data) is taken out of band.  A small
header — the buffer count, each buffer's byte size, then the pickle
bytes — goes out as one ``send_bytes`` message, and each buffer's raw
bytes follow it straight to the connection's file descriptor.  The
receiver reads each buffer with ``os.readv`` into a fresh
``np.empty(size, np.uint8)`` and rebuilds the frame with
``pickle.loads(head, buffers=...)``, so an array is copied once into
the kernel and once out of it.  Everything else (scalars, lists, object
arrays, strided views) stays in band in the same pickle.

Sends are **eager and buffered**: ``RankTransport.send`` enqueues the
frame on an unbounded outbox drained by a background writer thread, so
a rank can post arbitrarily large ``isend``s without blocking even
when the OS pipe/socket buffer is full — the classic progress-engine
arrangement.  (A rank blocked in ``waitall`` keeps draining its inbound
connections, which is what unblocks its peers' writers.)
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import threading
import time
from collections import deque
from multiprocessing.connection import Client, Connection, Listener, wait
from typing import Any, Dict, List, Optional, Tuple

import numpy as np


class TransportError(RuntimeError):
    """A transport-level failure (peer vanished, wiring failed)."""


class FramedConnection:
    """One peer connection carrying frames with out-of-band array data.

    The wire format of a frame is one ``send_bytes`` message holding
    ``!I`` (buffer count), ``!Q`` per buffer (its byte size) and the
    protocol-5 pickle, followed by the buffers' raw bytes in order.
    Received buffers are fresh, writable (unless the sender's array
    was read-only) and share no memory with the sender.
    """

    def __init__(self, conn: Connection):
        self._conn = conn
        self._fd = conn.fileno()
        self.poll = conn.poll
        self.fileno = conn.fileno
        self.close = conn.close

    def send(self, frame: Any) -> None:
        buffers: List[pickle.PickleBuffer] = []
        head = pickle.dumps(frame, protocol=5,
                            buffer_callback=buffers.append)
        views = [b.raw() for b in buffers]
        self._conn.send_bytes(
            struct.pack(f"!I{len(views)}Q", len(views),
                        *(v.nbytes for v in views)) + head)
        for view in views:
            while view:
                view = view[os.write(self._fd, view):]

    def recv(self) -> Any:
        data = self._conn.recv_bytes()
        (count,) = struct.unpack_from("!I", data)
        sizes = struct.unpack_from(f"!{count}Q", data, 4)
        buffers = [np.empty(size, np.uint8) for size in sizes]
        for buf in buffers:
            view = memoryview(buf)
            while view:
                n = os.readv(self._fd, [view])
                if not n:
                    raise EOFError("peer closed inside a frame")
                view = view[n:]
        return pickle.loads(memoryview(data)[4 + 8 * count:],
                            buffers=buffers)


class RankTransport:
    """One rank's view of the mesh: per-peer FIFO connections.

    ``send`` may be called from the rank's main thread only; frames are
    written to the wire by a single background writer thread (started
    lazily), preserving per-pair FIFO order as a subsequence of the
    global outbox order.  ``recv_any`` drains whichever connections are
    readable and returns one ``(src, tag, payload)`` frame at a time.
    """

    def __init__(self, rank: int, nranks: int,
                 conns: Dict[int, Connection]):
        self.rank = rank
        self.nranks = nranks
        self._conns = {peer: FramedConnection(c)
                       for peer, c in conns.items()}
        self._peer_of = {id(c): peer for peer, c in self._conns.items()}
        self._open: List[FramedConnection] = list(self._conns.values())
        self._inbox: deque = deque()
        self._outbox: deque = deque()
        self._cv = threading.Condition()
        self._writer: Optional[threading.Thread] = None
        self._closing = False
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0.0

    # --- sending ---------------------------------------------------------

    def send(self, dst: int, tag: int, payload: Any,
             nbytes: float = 0.0) -> None:
        """Enqueue a frame for ``dst``; returns immediately."""
        self.frames_sent += 1
        self.bytes_sent += nbytes
        if dst == self.rank:
            # Local "transfer": a memory reference hand-off, same as the
            # simulator's free self-send.
            self._inbox.append((self.rank, tag, payload))
            return
        with self._cv:
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._write_loop,
                    name=f"repro-writer-{self.rank}", daemon=True)
                self._writer.start()
            self._outbox.append((dst, tag, payload))
            self._cv.notify()

    def _write_loop(self) -> None:
        while True:
            with self._cv:
                while not self._outbox and not self._closing:
                    self._cv.wait()
                if not self._outbox:
                    return  # closing and flushed
                dst, tag, payload = self._outbox.popleft()
            try:
                self._conns[dst].send((tag, payload))
            except (BrokenPipeError, ConnectionError, OSError):
                # The peer is gone.  Its unreceived messages are lost;
                # any rank waiting on them hangs and the launcher
                # watchdog turns that into a diagnosis.
                return

    # --- receiving -------------------------------------------------------

    def recv_any(self, timeout: Optional[float] = None
                 ) -> Optional[Tuple[int, int, Any]]:
        """Next available ``(src, tag, payload)``, or None on timeout."""
        if self._inbox:
            self.frames_received += 1
            return self._inbox.popleft()
        if not self._open:
            if timeout:
                time.sleep(timeout)
            return None
        try:
            ready = wait(self._open, timeout)
        except OSError:
            ready = []
        for c in ready:
            src = self._peer_of[id(c)]
            try:
                while True:
                    self._inbox.append((src,) + tuple(c.recv()))
                    if not c.poll(0):
                        break
            except (EOFError, ConnectionError, OSError):
                # peer finished (or died): stop watching this connection
                self._open.remove(c)
        if self._inbox:
            self.frames_received += 1
            return self._inbox.popleft()
        return None

    # --- lifecycle -------------------------------------------------------

    def flush_and_close(self, flush_timeout: float = 30.0) -> None:
        """Flush the outbox (bounded wait), then close every connection.

        Called when the rank's program finishes: its last sends may
        still be queued, and peers are entitled to receive them.
        """
        with self._cv:
            self._closing = True
            self._cv.notify()
        if self._writer is not None:
            self._writer.join(flush_timeout)
        for c in self._conns.values():
            try:
                c.close()
            except OSError:
                pass


class LocalMesh:
    """Parent-side factory for a full mesh of ``multiprocessing`` pipes.

    Created in the launcher before forking; each child calls
    :meth:`adopt` with its rank (closing every connection that is not
    its own), and the parent calls :meth:`release` (closing them all —
    the parent carries no collective traffic).
    """

    def __init__(self, ranks, mp_context):
        self.ranks = sorted(ranks)
        self._pipes: Dict[Tuple[int, int], Tuple[Connection, Connection]] = {}
        for a in self.ranks:
            for b in self.ranks:
                if a < b:
                    self._pipes[(a, b)] = mp_context.Pipe(duplex=True)

    def adopt(self, rank: int, nranks: int) -> RankTransport:
        conns: Dict[int, Connection] = {}
        for (a, b), (ca, cb) in self._pipes.items():
            if a == rank:
                conns[b] = ca
                cb.close()
            elif b == rank:
                conns[a] = cb
                ca.close()
            else:
                ca.close()
                cb.close()
        return RankTransport(rank, nranks, conns)

    def release(self) -> None:
        for ca, cb in self._pipes.values():
            ca.close()
            cb.close()


class TcpMesh:
    """TCP transport wiring with a rank-0 rendezvous.

    The launcher creates the rendezvous :class:`Listener` (so the
    address is known before any rank starts) and hands it to rank 0.
    Each rank ``i > 0`` opens its own listener, connects to the
    rendezvous, announces ``(i, address_i)``, and receives the full
    address map back; the rendezvous connections themselves become the
    ``0 <-> i`` channels.  Remaining pairs are wired lower-rank-accepts
    / higher-rank-connects, each connection labelled by a hello frame.
    Every socket has Nagle's algorithm off (``TCP_NODELAY``).

    Localhost by default; the same wiring works across hosts when the
    rendezvous address is routable (multi-host launch, docs/runtime.md).
    """

    @staticmethod
    def make_rendezvous(nranks: int, host: str = "127.0.0.1"):
        return Listener((host, 0), family="AF_INET", backlog=max(nranks, 8))

    @staticmethod
    def connect(rank: int, ranks, rendezvous_addr,
                rendezvous_listener: Optional[Listener] = None
                ) -> RankTransport:
        ranks = sorted(ranks)
        nranks_total = max(ranks) + 1
        others = [r for r in ranks if r != rank]
        conns: Dict[int, Connection] = {}
        my_listener = None
        if rank != ranks[0]:
            my_listener = Listener(("127.0.0.1", 0), family="AF_INET",
                                   backlog=max(len(ranks), 8))

        if rank == ranks[0]:
            assert rendezvous_listener is not None
            addr_map = {}
            pending = []
            for _ in others:
                c = rendezvous_listener.accept()
                peer, addr = c.recv()
                addr_map[peer] = addr
                conns[peer] = c
                pending.append(c)
            for c in pending:
                c.send(addr_map)
            rendezvous_listener.close()
        else:
            if rendezvous_listener is not None:
                rendezvous_listener.close()  # inherited copy, not ours
            c0 = Client(tuple(rendezvous_addr), family="AF_INET")
            c0.send((rank, my_listener.address))
            addr_map = c0.recv()
            conns[ranks[0]] = c0
            # connect to every lower non-root rank; accept from higher
            for peer in ranks[1:]:
                if peer >= rank:
                    break
                c = Client(tuple(addr_map[peer]), family="AF_INET")
                c.send(("hello", rank))
                conns[peer] = c
            n_higher = sum(1 for r in ranks if r > rank)
            for _ in range(n_higher):
                c = my_listener.accept()
                marker, peer = c.recv()
                if marker != "hello":
                    raise TransportError(
                        f"rank {rank}: unexpected wiring frame {marker!r}")
                conns[peer] = c
            my_listener.close()
        for c in conns.values():
            # A frame is a header write then buffer writes; with Nagle's
            # algorithm on, the second waits for the peer's delayed ACK.
            with socket.fromfd(c.fileno(), socket.AF_INET,
                               socket.SOCK_STREAM) as s:
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return RankTransport(rank, nranks_total, conns)
