"""Wall-clock tracing for the real multi-process backend.

The process backend records into the same trace model as the simulator,
in the spirit of measurement-driven characterisation of intra-cluster
collectives (Barchet-Estefanel & Mounié):

* :class:`RuntimeTracer` — a **per-rank**
  :class:`~repro.obs.trace.Tracer` living inside the rank process.  Its
  inherited ``span_open`` / ``span_close`` / ``mark`` record
  :class:`~repro.obs.trace.SpanRecord` spans and mark tuples on the
  rank's own clock, so the hybrids' stage spans and
  ``algorithm="auto"`` prediction capture work on real processes with
  **zero algorithm changes**.  On top of them it keeps three message
  hooks that :class:`~repro.runtime.env.ProcessEnv` calls: a send post,
  a receive post, and a match (a receive paired with its payload).
* **Clock alignment** — each rank's trace times are wall-clock seconds
  on that rank's *own* monotonic clock; clocks of distinct processes
  (and certainly distinct hosts) share no origin.  At rendezvous,
  :func:`sync_clocks` runs symmetric ping-pong probes against the
  lowest active rank and estimates this rank's clock offset as the NTP
  midpoint ``offset = t_ref_reply - (t0 + t1) / 2`` of the minimum-RTT
  probe (:func:`estimate_clock_offset`).  The residual uncertainty is
  bounded by RTT/2 and recorded per rank, so the merged timeline is
  honest about how aligned it is.
* **Merge** — each rank returns its tracer to the launcher with its
  result, over the one outcome pipe; the parent merges them
  (:func:`merge_rank_traces`) into a :class:`RuntimeTrace`: every
  timestamp rebased onto the reference rank's timeline, send posts
  paired with their matches into :class:`~repro.obs.trace.MessageRecord`
  (the per-pair FIFO matching rule makes the pairing a deterministic
  ``(src, dst, tag, seq)`` join).  The merge is a pure function of the
  tracers, whatever their order — merging the same set twice exports
  byte-identically (pinned by the test suite).  It exports with
  :func:`repro.obs.trace.write_chrome_trace`, the one Chrome exporter
  of both backends.

Collection is deliberately light: the rank-side hot path appends small
tuples, with no I/O at all, and the trace-overhead gate in
``benchmarks/runtime/run.py`` holds the traced ping-pong within 10% of
the untraced one.  This module imports nothing heavy at module scope
(the record types come from the stdlib-only :mod:`repro.obs.trace`), so
rank processes stay lean and never load the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .trace import MessageRecord, SpanRecord, Tracer

#: reserved tag for the rendezvous clock-sync exchange; negative so it
#: can never collide with a collective context tag (those are >= 0)
CLOCKSYNC_TAG = -0x51AC

#: default number of ping-pong probes per rank for clock alignment
CLOCKSYNC_PROBES = 8


# ----------------------------------------------------------------------
# clock alignment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClockEstimate:
    """One rank's estimated clock offset against the reference rank.

    ``offset_s`` is defined so that ``t_local + offset_s`` lands on the
    reference rank's timeline.  ``rtt_s`` is the round-trip time of the
    probe the estimate came from (the minimum-RTT probe); the offset
    error is bounded by ``rtt_s / 2`` — the classic NTP bound, reached
    only when the path delay is fully asymmetric.
    """

    offset_s: float
    rtt_s: float
    probes: int

    @property
    def uncertainty_s(self) -> float:
        """Worst-case offset error: half the probe round trip."""
        return self.rtt_s / 2.0


def estimate_clock_offset(samples: Sequence[Tuple[float, float, float]]
                          ) -> ClockEstimate:
    """NTP-style offset estimate from ping-pong probe triples.

    ``samples`` holds one ``(t0_local, t_ref, t1_local)`` triple per
    probe: probe sent at local ``t0``, the reference rank answered with
    its own clock reading ``t_ref``, the answer arrived at local
    ``t1``.  Assuming the reply was generated at the midpoint of the
    round trip, ``offset = t_ref - (t0 + t1) / 2``; the probe with the
    **smallest RTT** is the one whose midpoint assumption is tightest
    (queueing can only inflate RTT), so that probe supplies the
    estimate and its RTT the uncertainty bound.
    """
    if not samples:
        raise ValueError("need at least one probe sample")
    best = None
    for t0, t_ref, t1 in samples:
        rtt = t1 - t0
        if rtt < 0:
            raise ValueError(f"probe reply before its send: {t0} .. {t1}")
        if best is None or rtt < best[0]:
            best = (rtt, t0, t_ref, t1)
    rtt, t0, t_ref, t1 = best
    return ClockEstimate(offset_s=t_ref - (t0 + t1) / 2.0, rtt_s=rtt,
                         probes=len(samples))


def sync_clocks(env, active: Sequence[int],
                probes: int = CLOCKSYNC_PROBES) -> ClockEstimate:
    """Collective clock-alignment exchange at rendezvous.

    Every active rank must call this at the same point (the launcher
    does so right after transport wiring, before the rank program
    starts, and only on traced runs).  The lowest active rank is the
    reference: it answers ``probes`` ping-pongs from every other rank
    in rank order, each reply carrying its current ``env.now``.  A
    ``go`` frame serialises the reference's attention so every probe is
    a prompt round trip, not a queue-inflated one.

    Uses the env's ordinary send/recv machinery on the reserved
    :data:`CLOCKSYNC_TAG`, so per-pair FIFO guarantees the exchange is
    fully drained before the rank program posts its first message.
    """
    ref = min(active)
    if env.rank == ref:
        for peer in sorted(active):
            if peer == ref:
                continue
            env.execute(env.send(peer, "go", tag=CLOCKSYNC_TAG))
            for _ in range(probes):
                env.execute(env.recv(peer, tag=CLOCKSYNC_TAG))
                env.execute(env.send(peer, env.now, tag=CLOCKSYNC_TAG))
        return ClockEstimate(offset_s=0.0, rtt_s=0.0, probes=0)
    env.execute(env.recv(ref, tag=CLOCKSYNC_TAG))  # our turn
    samples: List[Tuple[float, float, float]] = []
    for k in range(probes):
        t0 = env.now
        env.execute(env.send(ref, k, tag=CLOCKSYNC_TAG))
        t_ref = env.execute(env.recv(ref, tag=CLOCKSYNC_TAG))
        samples.append((t0, float(t_ref), env.now))
    return estimate_clock_offset(samples)


# ----------------------------------------------------------------------
# the per-rank collector
# ----------------------------------------------------------------------


class RuntimeTracer(Tracer):
    """One rank's spans, marks and message events, on its own clock.

    Spans and marks are the inherited :class:`~repro.obs.trace.Tracer`
    records that :class:`~repro.core.context.CollContext` drives.  The
    message hooks (:meth:`send_post` / :meth:`recv_post` /
    :meth:`match`) are called by :class:`~repro.runtime.env.ProcessEnv`
    and append one tuple each, in program order — the order the merge
    pairs them by.
    """

    def __init__(self, rank: int, clock: ClockEstimate):
        super().__init__()
        self.rank = rank
        #: this rank's offset onto the reference rank's timeline
        self.clock = clock
        #: ``(t, dst, tag, nbytes)`` per send post
        self.sends: List[Tuple[float, int, int, float]] = []
        #: ``(t, src, tag)`` per receive post
        self.recv_posts: List[Tuple[float, int, int]] = []
        #: ``(t, src, tag)`` per matched receive
        self.matches: List[Tuple[float, int, int]] = []

    def send_post(self, t: float, dst: int, tag: int,
                  nbytes: float) -> None:
        self.sends.append((t, dst, tag, nbytes))

    def recv_post(self, t: float, src: int, tag: int) -> None:
        self.recv_posts.append((t, src, tag))

    def match(self, t: float, src: int, tag: int) -> None:
        self.matches.append((t, src, tag))


# ----------------------------------------------------------------------
# parent-side merge
# ----------------------------------------------------------------------


class RuntimeTrace(Tracer):
    """The merged multi-rank trace, on one aligned timeline.

    A :class:`~repro.obs.trace.Tracer`, so the audit layer, the
    critical path and the Chrome exporter read it exactly as they read
    a simulated trace.  Every matched message has ``t_complete`` equal
    to its match instant: on the eager transport the payload is in the
    receiver's hands the moment it matches.  On top of the records it
    carries the per-rank :class:`ClockEstimate` in ``clocks``.
    """

    def __init__(self, ranks: Sequence[int],
                 clocks: Dict[int, ClockEstimate],
                 spans: List[SpanRecord],
                 marks: List[Tuple[float, int, str]],
                 messages: List[MessageRecord]):
        super().__init__()
        self.ranks = sorted(ranks)
        self.clocks = clocks
        self.spans = spans
        self.marks = marks
        self.messages = messages

    def max_uncertainty_s(self) -> float:
        """The worst per-rank clock-alignment error bound."""
        if not self.clocks:
            return 0.0
        return max(c.uncertainty_s for c in self.clocks.values())

    def __repr__(self) -> str:
        return (f"RuntimeTrace(ranks={self.ranks}, "
                f"{len(self.spans)} spans, {len(self.messages)} "
                f"messages, +-{self.max_uncertainty_s() * 1e6:.0f}us)")


def merge_rank_traces(tracers: Sequence[RuntimeTracer]) -> RuntimeTrace:
    """Merge per-rank tracers onto the reference rank's timeline.

    ``tracers`` come in any order.  Every timestamp is rebased by the
    rank's clock offset.  Messages pair on ``(src, dst, tag, seq)``,
    where ``seq`` is a record's position among its rank's records of
    that ``(peer, tag)``: per-pair FIFO matching makes the k-th send of
    a pair the k-th match, and the k-th recv post its post.  No
    timestamp is consulted for pairing, so clock error cannot mispair.
    The result is a pure function of the inputs — no wall clock, no
    dict iteration ambiguity — so merging the same tracers twice yields
    byte-identical exports.
    """
    tracers = sorted(tracers, key=lambda t: t.rank)
    ranks = [t.rank for t in tracers]
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate ranks in trace set: {ranks}")

    clocks: Dict[int, ClockEstimate] = {}
    spans: List[SpanRecord] = []
    marks: List[Tuple[float, int, str]] = []
    #: (src, dst, tag) -> aligned (send post, nbytes) in seq order
    sends: Dict[Tuple[int, int, int], List[Tuple[float, float]]] = {}
    #: (dst, src, tag) -> aligned recv-post times in seq order
    recv_posts: Dict[Tuple[int, int, int], List[float]] = {}
    #: (dst, src, tag) -> aligned match times in seq order
    matches: Dict[Tuple[int, int, int], List[float]] = {}

    for tracer in tracers:
        rank = tracer.rank
        clocks[rank] = tracer.clock
        off = tracer.clock.offset_s
        for s in tracer.spans:
            spans.append(SpanRecord(
                rank=rank, label=s.label, phase=s.phase,
                t_start=s.t_start + off, t_end=s.t_end + off,
                depth=s.depth, attrs=s.attrs))
        for t, _, label in tracer.marks:
            marks.append((t + off, rank, label))
        for t, dst, tag, nbytes in tracer.sends:
            sends.setdefault((rank, dst, tag), []).append((t + off, nbytes))
        for t, src, tag in tracer.recv_posts:
            recv_posts.setdefault((rank, src, tag), []).append(t + off)
        for t, src, tag in tracer.matches:
            matches.setdefault((rank, src, tag), []).append(t + off)

    messages: List[MessageRecord] = []
    for key in sorted(matches):
        dst, src, tag = key
        posts = recv_posts.get(key, [])
        sent = sends.get((src, dst, tag), [])
        for seq, t_match in enumerate(matches[key]):
            t_send, nbytes = (sent[seq] if seq < len(sent)
                              else (math.nan, 0.0))
            messages.append(MessageRecord(
                src=src, dst=dst, tag=tag, nbytes=nbytes,
                t_send_post=t_send,
                t_recv_post=posts[seq] if seq < len(posts) else math.nan,
                t_match=t_match, t_complete=t_match))
    # sends the receiver never matched: keep them as half-open records
    # so forensics can see them
    for (src, dst, tag), sent in sorted(sends.items()):
        for t_send, nbytes in sent[len(matches.get((dst, src, tag), [])):]:
            messages.append(MessageRecord(
                src=src, dst=dst, tag=tag, nbytes=nbytes,
                t_send_post=t_send))
    messages.sort(key=lambda m: (m.t_match if not math.isnan(m.t_match)
                                 else math.inf, m.src, m.dst, m.tag))
    marks.sort(key=lambda x: (x[0], x[1]))
    spans.sort(key=lambda s: (s.t_start, s.rank, s.depth))
    return RuntimeTrace(ranks=ranks, clocks=clocks, spans=spans,
                        marks=marks, messages=messages)
