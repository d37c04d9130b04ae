"""Wall-clock tracing for the real multi-process backend.

The simulator has had eyes since the observability PR — spans, channel
metrics, critical paths, Chrome traces.  The process backend ran blind:
``ProcessEnv.tracer`` was ``None`` and every ``span_open`` /
``mark`` vanished.  This module gives real runs the same measurement
substrate, in the spirit of measurement-driven characterisation of
intra-cluster collectives (Barchet-Estefanel & Mounié):

* :class:`RuntimeTracer` — a **per-rank** collector living inside the
  rank process.  It satisfies the span protocol
  :class:`~repro.core.context.CollContext` already speaks
  (``span_open(time, rank, label, phase=, attrs=)`` /
  ``span_close(span, time)`` / ``mark(time, rank, label)``), so the
  hybrids' stage spans and ``algorithm="auto"`` prediction capture work
  on real processes with **zero algorithm changes**.  On top of spans it
  records one event per message lifecycle step — ``post`` (send or
  recv, with the rank's posted/unexpected queue depths and the
  transport outbox depth at post time), ``match`` (a receive paired
  with its payload) and ``drain`` (a frame pulled off the wire into the
  unexpected queue).
* **Clock alignment** — each rank's trace times are wall-clock seconds
  on that rank's *own* monotonic clock; clocks of distinct processes
  (and certainly distinct hosts) share no origin.  At rendezvous,
  :func:`sync_clocks` runs symmetric ping-pong probes against the
  lowest active rank and estimates this rank's clock offset as the NTP
  midpoint ``offset = t_ref_reply - (t0 + t1) / 2`` of the minimum-RTT
  probe (:func:`estimate_clock_offset`).  The residual uncertainty is
  bounded by RTT/2 and recorded per rank, so the merged timeline is
  honest about how aligned it is.
* **Merge** — each rank dumps its events as one JSONL file
  (:meth:`RuntimeTracer.dump_jsonl`); the launcher parent merges them
  (:func:`merge_rank_traces`) into a :class:`RuntimeTrace`, a
  :class:`~repro.obs.trace.Tracer`: all timestamps rebased onto the
  reference rank's timeline, send posts paired with their matches into
  :class:`~repro.obs.trace.MessageRecord` (the per-pair FIFO matching
  rule makes the pairing a deterministic ``(src, dst, tag, seq)``
  join), spans materialised as :class:`~repro.obs.trace.SpanRecord`.
  The merge is a pure function of the input files — merging the same
  JSONL twice is byte-identical (pinned by the test suite).  It
  exports with :func:`repro.obs.trace.write_chrome_trace`, the one
  Chrome exporter of both backends.

Collection is deliberately light: the rank-side hot path appends plain
dicts to a list (no JSON, no I/O until the program finishes), and the
trace-overhead gate in ``benchmarks/runtime/run.py`` holds the traced
ping-pong within 10% of the untraced one.  This module imports nothing
heavy at module scope (the record types come from the stdlib-only
:mod:`repro.obs.trace`), so rank processes stay lean and never load the
simulator.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .trace import MessageRecord, SpanRecord, Tracer

#: reserved tag for the rendezvous clock-sync exchange; negative so it
#: can never collide with a collective context tag (those are >= 0)
CLOCKSYNC_TAG = -0x51AC

#: JSONL schema version written in every trace header
TRACE_VERSION = 1

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

    def to_json(self) -> Dict[str, float]:
        return {"offset_s": self.offset_s, "rtt_s": self.rtt_s,
                "probes": self.probes}

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "ClockEstimate":
        return cls(offset_s=float(d["offset_s"]), rtt_s=float(d["rtt_s"]),
                   probes=int(d["probes"]))


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


class RuntimeTracer:
    """Collects one rank's spans, marks and message events (wall clock).

    Satisfies the span surface of :class:`repro.obs.trace.Tracer` that
    :class:`~repro.core.context.CollContext` drives (``span_open`` /
    ``span_close`` / ``mark``), so collective stage spans and
    auto-dispatch prediction capture work unchanged.  The message hooks
    (:meth:`send_post` / :meth:`recv_post` / :meth:`match` /
    :meth:`drain`) are called by :class:`~repro.runtime.env.ProcessEnv`.

    The hot path is deliberately allocation-light: message and mark
    events are appended as small **tuples** (span events stay dicts —
    ``span_close`` mutates them in place) and only expanded to their
    JSON form in :meth:`dump_jsonl`, after the rank program finished.
    The trace-overhead gate in ``benchmarks/runtime/run.py`` holds the
    traced ping-pong within 10% of the untraced one.  ``seq`` numbers
    make merge pairing deterministic: the sender counts sends per
    ``(dst, tag)``, the receiver counts matches per ``(src, tag)``, and
    per-pair FIFO matching guarantees the k-th of each is the same
    message.
    """

    def __init__(self, rank: int, nranks: int, transport: str = ""):
        self.rank = rank
        self.nranks = nranks
        self.transport = transport
        self.clock_estimate: Optional[ClockEstimate] = None
        self.events: List[Dict[str, Any]] = []
        self._send_seq: Dict[Tuple[int, int], int] = {}
        self._match_seq: Dict[Tuple[int, int], int] = {}
        self._depth = 0

    # --- span protocol (CollContext-compatible) -----------------------

    def span_open(self, time: float, rank: int, label: str,
                  phase: str = "",
                  attrs: Optional[Dict[str, object]] = None
                  ) -> Dict[str, Any]:
        ev = {"ev": "span", "t0": time, "t1": None, "label": label,
              "phase": phase, "depth": self._depth,
              "attrs": attrs or None}
        self._depth += 1
        self.events.append(ev)
        return ev

    def span_close(self, span: Dict[str, Any], time: float) -> None:
        span["t1"] = time
        self._depth = max(self._depth - 1, 0)

    def mark(self, time: float, rank: int, label: str) -> None:
        self.events.append(("mark", time, label))

    # --- message hooks (called by ProcessEnv; tuple append only) ------

    def send_post(self, t: float, dst: int, tag: int, nbytes: float,
                  outbox: int, posted: int, unexpected: int) -> None:
        key = (dst, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        self.events.append(("send", t, dst, tag, nbytes, seq, outbox,
                            posted, unexpected))

    def recv_post(self, t: float, src: int, tag: int, posted: int,
                  unexpected: int) -> None:
        self.events.append(("recv", t, src, tag, posted, unexpected))

    def match(self, t: float, src: int, tag: int) -> None:
        key = (src, tag)
        seq = self._match_seq.get(key, 0)
        self._match_seq[key] = seq + 1
        self.events.append(("match", t, src, tag, seq))

    def drain(self, t: float, src: int, tag: int) -> None:
        self.events.append(("drain", t, src, tag))

    # --- serialisation ------------------------------------------------

    @staticmethod
    def _event_json(ev) -> Dict[str, Any]:
        """Expand a hot-path tuple event into its JSONL dict form."""
        if isinstance(ev, dict):        # span (mutated by span_close)
            return ev
        kind = ev[0]
        if kind == "send":
            _, t, dst, tag, nbytes, seq, outbox, posted, unexpected = ev
            return {"ev": "post", "kind": "send", "t": t, "peer": dst,
                    "tag": tag, "nbytes": nbytes, "seq": seq,
                    "outbox": outbox, "posted": posted,
                    "unexpected": unexpected}
        if kind == "recv":
            _, t, src, tag, posted, unexpected = ev
            return {"ev": "post", "kind": "recv", "t": t, "peer": src,
                    "tag": tag, "posted": posted,
                    "unexpected": unexpected}
        if kind == "match":
            _, t, src, tag, seq = ev
            return {"ev": "match", "t": t, "peer": src, "tag": tag,
                    "seq": seq}
        if kind == "drain":
            _, t, src, tag = ev
            return {"ev": "drain", "t": t, "peer": src, "tag": tag}
        if kind == "mark":
            _, t, label = ev
            return {"ev": "mark", "t": t, "label": label}
        raise ValueError(f"unknown event tuple {ev!r}")

    def header(self) -> Dict[str, Any]:
        clock = (self.clock_estimate.to_json()
                 if self.clock_estimate is not None
                 else ClockEstimate(0.0, 0.0, 0).to_json())
        return {"ev": "header", "version": TRACE_VERSION,
                "rank": self.rank, "nranks": self.nranks,
                "transport": self.transport, "clock": clock}

    def dump_jsonl(self, path: str) -> str:
        """Write header + events as JSON Lines (atomic rename)."""
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            f.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for ev in self.events:
                f.write(json.dumps(self._event_json(ev), sort_keys=True,
                                   default=str) + "\n")
        os.replace(tmp, path)
        return path


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
    carries the per-rank :class:`ClockEstimate` in ``clocks`` and the
    raw per-rank event lists in ``rank_events``.
    """

    def __init__(self, ranks: Sequence[int],
                 clocks: Dict[int, ClockEstimate],
                 spans: List[SpanRecord],
                 marks: List[Tuple[float, int, str]],
                 messages: List[MessageRecord],
                 rank_events: Dict[int, List[Dict[str, Any]]]):
        super().__init__()
        self.ranks = sorted(ranks)
        self.clocks = clocks
        self.spans = spans
        self.marks = marks
        self.messages = messages
        self.rank_events = rank_events

    def max_uncertainty_s(self) -> float:
        """The worst per-rank clock-alignment error bound."""
        if not self.clocks:
            return 0.0
        return max(c.uncertainty_s for c in self.clocks.values())

    def __repr__(self) -> str:
        return (f"RuntimeTrace(ranks={self.ranks}, "
                f"{len(self.spans)} spans, {len(self.messages)} "
                f"messages, +-{self.max_uncertainty_s() * 1e6:.0f}us)")


def _parse_jsonl(source) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """``(header, events)`` from a path or an iterable of JSON lines."""
    if isinstance(source, str):
        with open(source) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    else:
        lines = [ln for ln in source if ln.strip()]
    if not lines:
        raise ValueError("empty rank trace")
    header = json.loads(lines[0])
    if header.get("ev") != "header":
        raise ValueError("rank trace does not start with a header line")
    if header.get("version") != TRACE_VERSION:
        raise ValueError(
            f"rank trace version {header.get('version')!r} != "
            f"{TRACE_VERSION}")
    return header, [json.loads(ln) for ln in lines[1:]]


def merge_rank_traces(sources: Sequence[Any]) -> RuntimeTrace:
    """Merge per-rank JSONL traces onto the reference rank's timeline.

    ``sources`` are file paths (or iterables of JSON lines) in any
    order.  Every timestamp is rebased by the rank's recorded clock
    offset; send posts are joined with matches on ``(src, dst, tag,
    seq)`` and recv posts attached by per-key FIFO position.  The
    result is a pure function of the inputs — no wall clock, no dict
    iteration ambiguity — so merging the same files twice yields
    byte-identical exports.
    """
    parsed = []
    for src in sources:
        header, events = _parse_jsonl(src)
        parsed.append((int(header["rank"]), header, events))
    parsed.sort(key=lambda x: x[0])
    ranks = [r for r, _, _ in parsed]
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate ranks in trace set: {ranks}")

    clocks: Dict[int, ClockEstimate] = {}
    spans: List[SpanRecord] = []
    marks: List[Tuple[float, int, str]] = []
    rank_events: Dict[int, List[Dict[str, Any]]] = {}
    #: (src, dst, tag) -> seq -> {"t": aligned send post, "nbytes": ...}
    sends: Dict[Tuple[int, int, int], Dict[int, Dict[str, float]]] = {}
    #: (dst, src, tag) -> FIFO of aligned recv-post times
    recv_posts: Dict[Tuple[int, int, int], List[float]] = {}
    #: (dst, src, tag) -> list of (seq, aligned match time)
    matches: Dict[Tuple[int, int, int], List[Tuple[int, float]]] = {}

    for rank, header, events in parsed:
        clock = ClockEstimate.from_json(header["clock"])
        clocks[rank] = clock
        off = clock.offset_s
        rank_events[rank] = events
        for ev in events:
            kind = ev["ev"]
            if kind == "span":
                t1 = ev["t1"]
                spans.append(SpanRecord(
                    rank=rank, label=ev["label"],
                    phase=ev.get("phase", ""),
                    t_start=ev["t0"] + off,
                    t_end=(t1 + off) if t1 is not None else math.nan,
                    depth=ev.get("depth", 0),
                    attrs=ev.get("attrs")))
            elif kind == "mark":
                marks.append((ev["t"] + off, rank, ev["label"]))
            elif kind == "post":
                if ev["kind"] == "send":
                    key = (rank, ev["peer"], ev["tag"])
                    sends.setdefault(key, {})[ev["seq"]] = {
                        "t": ev["t"] + off, "nbytes": ev["nbytes"]}
                else:
                    key = (rank, ev["peer"], ev["tag"])
                    recv_posts.setdefault(key, []).append(ev["t"] + off)
            elif kind == "match":
                key = (rank, ev["peer"], ev["tag"])
                matches.setdefault(key, []).append(
                    (ev["seq"], ev["t"] + off))
            # "drain" events stay available through rank_events

    messages: List[MessageRecord] = []
    for key in sorted(matches):
        dst, src, tag = key
        posts = recv_posts.get(key, [])
        for i, (seq, t_match) in enumerate(matches[key]):
            send = sends.get((src, dst, tag), {}).get(seq)
            messages.append(MessageRecord(
                src=src, dst=dst, tag=tag,
                nbytes=send["nbytes"] if send else 0.0,
                t_send_post=send["t"] if send else math.nan,
                t_recv_post=posts[i] if i < len(posts) else math.nan,
                t_match=t_match, t_complete=t_match))
    # sends the receiver never matched (e.g. a hang snapshot): keep them
    # as half-open records so forensics can see them
    for (src, dst, tag), by_seq in sorted(sends.items()):
        n_matched = len(matches.get((dst, src, tag), []))
        for seq in sorted(by_seq):
            if seq >= n_matched:
                messages.append(MessageRecord(
                    src=src, dst=dst, tag=tag,
                    nbytes=by_seq[seq]["nbytes"],
                    t_send_post=by_seq[seq]["t"]))
    messages.sort(key=lambda m: (m.t_match if not math.isnan(m.t_match)
                                 else math.inf, m.src, m.dst, m.tag))
    marks.sort(key=lambda x: (x[0], x[1]))
    spans.sort(key=lambda s: (s.t_start, s.rank, s.depth))
    return RuntimeTrace(ranks=ranks, clocks=clocks, spans=spans,
                        marks=marks, messages=messages,
                        rank_events=rank_events)
