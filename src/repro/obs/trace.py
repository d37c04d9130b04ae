"""The one trace model of both backends, and its Chrome exporter.

A :class:`Tracer` holds:

* one :class:`MessageRecord` per point-to-point message — the Figure 1
  style step-by-step tables, the critical path and the conflict-model
  tests read these;
* :class:`SpanRecord` enter/exit spans — the hybrid collectives (and so
  section 5's compositions, their one-dimension case) wrap each
  dimension/stage (scatter, MST kernel, collect, ...) in spans, so a run decomposes into the paper's alpha/beta/gamma
  stages instead of a flat message soup (see docs/observability.md);
* zero-cost ``mark`` annotations and injected-fault records.

The simulator fills a :class:`Tracer` directly as it runs; on the
process backend each rank fills a
:class:`~repro.obs.runtime.RuntimeTracer` (a subclass) on its own wall
clock, and the parent merges them into
:class:`~repro.obs.runtime.RuntimeTrace`, a subclass that adds the
per-rank clock estimates.  Either one exports to the Chrome
``chrome://tracing`` / Perfetto JSON format with :func:`chrome_trace` /
:func:`write_chrome_trace` in one layout.

Stdlib only: rank processes import this module, and the process
backend must not load the simulator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: relative tolerance under which two rendezvous times are considered
#: the same "step": float noise from the fluid model's settle/eta
#: arithmetic can split one logical round into several by ~1e-15.
_STEP_RTOL = 1e-9


@dataclass
class MessageRecord:
    """Lifecycle of one point-to-point message."""

    src: int
    dst: int
    tag: int
    nbytes: float
    t_send_post: float = math.nan   #: sender posted the send
    t_recv_post: float = math.nan   #: receiver posted the recv
    t_match: float = math.nan       #: rendezvous (both sides present)
    t_complete: float = math.nan    #: last byte delivered

    @property
    def duration(self) -> float:
        """Transfer time from rendezvous to completion (includes alpha)."""
        return self.t_complete - self.t_match

    @property
    def wait_time(self) -> float:
        """Time the earlier party waited for the later one.

        NaN when either side never posted — Python's ``min`` would
        otherwise return a finite value or NaN depending on argument
        order (NaN comparisons are False), silently mislabelling
        half-posted messages.
        """
        if math.isnan(self.t_send_post) or math.isnan(self.t_recv_post):
            return math.nan
        return self.t_match - min(self.t_send_post, self.t_recv_post)


@dataclass
class SpanRecord:
    """One enter/exit interval of a collective stage on one rank.

    ``phase`` is the stage family (``"scatter"``, ``"kernel"``,
    ``"collect"``, ``"reduce-scatter"``, ``"gather"``, or ``"op"`` for
    the whole-collective span); ``attrs`` carries stage metadata such
    as the resolved strategy string or the stage's dimension extent.
    ``depth`` is the nesting level on this rank (op span = 0).
    """

    rank: int
    label: str
    phase: str = ""
    t_start: float = math.nan
    t_end: float = math.nan
    depth: int = 0
    attrs: Optional[Dict[str, object]] = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def closed(self) -> bool:
        return not math.isnan(self.t_end)


@dataclass
class FaultRecord:
    """One injected fault event (docs/robustness.md).

    Fault records are observational: they do not enter the golden trace
    serialization, so fault-free traced runs are unaffected.
    """

    t: float
    kind: str     #: "link-fault" | "link-restore" | "link-slowdown" | ...
    detail: str


class Tracer:
    """Accumulates message, span, mark and fault records during one run."""

    #: ranks that get a track in the Chrome export even if they own no
    #: record (a merged runtime trace lists every traced rank)
    ranks: Sequence[int] = ()
    #: per-rank clock-alignment estimates (``probes``,
    #: ``uncertainty_s``); empty when every rank reads one clock
    clocks: Mapping[int, Any] = {}

    def __init__(self) -> None:
        self.messages: List[MessageRecord] = []
        self.marks: List[Tuple[float, int, str]] = []
        self.spans: List[SpanRecord] = []
        self.faults: List[FaultRecord] = []
        self._depth: Dict[int, int] = {}

    def message(self, rec: MessageRecord) -> None:
        self.messages.append(rec)

    def mark(self, time: float, rank: int, label: str) -> None:
        """User-level annotation (e.g. 'stage 2: MST bcast')."""
        self.marks.append((time, rank, label))

    def fault(self, time: float, kind: str, detail: str) -> None:
        """Record an injected fault event (engine callback)."""
        self.faults.append(FaultRecord(t=time, kind=kind, detail=detail))

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def span_open(self, time: float, rank: int, label: str,
                  phase: str = "",
                  attrs: Optional[Dict[str, object]] = None) -> SpanRecord:
        """Open a stage span on ``rank``; close with :meth:`span_close`.

        Purely observational: records carry no simulated cost and do
        not enter the golden trace serialization.
        """
        depth = self._depth.get(rank, 0)
        self._depth[rank] = depth + 1
        span = SpanRecord(rank=rank, label=label, phase=phase,
                          t_start=time, depth=depth, attrs=attrs)
        self.spans.append(span)
        return span

    def span_close(self, span: SpanRecord, time: float) -> None:
        span.t_end = time
        self._depth[span.rank] = max(self._depth.get(span.rank, 1) - 1, 0)

    def spans_of(self, rank: int) -> List[SpanRecord]:
        return [s for s in self.spans if s.rank == rank]

    def closed_spans(self) -> List[SpanRecord]:
        return [s for s in self.spans if s.closed]

    def spans_by_phase(self, phase: str) -> List[SpanRecord]:
        """All closed spans of one stage family, record order."""
        return [s for s in self.spans if s.phase == phase and s.closed]

    def op_spans(self) -> List[SpanRecord]:
        """The whole-collective spans, record order.

        One per rank per collective; the span's ``attrs`` carry the
        resolved strategy and — for ``algorithm="auto"`` dispatches on a
        traced run — the Selector's prediction record (``predicted_cost``,
        ``predicted_conflicts``, ``selector_candidates``, ...) that the
        audit layer (:mod:`repro.obs.audit`) reads back.
        """
        return self.spans_by_phase("op")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def completed(self) -> List[MessageRecord]:
        return [m for m in self.messages if not math.isnan(m.t_complete)]

    def between(self, src: int, dst: int) -> List[MessageRecord]:
        return [m for m in self.messages if m.src == src and m.dst == dst]

    def total_bytes(self) -> float:
        return sum(m.nbytes for m in self.messages)

    def message_count(self) -> int:
        return len(self.messages)

    def by_completion(self) -> List[MessageRecord]:
        return sorted(self.completed(), key=lambda m: (m.t_complete, m.src))

    def step_table(self, time_quantum: Optional[float] = None
                   ) -> List[Tuple[int, List[MessageRecord]]]:
        """Group messages into rounds by rendezvous time.

        Messages whose ``t_match`` fall within the same quantum are one
        "step" (like the rows of Figure 1 in the paper).  When
        ``time_quantum`` is None, match times equal within a small
        relative tolerance define steps — exact-equality grouping would
        split one logical round into several whenever the fluid model's
        settle/eta arithmetic leaves ~1e-15 of float noise between
        same-round rendezvous.
        """
        recs = sorted(self.completed(), key=lambda m: (m.t_match, m.src))
        steps: List[Tuple[int, List[MessageRecord]]] = []
        cur_key: Optional[float] = None
        cur: List[MessageRecord] = []
        for m in recs:
            if time_quantum is None:
                same = (cur_key is not None
                        and m.t_match - cur_key
                        <= _STEP_RTOL * max(1.0, abs(cur_key)))
                key = m.t_match
            else:
                key = math.floor(m.t_match / time_quantum)
                same = cur_key is not None and key == cur_key
            if not same:
                if cur:
                    steps.append((len(steps) + 1, cur))
                cur = []
                cur_key = key
            cur.append(m)
        if cur:
            steps.append((len(steps) + 1, cur))
        return steps

    def render_steps(self) -> str:
        """Human-readable Figure-1-style step listing."""
        lines = []
        for step, recs in self.step_table():
            heads = ", ".join(f"{m.src}->{m.dst} ({m.nbytes:g}B)"
                              for m in recs)
            lines.append(f"step {step} @t={recs[0].t_match:g}: {heads}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome-trace (Perfetto) export: one process track per rank
# ----------------------------------------------------------------------

#: thread id of the stage/span lane inside each rank's process track
_TID_SPANS = 0
#: thread id of the message-transfer lane inside each rank's track
_TID_MESSAGES = 1


def chrome_trace(tracer: Tracer, timescale: float = 1e6) -> Dict:
    """Convert a trace into the Chrome Trace Event JSON format.

    The result can be dumped with :func:`write_chrome_trace` and opened
    in ``chrome://tracing`` or https://ui.perfetto.dev.  Layout, the
    same for a simulated and a merged runtime trace:

    * **one process track per rank** (pid = rank, named with the rank's
      clock-alignment uncertainty when it has one), with a ``stages``
      thread carrying the nested collective spans and marks and a
      ``messages`` thread carrying transfers;
    * the sender's slice runs from its send post to ``t_complete``, the
      receiver's from ``min(recv post, t_complete)`` to ``t_complete``;
    * a **flow arrow** (``ph: "s"`` at the send post, ``ph: "f"`` at
      ``t_complete``) joins the two across rank tracks for every
      cross-rank message;
    * injected faults are global instants.

    ``timescale`` converts trace seconds to the format's microsecond
    timestamps; with sub-microsecond simulated times (the UNIT model)
    raise it so slices stay visible.
    """
    completed = tracer.completed()
    ranks = set(tracer.ranks)
    ranks.update(s.rank for s in tracer.spans if s.closed)
    ranks.update(rank for _, rank, _ in tracer.marks)
    for m in completed:
        ranks.update((m.src, m.dst))
    events: List[Dict] = []
    for rank in sorted(ranks):
        clock = tracer.clocks.get(rank)
        unc = (f" (±{clock.uncertainty_s * 1e6:.0f}us)"
               if clock is not None and clock.probes else "")
        events.append({"ph": "M", "pid": rank, "name": "process_name",
                       "args": {"name": f"rank {rank}{unc}"}})
        events.append({"ph": "M", "pid": rank, "tid": _TID_SPANS,
                       "name": "thread_name",
                       "args": {"name": "stages"}})
        events.append({"ph": "M", "pid": rank, "tid": _TID_MESSAGES,
                       "name": "thread_name",
                       "args": {"name": "messages"}})
    for s in tracer.spans:
        if not s.closed:
            continue
        ev = {"name": s.label, "cat": s.phase or "span", "ph": "X",
              "ts": s.t_start * timescale,
              "dur": max(s.t_end - s.t_start, 0.0) * timescale,
              "pid": s.rank, "tid": _TID_SPANS}
        if s.attrs:
            ev["args"] = {k: str(v) for k, v in s.attrs.items()}
        events.append(ev)
    for t, rank, label in tracer.marks:
        events.append({"name": label, "cat": "mark", "ph": "i",
                       "ts": t * timescale, "pid": rank,
                       "tid": _TID_SPANS, "s": "t"})
    for fr in tracer.faults:
        # global instants: faults hit the machine, not one rank
        events.append({"name": f"{fr.kind}: {fr.detail}", "cat": "fault",
                       "ph": "i", "ts": fr.t * timescale,
                       "pid": 0, "tid": _TID_SPANS, "s": "g"})
    flow_id = 0
    for m in completed:
        name = f"{m.src}->{m.dst}"
        args = {"nbytes": m.nbytes, "tag": m.tag}
        if not math.isnan(m.t_send_post):
            events.append({
                "name": name, "cat": "message", "ph": "X",
                "ts": m.t_send_post * timescale,
                "dur": max(m.t_complete - m.t_send_post, 0.0) * timescale,
                "pid": m.src, "tid": _TID_MESSAGES, "args": args})
        t_wait = (m.t_recv_post if not math.isnan(m.t_recv_post)
                  else m.t_complete)
        t_wait = min(t_wait, m.t_complete)
        events.append({
            "name": f"recv {name}", "cat": "message", "ph": "X",
            "ts": t_wait * timescale,
            "dur": (m.t_complete - t_wait) * timescale,
            "pid": m.dst, "tid": _TID_MESSAGES, "args": args})
        if not math.isnan(m.t_send_post) and m.src != m.dst:
            events.append({"name": "msg", "cat": "flow", "ph": "s",
                           "id": flow_id,
                           "ts": m.t_send_post * timescale,
                           "pid": m.src, "tid": _TID_MESSAGES})
            events.append({"name": "msg", "cat": "flow", "ph": "f",
                           "bp": "e", "id": flow_id,
                           "ts": m.t_complete * timescale,
                           "pid": m.dst, "tid": _TID_MESSAGES})
            flow_id += 1
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str,
                       timescale: float = 1e6) -> str:
    """Write the Chrome-trace JSON for ``tracer`` to ``path``."""
    with open(path, "w") as f:
        json.dump(chrome_trace(tracer, timescale=timescale), f,
                  sort_keys=True)
        f.write("\n")
    return path
