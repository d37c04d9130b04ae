"""Critical-path extraction over the message-dependency graph.

A simulated collective is a DAG: each message's rendezvous depends on
both parties having reached their post, and a party reaches its post
only after its previous message completed.  The *critical path* is the
longest chain of rendezvous -> completion edges ending at the
last-completing message — the sequence of transfers that actually
bounds the run time.  Everything off this chain had slack.

The extraction walks backwards from the final message.  At each hop the
*late party* — the side whose post triggered the rendezvous (the sender
if ``t_send_post >= t_recv_post``, else the receiver) — is the rank
whose history gates progress, so the predecessor is the last completed
message involving that rank at or before the current rendezvous.  For
an MST broadcast this recovers exactly the root-to-deepest-leaf chain:
``ceil(log2 p)`` hops, each one tree level (the test suite pins this).

Each hop is attributed alpha/beta style, in the spirit of the paper's
``alpha + n beta`` cost model: ``alpha_time`` is the fixed per-message
latency (pass the machine's ``alpha``), ``beta_time`` the remaining
transfer time (bandwidth + any conflict stretch), and ``wait_time`` the
gap between the previous hop's completion and this rendezvous (compute,
software overhead, or waiting on the partner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from ..obs.trace import MessageRecord, Tracer


@dataclass(frozen=True)
class CritSpan:
    """One hop of the critical path."""

    src: int
    dst: int
    tag: int
    nbytes: float
    t_start: float          #: rendezvous time of this hop
    t_end: float            #: completion time of this hop
    wait_time: float        #: gap after the previous hop's completion
    alpha_time: float       #: attributed fixed latency
    beta_time: float        #: attributed bandwidth/conflict time

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __str__(self) -> str:
        return (f"{self.src}->{self.dst} [{self.t_start:g}, {self.t_end:g}] "
                f"{self.nbytes:g}B wait={self.wait_time:g}")


def _late_party(m: MessageRecord) -> int:
    """The rank whose post triggered the rendezvous."""
    if math.isnan(m.t_recv_post):
        return m.src
    if math.isnan(m.t_send_post):
        return m.dst
    return m.src if m.t_send_post >= m.t_recv_post else m.dst


def critical_path(tracer: Tracer, alpha: float = 0.0) -> List[CritSpan]:
    """The chain of messages that bounds the run time, earliest first.

    ``alpha`` — the machine's per-message latency, used only for the
    per-hop alpha/beta attribution (0 attributes every hop entirely to
    beta).  Returns [] for a run with no completed messages.
    """
    done = tracer.completed()
    if not done:
        return []
    # Walk back from the last completion.  Ties break on (src, dst) so
    # the path is deterministic across runs.
    cur = max(done, key=lambda m: (m.t_complete, m.src, m.dst))
    chain: List[MessageRecord] = [cur]
    for _ in range(len(done)):
        late = _late_party(cur)
        preds = [m for m in done
                 if m is not cur and (m.src == late or m.dst == late)
                 and m.t_complete <= cur.t_match]
        if not preds:
            break
        prev = max(preds, key=lambda m: (m.t_complete, m.src, m.dst))
        if prev.t_complete > cur.t_complete:
            break  # defensive: never walk forwards
        chain.append(prev)
        cur = prev
    chain.reverse()

    spans: List[CritSpan] = []
    prev_end = 0.0
    for m in chain:
        dur = m.t_complete - m.t_match
        a = min(alpha, dur) if alpha > 0 else 0.0
        spans.append(CritSpan(
            src=m.src, dst=m.dst, tag=m.tag, nbytes=m.nbytes,
            t_start=m.t_match, t_end=m.t_complete,
            wait_time=m.t_match - prev_end,
            alpha_time=a, beta_time=dur - a))
        prev_end = m.t_complete
    return spans


def critical_path_summary(spans: List[CritSpan]) -> Dict[str, float]:
    """Aggregate attribution of a critical path.

    ``coverage`` is the fraction of the path's end time spent inside
    its transfers (the rest is wait/compute gaps); a coverage near 1
    means the run is communication-bound along the path.
    """
    if not spans:
        return {"hops": 0, "time": 0.0, "alpha_time": 0.0,
                "beta_time": 0.0, "wait_time": 0.0, "bytes": 0.0,
                "coverage": 0.0}
    total = spans[-1].t_end
    alpha_t = sum(s.alpha_time for s in spans)
    beta_t = sum(s.beta_time for s in spans)
    wait_t = sum(s.wait_time for s in spans)
    return {
        "hops": len(spans),
        "time": total,
        "alpha_time": alpha_t,
        "beta_time": beta_t,
        "wait_time": wait_t,
        "bytes": sum(s.nbytes for s in spans),
        "coverage": (alpha_t + beta_t) / total if total > 0 else 0.0,
    }


def render_critical_path(spans: List[CritSpan]) -> str:
    """Human-readable listing, one hop per line plus a summary row."""
    if not spans:
        return "(empty critical path)"
    lines = [f"hop {i + 1}: {s}" for i, s in enumerate(spans)]
    summ = critical_path_summary(spans)
    lines.append(
        f"total {summ['time']:g} over {summ['hops']} hops: "
        f"alpha={summ['alpha_time']:g} beta={summ['beta_time']:g} "
        f"wait={summ['wait_time']:g} ({summ['coverage']:.0%} transfer)")
    return "\n".join(lines)
