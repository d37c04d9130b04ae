"""``repro.obs`` — the observability layer of the reproduction.

One namespace gathering everything needed to see *where time goes* in a
collective, simulated or on real processes — the measurement substrate
the paper's section 6 heuristics and Table 2 conflict analysis rest on:

* **channel metrics** (:mod:`repro.obs.metrics`) — per-channel/per-port
  busy time, bytes, peak concurrency and time-weighted sharing factor,
  collected passively by the fluid network and exposed as
  ``RunResult.channel_metrics``;
* **one trace model** (:mod:`repro.obs.trace`) — the
  :class:`~repro.obs.trace.Tracer` of message, stage-span, mark and
  fault records that both backends fill: the hybrid collectives
  (section 5's compositions included) wrap every dimension/stage
  (scatter, MST kernel, collect, ...) in enter/exit
  :class:`~repro.obs.trace.SpanRecord`, so a run
  decomposes into the paper's alpha/beta/gamma stages instead of a flat
  message soup;
* **critical path** (:mod:`repro.analysis.critpath`) — the longest
  dependency chain of rendezvous -> completion edges, with attributed
  alpha/beta time per hop;
* **trace export** (:func:`repro.obs.trace.chrome_trace`) — Chrome
  ``chrome://tracing`` / Perfetto JSON in one per-rank layout for
  simulated and real runs, via ``python -m repro.analysis.report
  --trace ...``;
* **runtime tracing** (:mod:`repro.obs.runtime`) — per-rank wall-clock
  collectors on real processes, clock alignment, and the merge into a
  :class:`~repro.obs.runtime.RuntimeTrace` (a ``Tracer``);
* **model audit** (:mod:`repro.obs.audit`) — predicted-vs-measured cost
  tracking for ``algorithm="auto"`` dispatch (``RunResult.audit``), the
  conflict-freedom verifier for the four building blocks, and
  alpha/beta drift detection; the selection-regret sweep lives in
  :mod:`repro.analysis.audit` (``python -m repro.analysis.report
  --audit``).

Everything is zero-cost when disabled and strictly passive when
enabled: the golden-equivalence corpus is bit-identical with
instrumentation off and on.  See ``docs/observability.md``.

Submodules of :mod:`repro.sim` import :mod:`repro.obs.metrics` and
:mod:`repro.obs.trace` (both stdlib-only) directly; this facade
therefore resolves its analysis/audit/runtime re-exports lazily
(PEP 562) so the packages never form an import cycle and rank processes
stay light.
"""

from __future__ import annotations

from .metrics import (ChannelStats, ResourceMetrics, busiest, channels_only,
                      total_contention)
from .trace import (FaultRecord, MessageRecord, SpanRecord, Tracer,
                    chrome_trace, write_chrome_trace)

#: facade name -> (module, attribute)
_LAZY = {
    "CritSpan": ("repro.analysis.critpath", "CritSpan"),
    "critical_path": ("repro.analysis.critpath", "critical_path"),
    "critical_path_summary": ("repro.analysis.critpath",
                              "critical_path_summary"),
    # model-audit observatory (lazy: repro.obs.audit pulls in sim/core)
    "RunAudit": ("repro.obs.audit", "RunAudit"),
    "OpAudit": ("repro.obs.audit", "OpAudit"),
    "audit_run": ("repro.obs.audit", "audit_run"),
    "ConflictVerdict": ("repro.obs.audit", "ConflictVerdict"),
    "ChannelShare": ("repro.obs.audit", "ChannelShare"),
    "FlowShare": ("repro.obs.audit", "FlowShare"),
    "contended_channels": ("repro.obs.audit", "contended_channels"),
    "verify_building_blocks": ("repro.obs.audit", "verify_building_blocks"),
    "run_block_primitive": ("repro.obs.audit", "run_block_primitive"),
    "BUILDING_BLOCKS": ("repro.obs.audit", "BUILDING_BLOCKS"),
    "DriftReport": ("repro.obs.audit", "DriftReport"),
    "fit_drift": ("repro.obs.audit", "fit_drift"),
    "drift_from_runs": ("repro.obs.audit", "drift_from_runs"),
    # runtime (real-process) tracing: per-rank wall-clock collector,
    # clock alignment, merged multi-process trace
    # (lazy so `import repro.obs` stays light inside rank processes)
    "RuntimeTracer": ("repro.obs.runtime", "RuntimeTracer"),
    "RuntimeTrace": ("repro.obs.runtime", "RuntimeTrace"),
    "ClockEstimate": ("repro.obs.runtime", "ClockEstimate"),
    "estimate_clock_offset": ("repro.obs.runtime",
                              "estimate_clock_offset"),
    "sync_clocks": ("repro.obs.runtime", "sync_clocks"),
    "merge_rank_traces": ("repro.obs.runtime", "merge_rank_traces"),
}

__all__ = [
    "ChannelStats", "ResourceMetrics", "busiest", "channels_only",
    "total_contention",
    "FaultRecord", "MessageRecord", "SpanRecord", "Tracer",
    "chrome_trace", "write_chrome_trace",
    *_LAZY,
]


def __getattr__(name: str):
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    value = getattr(importlib.import_module(module), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
