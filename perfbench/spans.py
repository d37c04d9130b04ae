"""In-memory span tracer that wraps the library's public callables.

The benchmark never edits the library: :meth:`Tracer.install` replaces a
fixed list of module- and class-level callables with wrappers that
record ``(id, name, start, end, parent, value, rank)`` tuples, and
:meth:`Tracer.uninstall` puts the originals back.  Spans stay in memory
until :meth:`Tracer.write` dumps them once, at the end of a run.

Rank processes of the process backend are forked from the benchmark
process, so they inherit the wrappers.  Each rank records its own spans
and ships them back inside its program's return value; the
``ProcessMachine.run`` wrapper takes them out again before the caller
sees the result, and re-parents each rank's root span under the
``launch.run`` span that started it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

from repro.core.protocol import payload_nbytes

#: key under which a rank ships its spans back inside a dict result
RANK_SPANS_KEY = "_perfbench_spans"

#: (module, class or None, attribute, span name) of every plain wrapper
TARGETS = (
    ("repro.core.context", "CollContext", "__init__", "core.context"),
    ("repro.core.api", None, "classify", "core.classify"),
    ("repro.core.groups", None, "classify", "core.classify"),
    ("repro.core.api", None, "resolve_strategy", "core.resolve"),
    ("repro.core.selection", "Selector", "best", "core.select"),
    ("repro.core.selection", "Selector", "ranked", "core.select"),
    ("repro.sim.network", "FluidNetwork", "start_flow", "network"),
    ("repro.sim.network", "FluidNetwork", "fire_completion", "network"),
    ("repro.sim.machine", "Machine", "run", "engine.run"),
    ("repro.runtime.transport", "RankTransport", "recv_any",
     "transport.recv_any"),
    ("repro.service.core", "ServiceCore", "submit", "service.submit"),
    ("repro.service.core", "ServiceCore", "tick", "service.tick"),
    ("repro.service.traffic", None, "run_workload", "service.plan"),
    ("repro.service.execute", None, "execute_plan", "service.execute"),
)

CORE_SETUP = ("core.context", "core.classify", "core.resolve")

#: unit of every per-layer figure :func:`layer_metrics` returns, plus
#: the traced run's own overhead
UNITS = {
    "core.calls": "count", "core.setup_us": "us", "core.select_us": "us",
    "core.select_calls": "count", "core.setup_share": "ratio",
    "engine.events": "count", "engine.messages": "count",
    "engine.self_s": "s", "engine.us_per_event": "us",
    "network.flows": "count", "network.recomputations": "count",
    "network.busy_s": "s", "network.us_per_recompute": "us",
    "network.share": "ratio",
    "launch.spawn_ms": "ms",
    "transport.sends": "count", "transport.bytes": "B",
    "transport.send_us": "us", "transport.recv_wait_us": "us",
    "transport.send_GBps": "GB/s",
    "service.plan_ms": "ms", "service.execute_ms": "ms",
    "service.submit_us": "us", "service.tick_us": "us",
    "service.batches": "count", "service.fusion_ratio": "ratio",
    "service.admitted_ratio": "ratio",
    "trace.overhead": "%",
}


def _owner(module: str, cls):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class _TimedConn:
    """A rank's connection to one peer, timing every frame it writes."""

    def __init__(self, conn, tracer: "Tracer"):
        self._conn = conn
        self._tracer = tracer

    def send(self, frame) -> None:
        t0 = perf_counter()
        self._conn.send(frame)
        self._tracer.record("transport.wire", t0, perf_counter(),
                            value=payload_nbytes(frame[1]))

    def __getattr__(self, name):
        return getattr(self._conn, name)


class Tracer:
    """Spans of one run, and the wrappers that record them."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    # --- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, t0, t1, parent=-1, value=0.0, sid=None):
        if sid is None:
            sid = next(self._ids)
        self.spans.append((sid, name, t0, t1, parent, value, -1))
        return sid

    def wrap(self, fn, name, value_of=None, after=None):
        """``fn`` recording a span; ``value_of(args, kwargs)`` gives the
        span's value and ``after(result, span_id)`` sees each result."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                value = value_of(args, kwargs) if value_of else 0.0
                tracer.spans.append((sid, name, t0, t1, parent, value, -1))
            if after is not None:
                after(result, sid)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installing -----------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target; must run before a ``ProcessMachine`` forks."""
        if self._saved:
            return
        for module, cls, attr, name in TARGETS:
            owner = _owner(module, cls)
            self._patch(owner, attr, self.wrap(getattr(owner, attr), name))
        transport = _owner("repro.runtime.transport", "RankTransport")
        self._patch(transport, "send", self.wrap(
            transport.send, "transport.send",
            lambda a, k: k.get("nbytes", a[4] if len(a) > 4 else 0.0)))
        self._patch(transport, "__init__",
                    self._transport_init(transport.__init__))
        launch = importlib.import_module("repro.runtime.launch")
        self._patch(launch, "drive", self._rank_drive(launch.drive))
        machine = launch.ProcessMachine
        self._patch(machine, "run", self._launch_run(machine.run))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- process-backend wrappers ---------------------------------------

    def _transport_init(self, init):
        tracer = self

        def traced_init(transport, rank, nranks, conns):
            init(transport, rank, nranks, conns)
            # only the writer thread sends through _conns; receiving
            # keeps using the raw connections
            transport._conns = {peer: _TimedConn(c, tracer)
                                for peer, c in transport._conns.items()}

        return traced_init

    def _rank_drive(self, drive):
        tracer = self

        def traced_drive(env, program, *args, **kwargs):
            # runs in a forked rank: drop the spans and the call stack
            # inherited from the parent and record this rank's own
            tracer.spans = []
            tracer._local = threading.local()
            sid = next(tracer._ids)
            tracer._stack().append(sid)
            t0 = perf_counter()
            value = drive(env, program, *args, **kwargs)
            tracer._stack().pop()
            tracer.record("rank.program", t0, perf_counter(), sid=sid)
            if isinstance(value, dict):
                # the live list: it is pickled only after the transport
                # flushed, so the writer thread's last frames are in it
                value[RANK_SPANS_KEY] = tracer.spans
            return value

        return traced_drive

    def _launch_run(self, run):
        def adopt(result, sid):
            for rank, value in enumerate(result.results):
                if isinstance(value, dict) and RANK_SPANS_KEY in value:
                    self._adopt(value.pop(RANK_SPANS_KEY), rank, sid)

        return self.wrap(run, "launch.run", after=adopt)

    def _adopt(self, rank_spans, rank: int, launch_sid: int) -> None:
        """Merge one rank's spans, renumbered, under ``launch_sid``."""
        ids = {s[0]: next(self._ids) for s in rank_spans}
        for sid, name, t0, t1, parent, value, _ in rank_spans:
            parent = ids.get(parent, launch_sid)
            self.spans.append((ids[sid], name, t0, t1, parent, value, rank))

    # --- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, value, rank in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "rank": rank, "value": value}))
                fh.write("\n")


def layer_metrics(spans, ops: int, counts: dict) -> dict:
    """Per-op per-layer figures from one run's spans.

    ``counts`` holds totals the workload took from the library's own
    results (engine events, network flows, service plans); spans give
    times.  A layer the workload never reached reports 0.
    """
    ops = max(ops, 1)
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, name, t0, t1, parent, value, rank in spans:
        if parent in by_id:
            child_time[parent] += t1 - t0
    n = defaultdict(int)
    total = defaultdict(float)      # inclusive seconds
    self_s = defaultdict(float)     # exclusive seconds
    value = defaultdict(float)
    for sid, name, t0, t1, parent, v, rank in spans:
        if name == "core.select" and parent in by_id and \
                by_id[parent][1] == "core.select":
            continue                # best() -> ranked(): one Selector call
        n[name] += 1
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child_time[sid]
        value[name] += v

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    core_calls = sum(n[k] for k in CORE_SETUP)
    core_self = sum(self_s[k] for k in CORE_SETUP)
    core_s = core_self + total["core.select"]
    program_s = total["engine.run"] + total["rank.program"]
    rank_program = defaultdict(float)   # launch span -> slowest rank
    for sid, name, t0, t1, parent, v, rank in spans:
        if name == "rank.program":
            rank_program[parent] = max(rank_program[parent], t1 - t0)
    spawn = [t1 - t0 - rank_program[sid]
             for sid, name, t0, t1, parent, v, rank in spans
             if name == "launch.run"]
    c = defaultdict(float, counts)
    return {
        "core.calls": per(core_calls, ops),
        "core.setup_us": per(core_self, core_calls, 1e6),
        "core.select_us": per(total["core.select"], n["core.select"], 1e6),
        "core.select_calls": per(n["core.select"], ops),
        "core.setup_share": per(core_s, program_s),
        "engine.events": per(c["events"], ops),
        "engine.messages": per(c["messages"], ops),
        "engine.self_s": per(self_s["engine.run"], ops),
        "engine.us_per_event": per(self_s["engine.run"], c["events"], 1e6),
        "network.flows": per(c["flows"], ops),
        "network.recomputations": per(c["recomputations"], ops),
        "network.busy_s": per(total["network"], ops),
        "network.us_per_recompute": per(total["network"],
                                        c["recomputations"], 1e6),
        "network.share": per(total["network"], total["engine.run"]),
        "launch.spawn_ms": per(sum(spawn), len(spawn), 1e3),
        "transport.sends": per(n["transport.send"], ops),
        "transport.bytes": per(value["transport.send"], ops),
        "transport.send_us": per(total["transport.send"],
                                 n["transport.send"], 1e6),
        "transport.recv_wait_us": per(total["transport.recv_any"],
                                      n["transport.recv_any"], 1e6),
        "transport.send_GBps": per(value["transport.wire"],
                                   total["transport.wire"], 1e-9),
        "service.plan_ms": per(total["service.plan"], n["service.plan"],
                               1e3),
        "service.execute_ms": per(total["service.execute"],
                                  n["service.execute"], 1e3),
        "service.submit_us": per(total["service.submit"],
                                 n["service.submit"], 1e6),
        "service.tick_us": per(total["service.tick"], n["service.tick"],
                               1e6),
        "service.batches": per(c["batches"], ops),
        "service.fusion_ratio": per(c["fused"], c["dispatched"]),
        "service.admitted_ratio": per(c["submitted"] - c["rejected"],
                                      c["submitted"]),
    }
