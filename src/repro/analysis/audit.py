"""Selection-regret sweep: does the heuristic pick strategies that are
actually fast?

Section 6 of the paper chooses hybrids with "effective heuristics rather
than theoretically optimal methods"; the implicit claim is that the
alpha/beta/gamma model ranks candidates well enough that the chosen
strategy is (near-)optimal among them.  This sweep tests that claim
head-on, in the style of model-validation studies of collective
performance (LogP/PLogP fittings, Barchet-Estefanel & Mounié): for a
grid of (operation, group shape, vector length) cells it

1. prices **every** ranked candidate at the exact vector length,
2. *measures* every candidate (explicit ``algorithm=strategy``) with
   the backend's measure function — :func:`measure_sim` on the
   simulator, :func:`measure_runtime` on real processes — running the
   shared case program of :mod:`repro.chaos.oracles` and checking every
   candidate's payloads against its analytic oracle, so a fast but
   wrong strategy fails the gate and never counts as the best, and
3. reports two quantities per cell:

   * **model error** — predicted/measured ratio per strategy (how well
     the closed forms track the simulator), and
   * **selection regret** — measured time of the strategy that
     ``algorithm="auto"`` picks divided by the measured time of the true
     best candidate.  Regret 1.0 means the heuristic found the optimum;
     the CI gate fails when the median regret exceeds 1.05.

The simulator sweep also embeds the conflict-freedom verdicts of the four
building blocks (:func:`repro.obs.audit.verify_building_blocks`) and an
alpha/beta drift fit (:func:`repro.obs.audit.fit_drift`), producing one
self-contained ``AUDIT_model.json`` artifact::

    python -m repro.analysis.report --audit [--grid smoke|full]
        [--params paragon] [--out AUDIT_model.json] [--check]

``--backend runtime`` runs the same sweep on real processes under this
host's fitted profile (``AUDIT_runtime.json``); the chaos autopilot's
regret check is the same sweep again (:func:`audit_case`).

Group shapes deliberately include non-powers-of-two (p = 7, 12, 30) and
mesh-aligned groups (whole submeshes, rows, columns), where the
conflict factors and the (R + C - 2) alpha mesh refinements of section
7.1 actually bite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chaos.generator import ChaosCase
from ..chaos.oracles import make_program, mismatched_ranks

#: the default gate: median regret above this fails ``--check``
MAX_MEDIAN_REGRET = 1.05

#: sweep grids: cells are (operations x shapes x lengths).  Shapes are
#: ("line", p) for a p-node linear array, ("mesh", R, C) for a whole
#: R x C mesh, ("row", R, C) / ("col", R, C) for the middle row/column
#: group of an R x C mesh (the section 9 group cases).
SMOKE_GRID: Dict[str, tuple] = {
    "operations": ("bcast", "allreduce", "reduce_scatter"),
    "shapes": (("line", 7), ("line", 8), ("mesh", 3, 4)),
    "lengths": (64, 4096),
}
FULL_GRID: Dict[str, tuple] = {
    "operations": ("bcast", "reduce", "allreduce", "collect",
                   "reduce_scatter"),
    "shapes": (("line", 7), ("line", 8), ("line", 12), ("line", 30),
               ("mesh", 3, 4), ("mesh", 4, 4), ("row", 4, 5),
               ("col", 4, 5)),
    "lengths": (64, 1024, 16384),
}
GRIDS = {"smoke": SMOKE_GRID, "full": FULL_GRID}

#: runtime-backend sweep grids (real OS processes are ~1000x slower to
#: measure than simulated cells, so these stay small: every ranked
#: candidate of every cell is *executed*, repeatedly)
RUNTIME_SMOKE_GRID: Dict[str, tuple] = {
    "operations": ("bcast", "allreduce", "reduce_scatter"),
    "shapes": (("line", 4),),
    "lengths": (1024, 65536),
}
RUNTIME_FULL_GRID: Dict[str, tuple] = {
    "operations": ("bcast", "allreduce", "collect", "reduce_scatter"),
    "shapes": (("line", 4), ("line", 7)),
    "lengths": (1024, 65536),
}
RUNTIME_GRIDS = {"smoke": RUNTIME_SMOKE_GRID, "full": RUNTIME_FULL_GRID}

#: runtime regret gate: wall-clock measurements on a shared host are
#: noisy (scheduler jitter easily moves a single cell 20-30%), so the
#: real-process gate is looser than the simulator's 1.05
RUNTIME_MAX_MEDIAN_REGRET = 1.5

#: non-power-of-two group sizes the conflict-freedom section always
#: covers (the MST recursions and ring wrap are exactly where
#: power-of-two-only testing hides bugs)
CONFLICT_PS = (7, 12)


@dataclass(frozen=True)
class CandidateResult:
    """One strategy of one cell: predicted vs measured, oracle-checked."""

    strategy: str
    predicted: float
    measured: float
    #: member ranks whose payload violated the analytic oracle
    wrong_ranks: Tuple[int, ...] = ()

    @property
    def ratio(self) -> float:
        """Model error, predicted/measured (1.0 = perfect model)."""
        return self.predicted / self.measured if self.measured > 0 \
            else math.nan

    def to_json(self) -> Dict[str, object]:
        out = {"strategy": self.strategy, "predicted": self.predicted,
               "measured": self.measured,
               "ratio": None if math.isnan(self.ratio) else self.ratio}
        if self.wrong_ranks:
            out["wrong_ranks"] = list(self.wrong_ranks)
        return out


@dataclass(frozen=True)
class CellResult:
    """One (operation, shape, length) cell of the sweep."""

    operation: str
    shape: Tuple
    p: int
    n: int
    mesh_shape: Optional[Tuple[int, int]]
    chosen: str                 #: strategy auto dispatch resolves to
    best: str                   #: measured-fastest correct candidate
    chosen_measured: float
    best_measured: float
    candidates: Tuple[CandidateResult, ...]

    @property
    def regret(self) -> float:
        """Measured chosen / measured true-best (>= 1; 1 = optimal)."""
        return self.chosen_measured / self.best_measured \
            if self.best_measured > 0 else math.nan

    def to_json(self) -> Dict[str, object]:
        return {"operation": self.operation, "shape": list(self.shape),
                "p": self.p, "n": self.n,
                "mesh_shape": list(self.mesh_shape)
                if self.mesh_shape else None,
                "chosen": self.chosen, "best": self.best,
                "chosen_measured": self.chosen_measured,
                "best_measured": self.best_measured,
                "regret": None if math.isnan(self.regret) else self.regret,
                "candidates": [c.to_json() for c in self.candidates]}


def cell_case(operation: str, shape: Tuple, n: int) -> ChaosCase:
    """A sweep-grid cell as a fault-free float64 collective case.

    The case's ``params`` label is left empty: the measure function
    carries the backend's constants.
    """
    kind = shape[0]
    if kind == "line":
        topo, group = ("linear", shape[1]), None
    elif kind in ("mesh", "row", "col"):
        R, C = shape[1], shape[2]
        topo = ("mesh", R, C)
        group = {"mesh": None,
                 "row": tuple((R // 2) * C + c for c in range(C)),
                 "col": tuple(r * C + C // 2 for r in range(R))}[kind]
    else:
        raise KeyError(f"unknown sweep shape {shape!r}")
    return ChaosCase(topo=topo, params="", op=operation, n=n,
                     dtype="float64", group=group, profile="none")


def measure_sim(case: ChaosCase, algorithm, params):
    """Simulated ``(seconds, per-rank results)`` of one pinned strategy."""
    from ..sim.machine import Machine
    run = Machine(case.topology(), params).run(
        make_program(case, algorithm))
    return run.time, run.results


def measure_runtime(case: ChaosCase, algorithm, params, *,
                    transport: str = "local", reps: int = 3,
                    trials: int = 3, timeout: float = 120.0):
    """Wall ``(seconds, per-rank results)`` of one pinned strategy on
    real processes.

    Each trial runs the case's program ``reps`` times after a group
    barrier, wall clock around the loop (process spawn and mesh wiring
    excluded), and keeps the slowest member's mean per rep; the trials
    reduce by median.  Results are the last trial's payloads.
    """
    import time

    from ..core import api
    from ..runtime.launch import ProcessMachine
    from .calibrate import aggregate_trials

    machine = ProcessMachine(topology=case.topology(), params=params,
                             transport=transport, timeout=timeout)
    inner = make_program(case, algorithm)
    group = list(case.group) if case.group is not None else None

    def timed(env):
        if group is not None and env.rank not in group:
            return None
        yield from api.barrier(env, group=group)
        t0 = time.perf_counter()
        for _ in range(reps):
            out = yield from inner(env)
        return (time.perf_counter() - t0) / reps, out

    raw = []
    for _ in range(trials):
        res = machine.run(timed)
        raw.append(max(r[0] for r in res.results if r is not None))
    results = [r[1] if r is not None else None for r in res.results]
    return aggregate_trials(raw), results


def audit_case(case: ChaosCase, params, measure=measure_sim,
               shape: Optional[Tuple] = None) -> CellResult:
    """Price and measure every ranked candidate of one case.

    ``measure(case, strategy, params)`` returns ``(seconds, per-rank
    results)`` on its backend; every candidate's results are checked
    against the analytic oracle, and a candidate that delivers a wrong
    payload can never be the measured best.  The regret column charges
    the production path: ``chosen`` is what ``algorithm="auto"``
    dispatch resolves (bucketed pricing) under the same ``params``.
    """
    from ..core.api import group_mesh_shape
    from ..core.selection import selector_for

    members = case.members()
    p = len(members)
    mshape = group_mesh_shape(members, case.topology())
    sel = selector_for(params, itemsize=np.dtype(case.dtype).itemsize)
    # exact-length pricing for the model-error ratios ...
    candidates = [(c.strategy, c.cost)
                  for c in sel.ranked(case.op, p, case.n, mshape)]
    # ... but the *chosen* strategy is what dispatch actually resolves
    # (bucketed), so regret charges the production path, bucketing
    # included.
    chosen = sel.ranked_bucketed(case.op, p, case.n, mshape)[0]
    chosen_s = str(chosen.strategy)
    if chosen_s not in {str(s) for s, _ in candidates}:
        candidates.append((chosen.strategy, chosen.cost))  # bucket-only

    results: List[CandidateResult] = []
    for strategy, cost in candidates:
        t, out = measure(case, strategy, params)
        results.append(CandidateResult(
            strategy=str(strategy), predicted=cost, measured=t,
            wrong_ranks=tuple(mismatched_ranks(case, out))))
    by_strategy = {r.strategy: r for r in results}
    correct = [r for r in results if not r.wrong_ranks] or results
    best = min(correct, key=lambda r: (r.measured, r.strategy))
    return CellResult(
        operation=case.op, shape=shape if shape is not None else case.topo,
        p=p, n=case.n, mesh_shape=mshape, chosen=chosen_s,
        best=best.strategy,
        chosen_measured=by_strategy[chosen_s].measured,
        best_measured=best.measured,
        candidates=tuple(results))


def audit_cell(operation: str, shape: Tuple, n: int, params,
               measure=measure_sim) -> CellResult:
    """:func:`audit_case` of one sweep-grid cell."""
    return audit_case(cell_case(operation, shape, n), params, measure,
                      shape=shape)


def grid_tasks(grid: Dict[str, tuple]) -> List[Tuple[str, Tuple, int]]:
    """The grid's cells as ``(operation, shape, n)`` tuples, in the
    canonical sweep order (operations, then shapes, then lengths) —
    the merge order of both the serial and the parallel sweep."""
    return [(operation, shape, n)
            for operation in grid["operations"]
            for shape in grid["shapes"]
            for n in grid["lengths"]]


def _sweep_cell(task) -> CellResult:
    """Picklable worker: ``audit_cell(*task)``."""
    return audit_cell(*task)


def run_sweep(grid: Dict[str, tuple], params, measure=measure_sim,
              progress=None, workers: Optional[int] = None
              ) -> List[CellResult]:
    """All cells of a grid; ``progress(msg)`` is called per cell.

    ``workers`` > 1 shards the cells over processes (simulator only:
    each worker builds its own machine).  Every cell is a pure function
    of its task and the results merge in canonical sweep order, so the
    output is identical to the serial sweep for any worker count (the
    determinism contract pinned by tests/analysis/test_parallel.py).
    """
    tasks = [(operation, shape, n, params, measure)
             for operation, shape, n in grid_tasks(grid)]
    if workers is not None and workers != 1:
        from .parallel import parallel_map
        done = parallel_map(_sweep_cell, tasks, workers=workers)
    else:
        done = map(_sweep_cell, tasks)  # lazy: progress as cells finish
    cells: List[CellResult] = []
    for cell in done:
        if progress is not None:
            progress(f"{cell.operation} {cell.shape} n={cell.n}: "
                     f"{len(cell.candidates)} candidates, "
                     f"regret={cell.regret:.3f}")
        cells.append(cell)
    return cells


def build_runtime_audit(grid_name="smoke", transport: str = "local",
                        profile=None, reps: int = 3, trials: int = 3,
                        progress=None) -> Dict[str, object]:
    """The selection-regret sweep on real processes under fitted
    constants: the paper's Table 3 methodology against live hardware.

    ``profile`` is a :class:`~repro.runtime.profile.MachineProfile`;
    None loads (or calibrates and persists) this host's profile.  The
    report mirrors ``AUDIT_model.json`` where the sections make sense —
    regret and model-error columns per cell — and adds the fitted
    profile (with provenance and noise stats) in place of the
    simulator-only conflict-freedom/drift sections.
    """
    from ..runtime.profile import ensure_profile

    if profile is None:
        profile = ensure_profile(transport=transport, progress=progress)
    grid = (RUNTIME_GRIDS[grid_name] if isinstance(grid_name, str)
            else grid_name)
    measure = partial(measure_runtime, transport=transport, reps=reps,
                      trials=trials)
    cells = run_sweep(grid, profile.params, measure, progress=progress)
    return {
        "backend": "runtime",
        "transport": transport,
        "grid": grid_name if isinstance(grid_name, str) else "custom",
        "max_median_regret": RUNTIME_MAX_MEDIAN_REGRET,
        "profile": profile.to_json(),
        "regret": _regret_stats(cells),
        "model_error": _ratio_stats(cells),
        "cells": [c.to_json() for c in cells],
    }


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------


def _ratio_stats(cells: Sequence[CellResult]) -> Dict[str, float]:
    ratios = [c.ratio for cell in cells for c in cell.candidates
              if not math.isnan(c.ratio)]
    if not ratios:
        return {"count": 0}
    return {"count": len(ratios), "median": median(ratios),
            "min": min(ratios), "max": max(ratios)}


def _regret_stats(cells: Sequence[CellResult]) -> Dict[str, float]:
    regrets = [c.regret for c in cells if not math.isnan(c.regret)]
    if not regrets:
        return {"count": 0}
    return {"count": len(regrets), "median": median(regrets),
            "max": max(regrets),
            "optimal_cells": sum(1 for r in regrets
                                 if r <= 1.0 + 1e-12)}


def build_audit(grid_name="smoke", params_name: str = "paragon",
                progress=None,
                workers: Optional[int] = None) -> Dict[str, object]:
    """Run the full model audit and return the JSON-ready report.

    Sections: the regret sweep over ``GRIDS[grid_name]`` (``grid_name``
    may also be a grid dict directly), the conflict-freedom verdicts
    for all four building blocks at each ``CONFLICT_PS`` group size
    (always including a non-power-of-two) plus a mesh column group, and
    the alpha/beta drift fit pooled over the conflict-free verification
    traffic.
    """
    from ..obs.audit import (BUILDING_BLOCKS, drift_from_runs,
                             run_block_primitive, verify_building_blocks)
    from ..core.params import preset
    from ..core.topology import Mesh2D

    params = preset(params_name)
    grid = GRIDS[grid_name] if isinstance(grid_name, str) else grid_name
    cells = run_sweep(grid, params, progress=progress, workers=workers)

    verdicts = []
    for p in CONFLICT_PS:
        for v in verify_building_blocks(p, params=params).values():
            verdicts.append(v)
    # the mesh-aligned claim: a column group of a 4x5 mesh
    topo = Mesh2D(4, 5)
    col = [r * 5 + 2 for r in range(4)]
    for v in verify_building_blocks(4, params=params, topology=topo,
                                    group=col).values():
        verdicts.append(v)
    if progress is not None:
        bad = [v for v in verdicts if not v.ok]
        progress(f"conflict-freedom: {len(verdicts)} verdicts, "
                 f"{len(bad)} violated")

    drift_runs = [run_block_primitive(kind, 8, params=params, n=n)
                  for kind in ("mst_bcast", "bucket_collect")
                  for n in (64, 512, 4096)]
    drift = drift_from_runs(drift_runs, params)

    return {
        "params": params_name,
        "grid": grid_name if isinstance(grid_name, str) else "custom",
        "max_median_regret": MAX_MEDIAN_REGRET,
        "regret": _regret_stats(cells),
        "model_error": _ratio_stats(cells),
        "cells": [c.to_json() for c in cells],
        "conflict_freedom": [v.to_json() for v in verdicts],
        "drift": drift.to_json(),
    }


def check(report: Dict[str, object],
          max_median_regret: Optional[float] = None) -> List[str]:
    """Gate a report of either backend; returns failure messages
    (empty = pass).

    Fails on any candidate whose payload violated the oracle, on any
    violated conflict-freedom verdict (simulator reports), and on median
    selection regret above ``max_median_regret`` (default: the report's
    own ``max_median_regret``) — the invariants the library's whole
    selection story rests on.
    """
    failures: List[str] = []
    for cell in report.get("cells", ()):
        for c in cell["candidates"]:
            if c.get("wrong_ranks"):
                failures.append(
                    f"cell {cell['operation']} {tuple(cell['shape'])} "
                    f"n={cell['n']}: strategy {c['strategy']} returned "
                    f"wrong payloads on ranks {c['wrong_ranks']}")
    for v in report.get("conflict_freedom", ()):
        if not v["ok"]:
            chans = ", ".join(str(tuple(c["channel"]))
                              for c in v["contended"])
            failures.append(
                f"conflict-freedom violated: {v['block']} p={v['p']} on "
                f"{v['topology']} shared {chans}")
    if max_median_regret is None:
        max_median_regret = report.get("max_median_regret",
                                       MAX_MEDIAN_REGRET)
    regret = report["regret"]
    if regret.get("count"):
        if regret["median"] > max_median_regret:
            failures.append(
                f"median selection regret {regret['median']:.4f} exceeds "
                f"{max_median_regret:.4f}")
    else:
        failures.append("regret sweep produced no cells")
    return failures


def render(report: Dict[str, object]) -> str:
    """Human-readable summary of an audit report of either backend."""
    if report.get("backend") == "runtime":
        prof = report["profile"]
        p = prof["params"]
        lines = [f"runtime audit [{report['transport']}] "
                 f"grid={report['grid']} host={prof['host']}",
                 f"  fitted: alpha={p['alpha'] * 1e6:.1f}us "
                 f"beta={p['beta'] * 1e9:.3f}ns/B "
                 f"gamma={p['gamma'] * 1e9:.2f}ns/elem "
                 f"overhead={p['sw_overhead'] * 1e6:.2f}us"]
    else:
        lines = [f"model audit [{report['params']}] grid={report['grid']}"]
    reg, err = report["regret"], report["model_error"]
    if reg.get("count"):
        lines.append(
            f"  regret: median={reg['median']:.4f} max={reg['max']:.4f} "
            f"({reg['optimal_cells']}/{reg['count']} cells optimal)")
    if err.get("count"):
        lines.append(
            f"  model error (pred/meas): median={err['median']:.4f} "
            f"range [{err['min']:.4f}, {err['max']:.4f}] over "
            f"{err['count']} strategy timings")
    worst = sorted((c for c in report["cells"]
                    if c["regret"] is not None),
                   key=lambda c: -c["regret"])[:5]
    for c in worst:
        lines.append(
            f"  cell {c['operation']} {tuple(c['shape'])} n={c['n']}: "
            f"chose {c['chosen']} ({c['chosen_measured']:.3g}s), best "
            f"{c['best']} ({c['best_measured']:.3g}s), "
            f"regret={c['regret']:.4f}")
    if "conflict_freedom" in report:
        bad = [v for v in report["conflict_freedom"] if not v["ok"]]
        lines.append(
            f"  conflict-freedom: {len(report['conflict_freedom'])} "
            "verdicts, " + ("all conflict-free" if not bad else
                            f"{len(bad)} VIOLATED "
                            f"({', '.join(v['block'] for v in bad)})"))
    if "drift" in report:
        d = report["drift"]
        lines.append(
            f"  drift: alpha fit {d['alpha_fit']:.4g} vs configured "
            f"{d['alpha_configured']:.4g}, beta fit {d['beta_fit']:.4g} "
            f"vs {d['beta_configured']:.4g} ({d['samples']} samples)")
    return "\n".join(lines)


def write_report(report: Dict[str, object], path: str) -> str:
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def main(grid: str = "smoke", params_name: str = "paragon",
         out_path: Optional[str] = None, do_check: bool = False,
         verbose: bool = True, workers: Optional[int] = None,
         backend: str = "sim", transport: str = "local", reps: int = 3,
         trials: int = 3) -> int:
    """CLI body for ``python -m repro.analysis.report --audit``.

    ``backend="sim"`` measures candidates on the simulator under the
    ``params_name`` preset (``AUDIT_model.json``); ``"runtime"`` on real
    processes under this host's fitted profile (``AUDIT_runtime.json``).
    """
    progress = print if verbose else None
    if backend == "runtime":
        report = build_runtime_audit(grid, transport=transport, reps=reps,
                                     trials=trials, progress=progress)
    else:
        report = build_audit(grid, params_name, progress=progress,
                             workers=workers)
    out_path = out_path or ("AUDIT_runtime.json" if backend == "runtime"
                            else "AUDIT_model.json")
    write_report(report, out_path)
    print(render(report))
    print(f"wrote {out_path}")
    if do_check:
        failures = check(report)
        for f in failures:
            print(f"FAIL: {f}")
        if failures:
            return 1
        print(f"check passed: median regret <= "
              f"{report['max_median_regret']}, every candidate matches "
              f"the oracle"
              + (", all building blocks conflict-free"
                 if "conflict_freedom" in report else ""))
    return 0
