"""Tests for the deterministic multiprocess sweep driver
(:mod:`repro.analysis.parallel`) and its consumers.

The driver's whole contract is two-fold — parallel sweeps are
*byte-identical* to serial ones (fixed shard inputs, submission-order
merge), and failures are *typed and prompt* (a raising shard or a dead
worker process surfaces as :class:`ShardError`, never a hang or a bare
``BrokenProcessPool``).  Both halves are pinned here, including
end-to-end: the regret sweep grid with 1 vs N workers must serialize to
byte-identical ``AUDIT_model.json`` payloads.
"""

import os

import pytest

from repro.analysis import audit
from repro.analysis.parallel import ShardError, default_workers, parallel_map

#: grid small enough for a unit test, big enough to shard meaningfully
SMALL_GRID = {
    "operations": ("bcast", "reduce_scatter"),
    "shapes": (("line", 7), ("mesh", 3, 4)),
    "lengths": (64, 512),
}


# ----------------------------------------------------------------------
# picklable top-level workers for the pool
# ----------------------------------------------------------------------


def _square(x):
    return x * x


def _fail_on_3(x):
    if x == 3:
        raise ValueError("poisoned shard")
    return x


def _die_on_2(x):
    if x == 2:
        os._exit(17)  # hard death: no exception, no cleanup
    return x


def _slow_identity(x):
    import time
    time.sleep(0.05 * x)
    return x


class TestParallelMap:
    def test_matches_serial_map(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=4) \
            == [x * x for x in items]

    def test_order_preserved_despite_completion_order(self):
        # later items finish *first* (sleep scales with value); the
        # merge must still be submission order
        items = [3, 2, 1, 0]
        assert parallel_map(_slow_identity, items, workers=4) == items

    def test_workers_one_is_serial_inline(self):
        calls = []

        def fn(x):  # closures are fine serially (no pickling)
            calls.append(x)
            return -x

        assert parallel_map(fn, [1, 2, 3], workers=1) == [-1, -2, -3]
        assert calls == [1, 2, 3]

    def test_empty_items(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_raising_shard_is_typed(self):
        with pytest.raises(ShardError) as ei:
            parallel_map(_fail_on_3, [1, 2, 3, 4], workers=2)
        assert ei.value.index == 2
        assert ei.value.item == 3
        assert isinstance(ei.value.cause, ValueError)
        assert "poisoned" in str(ei.value)

    def test_raising_shard_is_typed_serially_too(self):
        with pytest.raises(ShardError) as ei:
            parallel_map(_fail_on_3, [3], workers=1)
        assert ei.value.index == 0

    def test_dead_worker_surfaces_not_hangs(self):
        """A worker that dies outright (os._exit, the stand-in for a
        segfault or OOM kill) must surface as ShardError promptly
        instead of deadlocking the sweep."""
        with pytest.raises(ShardError) as ei:
            parallel_map(_die_on_2, [1, 2, 3, 4], workers=2,
                         timeout=60.0)
        assert "failed" in str(ei.value)

    def test_default_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "bogus")
        assert default_workers() >= 1


class TestAuditSweepDeterminism:
    def test_parallel_sweep_equals_serial(self):
        from repro.core.params import preset
        serial = audit.run_sweep(SMALL_GRID, preset("paragon"))
        parallel = audit.run_sweep(SMALL_GRID, preset("paragon"),
                                   workers=4)
        assert parallel == serial

    def test_audit_payload_byte_identical_1_vs_n(self, tmp_path):
        """The full AUDIT_model.json payload — not just the cells —
        serialized with 1 worker and with N workers must be
        byte-identical."""
        paths = {}
        for workers in (1, 4):
            report = audit.build_audit(SMALL_GRID, "paragon",
                                       workers=workers)
            p = tmp_path / f"audit_w{workers}.json"
            audit.write_report(report, str(p))
            paths[workers] = p.read_bytes()
        assert paths[1] == paths[4]

    def test_grid_tasks_order_is_canonical(self):
        tasks = audit.grid_tasks(SMALL_GRID)
        assert tasks == [
            (op, shape, n)
            for op in SMALL_GRID["operations"]
            for shape in SMALL_GRID["shapes"]
            for n in SMALL_GRID["lengths"]]


class TestChaosSweepDeterminism:
    def test_parallel_chaos_slice_equals_serial(self):
        import functools

        from benchmarks.chaos.cases import GRIDS, grid_case
        from repro.chaos import execute_case
        run = functools.partial(execute_case, audit=False)
        cases = [grid_case(*e) for e in GRIDS["smoke"][:6]]
        serial = [run(c) for c in cases]
        parallel = parallel_map(run, cases, workers=3)
        assert parallel == serial
