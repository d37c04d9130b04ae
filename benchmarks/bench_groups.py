"""Section 9: group collective communication.

"Performance for group operations is maintained by extracting
information about the physical layout of a user-specified group."

Three group flavours on the 16 x 32 mesh, same per-node data volume:

* a physical row (32 nodes) — conflict-free highway;
* a rectangular 8 x 8 submesh — row/column techniques apply;
* an unstructured random 64-node subset — treated as a linear array.

The structured groups must perform close to the whole-machine
per-node rates; the unstructured group pays for its scattered layout
but must still complete correctly."""

import os

import numpy as np
import pytest

from repro.analysis import format_table, write_csv
from repro.core import api, classify
from repro.sim import Machine, Mesh2D, PARAGON

MESH = Mesh2D(16, 32)
MACHINE = Machine(MESH, PARAGON)
NBYTES = 256 * 1024
N = NBYTES // 8


def group_program(env, group):
    if env.rank not in group:
        yield env.delay(0)
        return True
    v = np.full(N, float(env.rank))
    out = yield from api.allreduce(env, v, "sum", group=group)
    return bool(np.allclose(out, float(sum(group))))


def make_groups():
    rng = np.random.default_rng(1994)
    row = MESH.row_nodes(5)
    sub = MESH.submesh_nodes(4, 8, 8, 8)
    scattered = sorted(rng.choice(512, size=64, replace=False).tolist())
    return {
        "physical row (32)": row,
        "8x8 submesh (64)": sub,
        "unstructured (64)": scattered,
    }


_CACHE = []


def run_groups():
    if _CACHE:
        return _CACHE[0]
    rows = []
    for label, group in make_groups().items():
        struct = classify(group, MESH)
        res = MACHINE.run(group_program, group)
        assert all(res.results), label
        rows.append([label, struct.kind, len(group), res.time])
    _CACHE.append(rows)
    return rows


def test_group_structure_detection_drives_performance(once, results_dir, report):
    rows = once(run_groups)
    report("\n" + format_table(
        ["group", "detected", "size", "allreduce 256KB (s)"],
        [[a, b, c, f"{d:.5f}"] for a, b, c, d in rows],
        title="Section 9: group allreduce on the 16x32 mesh"))
    write_csv(os.path.join(results_dir, "groups.csv"),
              ["group", "detected", "size", "seconds"], rows)

    by = {r[0]: r for r in rows}
    assert by["physical row (32)"][1] == "row"
    assert by["8x8 submesh (64)"][1] == "submesh"
    assert by["unstructured (64)"][1] == "unstructured"

    # the structured 64-node group must beat the unstructured 64-node
    # group (scattered layout causes conflicts and defeats the
    # mesh-aware strategies)
    assert by["8x8 submesh (64)"][3] < by["unstructured (64)"][3]


def test_group_performance_matches_whole_machine_class(once):
    """A submesh group's per-operation time must be in the same class
    as running the same operation on a whole machine of that shape —
    the claim that the group abstraction costs (almost) nothing."""
    rows = once(run_groups)
    sub_time = {r[0]: r[3] for r in rows}["8x8 submesh (64)"]

    standalone = Machine(Mesh2D(8, 8), PARAGON)

    def prog(env):
        v = np.full(N, float(env.rank))
        out = yield from api.allreduce(env, v, "sum")
        return True

    t_standalone = standalone.run(prog).time
    assert sub_time < t_standalone * 1.25


def test_concurrent_row_groups_do_not_interfere(once):
    """All 16 rows reducing simultaneously: XY routing keeps each row's
    traffic inside the row, so the elapsed time must equal a single
    row's time (no cross-row conflicts)."""
    def all_rows(env):
        row = MESH.row_nodes(env.rank // 32)
        v = np.full(N, 1.0)
        out = yield from api.allreduce(env, v, "sum", group=row)
        return bool(np.allclose(out, 32.0))

    def one_row(env):
        row = MESH.row_nodes(0)
        if env.rank not in row:
            yield env.delay(0)
            return True
        v = np.full(N, 1.0)
        out = yield from api.allreduce(env, v, "sum", group=row)
        return bool(np.allclose(out, 32.0))

    def run_both():
        return MACHINE.run(all_rows), MACHINE.run(one_row)

    t_all, t_one = once(run_both)
    assert all(t_all.results) and all(t_one.results)
    assert t_all.time == pytest.approx(t_one.time, rel=1e-6)
