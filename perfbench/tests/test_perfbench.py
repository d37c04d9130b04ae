"""Tests of the benchmark itself (not of the library).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import Reference  # noqa: E402
from repro.core import api  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(workload, seed=1, seconds=0.3, trace=0, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def _result(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    res = _result(_bench(workload, trace=trace))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 2
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == want
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_another_seed_keeps_metric_names():
    a = _result(_bench("rt_bulk", seed=1))
    b = _result(_bench("rt_bulk", seed=2))
    assert a["metrics"].keys() == b["metrics"].keys()


def _flat(data):
    return np.concatenate(data) if isinstance(data, list) else np.ravel(data)


def test_another_seed_changes_the_inputs():
    for name in ("sim_paragon", "sim_linear"):
        a, b = workloads.make(name, 1), workloads.make(name, 2)
        assert [c.name for c in a.cells] == [c.name for c in b.cells]
        assert not any(np.array_equal(_flat(ca.data), _flat(cb.data))
                       for ca, cb in zip(a.cells, b.cells) if ca.n > 1)
    n = workloads.BulkWorkload.NBYTES // 8
    assert not np.array_equal(workloads._bulk_input(1, 0, 0, n),
                              workloads._bulk_input(2, 0, 0, n))
    from repro.service import ServiceCore
    from repro.sim import PARAGON

    def plan(seed):
        core = ServiceCore(2, params=PARAGON)
        return workloads.traffic.run_workload(core, workloads.mixed_spec(),
                                              seed=seed)

    assert plan(1).to_dict() != plan(2).to_dict()


@pytest.fixture
def wrong_allreduce(monkeypatch):
    """Every allreduce of more than one element answers off by one in its
    first element; forked rank processes inherit the patch.  Single
    elements are spared so rt_bulk's stop flag still agrees."""
    real = api.allreduce

    def planted(env, vec, *args, **kwargs):
        got = yield from real(env, vec, *args, **kwargs)
        if len(vec) > 1:
            got = got.copy()
            got[0] += 1
        return got

    monkeypatch.setattr(api, "allreduce", planted)


def test_planted_wrong_result_fails_sim_ops(wrong_allreduce):
    wl = workloads.make("sim_paragon", 3)
    wl.setup()
    ops, _ = wl.round(Reference())
    assert len(ops) == 8
    # only the 1 KiB allreduce is planted (8 B vectors are left alone)
    assert [cell for _, ok, cell in ops if not ok] == ["allreduce/1024B"]


def test_planted_signature_change_fails_the_op(monkeypatch):
    sig = list(workloads.SIGNATURES["sim_linear"]["bcast/65536B"])
    sig[2] += 1                                     # one more event
    monkeypatch.setitem(workloads.SIGNATURES["sim_linear"], "bcast/65536B",
                        sig)
    wl = workloads.make("sim_linear", 3)
    assert wl.setup()                               # allreduce/65536B
    ops, _ = wl.round(Reference())
    assert [cell for _, ok, cell in ops if not ok] == ["bcast/65536B"]


def test_machine_not_priced_with_paragon_fails_setup(monkeypatch):
    from repro.runtime.launch import ProcessMachine
    from repro.sim import UNIT, LinearArray
    monkeypatch.setattr(workloads, "_process_machine", lambda: ProcessMachine(
        2, params=UNIT, topology=LinearArray(2), use_profile=False))
    assert workloads.make("rt_bulk", 3).setup() is False


def test_service_modelled_time_does_not_depend_on_the_seed():
    a, b = workloads.make("sim_service", 1), workloads.make("sim_service", 2)
    assert a.setup() and b.setup()
    assert a.simulated_us_per_op() == b.simulated_us_per_op() > 0


def test_tail_does_not_depend_on_the_op_count():
    def sim_ops(rounds):
        cells = {"a": 0.010, "b": 0.100, "c": 0.800}
        return [(t * (1 + 0.01 * r), True, c)
                for r in range(rounds) for c, t in cells.items()]

    short, long_ = run.typical(sim_ops(3)), run.typical(sim_ops(9))
    assert short[3] == long_[3] == "mean of c"
    assert short[2] == pytest.approx(0.808) and long_[2] == pytest.approx(0.832)
    assert short[0] == pytest.approx(0.101)

    alike = [(1e-3 * (i % 100 + 1), True, None) for i in range(1000)]
    p50, _, tail_s, label = run.typical(alike)
    assert label == "p90" and 0.090 <= tail_s <= 0.091
    assert p50 == pytest.approx(0.0505)


def test_planted_wrong_result_fails_service_session(wrong_allreduce):
    wl = workloads.make("sim_service", 3)
    assert wl.setup() is False


def test_planted_wrong_result_is_counted_by_the_runner(
        wrong_allreduce, monkeypatch, capsys):
    monkeypatch.delenv("TMPDIR", raising=False)     # restored afterwards
    cpus = os.sched_getaffinity(0)
    try:
        assert run.main(["--workload", "rt_bulk", "--seed", "3",
                         "--seconds", "0.3"]) == 0
    finally:
        os.sched_setaffinity(0, cpus)               # the run pins itself
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is False
    assert res["failed"] == res["attempted"] > 1


def test_exits_nonzero_without_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench("sim_paragon", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
