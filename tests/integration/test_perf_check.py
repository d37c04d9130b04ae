"""``benchmarks.perf.run --check`` gates the tracked counters against the
committed ``BENCH_sim.json``, whatever file ``--output`` names."""

import json

from benchmarks.perf import run as perf_run


def _committed_cases():
    with open(perf_run.DEFAULT_OUTPUT) as f:
        return json.load(f)["cases"]


def _fake_run_case(shift):
    """A ``run_case`` stand-in returning the committed counters, with
    ``sim_time`` moved by ``shift``."""
    committed = _committed_cases()

    def run_case(op, p, n, repeats=None):
        after = dict(committed[perf_run.case_id(op, p, n)]["after"])
        after["sim_time"] += shift
        return after
    return run_case


def test_stale_output_cannot_pass_the_check(tmp_path, monkeypatch, capsys):
    stale = str(tmp_path / "BENCH_sim_smoke.json")
    monkeypatch.setattr(perf_run, "run_case", _fake_run_case(1.0))
    # a drifted run writes its own report, then checks against it
    assert perf_run.main(["--grid", "smoke", "--output", stale]) == 0
    assert perf_run.main(["--grid", "smoke", "--check",
                          "--output", stale]) == 1
    assert "sim_time changed" in capsys.readouterr().err


def test_check_passes_on_committed_counters(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "BENCH_sim_smoke.json")
    monkeypatch.setattr(perf_run, "run_case", _fake_run_case(0.0))
    assert perf_run.main(["--grid", "smoke", "--check",
                          "--output", out]) == 0
    assert f"stable vs {perf_run.DEFAULT_OUTPUT}" in capsys.readouterr().out
