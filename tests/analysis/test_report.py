"""Tests for the consolidated report generator."""

import os

import pytest

from repro.analysis.report import build_report, main, md_table
from repro.analysis.tables import write_csv


class TestMdTable:
    def test_shape(self):
        text = md_table(["a", "b"], [[1, 2], [3, 4]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"


class TestBuildReport:
    def test_empty_dir(self, tmp_path):
        text = build_report(str(tmp_path))
        assert "no benchmark artifacts" in text

    def test_with_table3(self, tmp_path):
        write_csv(os.path.join(str(tmp_path), "table3_nx_vs_icc.csv"),
                  ["operation", "bytes", "nx_seconds", "icc_seconds",
                   "ratio"],
                  [["broadcast", 8, 0.001, 0.0011, 0.91],
                   ["broadcast", 1048576, 0.5, 0.06, 8.3]])
        text = build_report(str(tmp_path))
        assert "Table 3" in text
        assert "0.92" in text       # paper reference joined in
        assert "8.3" in text

    def test_with_sweep(self, tmp_path):
        write_csv(os.path.join(str(tmp_path), "fig4_collect.csv"),
                  ["algorithm", "bytes", "seconds"],
                  [["auto", 8, 0.001], ["auto", 64, 0.002],
                   ["short", 8, 0.003], ["short", 64, 0.004]])
        text = build_report(str(tmp_path))
        assert "Figure 4 (left)" in text
        assert "| 8 | 0.001 | 0.003 |" in text

    def test_main_writes_file(self, tmp_path):
        out = str(tmp_path / "r.md")
        assert main([str(tmp_path), out]) == 0
        assert os.path.exists(out)

    def test_help_prints_usage_and_writes_nothing(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--audit" in capsys.readouterr().out
        assert os.listdir(tmp_path) == []

    def test_audit_and_trace_are_exclusive(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--audit", "--trace", "bcast"])
        assert exc.value.code == 2
        assert os.listdir(tmp_path) == []


class TestTraceMode:
    def test_trace_cli_writes_chrome_json(self, tmp_path, capsys):
        import json
        from repro.analysis.report import main
        out = tmp_path / "bcast.trace.json"
        rc = main(["--trace", "bcast", "--p", "8", "--bytes", "256",
                   "--params", "UNIT", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        text = capsys.readouterr().out
        assert "critical path" in text
        assert "busiest resources" in text

    def test_trace_scenario_all_ops(self):
        from repro.analysis.report import TRACE_OPS, run_traced_scenario
        for op in TRACE_OPS:
            res = run_traced_scenario(op, p=6, nbytes=64,
                                      params_name="UNIT")
            assert res.trace.closed_spans()
            assert res.channel_metrics
