"""Tests for the analysis harness: sweeps, tables, ASCII figures."""

import pytest

from repro.analysis import (Series, byte_grid, elements_for, format_table,
                            human_bytes, plot_series, run_operation,
                            series_to_rows, sweep_operation, write_csv)
from repro.sim import LinearArray, Machine, UNIT


class TestSeries:
    def test_add_and_lookup(self):
        s = Series("x")
        s.add(8, 0.5)
        s.add(16, 1.0)
        assert s.time_at(16) == 1.0
        assert s.bandwidth() == [16.0, 16.0]

    def test_byte_grid(self):
        grid = byte_grid(8, 1 << 20)
        assert grid[0] == 8
        assert grid[-1] == 1 << 20
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_elements_for(self):
        assert elements_for(64) == 8
        assert elements_for(8) == 1
        assert elements_for(1) == 1   # floor at one element


class TestRunOperation:
    machine = Machine(LinearArray(6), UNIT)

    @pytest.mark.parametrize("op", ["bcast", "collect", "allreduce",
                                    "reduce", "reduce_scatter"])
    def test_all_operations_self_check(self, op):
        result = run_operation(self.machine, op, 96, algorithm="auto")
        assert result.time > 0

    def test_algorithms_vary_time(self):
        t_short = run_operation(self.machine, "bcast", 4096,
                                algorithm="short").time
        t_long = run_operation(self.machine, "bcast", 4096,
                               algorithm="long").time
        assert t_short != t_long

    def test_sweep_produces_labelled_series(self):
        series = sweep_operation(self.machine, "bcast", [8, 64],
                                 {"short": "short", "long": "long"})
        assert [s.label for s in series] == ["short", "long"]
        assert all(len(s.lengths) == 2 for s in series)

    def test_sweep_accepts_custom_program(self):
        def custom(env, n):
            yield env.delay(1.0)

        series = sweep_operation(self.machine, "bcast", [8],
                                 {"noop": custom})
        assert series[0].times == [1.0]


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 0.001]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_human_bytes(self):
        assert human_bytes(8) == "8"
        assert human_bytes(64 * 1024) == "64K"
        assert human_bytes(1 << 20) == "1M"
        assert human_bytes(1000) == "1000"

    def test_write_csv(self, tmp_path):
        path = str(tmp_path / "sub" / "out.csv")
        write_csv(path, ["x", "y"], [[1, 2], [3, 4]])
        content = open(path).read().strip().splitlines()
        assert content == ["x,y", "1,2", "3,4"]


class TestAsciiPlot:
    def test_plot_contains_marks_and_legend(self):
        s1 = Series("alpha", [8, 64, 512], [1e-4, 1e-3, 1e-2])
        s2 = Series("beta", [8, 64, 512], [2e-4, 2e-3, 2e-2])
        text = plot_series([s1, s2], title="demo")
        assert "demo" in text
        assert "o = alpha" in text and "x = beta" in text
        assert "message length" in text

    def test_empty(self):
        assert plot_series([]) == "(no data)"

    def test_series_to_rows(self):
        s = Series("a", [8, 16], [0.1, 0.2])
        assert series_to_rows([s]) == [["a", 8, 0.1], ["a", 16, 0.2]]
