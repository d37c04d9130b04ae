"""Experiment harness: sweeps, tables, and ASCII/CSV figure output."""

from .ascii_plot import plot_series, series_to_rows
from .critpath import (CritSpan, critical_path,
                       critical_path_summary,
                       render_critical_path)
from .calibrate import (TrialSample, aggregate_trials, calibrate,
                        fit_alpha_beta, gamma_prog, overhead_prog,
                        pingpong_prog, probe, ring_prog, trial_spread)
from .sweep import (Series, TABLE3_LENGTHS, byte_grid, elements_for,
                    run_operation, sweep_operation)
from .tables import format_table, human_bytes, write_csv
from .svg_plot import render_svg, write_svg

__all__ = [
    "plot_series", "series_to_rows",
    "CritSpan", "critical_path", "critical_path_summary",
    "render_critical_path",
    "TrialSample", "aggregate_trials", "calibrate", "fit_alpha_beta",
    "gamma_prog", "overhead_prog", "pingpong_prog", "probe", "ring_prog",
    "trial_spread",
    "Series", "TABLE3_LENGTHS", "byte_grid",
    "elements_for", "run_operation", "sweep_operation",
    "format_table", "human_bytes", "write_csv",
    "render_svg", "write_svg",
]
