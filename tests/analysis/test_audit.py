"""Tests for the selection-regret sweep (repro.analysis.audit) and its
``python -m repro.analysis.report --audit`` CLI."""

import json

import numpy as np
import pytest

from repro.analysis import audit as sweep

#: a one-cell grid keeps the unit tests fast; the smoke/full grids run
#: in CI (audit-smoke job)
TINY_GRID = {
    "operations": ("bcast",),
    "shapes": (("line", 7),),
    "lengths": (256,),
}


class TestCellEnvironment:
    def test_line(self):
        case = sweep.cell_case("bcast", ("line", 9), 64)
        assert case.topology().nnodes == 9 and case.group is None
        assert len(case.members()) == 9

    def test_mesh(self):
        case = sweep.cell_case("bcast", ("mesh", 3, 4), 64)
        assert case.topology().nnodes == 12 and case.group is None
        assert len(case.members()) == 12

    def test_row_and_col_groups_live_on_the_mesh(self):
        case = sweep.cell_case("bcast", ("row", 4, 5), 64)
        row = case.group
        assert len(case.members()) == 5 and len(row) == 5
        assert all(0 <= node < case.topology().nnodes for node in row)
        case = sweep.cell_case("bcast", ("col", 4, 5), 64)
        assert len(case.members()) == 4 and len(case.group) == 4

    def test_unknown_shape(self):
        with pytest.raises(KeyError):
            sweep.cell_case("bcast", ("blob", 3), 64)


class TestAuditCell:
    @pytest.fixture(scope="class")
    def cell(self):
        from repro.core.params import PARAGON
        return sweep.audit_cell("bcast", ("line", 7), 256, PARAGON)

    def test_every_candidate_simulated(self, cell):
        assert len(cell.candidates) >= 2
        assert all(c.measured > 0 for c in cell.candidates)

    def test_chosen_is_among_candidates(self, cell):
        assert cell.chosen in {c.strategy for c in cell.candidates}

    def test_regret_at_least_one(self, cell):
        assert cell.regret >= 1.0 - 1e-12
        assert cell.best_measured <= cell.chosen_measured + 1e-18

    def test_model_error_near_one(self, cell):
        # conflict-priced linear array: model within ~15% of simulation
        for c in cell.candidates:
            assert c.ratio == pytest.approx(1.0, rel=0.15)

    def test_json_shape(self, cell):
        blob = json.loads(json.dumps(cell.to_json()))
        assert blob["operation"] == "bcast" and blob["p"] == 7
        assert len(blob["candidates"]) == len(cell.candidates)

    def test_mesh_cell_gets_mesh_candidates(self):
        from repro.core.params import PARAGON
        cell = sweep.audit_cell("bcast", ("col", 4, 5), 256, PARAGON)
        assert cell.mesh_shape is not None
        assert cell.p == 4


class TestBuildAndCheck:
    @pytest.fixture(scope="class")
    def report(self):
        return sweep.build_audit(TINY_GRID, "paragon")

    def test_report_sections(self, report):
        assert set(report) >= {"cells", "regret", "model_error",
                               "conflict_freedom", "drift", "params"}
        assert report["grid"] == "custom"
        assert len(report["cells"]) == 1

    def test_conflict_section_covers_all_blocks_and_non_pow2(self, report):
        blocks = {v["block"] for v in report["conflict_freedom"]}
        assert blocks == set(sweep_blocks())
        ps = {v["p"] for v in report["conflict_freedom"]}
        assert any(p & (p - 1) for p in ps)  # a non-power-of-two p
        assert all(v["ok"] for v in report["conflict_freedom"])

    def test_check_passes(self, report):
        assert sweep.check(report) == []

    def test_check_fails_on_contention(self, report):
        bad = json.loads(json.dumps(report))
        bad["conflict_freedom"][0]["ok"] = False
        bad["conflict_freedom"][0]["contended"] = [
            {"channel": ["ch", 1, 2], "max_concurrent": 2,
             "sharing_factor": 2.0, "busy_time": 1.0, "flows": []}]
        failures = sweep.check(bad)
        assert any("conflict-freedom violated" in f for f in failures)

    def test_check_fails_on_high_regret(self, report):
        bad = json.loads(json.dumps(report))
        bad["regret"]["median"] = 1.5
        failures = sweep.check(bad)
        assert any("regret" in f for f in failures)

    def test_render_mentions_the_essentials(self, report):
        text = sweep.render(report)
        assert "regret" in text
        assert "conflict-freedom" in text
        assert "drift" in text

    def test_write_report(self, report, tmp_path):
        path = str(tmp_path / "AUDIT_model.json")
        sweep.write_report(report, path)
        with open(path) as f:
            assert json.load(f)["params"] == "paragon"


def sweep_blocks():
    from repro.obs.audit import BUILDING_BLOCKS
    return BUILDING_BLOCKS


class TestReportCLI:
    def test_audit_flag_routes_to_sweep(self, tmp_path, monkeypatch,
                                        capsys):
        from repro.analysis import report as report_mod
        monkeypatch.setattr(sweep, "GRIDS",
                            dict(sweep.GRIDS, tiny=TINY_GRID))
        out = str(tmp_path / "AUDIT_model.json")
        rc = report_mod.main(["--audit", "--grid", "tiny", "--check",
                              "--quiet", "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "check passed" in text
        with open(out) as f:
            blob = json.load(f)
        assert blob["grid"] == "tiny"
        assert sweep.check(blob) == []

    def test_grids_are_well_formed(self):
        for name, grid in sweep.GRIDS.items():
            assert set(grid) == {"operations", "shapes", "lengths"}
            for shape in grid["shapes"]:
                sweep.cell_case("bcast", shape, 64)  # must not raise
            # the regret grids must include a non-power-of-two p
            ps = [len(sweep.cell_case("bcast", s, 64).members())
                  for s in grid["shapes"]]
            assert any(p & (p - 1) for p in ps), name


class TestOracleCheck:
    def test_wrong_candidate_fails_check_and_never_wins(self, monkeypatch):
        from repro.core.params import PARAGON
        honest = sweep.audit_cell("bcast", ("line", 7), 256, PARAGON)
        target = next(c.strategy for c in honest.candidates
                      if c.strategy not in (honest.chosen, honest.best))
        real = sweep.make_program

        def planted(case, algorithm="auto"):
            if str(algorithm) != target:
                return real(case, algorithm)

            def prog(env):  # faster than any real candidate, and wrong
                yield env.delay(1e-12)
                return np.full(case.n, -1.0)
            return prog

        monkeypatch.setattr(sweep, "make_program", planted)
        report = sweep.build_audit(TINY_GRID, "paragon")
        cell = report["cells"][0]
        wrong = {c["strategy"]: c for c in cell["candidates"]}[target]
        assert wrong["measured"] < cell["best_measured"]
        assert wrong["wrong_ranks"]
        assert cell["best"] == honest.best != target
        failures = sweep.check(report)
        assert len(failures) == 1
        assert "bcast (" in failures[0] and "n=256" in failures[0]
        assert f"strategy {target} " in failures[0]
