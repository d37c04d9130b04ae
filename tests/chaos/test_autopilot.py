"""Autopilot session: bit-reproducible corpus, gates, coverage growth."""

import json

from repro.chaos.autopilot import CASE_RATE, run_autopilot
from repro.chaos.corpus import CorpusStore
from repro.chaos.generator import OPS, PROFILES, TOPO_CLASSES


class TestReproducibility:
    def test_same_seed_same_store_bytes(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            store = str(tmp_path / f"{name}.jsonl")
            run_autopilot(seed=42, max_cases=10, store_path=store,
                          report_path=None, quiet=True)
            blobs.append(open(store, "rb").read())
        assert blobs[0] == blobs[1]

    def test_budget_maps_to_deterministic_case_count(self, tmp_path):
        report = run_autopilot(
            seed=1, budget_s=5.0,
            store_path=str(tmp_path / "c.jsonl"),
            report_path=None, profiles=("none",), minimize=False,
            quiet=True)
        assert report["cases"] == int(5.0 * CASE_RATE)

    def test_reports_differ_only_in_wall_clock(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            reports.append(run_autopilot(
                seed=3, max_cases=6,
                store_path=str(tmp_path / f"{name}.jsonl"),
                report_path=None, quiet=True))
        for rep in reports:
            rep.pop("wall_s")
            rep.pop("store")
        assert reports[0] == reports[1]


class TestSession:
    def test_seeded_run_passes_gates(self, tmp_path):
        report = run_autopilot(
            seed=42, max_cases=20,
            store_path=str(tmp_path / "c.jsonl"),
            report_path=str(tmp_path / "r.json"), quiet=True)
        assert report["passed"] is True
        assert report["gates"] == {"zero_silent_corruption": True,
                                   "zero_undiagnosed_hang": True,
                                   "profile_contracts_hold": True}
        on_disk = json.load(open(tmp_path / "r.json"))
        assert on_disk["kind"] == "repro-chaos-autopilot"
        assert on_disk["verdicts"] == report["verdicts"]

    def test_byzantine_probe_detects_injected_corruption(self, tmp_path):
        report = run_autopilot(
            seed=7, max_cases=10,
            store_path=str(tmp_path / "c.jsonl"), report_path=None,
            profiles=("byzantine",), quiet=True)
        assert report["verdicts"].get("diagnosed-fault", 0) >= 1
        assert report["verdicts"].get("silent-corruption", 0) == 0
        store = CorpusStore(str(tmp_path / "c.jsonl"))
        attributed = [r for r in store.records.values()
                      if r.get("corruption_attributed")]
        assert attributed  # corruption surfaced as typed detection

    def test_corpus_accumulates_across_sessions(self, tmp_path):
        store = str(tmp_path / "c.jsonl")
        r1 = run_autopilot(seed=1, max_cases=6, store_path=store,
                           report_path=None, quiet=True)
        r2 = run_autopilot(seed=2, max_cases=6, store_path=store,
                           report_path=None, quiet=True)
        assert r2["store_records"] > r1["store_records"]
        assert r2["explored_cells"] >= r1["explored_cells"]

    def test_rerun_same_seed_dedupes(self, tmp_path):
        # saturate every coverage cell so the explored set is a fixed
        # point: two same-seed runs then draw identical sequences and
        # the second one fully dedupes against the store
        path = str(tmp_path / "c.jsonl")
        store = CorpusStore(path)
        for i, (tc, op, prof) in enumerate(
                (tc, op, prof) for tc in TOPO_CLASSES
                for op in OPS for prof in PROFILES):
            store.add({"id": f"cell{i}", "verdict": "ok",
                       "sim_time": 1.0,
                       "case": {"topo": [tc, 4], "op": op,
                                "profile": prof, "params": "unit",
                                "n": 8, "dtype": "float64",
                                "group": None, "faults": {},
                                "origin": "saturate"}})
        store.save()
        r1 = run_autopilot(seed=5, max_cases=4, store_path=path,
                           report_path=None, quiet=True)
        r2 = run_autopilot(seed=5, max_cases=4, store_path=path,
                           report_path=None, quiet=True)
        assert r1["cases"] == 4
        # the rerun redraws r1's four cases, skips them all, and spends
        # its budget on fresh ones instead of re-executing
        assert r2["duplicates"] >= 4
        assert r2["store_records"] == r1["store_records"] + r2["cases"]

    def test_coverage_fields_consistent(self, tmp_path):
        report = run_autopilot(
            seed=11, max_cases=8,
            store_path=str(tmp_path / "c.jsonl"), report_path=None,
            quiet=True)
        assert report["explored_cells"] <= report["possible_cells"]
        assert sum(report["verdicts"].values()) == report["cases"]
        matrix_total = sum(sum(row.values())
                           for row in report["cell_matrix"].values())
        assert matrix_total == report["store_records"]
