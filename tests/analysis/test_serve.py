"""Observatory smoke test: the dashboard server over real artifacts.

Starts ``repro.analysis.serve`` on an ephemeral port against a
directory of representative artifacts, and checks that the dashboard
index, every static asset, the artifact API, and merged traces all
answer HTTP 200 (and that non-whitelisted paths answer 404) before the
server shuts down cleanly.  Stdlib only on both sides — the same
constraint the observatory itself lives under.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis import serve as serve_mod


@pytest.fixture()
def artifact_root(tmp_path):
    (tmp_path / "AUDIT_model.json").write_text(json.dumps({
        "cells": [{"operation": "bcast", "p": 4, "n": 64, "regret": 1.0,
                   "chosen": "(4, M)", "best": "(4, M)",
                   "candidates": [], "mesh_shape": None,
                   "shape": ["line", 4]}],
        "regret": {"median": 1.0, "max": 1.0, "count": 1,
                   "optimal_cells": 1},
        "max_median_regret": 1.05,
    }))
    (tmp_path / "CHAOS_report.json").write_text(json.dumps({
        "cases": 1, "counts": {"ok": 1},
        "violations": [], "gates": {"zero_silent_corruption": True},
        "records": [{"id": "e954c83dd231bd89", "verdict": "ok",
                     "sim_time": 0.1,
                     "case": {"topo": ["mesh", 4, 6], "op": "bcast",
                              "profile": "none", "faults": {},
                              "origin": "mesh4x6/bcast/baseline/101"}}],
        "passed": True,
    }))
    (tmp_path / "CHAOS_autopilot.json").write_text(json.dumps({
        "kind": "repro-chaos-autopilot", "version": 1, "seed": 42,
        "cases": 2, "store_records": 2,
        "verdicts": {"ok": 1, "diagnosed-fault": 1},
        "cell_matrix": {"ring": {"bcast": 2}},
        "profile_matrix": {"byzantine": {"diagnosed-fault": 1},
                           "none": {"ok": 1}},
        "explored_cells": 2, "possible_cells": 225,
        "open_findings": [], "golden": [],
        "gates": {"zero_silent_corruption": True,
                  "zero_undiagnosed_hang": True},
        "passed": True,
    }))
    (tmp_path / "BENCH_service.json").write_text(json.dumps({
        "grid": "smoke", "passed": True, "violations": {},
        "gates": {"speedup_floor": 2.0, "fairness_share_floor": 0.5,
                  "bit_exact_fused_vs_unfused": True,
                  "storm_fused_speedup_2x": True,
                  "storm_fairness_floor": True,
                  "zero_silent_drops": True},
        "cells": [{
            "id": "storm/sim", "workload": "storm", "backend": "sim",
            "world_size": 8, "tenants": 2, "speedup": 3.5,
            "comparison": {"bit_exact": True, "mismatches": []},
            "fused": {"requests_per_s": 4000.0, "fusion_ratio": 1.0,
                      "fairness_index": 1.0, "accounted": True,
                      "latency_v": {"p50": 1e-3, "p99": 2e-3},
                      "tenant_shares": {"t0": 0.5, "t1": 0.5}},
            "unfused": {"requests_per_s": 1100.0, "fusion_ratio": 0.0,
                        "fairness_index": 1.0, "accounted": True,
                        "latency_v": {"p50": 2e-3, "p99": 4e-3},
                        "tenant_shares": {"t0": 0.5, "t1": 0.5}},
        }],
    }))
    (tmp_path / "demo.trace.json").write_text(
        json.dumps({"traceEvents": []}))
    # present in the repo but deliberately absent here: the index must
    # only advertise what exists
    return tmp_path


@pytest.fixture()
def server(artifact_root):
    srv = serve_mod.make_server(str(artifact_root), port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    host, port = srv.server_address[:2]
    yield f"http://{host}:{port}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive(), "server thread failed to shut down"


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as res:
        return res.status, res.headers["Content-Type"], res.read()


def _status(url):
    try:
        return _get(url)[0]
    except urllib.error.HTTPError as err:
        return err.code


class TestObservatory:
    def test_dashboard_index_renders(self, server):
        status, ctype, body = _get(server + "/")
        assert status == 200
        assert ctype.startswith("text/html")
        assert b"repro observatory" in body
        assert b"/static/observatory.js" in body
        assert b"sec-autopilot" in body  # chaos-autopilot panel present
        assert b"sec-service" in body    # multi-tenant service panel

    def test_static_assets_served(self, server):
        for name, ctype in [("observatory.css", "text/css"),
                            ("observatory.js", "application/javascript"),
                            ("index.html", "text/html")]:
            status, got_ctype, body = _get(server + "/static/" + name)
            assert status == 200, name
            assert got_ctype.startswith(ctype), name
            assert body

    def test_api_index_lists_only_present_artifacts(self, server):
        status, _, body = _get(server + "/api/index")
        assert status == 200
        idx = json.loads(body)
        assert [a["name"] for a in idx["artifacts"]] == \
            ["AUDIT_model.json", "BENCH_service.json",
             "CHAOS_report.json", "CHAOS_autopilot.json"]
        assert [t["name"] for t in idx["traces"]] == ["demo.trace.json"]

    def test_each_artifact_endpoint_serves_json(self, server):
        for name in ["AUDIT_model.json", "BENCH_service.json",
                     "CHAOS_report.json", "CHAOS_autopilot.json",
                     "demo.trace.json"]:
            status, ctype, body = _get(server + "/api/artifact/" + name)
            assert status == 200, name
            assert ctype.startswith("application/json")
            json.loads(body)  # valid JSON all the way through

    def test_unknown_routes_404(self, server):
        assert _status(server + "/api/artifact/secret.json") == 404
        assert _status(server + "/api/artifact/BENCH_sim.json") == 404
        assert _status(server + "/api/artifact/..%2Fsetup.py") == 404
        assert _status(server + "/static/no-such.css") == 404
        assert _status(server + "/static/serve.py") == 404
        assert _status(server + "/etc/passwd") == 404

    def test_list_artifacts_against_repo_root(self):
        # the helper the CLI banner uses; on the repo itself it must
        # pick up the committed artifacts
        idx = serve_mod.list_artifacts(".")
        names = [a["name"] for a in idx["artifacts"]]
        assert "AUDIT_model.json" in names
        assert "CHAOS_report.json" in names
        assert "BENCH_service.json" in names
