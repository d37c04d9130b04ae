"""Package-level surface tests: the documented entry points exist."""

import os
import re

import repro

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_KNOB = re.compile(r"REPRO_[A-Z_]+")


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_reexports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet_from_readme(self):
        """The README's quickstart must run as printed."""
        import numpy as np
        from repro import Machine, Mesh2D, PARAGON, api

        machine = Machine(Mesh2D(4, 4), PARAGON)

        def program(env):
            x = np.arange(64.) if env.rank == 0 else None
            x = yield from api.bcast(env, x, root=0, total=64)
            s = yield from api.allreduce(env, x, "sum")
            return float(s[0])

        run = machine.run(program)
        assert run.time > 0
        assert all(r == 0.0 for r in run.results)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.extensions
        import repro.sim
        assert repro.sim.Machine is repro.Machine

    def test_sim_reexports_the_fault_contract(self):
        import repro.core.faults
        import repro.sim
        for name in ("ByzantineRank", "DeadLetter", "FaultDiagnosis",
                     "FaultReport", "FaultSchedule", "LinkFault",
                     "LinkSlowdown", "MisroutingRank", "NodeCrash", "Tamper",
                     "WithholdingRank"):
            assert name in repro.sim.__all__
            assert getattr(repro.sim, name) is \
                getattr(repro.core.faults, name)


def test_every_env_knob_is_in_the_readme_table():
    """The README's environment-variable table lists exactly the
    ``REPRO_*`` names the code, tests, benchmarks and CI use."""
    used = set()
    for top in ("src", "tests", "benchmarks",
                os.path.join(".github", "workflows")):
        for root, dirs, files in os.walk(os.path.join(_REPO, top)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                with open(os.path.join(root, name),
                          errors="ignore") as f:
                    used |= set(_KNOB.findall(f.read()))
    with open(os.path.join(_REPO, "README.md")) as f:
        table = {m.group(1) for m in
                 re.finditer(r"^\| `(REPRO_[A-Z_]+)` \|", f.read(), re.M)}
    assert used == table
