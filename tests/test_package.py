"""Package-level surface tests: the documented entry points exist."""

import ast
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


def _unused_module_imports(path):
    """``(line, name)`` of each module-level import that the module
    never names.  ``__future__`` imports, names listed in ``__all__``
    and statements carrying ``# noqa`` count as used."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa" in line
                for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = \
                node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_module_imports():
    """Every module-level import in the code, tests, benchmarks and
    examples is used (package ``__init__`` re-exports are exempt).  No
    linter runs in CI, so this stdlib-``ast`` scan stands in for one."""
    unused = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for root, dirs, files in os.walk(os.path.join(_REPO, top)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in files:
                if not name.endswith(".py") or name == "__init__.py":
                    continue
                path = os.path.join(root, name)
                unused += [f"{os.path.relpath(path, _REPO)}:{line}: {imp}"
                           for line, imp in _unused_module_imports(path)]
    assert not unused, "\n".join(sorted(unused))
