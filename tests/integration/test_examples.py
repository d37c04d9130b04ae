"""Smoke tests running the shipped examples end to end.

The examples are the library's public face; these tests execute their
``main()`` functions (the quickstart, which sweeps a 512-node machine
for minutes, is exercised at reduced scale instead).
"""

import importlib.util
import os


EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "examples")


def load_example(name):
    path = os.path.join(EXAMPLES, name + ".py")
    spec = importlib.util.spec_from_file_location("example_" + name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestExamples:
    def test_summa_matmul(self, capsys):
        mod = load_example("summa_matmul")
        mod.main()
        out = capsys.readouterr().out
        assert "OK" in out

    def test_cg_solver(self, capsys):
        mod = load_example("cg_solver")
        mod.main()
        out = capsys.readouterr().out
        assert "CG converged" in out

    def test_jacobi_2d(self, capsys):
        mod = load_example("jacobi_2d")
        mod.main()
        out = capsys.readouterr().out
        assert "reproduce the sequential sweep" in out

    def test_port_the_library(self, capsys):
        mod = load_example("port_the_library")
        mod.main()
        out = capsys.readouterr().out
        assert "ported with measurements alone" in out

    def test_strategy_explorer(self, capsys):
        mod = load_example("strategy_explorer")
        mod.explore(30, "bcast")
        out = capsys.readouterr().out
        assert "30 nodes" in out
        assert "(30, M)" in out

    def test_quickstart_reduced(self):
        """The quickstart's programs at a fraction of its scale."""
        mod = load_example("quickstart")
        from repro.sim import Machine, Mesh2D, PARAGON
        machine = Machine(Mesh2D(4, 8), PARAGON)
        icc = machine.run(mod.icc_program, 1024)
        nx = machine.run(mod.nx_program, 1024)
        assert icc.results[0] == nx.results[0]
        assert icc.time < nx.time
