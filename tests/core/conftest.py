"""Shared fixtures and helpers for the core-library tests."""

from repro.core.context import CollContext
from repro.sim import LinearArray, Machine, Mesh2D, UNIT


def run_linear(p, prog, *args, params=UNIT, trace=False, **kwargs):
    """Run an SPMD program on a unit-cost linear array of p nodes."""
    machine = Machine(LinearArray(p), params, trace=trace)
    return machine.run(prog, *args, **kwargs)


def run_mesh(r, c, prog, *args, params=UNIT, trace=False, **kwargs):
    machine = Machine(Mesh2D(r, c), params, trace=trace)
    return machine.run(prog, *args, **kwargs)


def collective_program(fn, *args, **kwargs):
    """Wrap a ctx-taking collective generator into a rank program."""
    def prog(env):
        ctx = CollContext(env)
        return (yield from fn(ctx, *args, **kwargs))
    return prog
