#!/usr/bin/env python
"""Interactive-style strategy explorer: the Table 2 machinery as a tool.

For a chosen operation, node count and machine, prints the ranked hybrid
strategies at several message lengths — showing how the optimum walks
from the pure MST algorithm (minimum startups) through the mixed
hybrids to pure scatter/collect (minimum bandwidth) as vectors grow,
and how mesh-aware candidates beat linear-array ones when the group is
a physical submesh.

Run:  python examples/strategy_explorer.py [p] [operation]
"""

import sys

from repro.analysis import format_table, human_bytes
from repro.core import Selector
from repro.sim import PARAGON


def explore(p: int, operation: str) -> None:
    sel = Selector(PARAGON, itemsize=1)  # lengths given in bytes

    print(f"=== {operation} on a linear array of {p} nodes "
          f"(Paragon parameters) ===\n")
    for nbytes in (8, 1024, 64 * 1024, 1024 * 1024):
        ranked = sel.ranked(operation, p, nbytes)
        rows = [[str(c.strategy), f"{c.cost * 1e3:.4f}"]
                for c in ranked[:6]]
        print(format_table(
            ["strategy", "predicted ms"], rows,
            title=f"-- message length {human_bytes(nbytes)}B "
                  f"(best first) --"))
        print()

    if p == 512:
        print("=== same operation, but the group is the 16x32 physical "
              "mesh ===\n")
        for nbytes in (64 * 1024, 1024 * 1024):
            ranked = sel.ranked(operation, p, nbytes, mesh_shape=(16, 32))
            rows = [[str(c.strategy),
                     "x".join(f"{f:g}" for f in c.conflicts),
                     f"{c.cost * 1e3:.4f}"] for c in ranked[:6]]
            print(format_table(
                ["strategy", "conflict factors", "predicted ms"], rows,
                title=f"-- {human_bytes(nbytes)}B, mesh-aware --"))
            print()


def main():
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    operation = sys.argv[2] if len(sys.argv) > 2 else "bcast"
    explore(p, operation)


if __name__ == "__main__":
    main()
