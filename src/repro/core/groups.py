"""Node groups and physical-structure detection (section 9).

"Performance for group operations is maintained by extracting information
about the physical layout of a user-specified group.  In cases where a
group comprises a physical rectangular submesh, the same row- and
column-based techniques are used as in the whole-mesh operations.  When a
group is unstructured or its structure cannot be ascertained, it is
treated as though it were a linear array."

:func:`classify` performs that extraction for our topologies.  The result
feeds strategy selection: submesh groups get mesh-aware conflict factors
(rows and columns are conflict-free highways), everything else gets the
linear-array model.

A :class:`Group` does that extraction once per machine rather than once
per rank: one validated, immutable object per ``(topology, members)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .topology import Mesh2D, Topology, Torus2D


@dataclass(frozen=True)
class GroupStructure:
    """Physical layout information extracted from a group.

    ``kind`` is one of:

    ``"contiguous"``
        consecutive node ids (a physical sub-line on a linear array; on
        a mesh, a run in row-major order);
    ``"strided"``
        an arithmetic progression of node ids with stride > 1;
    ``"row"`` / ``"col"``
        a full or partial physical mesh row/column, in order;
    ``"submesh"``
        a rectangular ``subrows x subcols`` block of a 2-D mesh,
        enumerated row-major (``shape`` holds the block shape);
    ``"unstructured"``
        anything else — treated as a linear array.
    """

    kind: str
    stride: int = 1
    shape: Optional[Tuple[int, int]] = None

    @property
    def is_mesh_aligned(self) -> bool:
        return self.kind in ("row", "col", "submesh")


def _common_stride(nodes: Sequence[int]) -> Optional[int]:
    """Stride if the ids form an arithmetic progression, else None."""
    if len(nodes) < 2:
        return 1
    step = nodes[1] - nodes[0]
    if step <= 0:
        return None
    for a, b in zip(nodes, nodes[1:]):
        if b - a != step:
            return None
    return step


def classify(nodes: Sequence[int], topology: Topology) -> GroupStructure:
    """Extract the physical structure of a group on a topology."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("empty group")
    if len(nodes) == 1:
        return GroupStructure("contiguous", 1)
    if isinstance(topology, (Mesh2D, Torus2D)):
        struct = _classify_mesh(nodes, topology)
        if struct is not None:
            return struct
    stride = _common_stride(nodes)
    if stride == 1:
        return GroupStructure("contiguous", 1)
    if stride is not None:
        return GroupStructure("strided", stride)
    return GroupStructure("unstructured")


def _classify_mesh(nodes: Sequence[int], mesh) -> Optional[GroupStructure]:
    """Row, column or submesh structure, else None (stride rules apply)."""
    coords = [mesh.coords(v) for v in nodes]
    rows = sorted({r for r, _ in coords})
    cols = sorted({c for _, c in coords})

    # single physical row, in column order?
    if len(rows) == 1:
        cs = [c for _, c in coords]
        if _common_stride(cs) == 1:
            return GroupStructure("row", 1, shape=(1, len(nodes)))
    # single physical column, in row order?
    if len(cols) == 1:
        rs = [r for r, _ in coords]
        if _common_stride(rs) == 1:
            return GroupStructure("col", mesh.cols, shape=(len(nodes), 1))

    # rectangular submesh enumerated row-major?
    nr, nc = len(rows), len(cols)
    if (nr * nc == len(nodes)
            and rows == list(range(rows[0], rows[0] + nr))
            and cols == list(range(cols[0], cols[0] + nc))):
        expect = [(rows[0] + i // nc, cols[0] + i % nc)
                  for i in range(len(nodes))]
        if coords == expect:
            return GroupStructure("submesh", 1, shape=(nr, nc))
    return None


class Group:
    """One validated node group on one machine, shared by all its ranks.

    Immutable and interned: :meth:`of` returns one object per
    ``(topology, members)``, holding ``members`` (logical -> physical),
    ``phys2log``, the lazily classified :attr:`structure` and memoised
    strided :meth:`line` children.  The intern table is a dict attribute
    of the topology, so it is freed with it (a ``Group`` refers to its
    topology, so a table keyed *by* the topology never would be).
    Without a topology there is nothing to share: each call builds one.
    """

    __slots__ = ("members", "phys2log", "topology", "nnodes",
                 "_structure", "_lines")

    def __init__(self, members: Tuple[int, ...],
                 topology: Optional[Topology], nnodes: int):
        phys2log = {p: l for l, p in enumerate(members)}
        if len(phys2log) != len(members):
            raise ValueError("group contains duplicate node ids")
        if not members:
            raise ValueError("group must contain at least one node")
        if min(members) < 0 or max(members) >= nnodes:
            bad = next(v for v in members if not 0 <= v < nnodes)
            raise ValueError(f"node {bad} out of range [0, {nnodes})")
        self.members = members
        self.phys2log = phys2log
        self.topology = topology
        self.nnodes = nnodes
        self._structure: Optional[GroupStructure] = None
        self._lines: Dict[Tuple[int, int, int], Group] = {}

    @classmethod
    def of(cls, topology: Optional[Topology],
           members: Optional[Sequence[int]] = None,
           nnodes: int = 0) -> "Group":
        """The group of ``members`` (None: every node) on ``topology``;
        ``nnodes`` sizes the machine when there is no topology."""
        if topology is None:
            table: Dict = {}
        else:
            table = topology.__dict__.setdefault("_groups", {})
            nnodes = topology.nnodes
        key = None if members is None else tuple(members)
        grp = table.get(key)
        if grp is None:
            full = tuple(range(nnodes)) if key is None else key
            grp = table.get(full) or cls(full, topology, nnodes)
            table[full] = table[key] = grp
        return grp

    @property
    def structure(self) -> GroupStructure:
        """Physical layout (:func:`classify`), extracted on first use."""
        if self._structure is None:
            self._structure = classify(self.members, self.topology)
        return self._structure

    @property
    def mesh_shape(self) -> Optional[Tuple[int, int]]:
        """(subrows, subcols) if mesh-aligned (a row is ``(1, k)``, a
        column ``(k, 1)``), else None: the group is priced as a linear
        array, as is any group without a topology, whose structure
        "cannot be ascertained" (section 9)."""
        struct = self.structure
        return struct.shape if struct.is_mesh_aligned else None

    def sub(self, lranks: Sequence[int]) -> "Group":
        """The group of these logical ranks, in this order."""
        return Group.of(self.topology, [self.members[l] for l in lranks],
                        self.nnodes)

    def line(self, start: int, stride: int, count: int) -> "Group":
        """Logical ranks ``start, start + stride, ...`` (``count``)."""
        key = (start, stride, count)
        child = self._lines.get(key)
        if child is None:
            child = self._lines[key] = self.sub(
                [start + stride * k for k in range(count)])
        return child
