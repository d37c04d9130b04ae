"""Physical interconnect topologies and wormhole routes.

Backend-neutral machine *description*: the discrete-event simulator
routes messages over these channel graphs, and the real multi-process
runtime (:mod:`repro.runtime`) attaches a topology to its rank envs as
metadata so group-structure classification and mesh-aware strategy
selection behave identically on every backend.

The paper's target architecture (section 2) is a two-dimensional mesh of
processing nodes with bidirectional links and worm-hole (cut-through)
routing.  We model every bidirectional link as two independent *directed
channels*, one per direction, because that is what makes the paper's
"linear arrays can be considered unidirectional rings" observation true:
traffic flowing right and the single wrap-around message flowing left use
disjoint channels, hence do not conflict.

A topology provides:

* ``nnodes`` — number of nodes, labelled ``0 .. nnodes-1``;
* ``route(src, dst)`` — the ordered list of directed channels a message
  occupies under the machine's deterministic wormhole routing function
  (dimension-ordered XY routing on meshes, e-cube on hypercubes);
* ``channels()`` — all directed channels, for capacity accounting.

Channels are represented as ``(u, v)`` node-id pairs with ``u`` adjacent
to ``v``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

Channel = Tuple[int, int]


class Topology:
    """Base class for physical interconnects."""

    #: number of nodes
    nnodes: int

    def route(self, src: int, dst: int) -> List[Channel]:
        """Directed channels traversed by a message from src to dst."""
        raise NotImplementedError

    def channels(self) -> Iterable[Channel]:
        """All directed channels of the interconnect."""
        raise NotImplementedError

    def check_node(self, node: int) -> None:
        if not 0 <= node < self.nnodes:
            raise ValueError(f"node {node} out of range [0, {self.nnodes})")

    # -- degraded routing (docs/robustness.md) --------------------------
    #
    # When links fail, the deterministic wormhole routing function above
    # no longer suffices: an XY route through a dead channel would hang
    # the worm.  ``route_avoiding`` is the fallback chain the fluid
    # network uses: the primary route, then the topology's dimension-
    # order alternative (YX on meshes), then a deterministic BFS over
    # the surviving channel graph.  All three are pure functions of
    # (src, dst, failed-set), so every rank agrees on the reroute.

    def alt_route(self, src: int, dst: int) -> Optional[List[Channel]]:
        """Secondary deterministic route, or None if the topology has
        only one routing function (e.g. linear arrays)."""
        return None

    def _adjacency(self) -> Dict[int, List[int]]:
        """Directed adjacency lists, neighbors sorted for determinism."""
        adj = getattr(self, "_adj_cache", None)
        if adj is None:
            adj = {u: [] for u in range(self.nnodes)}
            for (u, v) in set(self.channels()):
                adj[u].append(v)
            for u in adj:
                adj[u].sort()
            self._adj_cache = adj
        return adj

    def bfs_route(self, src: int, dst: int,
                  failed: Set[Channel]) -> Optional[List[Channel]]:
        """Shortest surviving path by BFS, or None when disconnected.

        Deterministic: neighbors are expanded in sorted order, so equal-
        length paths always resolve the same way on every rank.
        """
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return []
        adj = self._adjacency()
        prev: Dict[int, int] = {src: src}
        queue = deque((src,))
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v in prev or (u, v) in failed:
                    continue
                prev[v] = u
                if v == dst:
                    path: List[Channel] = []
                    while v != src:
                        path.append((prev[v], v))
                        v = prev[v]
                    path.reverse()
                    return path
                queue.append(v)
        return None

    def route_avoiding(self, src: int, dst: int,
                       failed: Set[Channel]) -> Optional[List[Channel]]:
        """Best deterministic route that uses no failed channel.

        Tries the primary wormhole route, then :meth:`alt_route`
        (dimension-order fallback), then BFS over surviving channels.
        Returns None only when src and dst are disconnected.
        """
        primary = self.route(src, dst)
        if not any(ch in failed for ch in primary):
            return primary
        alt = self.alt_route(src, dst)
        if alt is not None and not any(ch in failed for ch in alt):
            return alt
        return self.bfs_route(src, dst, failed)

    def __len__(self) -> int:
        return self.nnodes


class LinearArray(Topology):
    """A one-dimensional array of ``p`` nodes with bidirectional links.

    This is the setting in which the paper develops all of its building
    blocks (section 4).  The route between two nodes is the unique
    monotone path.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("need at least one node")
        self.nnodes = p

    def route(self, src: int, dst: int) -> List[Channel]:
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return []
        step = 1 if dst > src else -1
        return [(u, u + step) for u in range(src, dst, step)]

    def channels(self) -> Iterable[Channel]:
        for u in range(self.nnodes - 1):
            yield (u, u + 1)
            yield (u + 1, u)

    def __repr__(self) -> str:
        return f"LinearArray({self.nnodes})"


class Ring(Topology):
    """A one-dimensional torus: like :class:`LinearArray` plus a
    wrap-around link between the last and first node.

    Routing takes the shorter direction; ties go clockwise (increasing
    node ids), which keeps the routing function deterministic.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("need at least one node")
        self.nnodes = p

    def route(self, src: int, dst: int) -> List[Channel]:
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return []
        p = self.nnodes
        fwd = (dst - src) % p
        bwd = (src - dst) % p
        if fwd <= bwd:
            return [((src + i) % p, (src + i + 1) % p) for i in range(fwd)]
        return [((src - i) % p, (src - i - 1) % p) for i in range(bwd)]

    def alt_route(self, src: int, dst: int) -> Optional[List[Channel]]:
        """The longer way around the ring."""
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return None
        p = self.nnodes
        fwd = (dst - src) % p
        bwd = (src - dst) % p
        if fwd <= bwd:  # primary went clockwise; go counter-clockwise
            return [((src - i) % p, (src - i - 1) % p) for i in range(bwd)]
        return [((src + i) % p, (src + i + 1) % p) for i in range(fwd)]

    def channels(self) -> Iterable[Channel]:
        p = self.nnodes
        for u in range(p):
            yield (u, (u + 1) % p)
            yield ((u + 1) % p, u)

    def __repr__(self) -> str:
        return f"Ring({self.nnodes})"


class Mesh2D(Topology):
    """A two-dimensional ``rows x cols`` mesh with dimension-ordered
    (XY) wormhole routing — the paper's target architecture.

    Node ids are assigned row-major: node ``i`` sits at row ``i // cols``,
    column ``i % cols``.  A message first travels along its source row to
    the destination column (X phase), then along that column (Y phase).
    XY routing is deterministic and deadlock-free, and it is what makes
    physical rows and columns conflict-free highways for the row/column
    algorithms of section 7.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("mesh dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.nnodes = rows * cols

    def coords(self, node: int) -> Tuple[int, int]:
        """(row, col) coordinates of a node id."""
        self.check_node(node)
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        """Node id at (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"({row}, {col}) outside {self.rows}x{self.cols}")
        return row * self.cols + col

    def route(self, src: int, dst: int) -> List[Channel]:
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return []
        sr, sc = divmod(src, self.cols)
        dr, dc = divmod(dst, self.cols)
        path: List[Channel] = []
        # X phase: move along the source row to the destination column.
        step = 1 if dc > sc else -1
        for c in range(sc, dc, step):
            path.append((sr * self.cols + c, sr * self.cols + c + step))
        # Y phase: move along the destination column.
        step = 1 if dr > sr else -1
        for r in range(sr, dr, step):
            path.append((r * self.cols + dc, (r + step) * self.cols + dc))
        return path

    def alt_route(self, src: int, dst: int) -> Optional[List[Channel]]:
        """YX routing: the other dimension order.

        Disjoint from the XY route except at the endpoints whenever the
        pair actually turns a corner, so a single failed link on the
        primary route never blocks the alternative.
        """
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return None
        sr, sc = divmod(src, self.cols)
        dr, dc = divmod(dst, self.cols)
        path: List[Channel] = []
        # Y phase first: move along the source column.
        step = 1 if dr > sr else -1
        for r in range(sr, dr, step):
            path.append((r * self.cols + sc, (r + step) * self.cols + sc))
        # X phase: move along the destination row.
        step = 1 if dc > sc else -1
        for c in range(sc, dc, step):
            path.append((dr * self.cols + c, dr * self.cols + c + step))
        return path

    def channels(self) -> Iterable[Channel]:
        for r in range(self.rows):
            for c in range(self.cols - 1):
                u = self.node_at(r, c)
                v = self.node_at(r, c + 1)
                yield (u, v)
                yield (v, u)
        for r in range(self.rows - 1):
            for c in range(self.cols):
                u = self.node_at(r, c)
                v = self.node_at(r + 1, c)
                yield (u, v)
                yield (v, u)

    def row_nodes(self, r: int) -> List[int]:
        """Node ids of physical row ``r`` in column order."""
        if not 0 <= r < self.rows:
            raise ValueError(f"row {r} out of range")
        return [self.node_at(r, c) for c in range(self.cols)]

    def col_nodes(self, c: int) -> List[int]:
        """Node ids of physical column ``c`` in row order."""
        if not 0 <= c < self.cols:
            raise ValueError(f"column {c} out of range")
        return [self.node_at(r, c) for r in range(self.rows)]

    def submesh_nodes(self, r0: int, c0: int, nr: int, nc: int
                      ) -> List[int]:
        """Row-major node ids of the ``nr x nc`` submesh anchored at
        ``(r0, c0)``.  Groups built this way classify as ``submesh``
        (:func:`repro.core.groups.classify`), so ``algorithm="auto"``
        also prices the conflict-free ``(C, R)`` mesh strategies."""
        if r0 < 0 or c0 < 0 or r0 + nr > self.rows or c0 + nc > self.cols:
            raise ValueError(f"submesh {nr}x{nc}@({r0},{c0}) exceeds "
                             f"{self.rows}x{self.cols}")
        return [self.node_at(r0 + i, c0 + j)
                for i in range(nr) for j in range(nc)]

    def __repr__(self) -> str:
        return f"Mesh2D({self.rows}, {self.cols})"


class Torus2D(Topology):
    """A 2-D wraparound mesh (torus) with dimension-ordered routing.

    Reference [6] of the paper (Bermond, Michallon & Trystram,
    *Broadcasting in Wraparound Meshes with Parallel Monodirectional
    Links*) studies this machine; the Paragon itself had no wraparound,
    but the torus makes every row and column a *physical* ring, so the
    bucket algorithms run without the reverse-channel wrap trick.

    Routing: X then Y, each dimension taking the shorter way around
    (ties clockwise, i.e. toward increasing coordinates).
    """

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("torus dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.nnodes = rows * cols

    def coords(self, node: int) -> Tuple[int, int]:
        self.check_node(node)
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        return (row % self.rows) * self.cols + (col % self.cols)

    def _ring_steps(self, frm: int, to: int, size: int) -> List[int]:
        """Coordinates visited moving the shorter way around a ring."""
        if frm == to:
            return []
        fwd = (to - frm) % size
        bwd = (frm - to) % size
        if fwd <= bwd:
            return [(frm + i + 1) % size for i in range(fwd)]
        return [(frm - i - 1) % size for i in range(bwd)]

    def route(self, src: int, dst: int) -> List[Channel]:
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return []
        sr, sc = divmod(src, self.cols)
        dr, dc = divmod(dst, self.cols)
        path: List[Channel] = []
        cur_c = sc
        for c in self._ring_steps(sc, dc, self.cols):
            path.append((self.node_at(sr, cur_c), self.node_at(sr, c)))
            cur_c = c
        cur_r = sr
        for r in self._ring_steps(sr, dr, self.rows):
            path.append((self.node_at(cur_r, dc), self.node_at(r, dc)))
            cur_r = r
        return path

    def alt_route(self, src: int, dst: int) -> Optional[List[Channel]]:
        """Y-then-X routing: the other dimension order around the torus."""
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return None
        sr, sc = divmod(src, self.cols)
        dr, dc = divmod(dst, self.cols)
        path: List[Channel] = []
        cur_r = sr
        for r in self._ring_steps(sr, dr, self.rows):
            path.append((self.node_at(cur_r, sc), self.node_at(r, sc)))
            cur_r = r
        cur_c = sc
        for c in self._ring_steps(sc, dc, self.cols):
            path.append((self.node_at(dr, cur_c), self.node_at(dr, c)))
            cur_c = c
        return path

    def channels(self) -> Iterable[Channel]:
        for r in range(self.rows):
            for c in range(self.cols):
                u = self.node_at(r, c)
                yield (u, self.node_at(r, c + 1))
                yield (self.node_at(r, c + 1), u)
                yield (u, self.node_at(r + 1, c))
                yield (self.node_at(r + 1, c), u)

    def row_nodes(self, r: int) -> List[int]:
        if not 0 <= r < self.rows:
            raise ValueError(f"row {r} out of range")
        return [self.node_at(r, c) for c in range(self.cols)]

    def col_nodes(self, c: int) -> List[int]:
        if not 0 <= c < self.cols:
            raise ValueError(f"column {c} out of range")
        return [self.node_at(r, c) for r in range(self.rows)]

    def __repr__(self) -> str:
        return f"Torus2D({self.rows}, {self.cols})"


class Hypercube(Topology):
    """A binary d-cube with e-cube (dimension-ordered) routing.

    Used by the section 8 / section 11 material: the iPSC/860 version of
    the library and the Ho–Johnsson EDST broadcast comparison.
    """

    def __init__(self, dims: int):
        if dims < 0:
            raise ValueError("dimension must be non-negative")
        if dims > 20:
            raise ValueError("refusing to build a hypercube with 2^%d nodes"
                             % dims)
        self.dims = dims
        self.nnodes = 1 << dims

    def route(self, src: int, dst: int) -> List[Channel]:
        self.check_node(src)
        self.check_node(dst)
        path: List[Channel] = []
        cur = src
        diff = src ^ dst
        for d in range(self.dims):
            if diff & (1 << d):
                nxt = cur ^ (1 << d)
                path.append((cur, nxt))
                cur = nxt
        return path

    def alt_route(self, src: int, dst: int) -> Optional[List[Channel]]:
        """E-cube with the dimensions corrected highest-first."""
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return None
        path: List[Channel] = []
        cur = src
        diff = src ^ dst
        for d in reversed(range(self.dims)):
            if diff & (1 << d):
                nxt = cur ^ (1 << d)
                path.append((cur, nxt))
                cur = nxt
        return path

    def channels(self) -> Iterable[Channel]:
        for u in range(self.nnodes):
            for d in range(self.dims):
                yield (u, u ^ (1 << d))

    def __repr__(self) -> str:
        return f"Hypercube({self.dims})"


class FullyConnected(Topology):
    """An idealized crossbar: every pair of nodes has a private channel.

    Useful for isolating algorithmic costs from network conflicts in
    tests — on this topology *no* message ever shares a channel, so only
    the injection/ejection port constraints of section 2 remain.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("need at least one node")
        self.nnodes = p

    def route(self, src: int, dst: int) -> List[Channel]:
        self.check_node(src)
        self.check_node(dst)
        if src == dst:
            return []
        return [(src, dst)]

    def channels(self) -> Iterable[Channel]:
        for u in range(self.nnodes):
            for v in range(self.nnodes):
                if u != v:
                    yield (u, v)

    def __repr__(self) -> str:
        return f"FullyConnected({self.nnodes})"


def route_length(topology: Topology, src: int, dst: int) -> int:
    """Number of channels on the route from src to dst."""
    return len(topology.route(src, dst))
