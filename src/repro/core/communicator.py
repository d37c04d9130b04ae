"""MPI-like communicator layer (sections 9-10).

The paper: "it was relatively straightforward for us to provide a
MPI-like interface to our collective communications, thereby extending
our high-performance hybrid algorithms to group collective
communication."

A :class:`Communicator` bundles a group with a context id (tag space) and
exposes the collectives as methods.  Deriving communicators —
:meth:`split`, :meth:`incl`, mesh :meth:`row_comm`/:meth:`col_comm` —
allocates fresh context ids deterministically, so concurrent collectives
on sibling communicators never cross-match messages.

All methods are SPMD generators, like the rest of the library.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Tuple, Union

import numpy as np

from . import api
from .context import CollContext
from .groups import Group
from .protocol import RankEnvBase

#: radix of the derived-context-id scheme.  Ids are base-_FANOUT digit
#: strings: child ``k`` of a communicator appends digit ``k``
#: (``1 <= k <= _FANOUT - 2``), and the reserved top digit
#: ``_FANOUT - 1`` is an *escape*: once a communicator has handed out
#: ``_FANOUT - 2`` children it rebases (appends the escape digit) and
#: keeps counting, so the number of derived communicators is unbounded.
#: Because no digit is ever 0 and the escape digit is never a terminal
#: child digit, distinct derivation paths always yield distinct ids —
#: concurrent collectives on sibling communicators can never
#: cross-match messages, no matter how many are derived (long-lived
#: real-backend processes derive far more than simulated runs do).
_FANOUT = 1024


class Communicator:
    """An MPI-style communicator over the simulated machine.

    Create the world communicator with :meth:`world`, then derive
    subcommunicators.  SPMD discipline applies: every member must make
    the same sequence of derivation and collective calls.
    """

    def __init__(self, env, group: Union[None, Sequence[int], Group] = None,
                 context_id: int = 1):
        self.env = env
        self.ctx = CollContext(env, group, tag=context_id)
        self.context_id = context_id
        self._children = 0
        #: id prefix new children extend; advances past ``context_id``
        #: when the escape digit is appended (see ``_FANOUT``)
        self._id_base = context_id

    # ------------------------------------------------------------------

    @classmethod
    def world(cls, env: RankEnvBase) -> "Communicator":
        """The communicator over all nodes."""
        return cls(env, None, context_id=1)

    @property
    def rank(self) -> Optional[int]:
        return self.ctx.rank

    @property
    def size(self) -> int:
        return self.ctx.size

    @property
    def group(self) -> Tuple[int, ...]:
        return self.ctx.group

    def _next_context_id(self) -> int:
        """A fresh, globally unique context id for a derived communicator.

        SPMD-deterministic: every member derives in the same order, so
        all ranks compute the same id without communicating.  The digit
        scheme (see ``_FANOUT``) is unbounded — when this communicator
        exhausts a digit block it appends the reserved escape digit and
        keeps allocating from the extended prefix, so long-lived
        processes can derive arbitrarily many communicators without id
        collisions (ids grow by one base-1024 digit per 1022 children).
        """
        self._children += 1
        if self._children >= _FANOUT - 1:
            self._id_base = self._id_base * _FANOUT + (_FANOUT - 1)
            self._children = 1
        return self._id_base * _FANOUT + self._children

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def dup(self) -> "Communicator":
        """Same group, fresh context id."""
        return Communicator(self.env, self.ctx.group,
                            self._next_context_id())

    def incl(self, lranks: Sequence[int]) -> "Communicator":
        """Subcommunicator of the given logical ranks (in that order).

        Every member of *this* communicator must call this (SPMD); the
        returned communicator's ``rank`` is None for non-members.
        """
        return Communicator(self.env, self.ctx.grp.sub(lranks),
                            self._next_context_id())

    def shrink(self) -> "Communicator":
        """Subcommunicator excluding crashed nodes (ULFM-style recovery,
        docs/robustness.md).

        Under the simulator's perfect failure detector every member sees
        the same set of scheduled crashes, so all survivors derive the
        same group and the same context id without communicating — the
        local analogue of ``MPIX_Comm_shrink``.  Logical rank order of
        survivors is preserved.  Raises when *every* member is crashed
        (the calling rank must itself be a survivor to use the result).
        """
        eng = getattr(self.env, "engine", None)
        fs = eng._faults if eng is not None else None
        dead = (fs.schedule.crashed_nodes() if fs is not None
                else frozenset())
        survivors = [l for l, node in enumerate(self.ctx.group)
                     if node not in dead]
        if not survivors:
            raise RuntimeError("shrink: no surviving members in group")
        return self.incl(survivors)

    def split(self, color: int, key: Optional[int] = None) -> Generator:
        """MPI_Comm_split: members with equal ``color`` form a new
        communicator, ordered by ``key`` (then by old rank).

        Collective: involves an allgather of (color, key) pairs.
        Yields (generator); returns the new communicator.
        """
        me = self.ctx.require_member()
        if key is None:
            key = me
        mine = np.array([color, key], dtype=np.int64)
        ctx = CollContext(self.env, self.ctx.group,
                          tag=self._next_context_id())
        # All members learn everyone's (color, key): a collect of two
        # int64s per rank.
        from .primitives_long import bucket_collect
        allpairs = yield from bucket_collect(ctx, mine,
                                             sizes=[2] * self.size)
        pairs = allpairs.reshape(self.size, 2)
        members = [l for l in range(self.size)
                   if pairs[l, 0] == color]
        members.sort(key=lambda l: (int(pairs[l, 1]), l))
        return Communicator(self.env, self.ctx.grp.sub(members),
                            self._next_context_id())

    # ------------------------------------------------------------------
    # mesh helpers
    # ------------------------------------------------------------------

    def _submesh_shape(self) -> Tuple[int, int]:
        grp = self.ctx.grp
        if grp.topology is None:
            raise RuntimeError(
                "communicator group structure is unknown: the env has no "
                "topology metadata (launch the backend with a topology "
                "description to use row/col communicators)")
        if grp.mesh_shape is None:
            raise RuntimeError(
                "communicator group is not a mesh-aligned submesh")
        return grp.mesh_shape

    def row_comm(self) -> "Communicator":
        """Communicator over this rank's row of the submesh group."""
        me = self.ctx.require_member()
        nr, nc = self._submesh_shape()
        r = me // nc
        # every rank derives all row communicators in the same order so
        # context ids agree; return the one containing this rank
        comms = [self.incl([rr * nc + c for c in range(nc)])
                 for rr in range(nr)]
        return comms[r]

    def col_comm(self) -> "Communicator":
        """Communicator over this rank's column of the submesh group."""
        me = self.ctx.require_member()
        nr, nc = self._submesh_shape()
        c = me % nc
        comms = [self.incl([r * nc + cc for r in range(nr)])
                 for cc in range(nc)]
        return comms[c]

    # ------------------------------------------------------------------
    # collectives (delegating to the iCC API with this group/tag)
    # ------------------------------------------------------------------

    def bcast(self, buf, root: int = 0, *, total: Optional[int] = None,
              algorithm: api.AlgorithmSpec = "auto") -> Generator:
        return (yield from api.bcast(self.ctx, buf, root, total=total,
                                     algorithm=algorithm))

    def reduce(self, vec, op="sum", root: int = 0, *,
               algorithm: api.AlgorithmSpec = "auto") -> Generator:
        return (yield from api.reduce(self.ctx, vec, op, root,
                                      algorithm=algorithm))

    def allreduce(self, vec, op="sum", *,
                  algorithm: api.AlgorithmSpec = "auto") -> Generator:
        return (yield from api.allreduce(self.ctx, vec, op,
                                         algorithm=algorithm))

    def allgather(self, myblock, *, sizes=None,
                  algorithm: api.AlgorithmSpec = "auto") -> Generator:
        return (yield from api.collect(self.ctx, myblock, sizes=sizes,
                                       algorithm=algorithm))

    # the paper's name for allgather
    collect = allgather

    def reduce_scatter(self, vec, op="sum", *, sizes=None,
                       algorithm: api.AlgorithmSpec = "auto") -> Generator:
        return (yield from api.reduce_scatter(self.ctx, vec, op,
                                              sizes=sizes,
                                              algorithm=algorithm))

    def scatter(self, buf, root: int = 0, *, total=None,
                sizes=None) -> Generator:
        return (yield from api.scatter(self.ctx, buf, root, total=total,
                                       sizes=sizes))

    def gather(self, myblock, root: int = 0, *, sizes=None) -> Generator:
        return (yield from api.gather(self.ctx, myblock, root,
                                      sizes=sizes))

    def barrier(self) -> Generator:
        return (yield from api.barrier(self.ctx))

    def __repr__(self) -> str:
        return (f"Communicator(rank={self.rank}/{self.size}, "
                f"cid={self.context_id})")
