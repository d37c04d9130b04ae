"""Hypercube broadcast in the EDST spirit (sections 8 and 11).

The iPSC/860 version of the library (section 11) used "algorithms more
appropriate for hypercubes (including the EDST broadcast)".  The genuine
Ho-Johnsson edge-disjoint spanning-tree broadcast depends on an all-port
schedule woven across ``log p`` rotated spanning binomial trees; its
*performance signature* on the one-port machines this library targeted
is the one the paper discusses: asymptotically ``n beta`` (twice as fast
as scatter/collect's ``2 n beta`` for long vectors) at the price of deep
pipelining and architecture-specific scheduling.

We reproduce that signature with a pipelined broadcast along the
hypercube's binary-reflected Gray-code Hamiltonian cycle: every chain
hop is a single hypercube link, the chunked pipeline reaches ``n beta``
asymptotically, and the fragility (each of the ``p + K`` store-and-
forward stages adds its own OS jitter to the critical path) is the same.
DESIGN.md records this substitution.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

import numpy as np

from ..core.context import CollContext
from ..core.topology import Hypercube
from .pipelined import chain_order, pipelined_bcast


def gray_code_group(cube: Hypercube) -> List[int]:
    """The hypercube's nodes in binary-reflected Gray-code order —
    a Hamiltonian cycle, so consecutive group members are neighbors."""
    return chain_order(cube)


def edst_bcast(ctx: CollContext, buf: Optional[np.ndarray],
               root: int = 0, total: Optional[int] = None,
               chunks: Optional[int] = None,
               jitter: Optional[Callable[[], float]] = None) -> Generator:
    """EDST-class broadcast: pipelined streaming along the Gray-code
    chain of a hypercube-ordered group.

    ``ctx`` must already be ordered so that consecutive logical ranks
    are physical neighbors (build the group with
    :func:`gray_code_group`); ``root`` is a logical rank in that order.
    """
    return (yield from pipelined_bcast(ctx, buf, root=root, total=total,
                                       chunks=chunks, jitter=jitter))
