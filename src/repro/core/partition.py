"""Vector partitioning utilities.

The paper partitions a vector ``x`` of ``n`` items into subvectors
``x_0 .. x_{p-1}`` with ``n_i ~= n/p`` (section 3).  We use the balanced
convention in which the first ``n mod p`` blocks get one extra element —
the same convention as :func:`numpy.array_split` — so every module in the
library agrees on block boundaries without communicating them.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np


def partition_sizes(n: int, p: int) -> List[int]:
    """Balanced block sizes: the first ``n % p`` blocks get the extra."""
    if p < 1:
        raise ValueError("need at least one block")
    if n < 0:
        raise ValueError("vector length must be non-negative")
    q, r = divmod(n, p)
    return [q + 1 if i < r else q for i in range(p)]


def partition_offsets(sizes: Sequence[int]) -> List[int]:
    """Prefix sums: ``offsets[i] .. offsets[i+1]`` is block ``i``."""
    if min(sizes, default=0) < 0:
        raise ValueError("block sizes must be non-negative")
    return [0, *itertools.accumulate(sizes)]


def block_of(x: np.ndarray, sizes: Sequence[int], i: int) -> np.ndarray:
    """View of block ``i`` of ``x`` under the given partition."""
    offs = partition_offsets(sizes)
    if offs[-1] != len(x):
        raise ValueError(
            f"partition covers {offs[-1]} elements but vector has {len(x)}")
    return x[offs[i]:offs[i + 1]]


def split(x: np.ndarray, p: int) -> List[np.ndarray]:
    """Balanced split of ``x`` into ``p`` block views."""
    sizes = partition_sizes(len(x), p)
    offs = partition_offsets(sizes)
    return [x[offs[i]:offs[i + 1]] for i in range(p)]


def coarsen(sizes: Sequence[int], factor: int) -> List[int]:
    """Merge consecutive runs of ``factor`` blocks into single blocks.

    Used by hybrid stages: after a collect along an inner dimension of
    size ``factor``, each group of ``factor`` fine blocks behaves as one
    coarse block for the next (outer) stage.
    """
    if factor < 1 or len(sizes) % factor != 0:
        raise ValueError(
            f"cannot coarsen {len(sizes)} blocks by a factor of {factor}")
    return [sum(sizes[i:i + factor]) for i in range(0, len(sizes), factor)]
