"""A fixed reference kernel that measures how fast the host runs now.

A shared virtual machine can run the same code 1.5-2x slower for
minutes at a time when its neighbours are busy, and that slowdown shows
in CPU time as well as in wall time, so neither clock alone makes runs
comparable.  The benchmark therefore times this kernel between ops, in
its own process, and scales every host-time figure of a run by
``NOMINAL_S / median(kernel time)``: the figure the op would have had on
a host where the kernel takes ``NOMINAL_S``.  The kernel is the
benchmark's own code and never changes with the library, so a faster or
slower library moves the scaled figures exactly as it moves the raw
ones.

The kernel mixes what the library's hot paths do: random-order lookups
in a large dict of small objects (the interpreter's cache behaviour) and
passes over an 8 MiB array (memory bandwidth, as pickling and numpy
combines use it).  Its data stays resident for the whole run and never
grows; :attr:`Reference.footprint_mb` is its size, which the benchmark
takes out of the process's peak memory.
"""

from __future__ import annotations

import os
import random
import statistics
from time import perf_counter

import numpy as np

#: kernel time, in seconds, of the host every scaled figure refers to
NOMINAL_S = 0.015

_TABLE_SIZE = 1 << 16
_LOOKUPS = 16000


def rss_mb() -> float:
    """Resident memory of this process now."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Reference:
    """The kernel's data and the kernel times measured so far."""

    #: :meth:`pause` samples once this many seconds passed since the last
    EVERY_S = 0.2

    def __init__(self):
        before = rss_mb()
        keys = [(i * 2654435761) % (1 << 32) for i in range(_TABLE_SIZE)]
        self._table = {k: [i] for i, k in enumerate(keys)}
        random.Random(0).shuffle(keys)
        self._probe = keys[:_LOOKUPS]
        del keys
        self._buf = np.ones(1 << 20)
        self.samples = []
        self.sample()               # the first pass runs cold
        self.restart()
        #: resident size of the kernel's data
        self.footprint_mb = rss_mb() - before

    def sample(self) -> float:
        """Time one pass of the kernel and keep the sample."""
        t0 = perf_counter()
        total = 0
        for k in self._probe:
            total += self._table[k][0]
        self._buf += 1.0
        self._buf -= 1.0
        dt = perf_counter() - t0
        self.samples.append(dt)
        self._last = perf_counter()
        return dt

    def restart(self) -> None:
        """Drop the samples so far; the next :meth:`pause` samples."""
        self.samples.clear()
        self._last = float("-inf")

    def pause(self) -> None:
        """Take a sample if one is due; called between timed ops."""
        if perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor from this run's host seconds to nominal seconds."""
        return NOMINAL_S / statistics.median(self.samples)
