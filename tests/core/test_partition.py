"""Tests for vector partitioning (the n_i ~= n/p convention)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coarsen, partition_offsets, partition_sizes, split
from repro.core.partition import block_of


class TestPartitionSizes:
    def test_even(self):
        assert partition_sizes(12, 4) == [3, 3, 3, 3]

    def test_remainder_goes_to_leading_blocks(self):
        assert partition_sizes(10, 4) == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        assert partition_sizes(2, 5) == [1, 1, 0, 0, 0]

    def test_zero_length(self):
        assert partition_sizes(0, 3) == [0, 0, 0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            partition_sizes(5, 0)
        with pytest.raises(ValueError):
            partition_sizes(-1, 2)

    @given(st.integers(0, 10_000), st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_invariants(self, n, p):
        sizes = partition_sizes(n, p)
        assert len(sizes) == p
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1          # balanced
        assert sizes == sorted(sizes, reverse=True)  # extras lead

    def test_matches_numpy_array_split(self):
        for n in (0, 1, 7, 10, 100, 101):
            for p in (1, 2, 3, 7, 10):
                ours = partition_sizes(n, p)
                numpys = [len(b) for b in
                          np.array_split(np.arange(n), p)]
                assert ours == numpys


class TestOffsetsAndBlocks:
    def test_offsets(self):
        assert partition_offsets([3, 3, 2]) == [0, 3, 6, 8]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            partition_offsets([2, -1])

    def test_no_blocks(self):
        assert partition_offsets([]) == [0]

    def test_block_of(self):
        x = np.arange(10.0)
        assert np.array_equal(block_of(x, [3, 3, 2, 2], 1), [3.0, 4.0, 5.0])

    def test_block_of_checks_coverage(self):
        with pytest.raises(ValueError, match="covers"):
            block_of(np.arange(10.0), [3, 3], 0)

    def test_split_views(self):
        x = np.arange(10.0)
        blocks = split(x, 3)
        assert [len(b) for b in blocks] == [4, 3, 3]
        assert np.array_equal(np.concatenate(blocks), x)
        # views, not copies
        blocks[0][0] = 99.0
        assert x[0] == 99.0


class TestCoarsen:
    def test_merges_runs(self):
        assert coarsen([1, 2, 3, 4], 2) == [3, 7]

    def test_identity(self):
        assert coarsen([5, 6], 1) == [5, 6]

    def test_full_merge(self):
        assert coarsen([1, 2, 3], 3) == [6]

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            coarsen([1, 2, 3], 2)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=24),
           st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_preserves_total(self, sizes, f):
        if len(sizes) % f != 0:
            sizes = sizes[:len(sizes) - len(sizes) % f] or [0] * f
        assert sum(coarsen(sizes, f)) == sum(sizes)
