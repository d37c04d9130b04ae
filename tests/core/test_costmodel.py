"""Tests for the closed-form cost model — including the Table 2
reproduction, which pins the section 6 hybrid formulas."""

import pytest

from repro.core import CostModel, Strategy, ceil_log2
from repro.sim import MachineParams, UNIT

#: the unit machine Table 2 is computed on: alpha = beta = 1, no
#: overheads, unit link capacity, gamma irrelevant for broadcast
T2 = CostModel(MachineParams(alpha=1, beta=1, gamma=0, sw_overhead=0,
                             link_capacity=1), itemsize=1)

#: Table 2 rows as (dims, ops) -> (alpha coeff, beta coeff * 30).
#: Eight of the paper's nine rows; the scanned first row (3x10 SMC,
#: printed as 16a + 240/30) is inconsistent with the paper's own general
#: cost formula, which gives 8a + 160/30 — see EXPERIMENTS.md.
TABLE2 = {
    ((3, 10), "SMC"): (8, 160),
    ((2, 3, 5), "SSMCC"): (9, 160),
    ((30,), "M"): (5, 150),
    ((2, 15), "SMC"): (6, 150),
    ((3, 10), "SSCC"): (17, 94),
    ((10, 3), "SSCC"): (17, 94),
    ((2, 15), "SSCC"): (20, 86),
    ((5, 6), "SSCC"): (15, 98),
    ((6, 5), "SSCC"): (15, 98),
}


class TestCeilLog2:
    def test_values(self):
        assert [ceil_log2(p) for p in (1, 2, 3, 4, 5, 8, 9, 30)] == \
            [0, 1, 2, 2, 3, 3, 4, 5]

    def test_invalid(self):
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestPrimitiveCosts:
    cm = CostModel(UNIT, itemsize=8)

    def test_mst_bcast(self):
        assert self.cm.mst_bcast(8, 10) == 3 * (1 + 80)

    def test_mst_reduce_includes_gamma(self):
        assert self.cm.mst_reduce(8, 10) == 3 * (1 + 80 + 10)

    def test_scatter(self):
        assert self.cm.mst_scatter(8, 16) == pytest.approx(
            3 + 7 / 8 * 128)

    def test_bucket_collect(self):
        assert self.cm.bucket_collect(8, 16) == pytest.approx(
            7 + 7 / 8 * 128)

    def test_bucket_reduce_scatter(self):
        assert self.cm.bucket_reduce_scatter(8, 16) == pytest.approx(
            7 + 7 / 8 * 128 + 7 / 8 * 16)

    def test_single_node_free(self):
        assert self.cm.bucket_collect(1, 100) == 0.0
        assert self.cm.mst_bcast(1, 100) == 0.0

    def test_overhead_charged(self):
        cm = CostModel(UNIT.with_(sw_overhead=5.0), itemsize=8)
        assert cm.mst_bcast(8, 10) == 3 * (1 + 80 + 5)

    def test_conflicts_can_be_disabled(self):
        cm = CostModel(UNIT, itemsize=8)
        s = Strategy((2, 15), "SSCC")
        t_plain = cm.hybrid("bcast", s, 30, conflicts=[1.0] * 2)
        t_conf = cm.hybrid("bcast", s, 30)
        assert t_plain < t_conf


def table2_coefficients(strategy):
    """Table 2's ``(A, B)``: the alpha and beta shares of a one-byte
    broadcast on the unit machine."""
    terms = T2.terms("bcast", strategy, 1)
    return terms["alpha"], terms["beta"]


class TestTable2:
    @pytest.mark.parametrize("dims,ops", sorted(TABLE2))
    def test_row(self, dims, ops):
        A, B = table2_coefficients(Strategy(dims, ops))
        a_ref, b30_ref = TABLE2[(dims, ops)]
        assert A == pytest.approx(a_ref)
        assert B * 30 == pytest.approx(b30_ref)

    def test_rows_order_by_beta_trades_alpha(self):
        """Table 2's point: lower beta coefficients cost more alpha."""
        mst = table2_coefficients(Strategy((30,), "M"))
        sscc = table2_coefficients(Strategy((2, 15), "SSCC"))
        assert sscc[1] < mst[1]      # better bandwidth
        assert sscc[0] > mst[0]      # worse latency

    def test_coefficients_match_full_cost(self):
        s = Strategy((2, 3, 5), "SSMCC")
        A, B = table2_coefficients(s)
        n = 600
        assert T2.hybrid("bcast", s, n) == pytest.approx(A + B * n)


class TestHybridCosts:
    """With one dimension the hybrids are section 5's compositions."""
    cm = CostModel(UNIT, itemsize=8)

    def test_sc_equals_long_bcast(self):
        """Long broadcast = scatter + bucket collect."""
        assert self.cm.hybrid("bcast", Strategy((8,), "SC"), 80) == \
            self.cm.mst_scatter(8, 80) + self.cm.bucket_collect(8, 80)

    def test_m_equals_mst(self):
        assert self.cm.hybrid("bcast", Strategy((8,), "M"), 80) == \
            self.cm.mst_bcast(8, 80)

    def test_reduce_sc_equals_long_reduce(self):
        """Long combine-to-one = bucket distributed combine + gather."""
        assert self.cm.hybrid("reduce", Strategy((8,), "SC"), 80) == \
            self.cm.bucket_reduce_scatter(8, 80) + self.cm.mst_gather(8, 80)

    def test_allreduce_m_equals_short(self):
        """Short combine-to-all = combine-to-one + MST broadcast."""
        assert self.cm.hybrid("allreduce", Strategy((8,), "M"), 80) == \
            self.cm.mst_reduce(8, 80) + self.cm.mst_bcast(8, 80)

    def test_allreduce_sc_equals_long(self):
        """Long combine-to-all = bucket distributed combine + bucket
        collect."""
        assert self.cm.hybrid("allreduce", Strategy((8,), "SC"), 80) == \
            self.cm.bucket_reduce_scatter(8, 80) + \
            self.cm.bucket_collect(8, 80)

    def test_collect_single_bucket_stage(self):
        assert self.cm.hybrid("collect", Strategy((8,), "C"), 80) == \
            self.cm.bucket_collect(8, 80)

    def test_collect_kernel_equals_short_collect(self):
        """Short collect = gather + MST broadcast."""
        assert self.cm.hybrid("collect", Strategy((8,), "M"), 80) == \
            self.cm.mst_gather(8, 80) + self.cm.mst_bcast(8, 80)

    def test_reduce_scatter_kernel_equals_short(self):
        """Short distributed combine = combine-to-one + scatter."""
        assert self.cm.hybrid("reduce_scatter", Strategy((8,), "M"), 80) \
            == self.cm.mst_reduce(8, 80) + self.cm.mst_scatter(8, 80)

    def test_two_dim_piece_lengths(self):
        """Each stage is priced at the piece it moves: a collect merges
        blocks outward, a distributed combine splits the vector inward,
        and a broadcast scatters in, then collects back out."""
        cm = self.cm
        assert cm.hybrid("collect", Strategy((4, 2), "MC"), 80,
                         conflicts=[1.0, 1.0]) == \
            (cm.mst_gather(4, 40) + cm.mst_bcast(4, 40)) + \
            cm.bucket_collect(2, 80)
        assert cm.hybrid("reduce_scatter", Strategy((4, 2), "SM"), 80,
                         conflicts=[1.0, 1.0]) == \
            cm.bucket_reduce_scatter(2, 80) + \
            (cm.mst_reduce(4, 40) + cm.mst_scatter(4, 40))
        assert cm.hybrid("reduce", Strategy((4, 2), "SMC"), 80,
                         conflicts=[1.0, 1.0]) == \
            cm.bucket_reduce_scatter(4, 80) + cm.mst_reduce(2, 20) + \
            cm.mst_gather(4, 80)

    def test_dispatch(self):
        """The broadcast walk with the default linear-array conflicts:
        dimension 2 has stride 4, so its stages pay factor 4."""
        cm = self.cm
        s = Strategy((4, 8), "SSCC")
        assert cm.hybrid("bcast", s, 100) == (
            cm.mst_scatter(4, 100, 1.0) + cm.mst_scatter(8, 25, 4.0)
            + cm.bucket_collect(8, 25, 4.0) + cm.bucket_collect(4, 100, 1.0))
        with pytest.raises(KeyError):
            self.cm.hybrid("gossip", s, 100)

    def test_family_validation_enforced(self):
        with pytest.raises(ValueError):
            self.cm.hybrid("collect", Strategy((4, 8), "SC"), 100)

    def test_custom_conflicts_override(self):
        s = Strategy((2, 15), "SSCC")
        free = self.cm.hybrid("bcast", s, 300, conflicts=[1.0, 1.0])
        default = self.cm.hybrid("bcast", s, 300)
        assert free < default

    def test_link_capacity_shrinks_conflict_factor(self):
        cm4 = CostModel(UNIT.with_(link_capacity=4.0), itemsize=8)
        assert cm4.conflict_factor(2) == 1.0
        assert cm4.conflict_factor(8) == 2.0
        cm1 = CostModel(UNIT, itemsize=8)
        assert cm1.conflict_factor(2) == 2.0


class TestBidirectionalCosts:
    cm = CostModel(UNIT, itemsize=8)

    def test_half_the_rounds(self):
        uni = self.cm.bucket_collect(9, 90)
        bi = self.cm.bidirectional_collect(9, 90)
        # 8 rounds -> 4 rounds; beta unchanged
        assert bi == pytest.approx(uni - 4 * UNIT.alpha)

    def test_reduce_scatter_variant(self):
        uni = self.cm.bucket_reduce_scatter(8, 80)
        bi = self.cm.bidirectional_reduce_scatter(8, 80)
        assert bi < uni
        assert bi == pytest.approx(uni - 3 * UNIT.alpha)

    def test_single_node_free(self):
        assert self.cm.bidirectional_collect(1, 50) == 0.0
        assert self.cm.bidirectional_reduce_scatter(1, 50) == 0.0
