"""Tests for hybrid strategy descriptors and enumeration (section 6)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (CostModel, Strategy, candidates, family_ops,
                        hybrid, ordered_factorizations)
from repro.core.strategy import OPERATIONS, STAGE_TABLE
from repro.sim import UNIT


class TestStrategy:
    def test_paper_notation(self):
        s = Strategy((2, 3, 5), "SSMCC")
        assert str(s) == "(2x3x5, SSMCC)"
        assert s.p == 30
        assert s.nscatter == 2
        assert s.ncollect == 2
        assert s.has_kernel

    def test_strides(self):
        s = Strategy((2, 3, 5), "SSMCC")
        assert [s.stride(i) for i in range(3)] == [1, 2, 6]

    def test_parse(self):
        s = Strategy.parse("2x3x5:SSMCC")
        assert s == Strategy((2, 3, 5), "SSMCC")
        assert Strategy.parse("(30, M)") == Strategy((30,), "M")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Strategy.parse("30 nodes please")

    def test_bad_ops_rejected(self):
        with pytest.raises(ValueError, match="S\\*M\\?C\\*"):
            Strategy((4,), "CMS")
        with pytest.raises(ValueError):
            Strategy((4,), "MM")

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            Strategy((), "M")

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ValueError):
            Strategy((0, 4), "SC")


SMC = ("bcast", "reduce", "allreduce")


class TestFamilyValidation:
    def test_smc_family_accepts(self):
        for op in SMC:
            Strategy((30,), "M").check(op)
            Strategy((30,), "SC").check(op)
            Strategy((2, 15), "SMC").check(op)
            Strategy((2, 3, 5), "SSMCC").check(op)
            Strategy((5, 6), "SSCC").check(op)

    def test_smc_family_rejects(self):
        for op in SMC:
            with pytest.raises(ValueError):
                Strategy((2, 3, 5), "SSCC").check(op)  # dims/ops mismatch
            with pytest.raises(ValueError):
                Strategy((2, 15), "SMCC").check(op)    # unbalanced
            with pytest.raises(ValueError):
                Strategy((4,), "").check(op)

    def test_collect_family(self):
        Strategy((4, 8), "CC").check("collect")
        Strategy((4, 8), "MC").check("collect")
        Strategy((32,), "M").check("collect")
        with pytest.raises(ValueError):
            Strategy((4, 8), "SC").check("collect")
        with pytest.raises(ValueError):
            Strategy((4, 8), "CM").check("collect")  # kernel not innermost

    def test_reduce_scatter_family(self):
        Strategy((4, 8), "SS").check("reduce_scatter")
        Strategy((4, 8), "SM").check("reduce_scatter")
        Strategy((32,), "M").check("reduce_scatter")
        with pytest.raises(ValueError):
            Strategy((4, 8), "SC").check("reduce_scatter")
        with pytest.raises(ValueError):
            Strategy((4, 8), "MS").check("reduce_scatter")

    def test_unknown_operation(self):
        with pytest.raises(KeyError, match="gossip"):
            Strategy((4,), "M").check("gossip")
        with pytest.raises(KeyError):
            family_ops("scatter", 1)

    def test_canonical_helpers(self):
        """Section 5's compositions are the k = 1 family forms."""
        assert family_ops("bcast", 1) == ("SC", "M")
        assert family_ops("collect", 1) == ("C", "M")
        assert family_ops("reduce_scatter", 1) == ("S", "M")
        assert family_ops("allreduce", 3) == ("SSSCCC", "SSMCC")
        assert family_ops("collect", 3) == ("CCC", "MCC")
        assert family_ops("reduce_scatter", 3) == ("SSS", "SSM")


class TestOneStageTable:
    """``STAGE_TABLE`` is the one statement of what each stage runs: the
    executor and the pricer both resolve its primitive names."""

    def test_primitives_resolve_in_executor_and_pricer(self):
        for row in STAGE_TABLE.values():
            for name in row[2]:
                assert callable(getattr(hybrid, name)), name
                assert callable(getattr(CostModel(UNIT), name)), name

    def test_every_legal_letter_has_a_row(self):
        for op in OPERATIONS:
            for k in (1, 2, 3):
                for ops in family_ops(op, k):
                    assert all((op, letter) in STAGE_TABLE
                               for letter in ops), (op, ops)

    def test_operations_order(self):
        # the chaos generator draws from this order; the corpus depends
        # on it
        assert OPERATIONS == ("bcast", "reduce", "allreduce", "collect",
                              "reduce_scatter")


class TestStages:
    """``stages`` is the one statement of each family's stage order."""

    def test_bcast_family_walks_in_then_out(self):
        s = Strategy((2, 3, 5), "SSMCC")
        for op in SMC:
            assert s.stages(op) == (("S", 0), ("S", 1), ("M", 2),
                                    ("C", 1), ("C", 0))
        assert Strategy((5, 6), "SSCC").stages("bcast") == (
            ("S", 0), ("S", 1), ("C", 1), ("C", 0))
        assert Strategy((30,), "M").stages("reduce") == (("M", 0),)

    def test_collect_merges_contiguous_dim_first(self):
        assert Strategy((4, 2, 3), "MCC").stages("collect") == (
            ("M", 0), ("C", 1), ("C", 2))
        assert Strategy((4, 8), "CC").stages("collect") == (
            ("C", 0), ("C", 1))

    def test_reduce_scatter_splits_outermost_dim_first(self):
        assert Strategy((4, 2, 3), "SSM").stages("reduce_scatter") == (
            ("S", 2), ("S", 1), ("M", 0))
        assert Strategy((4, 8), "SS").stages("reduce_scatter") == (
            ("S", 1), ("S", 0))

    def test_stages_validate(self):
        with pytest.raises(ValueError):
            Strategy((4, 8), "SC").stages("collect")


class TestFactorizations:
    def test_thirty(self):
        facts = ordered_factorizations(30, 3)
        assert (30,) in facts
        assert (2, 15) in facts and (15, 2) in facts
        assert (2, 3, 5) in facts and (5, 3, 2) in facts
        assert (3, 10) in facts and (5, 6) in facts

    def test_prime(self):
        assert ordered_factorizations(13, 3) == ((13,),)

    def test_max_factors_respected(self):
        facts = ordered_factorizations(64, 2)
        assert all(len(f) <= 2 for f in facts)
        facts3 = ordered_factorizations(64, 3)
        assert (4, 4, 4) in facts3

    def test_min_factor_excludes_ones(self):
        for f in ordered_factorizations(24, 3):
            assert all(d >= 2 for d in f)

    @given(st.integers(2, 200))
    @settings(max_examples=60, deadline=None)
    def test_all_factorizations_multiply_to_p(self, p):
        for dims in ordered_factorizations(p, 3):
            assert math.prod(dims) == p

    def test_one(self):
        assert ordered_factorizations(1, 3) == ((1,),)


class TestCandidateSets:
    def test_smc_candidates_cover_table2(self):
        cands = {(s.dims, s.ops) for s in candidates("bcast", 30)}
        for dims, ops in [((30,), "M"), ((30,), "SC"), ((2, 15), "SMC"),
                          ((2, 15), "SSCC"), ((3, 10), "SMC"),
                          ((5, 6), "SSCC"), ((2, 3, 5), "SSMCC")]:
            assert (dims, ops) in cands

    def test_all_candidates_valid_and_unique(self):
        for p in (12, 30, 64):
            seen = set()
            for s in candidates("bcast", p):
                s.check("bcast")
                assert s.p == p
                key = (s.dims, s.ops)
                assert key not in seen
                seen.add(key)

    def test_collect_candidates_valid(self):
        for s in candidates("collect", 24):
            s.check("collect")
            assert s.p == 24

    def test_reduce_scatter_candidates_valid(self):
        for s in candidates("reduce_scatter", 24):
            s.check("reduce_scatter")
            assert s.p == 24

    def test_prime_p_still_has_strategies(self):
        """Section 6: prime node counts limit hybrids but the pure
        algorithms must remain available."""
        for op, long_ops in (("bcast", "SC"), ("collect", "C"),
                             ("reduce_scatter", "S")):
            ops = {(s.dims, s.ops) for s in candidates(op, 13)}
            assert ops == {((13,), "M"), ((13,), long_ops)}

    def test_every_family_form_of_every_factorization(self):
        for op in ("allreduce", "collect", "reduce_scatter"):
            got = {(s.dims, s.ops) for s in candidates(op, 24)}
            want = {(dims, ops) for dims in ordered_factorizations(24, 3)
                    for ops in family_ops(op, len(dims))}
            assert got == want
