"""Brute-force extension-principle oracle: direct checks and agreement
with the closed-form cut arithmetic at its sampling convergence bound."""

import math

import pytest

from pseudofuzzy import (
    BadCount,
    BinaryOpCode,
    DivisorStraddlesZero,
    KindMismatch,
    NonFinite,
    PseudoTfn,
    add,
    cut_table,
    div,
    extension_oracle,
    mul,
    sub,
)

DEP = PseudoTfn.dependent(0, 1, 2)
DEP2 = PseudoTfn.dependent(1, 2, 3)


def sampling_bound(p, q, grid):
    return 2.0 * max(p.c - p.a, q.c - q.a) / grid


def assert_tables_close(got, want, bound):
    assert got.alphas == want.alphas
    for (_, gi), (_, wi) in zip(got.rows, want.rows):
        assert gi.lo == pytest.approx(wi.lo, abs=bound)
        assert gi.hi == pytest.approx(wi.hi, abs=bound)


class TestOracleDirect:
    def test_peaks_add(self):
        table = extension_oracle(DEP, DEP2, BinaryOpCode.ADD, 64, 3)
        alpha, interval = table.rows[-1]
        assert alpha == 1.0
        assert (interval.lo, interval.hi) == (3.0, 3.0)

    def test_support_row_is_exact_for_add(self):
        table = extension_oracle(DEP, DEP2, BinaryOpCode.ADD, 64, 3)
        assert (table.rows[0][1].lo, table.rows[0][1].hi) == (1.0, 5.0)

    def test_mul_support_row(self):
        table = extension_oracle(DEP, DEP, BinaryOpCode.MUL, 256, 11)
        assert (table.rows[0][1].lo, table.rows[0][1].hi) == (0.0, 4.0)

    def test_rows_nested(self):
        table = extension_oracle(DEP, DEP2, BinaryOpCode.MUL, 64, 9)
        for (_, outer), (_, inner) in zip(table.rows, table.rows[1:]):
            assert inner.lo >= outer.lo
            assert inner.hi <= outer.hi

    def test_deterministic(self):
        first = extension_oracle(DEP, DEP2, BinaryOpCode.SUB, 64, 5)
        second = extension_oracle(DEP, DEP2, BinaryOpCode.SUB, 64, 5)
        assert first == second

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            extension_oracle(DEP, PseudoTfn.independent(0, 1, 2), BinaryOpCode.ADD, 64, 5)

    def test_grid_too_small(self):
        with pytest.raises(BadCount):
            extension_oracle(DEP, DEP2, BinaryOpCode.ADD, 8, 5)

    def test_div_straddle(self):
        with pytest.raises(DivisorStraddlesZero):
            extension_oracle(DEP2, PseudoTfn.dependent(-1, 0, 1), BinaryOpCode.DIV, 64, 5)

    def test_support_whose_width_overflows(self):
        # the halved support is sampled and its samples doubled, which keeps
        # them finite, with no numpy warning (which fails a test, by
        # pyproject.toml): each endpoint is off add's by h_p + h_q at most,
        # where h = width / grid, plus the rounding of samples and sums
        wide = PseudoTfn.dependent(-1e308, 1e308, 1.5e308)
        grid = 64
        bound = (DEP.c - DEP.a) / grid + (wide.c / grid - wide.a / grid) + 4 * math.ulp(wide.c)
        want = cut_table(add(DEP, wide), 5)
        for p, q in ((DEP, wide), (wide, DEP)):
            got = extension_oracle(p, q, BinaryOpCode.ADD, grid, 5)
            assert got.alphas == want.alphas
            for (_, gi), (_, wi) in zip(got.rows, want.rows):
                assert abs(gi.lo - wi.lo) <= bound
                assert abs(gi.hi - wi.hi) <= bound

    @pytest.mark.parametrize("feet, ops", [
        ((1e200, 2e200, 3e200), [BinaryOpCode.MUL]),
        ((1e308, 1.5e308, 1.7e308), [BinaryOpCode.ADD, BinaryOpCode.MUL]),
    ], ids=["1e200", "1e308"])
    def test_crisp_overflow_names_operation_and_operands(self, feet, ops):
        # the error of the oracle, not numpy's RuntimeWarning and then a bad interval's
        p = PseudoTfn.dependent(*feet)
        shown = f"({feet[0]!r}, {feet[1]!r}, {feet[2]!r})"
        for op in BinaryOpCode:
            if op in ops:
                with pytest.raises(NonFinite) as info:
                    extension_oracle(p, p, op, 16, 3)
                assert str(info.value) == (
                    f"{op.value} overflows on {shown} and {shown}: a crisp result is not finite"
                )
            else:
                assert len(extension_oracle(p, p, op, 16, 3).rows) == 3

    def test_op_must_be_an_op_code(self):
        # a str is not read as the operation it names, even by a divisor that straddles zero
        with pytest.raises(TypeError, match="^op must be a BinaryOpCode, got str$"):
            extension_oracle(DEP2, PseudoTfn.dependent(-1, 0, 1), "div", 64, 5)


class TestOracleAgreement:
    def test_add_matches_closed_form(self):
        p = PseudoTfn.dependent(-2.5, 0.75, 4.0)
        q = PseudoTfn.dependent(1.5, 2.0, 7.25)
        got = extension_oracle(p, q, BinaryOpCode.ADD, 128, 11)
        want = cut_table(add(p, q), 11)
        assert_tables_close(got, want, sampling_bound(p, q, 128))

    def test_sub_matches_closed_form(self):
        p = PseudoTfn.independent(-1.0, 0.5, 2.0)
        q = PseudoTfn.independent(0.25, 1.0, 3.5)
        got = extension_oracle(p, q, BinaryOpCode.SUB, 128, 11)
        want = cut_table(sub(p, q), 11)
        assert_tables_close(got, want, sampling_bound(p, q, 128))

    def test_mul_matches_tabulated_cuts(self):
        p = PseudoTfn.dependent(-0.5, 0.25, 0.75)
        q = PseudoTfn.dependent(-0.25, 0.5, 1.0)
        got = extension_oracle(p, q, BinaryOpCode.MUL, 128, 11)
        want = mul(p, q, 11)
        assert_tables_close(got, want, sampling_bound(p, q, 128))

    def test_div_matches_tabulated_cuts(self):
        p = PseudoTfn.dependent(-0.75, 0.0, 0.5)
        q = PseudoTfn.dependent(2.0, 3.0, 4.0)
        got = extension_oracle(p, q, BinaryOpCode.DIV, 128, 11)
        want = div(p, q, 11)
        assert_tables_close(got, want, sampling_bound(p, q, 128))
