import math

import pytest

from pseudofuzzy import (
    BadCount,
    CutTable,
    DivisorStraddlesZero,
    Interval,
    InvalidCutTable,
    Kind,
    KindMismatch,
    MembershipPair,
    NonFinite,
    PseudoTfn,
    ZeroScale,
    add,
    alpha_cut_mu,
    cut_table,
    div,
    lambda_of_result,
    mu_at,
    mul,
    scale,
    sub,
    validate_pair,
)

DEP = PseudoTfn.dependent(0, 1, 2)
DEP2 = PseudoTfn.dependent(1, 2, 3)
IND = PseudoTfn.independent(0, 1, 2)


def row_dict(table):
    return {alpha: (interval.lo, interval.hi) for alpha, interval in table.rows}


class TestAdd:
    def test_shapes_sum(self):
        r = add(DEP, DEP2)
        assert (r.a, r.b, r.c) == (1.0, 3.0, 5.0)
        assert r.kind is Kind.DEPENDENT

    def test_with_negative_support(self):
        r = add(PseudoTfn.dependent(-1, 0, 1), DEP2)
        assert (r.a, r.b, r.c) == (0.0, 2.0, 4.0)

    def test_levelwise_interval_sum(self):
        r = add(DEP, DEP2)
        for alpha in (0.0, 0.25, 0.5, 1.0):
            cut_p = alpha_cut_mu(DEP, alpha)
            cut_q = alpha_cut_mu(DEP2, alpha)
            cut_r = alpha_cut_mu(r, alpha)
            assert cut_r.lo == pytest.approx(cut_p.lo + cut_q.lo, abs=1e-12)
            assert cut_r.hi == pytest.approx(cut_p.hi + cut_q.hi, abs=1e-12)

    def test_commutes(self):
        assert add(DEP, DEP2).shape == add(DEP2, DEP).shape

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            add(DEP, IND)


class TestSub:
    def test_interval_subtraction(self):
        r = sub(PseudoTfn.dependent(1, 3, 5), DEP)
        assert (r.a, r.b, r.c) == (-1.0, 2.0, 5.0)

    def test_self_difference_keeps_spread(self):
        r = sub(DEP2, DEP2)
        assert (r.a, r.b, r.c) == (-2.0, 0.0, 2.0)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            sub(IND, DEP)


class TestScale:
    def test_positive(self):
        r = scale(DEP, 2)
        assert (r.a, r.b, r.c) == (0.0, 2.0, 4.0)

    def test_negative_reflects(self):
        r = scale(DEP, -1)
        assert (r.a, r.b, r.c) == (-2.0, -1.0, 0.0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroScale):
            scale(DEP, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite, match=r"^k must be finite, got inf$"):
            scale(DEP, math.inf)

    def test_k_must_be_a_number(self):
        with pytest.raises(TypeError, match=r"^k must be a real number, got str$"):
            scale(DEP, "x")
        assert scale(DEP, "2") == scale(DEP, 2)  # a string float() takes is a number

    def test_round_trip(self):
        for k in (3.0, -0.7, 0.125):
            r = scale(scale(DEP2, k), 1 / k)
            assert r.a == pytest.approx(DEP2.a, abs=1e-9)
            assert r.b == pytest.approx(DEP2.b, abs=1e-9)
            assert r.c == pytest.approx(DEP2.c, abs=1e-9)

    def test_kind_preserved(self):
        assert scale(IND, 2.5).kind is Kind.INDEPENDENT


class TestMul:
    def test_unit_square_rows(self):
        rows = row_dict(mul(DEP, DEP, 3))
        assert rows[1.0] == (1.0, 1.0)
        assert rows[0.0] == (0.0, 4.0)

    def test_negative_operand(self):
        rows = row_dict(mul(PseudoTfn.dependent(-2, -1, 0), DEP, 3))
        assert rows[0.0] == (-4.0, 0.0)

    def test_kind_carried(self):
        assert mul(IND, IND, 5).kind is Kind.INDEPENDENT

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            mul(DEP, IND, 5)

    def test_bad_level_count(self):
        with pytest.raises(BadCount):
            mul(DEP, DEP, 1)

    def test_nesting_holds(self):
        table = mul(PseudoTfn.dependent(-3, 0.5, 2), PseudoTfn.dependent(-1, 4, 9), 17)
        for (_, outer), (_, inner) in zip(table.rows, table.rows[1:]):
            assert inner.lo >= outer.lo - 1e-12
            assert inner.hi <= outer.hi + 1e-12

    def test_overflow_names_operation_level_and_cuts(self):
        huge = PseudoTfn.dependent(1e200, 2e200, 3e200)
        with pytest.raises(NonFinite) as info:
            mul(huge, huge, 3)
        assert str(info.value) == (
            "mul overflows at alpha=0.0: "
            "product of cuts [1e+200, 3e+200] and [1e+200, 3e+200] is not finite"
        )


HUGE = PseudoTfn.dependent(1e308, 1.5e308, 1.7e308)


@pytest.mark.parametrize(
    "result,message",
    [
        (lambda: add(HUGE, HUGE),
         "add overflows on (1e+308, 1.5e+308, 1.7e+308) + "
         "(1e+308, 1.5e+308, 1.7e+308): a must be finite, got inf"),
        (lambda: sub(HUGE, scale(HUGE, -1.0)),
         "sub overflows on (1e+308, 1.5e+308, 1.7e+308) - "
         "(-1.7e+308, -1.5e+308, -1e+308): a must be finite, got inf"),
        (lambda: scale(HUGE, -2.0),
         "scale overflows on (1e+308, 1.5e+308, 1.7e+308) * -2.0: a must be finite, got -inf"),
    ],
    ids=["add", "sub", "scale"],
)
def test_shape_overflow_names_operation_and_operands(result, message):
    with pytest.raises(NonFinite) as info:
        result()
    assert str(info.value) == message


class TestDiv:
    def test_peak_ratio(self):
        rows = row_dict(div(DEP2, DEP2, 3))
        assert rows[1.0] == (1.0, 1.0)

    def test_endpoint_quotients(self):
        rows = row_dict(div(DEP2, PseudoTfn.dependent(1, 2, 4), 3))
        assert rows[0.0] == (0.25, 3.0)

    def test_straddling_divisor_rejected(self):
        with pytest.raises(DivisorStraddlesZero):
            div(DEP2, PseudoTfn.dependent(-1, 0, 1), 5)

    def test_zero_touching_divisor_rejected(self):
        # support must exclude zero strictly, feet included
        with pytest.raises(DivisorStraddlesZero):
            div(DEP2, DEP, 5)

    def test_negative_divisor_allowed(self):
        rows = row_dict(div(DEP2, PseudoTfn.dependent(-4, -2, -1), 3))
        assert rows[1.0] == (-1.0, -1.0)
        assert rows[0.0] == (-3.0, -0.25)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            div(IND, DEP2, 5)

    @pytest.mark.parametrize(
        "p,foot",
        [
            (DEP2, 1e-320),  # the reciprocal of the foot overflows
            (PseudoTfn.dependent(1e300, 2e300, 3e300), 1e-10),  # the product does
        ],
    )
    def test_overflow_names_level_and_divisor_cut(self, p, foot):
        with pytest.raises(NonFinite) as info:
            div(p, PseudoTfn.dependent(foot, 1, 2), 3)
        assert str(info.value) == (
            f"div overflows at alpha=0.0: quotient by divisor cut [{foot!r}, 2.0] is not finite"
        )


class TestCutTable:
    def test_cut_table_matches_alpha_cuts(self):
        table = cut_table(DEP2, 5)
        assert table.alphas == (0.0, 0.25, 0.5, 0.75, 1.0)
        for alpha, interval in table.rows:
            assert interval == alpha_cut_mu(DEP2, alpha)

    def test_levels_must_span_zero_to_one(self):
        rows = ((0.1, Interval(0, 2)), (1.0, Interval(1, 1)))
        with pytest.raises(InvalidCutTable):
            CutTable(rows, Kind.DEPENDENT)

    def test_levels_strictly_increasing(self):
        rows = ((0.0, Interval(0, 2)), (0.0, Interval(0, 2)), (1.0, Interval(1, 1)))
        with pytest.raises(InvalidCutTable):
            CutTable(rows, Kind.DEPENDENT)

    def test_nesting_enforced(self):
        rows = ((0.0, Interval(0, 1)), (1.0, Interval(0.5, 2)))
        with pytest.raises(InvalidCutTable):
            CutTable(rows, Kind.DEPENDENT)

    def test_support_row(self):
        assert cut_table(DEP, 3).support == Interval(0.0, 2.0)


class TestLambdaOfResult:
    def test_x_must_be_a_number(self):
        with pytest.raises(TypeError, match=r"^x must be a real number, got str$"):
            lambda_of_result(cut_table(DEP2, 5), "x")

    def test_far_outside_dependent(self):
        table = cut_table(DEP2, 5)
        assert lambda_of_result(table, 1e6) == MembershipPair(0.0, -1.0)

    def test_far_outside_independent(self):
        table = cut_table(PseudoTfn.independent(1, 2, 3), 5)
        assert lambda_of_result(table, 1e6) == MembershipPair(0.0, 0.0)

    def test_core_midpoint_is_one(self):
        table = mul(DEP2, DEP2, 7)
        mid = 0.5 * (table.rows[-1][1].lo + table.rows[-1][1].hi)
        assert lambda_of_result(table, mid).mu == 1.0

    def test_reconstructs_triangular_membership(self):
        table = cut_table(DEP2, 11)
        for x in (1.0, 1.2, 1.9, 2.0, 2.4, 3.0, 0.5, 3.5):
            got = lambda_of_result(table, x)
            assert got.mu == pytest.approx(mu_at(DEP2, x), abs=1e-12)
            assert got.lam == pytest.approx(got.mu - 1.0, abs=1e-12)

    def test_emitted_pairs_always_validate(self):
        table = mul(PseudoTfn.independent(-2, 0.5, 3), PseudoTfn.independent(1, 2, 8), 9)
        for x in (-50.0, -6.0, 0.0, 1.0, 7.7, 24.0, 999.0):
            pair = lambda_of_result(table, x)
            assert validate_pair(pair.mu, pair.lam) == pair
