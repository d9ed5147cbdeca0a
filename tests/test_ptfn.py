import math

import pytest

from pseudofuzzy import (
    AlphaOutOfRange,
    BadCount,
    BadRange,
    BadTolerance,
    BetaOutOfRange,
    CaseLabel,
    DiscretePseudoFuzzySet,
    DuplicateSupportPoint,
    Interval,
    InvalidInterval,
    InvalidShape,
    Kind,
    MembershipPair,
    NonFinite,
    ParamOutOfRange,
    PseudoTfn,
    TriangleShape,
    alpha_cut_mu,
    beta_cut_lambda,
    classify_case,
    discretize,
    kind_violation,
    lambda_at,
    mu_at,
    pair_at,
    parametric_point,
    set_kind_violation,
    validate_set,
)

DEP = PseudoTfn.dependent(0, 1, 2)
IND = PseudoTfn.independent(0, 1, 2)


class TestShapes:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidShape):
            TriangleShape(2, 1, 0)

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidShape):
            TriangleShape(1, 1, 1)

    def test_degenerate_sides_allowed(self):
        TriangleShape(0, 0, 1)
        TriangleShape(0, 1, 1)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            TriangleShape(0, math.nan, 2)

    def test_mu_at_x_must_be_a_number(self):
        with pytest.raises(TypeError, match=r"^x must be a real number, got str$"):
            mu_at(PseudoTfn.dependent(0, 1, 2), "q")

    def test_interval_ordering(self):
        with pytest.raises(InvalidInterval):
            Interval(2.0, 1.0)


class TestMuAt:
    def test_peak(self):
        assert mu_at(DEP, 1) == 1.0
        assert mu_at(IND, 1) == 1.0

    def test_rising_branch(self):
        assert mu_at(DEP, 0.25) == 0.25

    def test_falling_branch(self):
        assert mu_at(DEP, 1.75) == 0.25

    def test_outside_support(self):
        assert mu_at(DEP, 5) == 0.0
        assert mu_at(DEP, -5) == 0.0

    def test_feet_are_zero(self):
        assert mu_at(DEP, 0) == 0.0
        assert mu_at(DEP, 2) == 0.0

    def test_non_finite_x(self):
        with pytest.raises(NonFinite):
            mu_at(DEP, math.inf)

    def test_left_step_degenerate(self):
        p = PseudoTfn.dependent(0, 0, 1)
        assert mu_at(p, -0.01) == 0.0
        assert mu_at(p, 0) == 1.0
        assert mu_at(p, 0.5) == 0.5

    def test_right_step_degenerate(self):
        p = PseudoTfn.dependent(0, 1, 1)
        assert mu_at(p, 1) == 1.0
        assert mu_at(p, 1.01) == 0.0
        assert mu_at(p, 0.5) == 0.5


class TestLambdaAt:
    def test_dependent_outside(self):
        assert lambda_at(DEP, -3) == -1.0
        assert lambda_at(DEP, 5) == -1.0

    def test_dependent_rising(self):
        assert lambda_at(DEP, 0.25) == -0.75

    def test_dependent_falling(self):
        assert lambda_at(DEP, 1.75) == -0.75

    def test_independent_rising(self):
        assert lambda_at(IND, 0.25) == -0.25

    def test_independent_outside(self):
        assert lambda_at(IND, 5) == 0.0
        assert lambda_at(IND, -3) == 0.0

    def test_dependent_identity_on_grid(self):
        for i in range(-10, 31):
            x = i / 10
            assert lambda_at(DEP, x) == pytest.approx(mu_at(DEP, x) - 1.0, abs=1e-15)

    def test_independent_identity_on_grid(self):
        for i in range(-10, 31):
            x = i / 10
            assert lambda_at(IND, x) == pytest.approx(-mu_at(IND, x), abs=1e-15)


class TestPairAt:
    def test_dependent_peak(self):
        assert pair_at(DEP, 1) == MembershipPair(1.0, 0.0)

    def test_independent_peak(self):
        assert pair_at(IND, 1) == MembershipPair(1.0, -1.0)

    def test_dependent_far_outside(self):
        assert pair_at(DEP, 10) == MembershipPair(0.0, -1.0)

    def test_always_valid(self):
        for x in (-7.3, 0.0, 0.1, 0.9999, 1.0, 1.5, 2.0, 42.0):
            pair_at(DEP, x)
            pair_at(IND, x)

    def test_dependent_is_case_b_everywhere(self):
        for i in range(-20, 41):
            assert classify_case(pair_at(DEP, i / 10)) is CaseLabel.B


class TestAlphaCut:
    def test_core_is_peak(self):
        assert alpha_cut_mu(DEP, 1) == Interval(1.0, 1.0)

    def test_support_closure(self):
        assert alpha_cut_mu(DEP, 0) == DEP.support == Interval(0.0, 2.0)

    def test_interior(self):
        cut = alpha_cut_mu(DEP, 0.5)
        assert cut == Interval(0.5, 1.5) and cut.width == 1.0

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, math.nan, pytest.param(10**400, id="10**400")])
    def test_out_of_range(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            alpha_cut_mu(DEP, alpha)

    def test_endpoints_reproduce_level(self):
        p = PseudoTfn.dependent(-3.5, 0.25, 11.0)
        for alpha in (0.1, 0.25, 0.5, 0.9):
            cut = alpha_cut_mu(p, alpha)
            assert mu_at(p, cut.lo) == pytest.approx(alpha, abs=1e-12)
            assert mu_at(p, cut.hi) == pytest.approx(alpha, abs=1e-12)


class TestBetaCut:
    def test_dependent_full_depth(self):
        assert beta_cut_lambda(DEP, -1) == Interval(0.0, 2.0)

    def test_dependent_zero_is_peak(self):
        assert beta_cut_lambda(DEP, 0) == Interval(1.0, 1.0)

    def test_independent_matches_mu_cut(self):
        assert beta_cut_lambda(IND, -0.5) == Interval(0.5, 1.5)

    def test_independent_zero_is_support(self):
        assert beta_cut_lambda(IND, 0) == Interval(0.0, 2.0)

    def test_dependent_correspondence(self):
        p = PseudoTfn.dependent(-3.5, 0.25, 11.0)
        for beta in (-0.9, -0.5, -0.25, -0.1):
            got = beta_cut_lambda(p, beta)
            want = alpha_cut_mu(p, beta + 1.0)
            assert got.lo == pytest.approx(want.lo, abs=1e-9)
            assert got.hi == pytest.approx(want.hi, abs=1e-9)

    @pytest.mark.parametrize("beta", [0.5, -1.5, math.nan, pytest.param(-10**400, id="-10**400")])
    def test_out_of_range(self, beta):
        with pytest.raises(BetaOutOfRange):
            beta_cut_lambda(DEP, beta)


@pytest.mark.parametrize("call, error, message", [
    (lambda: alpha_cut_mu(DEP, 10**400), AlphaOutOfRange, "alpha must lie in [0, 1], got inf"),
    (lambda: alpha_cut_mu(DEP, math.nan), AlphaOutOfRange, "alpha must lie in [0, 1], got nan"),
    (lambda: alpha_cut_mu(DEP, "x"), TypeError, "alpha must be a real number, got str"),
    (lambda: beta_cut_lambda(DEP, -10**400), BetaOutOfRange, "beta must lie in [-1, 0], got -inf"),
    (lambda: beta_cut_lambda(DEP, None), TypeError, "beta must be a real number, got NoneType"),
    (lambda: parametric_point(DEP, 0.5, 10**400), ParamOutOfRange, "s must lie in [0, 1], got inf"),
    (lambda: parametric_point(DEP, "r", 0.5), TypeError, "r must be a real number, got str"),
    (lambda: classify_case(MembershipPair(0.5, -0.5), 10**400), BadTolerance,
     "eps must be a finite positive real, got inf"),
    (lambda: classify_case(MembershipPair(0.5, -0.5), [1e-9]), TypeError,
     "eps must be a real number, got list"),
], ids=["alpha-10**400", "alpha-nan", "alpha-str", "beta--10**400", "beta-None", "s-10**400",
        "r-str", "eps-10**400", "eps-list"])
def test_library_scalars_convert_as_finite_checks_do(call, error, message):
    # an int beyond the float range is read as inf, as 1e400 is, and the
    # scalar's own range check reports it; a value that is no number is a TypeError
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestParametricPoint:
    def test_support_lower_corner(self):
        assert parametric_point(DEP, 0, 0) == 0.0

    def test_core_collapses(self):
        for s in (0.0, 0.3, 1.0):
            assert parametric_point(DEP, 1, s) == 1.0

    def test_midpoint(self):
        assert parametric_point(DEP, 0.5, 0.5) == 1.0

    def test_monotone_in_s(self):
        xs = [parametric_point(DEP, 0.25, s / 10) for s in range(11)]
        assert xs == sorted(xs)

    def test_cut_whose_width_overflows(self):
        # hi - lo is inf at r = 0: the point is taken on the halved cut and doubled back
        p = PseudoTfn.dependent(-1.7e308, 0.0, 1.7e308)
        xs = [parametric_point(p, 0.0, s / 4) for s in range(5)]
        assert xs == [-1.7e308, -8.5e307, 0.0, 8.499999999999998e307, 1.7e308]
        assert parametric_point(p, 0.5, 0.5) == 0.0

    @pytest.mark.parametrize("r,s", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.1),
                                     pytest.param(0.5, 10**400, id="0.5-10**400")])
    def test_out_of_range(self, r, s):
        with pytest.raises(ParamOutOfRange):
            parametric_point(DEP, r, s)


class TestDiscretize:
    def test_three_point_example(self):
        dset = discretize(DEP, 3, 0, 2)
        got = [(e.x, e.pair.mu, e.pair.lam) for e in dset]
        assert got == [(0.0, 0.0, -1.0), (1.0, 1.0, 0.0), (2.0, 0.0, -1.0)]

    def test_output_is_valid_set(self):
        dset = discretize(IND, 17, -2.5, 4.5)
        assert isinstance(dset, DiscretePseudoFuzzySet)
        assert len(dset) == 17
        assert dset.elements[0].x == -2.5
        assert dset.elements[-1].x == 4.5

    def test_bad_count(self):
        with pytest.raises(BadCount):
            discretize(DEP, 1, 0, 2)

    def test_bad_range(self):
        with pytest.raises(BadRange):
            discretize(DEP, 5, 2, 2)

    def test_overflowing_width_is_a_bad_range(self):
        # xmax - xmin is inf, which would make the first x 0 * inf = nan
        with pytest.raises(BadRange, match=r"width xmax - xmin overflows, got \[-1e\+308, 1e\+308\]"):
            discretize(DEP, 3, -1e308, 1e308)

    def test_repeated_x_is_rejected(self):
        with pytest.raises(DuplicateSupportPoint, match="x=1.0 at index 1"):
            discretize(DEP, 6, 1.0, 1.0000000000000004)


class TestVerifyKind:
    def test_violation_for_mismatched_rule(self):
        # a dependent profile checked against the independent rule breaks
        # outside the support, where (mu, lam) = (0, -1)
        dep_profile = discretize(DEP, 21, -2, 4)
        x = set_kind_violation(dep_profile, Kind.INDEPENDENT)
        assert x is not None
        assert lambda_at(DEP, x) != -mu_at(DEP, x)

    def test_matching_rule_has_no_violation(self):
        dep_profile = discretize(DEP, 21, -2, 4)
        assert set_kind_violation(dep_profile, Kind.DEPENDENT) is None

    def test_tampered_rows_detected(self):
        rows = validate_set([(0, 0.0, -1.0), (1.5, 0.5, -0.6), (2, 0.0, -1.0)])
        assert set_kind_violation(rows, Kind.DEPENDENT) == 1.5

    def test_set_kind_violation_reads_a_generator_as_the_set(self):
        dep_profile = discretize(DEP, 21, -2, 4)
        for kind in Kind:
            x = set_kind_violation(dep_profile, kind)
            assert set_kind_violation((e for e in dep_profile), kind) == x

    def test_set_kind_violation_takes_only_a_kind(self):
        # a str is not read as the kind it names, nor as independent
        rows = validate_set([(0.0, 0.25, -0.75), (1.0, 0.5, -0.5)])
        with pytest.raises(TypeError, match="^kind must be a Kind, got str$"):
            set_kind_violation(rows, "dependent")

    def test_kind_violation_none_for_consistent_number(self):
        assert kind_violation(IND, 33) is None

    def test_kind_violation_grid_may_repeat_x(self):
        # the float grid near 1e16 is 2 apart, so the 101-point grid repeats x
        assert kind_violation(PseudoTfn.dependent(1e16, 1e16 + 2, 1e16 + 4), 101) is None

    def test_kind_violation_rejects_an_overflowing_window(self):
        # the default window is about +-9e307, whose width overflows
        with pytest.raises(BadRange, match="width xmax - xmin overflows"):
            kind_violation(PseudoTfn.dependent(-3e307, 0.0, 3e307), 101)
