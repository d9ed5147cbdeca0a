import math

import pytest

from pseudofuzzy import (
    DEFAULT_EPS,
    BadTolerance,
    CaseLabel,
    DuplicateSupportPoint,
    LambdaOutOfRange,
    MembershipPair,
    MuOutOfRange,
    NonFinite,
    PseudoFuzzyElement,
    UnsortedSupport,
    classify_case,
    is_dependent_pair,
    magnitude_sum,
    validate_pair,
    validate_set,
)


class TestValidatePair:
    def test_interior_point(self):
        pair = validate_pair(0.5, -0.5)
        assert pair.mu == 0.5
        assert pair.lam == -0.5

    def test_bounds_are_inclusive(self):
        assert validate_pair(0.0, 0.0) == MembershipPair(0.0, 0.0)
        assert validate_pair(1.0, -1.0) == MembershipPair(1.0, -1.0)

    def test_mu_above_one(self):
        with pytest.raises(MuOutOfRange):
            validate_pair(1.2, -0.5)

    def test_mu_below_zero(self):
        with pytest.raises(MuOutOfRange):
            validate_pair(-0.1, -0.5)

    def test_lambda_must_be_nonpositive(self):
        with pytest.raises(LambdaOutOfRange):
            validate_pair(0.3, 0.3)

    def test_lambda_below_minus_one(self):
        with pytest.raises(LambdaOutOfRange):
            validate_pair(0.3, -1.5)

    @pytest.mark.parametrize("mu,lam", [(math.nan, -0.5), (0.5, math.nan), (math.inf, -0.5), (0.5, -math.inf)])
    def test_non_finite_rejected(self, mu, lam):
        with pytest.raises(NonFinite):
            validate_pair(mu, lam)

    @pytest.mark.parametrize("sign", [1, -1], ids=["+", "-"])
    def test_integers_beyond_the_float_range_are_not_finite(self, sign):
        # float() of such an int raises OverflowError; it is read as 1e400 is
        with pytest.raises(NonFinite) as raised:
            validate_pair(sign * 10**400, 0)
        assert str(raised.value) == f"mu must be finite, got {sign * math.inf!r}"

    def test_idempotent_on_valid_pair(self):
        pair = validate_pair(0.25, -0.75)
        assert validate_pair(pair.mu, pair.lam) == pair

    def test_int_inputs_normalized_to_float(self):
        pair = validate_pair(1, -1)
        assert isinstance(pair.mu, float) and isinstance(pair.lam, float)


class TestMagnitudeSum:
    def test_lower_bound(self):
        assert magnitude_sum(MembershipPair(0.0, 0.0)) == 0.0

    def test_upper_bound(self):
        assert magnitude_sum(MembershipPair(1.0, -1.0)) == 2.0

    def test_interior(self):
        assert magnitude_sum(MembershipPair(0.3, -0.4)) == pytest.approx(0.7, abs=1e-12)


class TestClassifyCase:
    def test_case_a(self):
        assert classify_case(MembershipPair(0.3, -0.4)) is CaseLabel.A

    def test_case_b(self):
        assert classify_case(MembershipPair(0.6, -0.4)) is CaseLabel.B

    def test_case_c(self):
        assert classify_case(MembershipPair(0.9, -0.8)) is CaseLabel.C

    def test_band_maps_to_b(self):
        # sums within eps of 1 resolve the overlapping case bounds to B
        assert classify_case(MembershipPair(0.5, -0.5 + DEFAULT_EPS / 2)) is CaseLabel.B
        assert classify_case(MembershipPair(0.5, -0.5 - DEFAULT_EPS / 2)) is CaseLabel.B

    def test_just_outside_band(self):
        assert classify_case(MembershipPair(0.5, -0.5 + 4 * DEFAULT_EPS)) is CaseLabel.A
        assert classify_case(MembershipPair(0.5, -0.5 - 4 * DEFAULT_EPS)) is CaseLabel.C

    def test_label_ordering(self):
        assert CaseLabel.A < CaseLabel.B < CaseLabel.C

    @pytest.mark.parametrize("eps", [0.0, -1e-9, math.nan, math.inf, pytest.param(10**400, id="10**400")])
    def test_bad_tolerance(self, eps):
        with pytest.raises(BadTolerance):
            classify_case(MembershipPair(0.5, -0.5), eps)


class TestIsDependentPair:
    def test_exact_sum_one(self):
        assert is_dependent_pair(MembershipPair(0.25, -0.75))

    def test_outside_support_value(self):
        assert is_dependent_pair(MembershipPair(0.0, -1.0))

    def test_outside_tolerance_band(self):
        assert not is_dependent_pair(MembershipPair(0.5, -0.5 + 2 * DEFAULT_EPS))

    def test_agrees_with_case_b(self):
        for mu, lam in [(0.2, -0.3), (0.25, -0.75), (1.0, -1.0), (0.6, -0.4), (0.0, 0.0)]:
            pair = MembershipPair(mu, lam)
            assert is_dependent_pair(pair) == (classify_case(pair) is CaseLabel.B)


class TestValidateSet:
    def test_valid_triplets(self):
        dset = validate_set([(1, 0.2, -0.2), (2, 0.8, -0.8)])
        assert len(dset) == 2
        assert dset.elements[0].pair == MembershipPair(0.2, -0.2)

    def test_tuple_pair_form(self):
        dset = validate_set([(1, (0.2, -0.2)), (2, (0.8, -0.8))])
        assert dset.elements[1].x == 2.0

    def test_element_instances_pass_through(self):
        element = PseudoFuzzyElement(1.0, MembershipPair(0.5, -0.5))
        assert validate_set([element]).elements == (element,)

    def test_unsorted(self):
        with pytest.raises(UnsortedSupport):
            validate_set([(2, 0.2, -0.2), (1, 0.8, -0.8)])

    def test_duplicate(self):
        with pytest.raises(DuplicateSupportPoint):
            validate_set([(1, 0.2, -0.2), (1, 0.8, -0.8)])

    @pytest.mark.parametrize("elements,error,message", [
        ([(1, 0.2, -0.2), (1, 0.8, -0.8)], DuplicateSupportPoint,
         "duplicate support point x=1.0 at index 1"),
        ([(0, 0.2, -0.2), (2, 0.2, -0.2), (1, 0.8, -0.8)], UnsortedSupport,
         "support not increasing at index 2: 1.0 < 2.0"),
    ], ids=["duplicate", "unsorted"])
    def test_ordering_error_messages(self, elements, error, message):
        with pytest.raises(error) as raised:
            validate_set(elements)
        assert str(raised.value) == message

    def test_pair_error_reports_index(self):
        with pytest.raises(MuOutOfRange, match="element 1"):
            validate_set([(1, 0.2, -0.2), (2, 1.8, -0.8)])

    def test_non_finite_x(self):
        with pytest.raises(NonFinite):
            validate_set([(math.nan, 0.2, -0.2)])

    @pytest.mark.parametrize("elements, message", [
        ([(0, "a", -0.5)], "element 0: mu must be a real number, got str"),
        ([(0, 0.5, -0.5), (1, (0.5, None))], "element 1: lam must be a real number, got NoneType"),
        ((("z", 0.5, -0.5),), "element 0: x must be a real number, got str"),
        ([(0, 0.5)], "element 0: expected PseudoFuzzyElement, (x, mu, lam) or (x, pair)"),
        ([(0, (0.5, -0.5, 0.0))],
         "element 0: expected PseudoFuzzyElement, (x, mu, lam) or (x, pair)"),
        ([0.5], "element 0: expected PseudoFuzzyElement, (x, mu, lam) or (x, pair)"),
    ], ids=["str-mu", "none-lam", "str-x", "short", "long-pair", "float"])
    def test_values_that_are_not_numbers_name_element_and_field(self, elements, message):
        with pytest.raises(TypeError) as raised:
            validate_set(elements)
        assert str(raised.value) == message
