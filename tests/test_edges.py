"""Edge behavior: immutability, degenerate sides, continuity, odd inputs."""

import dataclasses
import math

import pytest

from pseudofuzzy import (
    BadCount,
    BadRange,
    BinaryOpCode,
    DocumentError,
    Interval,
    Kind,
    MembershipPair,
    PseudoTfn,
    TriangleShape,
    alpha_cut_mu,
    beta_cut_lambda,
    cut_table,
    discretize,
    extension_oracle,
    kind_violation,
    lambda_of_result,
    mu_at,
    mul,
    pair_at,
)
from pseudofuzzy.cli import parse_ptfn


class TestImmutability:
    def test_pair_is_frozen(self):
        pair = MembershipPair(0.5, -0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.mu = 0.9

    def test_shape_is_frozen(self):
        shape = TriangleShape(0, 1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            shape.b = 5.0

    def test_interval_is_frozen(self):
        interval = Interval(0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            interval.hi = 2.0

    def test_table_is_frozen(self):
        table = mul(PseudoTfn.dependent(0, 1, 2), PseudoTfn.dependent(0, 1, 2), 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.rows = ()


class TestContinuity:
    def test_mu_is_lipschitz_on_a_fine_grid(self):
        p = PseudoTfn.dependent(-1.25, 0.5, 3.0)
        slope = 1.0 / min(p.b - p.a, p.c - p.b)
        step = 1e-4
        prev = mu_at(p, -3.0)
        x = -3.0
        while x < 5.0:
            x += step
            cur = mu_at(p, x)
            assert abs(cur - prev) <= slope * step * (1 + 1e-9)
            prev = cur

    def test_lambda_jumps_only_at_feet_for_dependent(self):
        # the dependent profile is continuous everywhere: -1 at both feet
        p = PseudoTfn.dependent(0, 1, 2)
        for foot in (0.0, 2.0):
            inside = pair_at(p, foot).lam
            outside = pair_at(p, foot - 1e-12 if foot == 0.0 else foot + 1e-12).lam
            assert inside == pytest.approx(outside, abs=1e-11)


class TestDegenerateSides:
    def test_left_step_alpha_cut(self):
        p = PseudoTfn.dependent(0, 0, 1)
        assert alpha_cut_mu(p, 0.5) == Interval(0.0, 0.5)
        assert alpha_cut_mu(p, 1.0) == Interval(0.0, 0.0)

    def test_right_step_alpha_cut(self):
        p = PseudoTfn.dependent(0, 1, 1)
        assert alpha_cut_mu(p, 0.5) == Interval(0.5, 1.0)

    def test_left_step_beta_cut_matches_mu_cut(self):
        p = PseudoTfn.dependent(0, 0, 1)
        got = beta_cut_lambda(p, -0.5)
        want = alpha_cut_mu(p, 0.5)
        assert got.lo == pytest.approx(want.lo, abs=1e-12)
        assert got.hi == pytest.approx(want.hi, abs=1e-12)

    def test_step_pairs_stay_valid(self):
        for p in (PseudoTfn.independent(0, 0, 1), PseudoTfn.independent(0, 1, 1)):
            for x in (-0.5, 0.0, 0.25, 0.5, 1.0, 1.5):
                pair_at(p, x)


class TestDocumentEdges:
    def test_json_infinity_rejected(self):
        with pytest.raises(DocumentError):
            parse_ptfn('{"a": -Infinity, "b": 1, "c": 2, "kind": "dependent"}')

    def test_json_nan_rejected(self):
        with pytest.raises(DocumentError):
            parse_ptfn('{"a": 0, "b": NaN, "c": 2, "kind": "dependent"}')

    def test_json_array_rejected(self):
        with pytest.raises(DocumentError):
            parse_ptfn("[0, 1, 2]")

    def test_degenerate_side_document_parses(self):
        p = parse_ptfn('{"a": 0, "b": 0, "c": 1, "kind": "independent"}')
        assert (p.a, p.b, p.c) == (0.0, 0.0, 1.0)


class TestOracleLambdaDerivation:
    def test_oracle_table_feeds_lambda_reconstruction(self):
        p = PseudoTfn.independent(0, 1, 2)
        q = PseudoTfn.independent(1, 2, 3)
        table = extension_oracle(p, q, BinaryOpCode.ADD, 64, 11)
        assert table.kind is Kind.INDEPENDENT
        peak = lambda_of_result(table, 3.0)
        assert (peak.mu, peak.lam) == (1.0, -1.0)
        outside = lambda_of_result(table, -10.0)
        assert (outside.mu, outside.lam) == (0.0, 0.0)


P = PseudoTfn.dependent(0.0, 1.0, 2.0)
HUGE = 10**5000  # more digits than str() converts by default
HUGE_BITS = HUGE.bit_length()
ADD = BinaryOpCode.ADD

WIDE = PseudoTfn.dependent(-3e307, 0.0, 3e307)  # the width of its default window overflows


def case(call, count, message, id, error=BadCount):
    return pytest.param(call, count, message, error, id=id)


# every library count is checked before it is used, and the message of a
# count that repr() formats is what it always was. kind_violation checks its
# grid, then its window, then eps
COUNT_CASES = [
    case(lambda n: discretize(P, n, 0.0, 1.0), math.nan,
         "need n >= 2 sample points, got nan", "discretize-nan"),
    case(lambda n: discretize(P, n, 0.0, 1.0), 2.5,
         "need n >= 2 sample points, got 2.5", "discretize-fraction"),
    case(lambda n: discretize(P, n, 0.0, 1.0), -math.inf,
         "need n >= 2 sample points, got -inf", "discretize--inf"),
    case(lambda n: discretize(P, n, 0.0, 1.0), math.inf,
         "need n <= 2**53 sample points, got inf", "discretize-inf"),
    case(lambda n: discretize(P, n, 0.0, 1.0), 2**53 + 1,
         "need n <= 2**53 sample points, got 9007199254740993", "discretize-2**53+1"),
    case(lambda n: discretize(P, n, 0.0, 1.0), HUGE,
         f"need n <= 2**53 sample points, got an integer of {HUGE_BITS} bits", "discretize-huge"),
    case(lambda n: discretize(P, n, 0.0, 1.0), -HUGE,
         f"need n >= 2 sample points, got a negative integer of {HUGE_BITS} bits",
         "discretize--huge"),
    case(lambda n: kind_violation(P, n), math.nan,
         "need grid >= 2 sample points, got nan", "kind_violation-nan"),
    case(lambda n: kind_violation(P, n), HUGE,
         f"need grid <= 2**53 sample points, got an integer of {HUGE_BITS} bits",
         "kind_violation-huge"),
    case(lambda n: kind_violation(P, n, eps=0), 1,
         "need grid >= 2 sample points, got 1", "kind_violation-1-eps-0"),
    case(lambda n: kind_violation(WIDE, n, eps=0), 101,
         "window width xmax - xmin overflows, got "
         "[-8.999999999999999e+307, 8.999999999999999e+307]", "kind_violation-wide-eps-0",
         BadRange),
    case(lambda n: mul(P, P, n), math.nan, "need levels >= 2, got nan", "mul-nan"),
    case(lambda n: mul(P, P, n), HUGE,
         f"need levels <= 2**53, got an integer of {HUGE_BITS} bits", "mul-huge"),
    case(lambda n: cut_table(P, n), 1, "need levels >= 2, got 1", "cut_table-1"),
    case(lambda n: cut_table(P, n), 10**400,
         f"need levels <= 2**53, got {10**400!r}", "cut_table-10**400"),
    case(lambda n: extension_oracle(P, P, ADD, n), math.nan,
         "need grid_per_operand >= 16, got nan", "oracle-nan"),
    case(lambda n: extension_oracle(P, P, ADD, n), 8,
         "need grid_per_operand >= 16, got 8", "oracle-8"),
    case(lambda n: extension_oracle(P, P, ADD, n), 4097,
         "need grid_per_operand <= 4096, got 4097", "oracle-4097"),
    case(lambda n: extension_oracle(P, P, ADD, n), 10**400,
         f"need grid_per_operand <= 4096, got {10**400!r}", "oracle-10**400"),
    case(lambda n: extension_oracle(P, P, ADD, n), HUGE,
         f"need grid_per_operand <= 4096, got an integer of {HUGE_BITS} bits", "oracle-huge"),
    case(lambda n: extension_oracle(P, P, ADD, 16, n), math.nan,
         "need levels >= 2, got nan", "oracle-levels-nan"),
    # a count that does not compare with an int is no count: strings are not read
    case(lambda n: cut_table(P, n), "11", "levels must be an integer, got str",
         "cut_table-str", TypeError),
    case(lambda n: mul(P, P, n), None, "levels must be an integer, got NoneType",
         "mul-None", TypeError),
    case(lambda n: mul(P, P, n), [3], "levels must be an integer, got list", "mul-list", TypeError),
    case(lambda n: discretize(P, n, 0.0, 1.0), "5", "n must be an integer, got str",
         "discretize-str", TypeError),
    case(lambda n: extension_oracle(P, P, ADD, n), "64",
         "grid_per_operand must be an integer, got str", "oracle-str", TypeError),
]


@pytest.mark.parametrize("call,count,message,error", COUNT_CASES)
def test_a_bad_count_is_a_bad_count(call, count, message, error):
    with pytest.raises(error) as info:
        call(count)
    assert str(info.value) == message


def test_an_integral_float_count_is_taken():
    assert len(discretize(P, 3.0, 0.0, 1.0)) == 3
    assert len(extension_oracle(P, P, ADD, 16.0, 3.0).rows) == 3
