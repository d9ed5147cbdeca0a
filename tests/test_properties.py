"""Randomized invariants, mostly via hypothesis."""

import math
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pseudofuzzy import (
    DEFAULT_EPS,
    BinaryOpCode,
    CaseLabel,
    Kind,
    MembershipPair,
    PseudoTfn,
    TriangleShape,
    add,
    alpha_cut_mu,
    beta_cut_lambda,
    classify_case,
    cut_table,
    div,
    extension_oracle,
    is_dependent_pair,
    lambda_at,
    lambda_of_result,
    magnitude_sum,
    mu_at,
    mul,
    pair_at,
    parametric_point,
    scale,
    sub,
    validate_pair,
)
from pseudofuzzy import ptfn
from pseudofuzzy.ptfn import _sample
from rows import plain_cut, plain_lam, plain_mu

finite_mu = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
finite_lam = st.floats(min_value=-1.0, max_value=0.0, allow_nan=False)
pairs = st.builds(MembershipPair, finite_mu, finite_lam)
kinds = st.sampled_from(Kind)


def shape_strategy(min_side=1e-3, max_side=5.0, span=10.0):
    return st.builds(
        lambda a, left, right: TriangleShape(a, a + left, a + left + right),
        st.floats(min_value=-span, max_value=span),
        st.floats(min_value=min_side, max_value=max_side),
        st.floats(min_value=min_side, max_value=max_side),
    )


ptfns = st.builds(PseudoTfn, shape_strategy(), kinds)
sample_xs = st.floats(min_value=-40.0, max_value=40.0)
levels = st.floats(min_value=0.0, max_value=1.0)


@given(pairs)
def test_magnitude_sum_in_range(pair):
    assert 0.0 <= magnitude_sum(pair) <= 2.0


@given(pairs)
def test_classify_is_a_partition(pair):
    s = magnitude_sum(pair)
    label = classify_case(pair)
    if abs(s - 1.0) <= DEFAULT_EPS:
        assert label is CaseLabel.B
    elif s < 1.0:
        assert label is CaseLabel.A
    else:
        assert label is CaseLabel.C


@given(pairs, pairs)
def test_classify_monotone_in_sum(p1, p2):
    if magnitude_sum(p1) < magnitude_sum(p2):
        assert classify_case(p1) <= classify_case(p2)


@given(pairs)
def test_dependent_predicate_matches_case_b(pair):
    assert is_dependent_pair(pair) == (classify_case(pair) is CaseLabel.B)


@given(pairs)
def test_validate_pair_idempotent(pair):
    assert validate_pair(pair.mu, pair.lam) == pair


@given(shape_strategy(min_side=1e-7), sample_xs)
def test_dependent_identity(shape, x):
    p = PseudoTfn(shape, Kind.DEPENDENT)
    assert abs(lambda_at(p, x) - (mu_at(p, x) - 1.0)) <= 1e-12


@given(shape_strategy(min_side=1e-7), sample_xs)
def test_independent_identity(shape, x):
    p = PseudoTfn(shape, Kind.INDEPENDENT)
    assert abs(lambda_at(p, x) + mu_at(p, x)) <= 1e-12


@given(ptfns, sample_xs)
def test_pair_at_is_always_valid(p, x):
    pair = pair_at(p, x)
    assert validate_pair(pair.mu, pair.lam) == pair


@given(shape_strategy(), sample_xs)
def test_dependent_numbers_are_case_b_everywhere(shape, x):
    p = PseudoTfn(shape, Kind.DEPENDENT)
    assert classify_case(pair_at(p, x)) is CaseLabel.B


@given(shape_strategy(), sample_xs)
def test_independent_sum_is_twice_mu(shape, x):
    p = PseudoTfn(shape, Kind.INDEPENDENT)
    mu = mu_at(p, x)
    assert abs(magnitude_sum(pair_at(p, x)) - 2.0 * mu) <= 1e-12
    label = classify_case(pair_at(p, x))
    if 2.0 * mu < 1.0 - DEFAULT_EPS:
        assert label is CaseLabel.A
    elif 2.0 * mu > 1.0 + DEFAULT_EPS:
        assert label is CaseLabel.C


@given(ptfns, levels, levels)
def test_alpha_cuts_nest(p, alpha1, alpha2):
    lo_level, hi_level = min(alpha1, alpha2), max(alpha1, alpha2)
    outer = alpha_cut_mu(p, lo_level)
    inner = alpha_cut_mu(p, hi_level)
    assert inner.lo >= outer.lo - 1e-12
    assert inner.hi <= outer.hi + 1e-12


@given(ptfns, levels)
def test_cut_endpoints_reproduce_level(p, alpha):
    cut = alpha_cut_mu(p, alpha)
    assert abs(mu_at(p, cut.lo) - alpha) <= 1e-9
    assert abs(mu_at(p, cut.hi) - alpha) <= 1e-9


@given(shape_strategy(), st.floats(min_value=-1.0, max_value=0.0))
def test_dependent_beta_cut_correspondence(shape, beta):
    p = PseudoTfn(shape, Kind.DEPENDENT)
    got = beta_cut_lambda(p, beta)
    want = alpha_cut_mu(p, beta + 1.0)
    assert abs(got.lo - want.lo) <= 1e-9
    assert abs(got.hi - want.hi) <= 1e-9


@given(
    shape_strategy(),
    st.floats(min_value=-1.0, max_value=0.0),
    st.floats(min_value=-1.0, max_value=0.0),
)
def test_beta_cuts_nest_per_kind(shape, beta1, beta2):
    lo_level, hi_level = min(beta1, beta2), max(beta1, beta2)
    # dependent cuts shrink toward beta = 0, independent toward beta = -1
    dep = PseudoTfn(shape, Kind.DEPENDENT)
    outer, inner = beta_cut_lambda(dep, lo_level), beta_cut_lambda(dep, hi_level)
    assert inner.lo >= outer.lo - 1e-12 and inner.hi <= outer.hi + 1e-12
    ind = PseudoTfn(shape, Kind.INDEPENDENT)
    outer, inner = beta_cut_lambda(ind, hi_level), beta_cut_lambda(ind, lo_level)
    assert inner.lo >= outer.lo - 1e-12 and inner.hi <= outer.hi + 1e-12


@given(ptfns, levels, levels, levels)
def test_parametric_point_monotone_and_spans_cut(p, r, s1, s2):
    cut = alpha_cut_mu(p, r)
    assert abs(parametric_point(p, r, 0.0) - cut.lo) <= 1e-12
    assert abs(parametric_point(p, r, 1.0) - cut.hi) <= 1e-12
    lo_s, hi_s = min(s1, s2), max(s1, s2)
    assert parametric_point(p, r, lo_s) <= parametric_point(p, r, hi_s) + 1e-12


@given(shape_strategy(), shape_strategy(), kinds)
def test_add_commutes_exactly(shape1, shape2, kind):
    p, q = PseudoTfn(shape1, kind), PseudoTfn(shape2, kind)
    assert add(p, q).shape == add(q, p).shape


@given(shape_strategy(), shape_strategy(), shape_strategy(), kinds)
def test_add_associative(shape1, shape2, shape3, kind):
    p, q, r = (PseudoTfn(s, kind) for s in (shape1, shape2, shape3))
    left = add(add(p, q), r).shape
    right = add(p, add(q, r)).shape
    assert abs(left.a - right.a) <= 1e-12
    assert abs(left.b - right.b) <= 1e-12
    assert abs(left.c - right.c) <= 1e-12


@given(shape_strategy(), shape_strategy(), kinds)
def test_sub_peak_is_peak_difference(shape1, shape2, kind):
    p, q = PseudoTfn(shape1, kind), PseudoTfn(shape2, kind)
    assert sub(p, q).b == p.b - q.b


@given(ptfns, st.floats(min_value=0.05, max_value=20.0), st.sampled_from((1.0, -1.0)))
def test_scale_round_trip(p, magnitude, sign):
    k = sign * magnitude
    r = scale(scale(p, k), 1.0 / k)
    assert abs(r.a - p.a) <= 1e-9
    assert abs(r.b - p.b) <= 1e-9
    assert abs(r.c - p.c) <= 1e-9
    assert r.kind is p.kind


@given(shape_strategy(span=3.0), shape_strategy(span=3.0), kinds, st.integers(2, 9))
def test_mul_tables_satisfy_invariants(shape1, shape2, kind, n_levels):
    # CutTable construction validates level ordering and nesting
    table = mul(PseudoTfn(shape1, kind), PseudoTfn(shape2, kind), n_levels)
    assert table.rows[0][0] == 0.0
    assert table.rows[-1][0] == 1.0
    assert table.kind is kind


@given(shape_strategy(span=3.0), shape_strategy(span=3.0), kinds, sample_xs)
def test_result_pairs_follow_kind_identity(shape1, shape2, kind, x):
    table = mul(PseudoTfn(shape1, kind), PseudoTfn(shape2, kind), 7)
    pair = lambda_of_result(table, x)
    if kind is Kind.DEPENDENT:
        assert abs(pair.lam - (pair.mu - 1.0)) <= 1e-12
    else:
        assert abs(pair.lam + pair.mu) <= 1e-12


def scanned_lambda_of_result(table, x):
    """lambda_of_result as a linear scan up the levels: the oracle for its bisection."""
    rows = table.rows
    if not rows[0][1].contains(x):
        mu = 0.0
    elif rows[-1][1].contains(x):
        mu = 1.0
    else:
        k = 0
        while rows[k + 1][1].contains(x):
            k += 1
        alpha_lo, wide = rows[k]
        alpha_hi, narrow = rows[k + 1]
        if x < narrow.lo:
            gap = narrow.lo - wide.lo
            t = (x - wide.lo) / gap if gap > 0.0 else 1.0
        else:
            gap = wide.hi - narrow.hi
            t = (wide.hi - x) / gap if gap > 0.0 else 1.0
        mu = min(max(alpha_lo + t * (alpha_hi - alpha_lo), 0.0), 1.0)
    return MembershipPair(mu, mu - 1.0 if table.kind is Kind.DEPENDENT else 0.0 - mu)


# feet of one sign, clear of zero
divisors = st.builds(
    lambda a, left, right, sign: TriangleShape(
        *sorted(sign * v for v in (a, a + left, a + left + right))),
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=1e-3, max_value=5.0),
    st.floats(min_value=1e-3, max_value=5.0),
    st.sampled_from((1.0, -1.0)),
)


@settings(max_examples=200, deadline=None)
@given(shape_strategy(), shape_strategy(), divisors, kinds, st.sampled_from(("cut", "mul", "div")),
       st.integers(min_value=2, max_value=300), st.data())
def test_lambda_of_result_bisection_matches_the_scan(shape1, shape2, divisor, kind, op, levels,
                                                      data):
    p = PseudoTfn(shape1, kind)
    if op == "cut":
        table = cut_table(p, levels)
    elif op == "mul":
        table = mul(p, PseudoTfn(shape2, kind), levels)
    else:
        table = div(p, PseudoTfn(divisor, kind), levels)
    support = table.support
    # edges of every level, where containment flips, and points between them
    edges = [end for _, iv in table.rows for end in (iv.lo, iv.hi)]
    x = data.draw(st.one_of(
        st.sampled_from(edges),
        st.floats(min_value=support.lo - 1.0, max_value=support.hi + 1.0),
    ))
    assert lambda_of_result(table, x) == scanned_lambda_of_result(table, x)


@given(ptfns, sample_xs)
def test_tabulated_triangle_reconstructs_mu(p, x):
    # edges are linear, so interpolating the table is exact up to rounding
    table = cut_table(p, 11)
    got = lambda_of_result(table, x).mu
    assert abs(got - mu_at(p, x)) <= 1e-7


@settings(max_examples=20, deadline=None)
@given(shape_strategy(min_side=0.05), shape_strategy(min_side=0.05), kinds)
# a sample at level 0.4 whose mu rounds to 0.3999999999999999: the oracle
# takes the next sample of each operand, a gap of h_p + h_q and 2.7e-16
@example(TriangleShape(1.0, 1.5, 2.6), TriangleShape(1.0, 1.5, 2.6), Kind.DEPENDENT)
def test_oracle_add_convergence(shape1, shape2, kind):
    p, q = PseudoTfn(shape1, kind), PseudoTfn(shape2, kind)
    grid = 64
    # each operand's samples are h = width / grid apart, so an endpoint is
    # off by h_p + h_q at most, plus the rounding of samples and sums, which
    # are no larger in magnitude than the operands' largest ends together
    magnitude = max(abs(shape1.a), abs(shape1.c)) + max(abs(shape2.a), abs(shape2.c))
    bound = (shape1.width + shape2.width) / grid + 4 * math.ulp(magnitude)
    got = extension_oracle(p, q, BinaryOpCode.ADD, grid, 6)
    want = cut_table(add(p, q), 6)
    for (_, gi), (_, wi) in zip(got.rows, want.rows):
        assert abs(gi.lo - wi.lo) <= bound
        assert abs(gi.hi - wi.hi) <= bound


@settings(max_examples=20, deadline=None)
@given(shape_strategy(min_side=0.05, max_side=0.5, span=1.0),
       shape_strategy(min_side=0.05, max_side=0.5, span=1.0),
       kinds)
def test_oracle_mul_convergence_on_unit_scale(shape1, shape2, kind):
    # |operand| <= 2 keeps the product's sampling error within the
    # per-operand bound used for add
    p, q = PseudoTfn(shape1, kind), PseudoTfn(shape2, kind)
    grid = 128
    bound = 2.0 * 2.0 * max(shape1.width, shape2.width) / grid
    got = extension_oracle(p, q, BinaryOpCode.MUL, grid, 6)
    want = mul(p, q, 6)
    for (_, gi), (_, wi) in zip(got.rows, want.rows):
        assert abs(gi.lo - wi.lo) <= bound
        assert abs(gi.hi - wi.hi) <= bound


# feet and points anywhere among the floats, so that a side b - a or c - b,
# or a window's width times its sample count, may overflow
wide = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.sampled_from([-1.7976931348623157e308, -1e308, 1e308, 1.7976931348623157e308]))
wide_shapes = st.lists(wide, min_size=3, max_size=3).map(sorted).filter(lambda f: f[0] < f[2])


@given(wide_shapes, kinds, wide, levels)
# sides b - a (left) and c - b (right) that overflow, at a foot, inside a side, and at levels 0, 1 and between
@example([-1e308, 1e308, 1.5e308], Kind.DEPENDENT, -1e308, 0.0)
@example([-1e308, 1e308, 1.5e308], Kind.INDEPENDENT, 5e-324, 0.5)
@example([-1e308, 1e308, 1.5e308], Kind.DEPENDENT, 1.5e308, 1.0)
@example([-1.5e308, -1e308, 1e308], Kind.INDEPENDENT, 1e308, 0.0)
@example([-1.5e308, -1e308, 1e308], Kind.DEPENDENT, -5e-324, 1.0 - 2**-53)
@example([-1.7976931348623157e308, 0.0, 1.7976931348623157e308], Kind.INDEPENDENT, -0.0, 0.75)
def test_grades_and_cuts_of_finite_triangles_are_finite(feet, kind, x, alpha):
    p = PseudoTfn(TriangleShape(*feet), kind)
    pair = pair_at(p, x)  # MembershipPair checks that both grades are finite and in range
    cut = alpha_cut_mu(p, alpha)  # Interval checks that lo <= hi are finite
    a, b, c = feet
    assert a <= cut.lo <= cut.hi <= c
    # everywhere, overflowing sides too, the plain formulas of tests/rows.py, bit for bit
    mu = plain_mu(a, b, c, x)
    assert [pair.mu.hex(), pair.lam.hex()] == [mu.hex(), plain_lam(kind, mu).hex()]
    assert [mu_at(p, x).hex(), lambda_at(p, x).hex()] == [pair.mu.hex(), pair.lam.hex()]
    assert [cut.lo.hex(), cut.hi.hex()] == [end.hex() for end in plain_cut(a, b, c, alpha)]


@given(wide, wide, st.integers(2, 300))
def test_samples_of_a_finite_window_are_finite(xmin, xmax, n):
    assume(xmin < xmax and xmax - xmin < math.inf)
    bad_row = ptfn._bad_row

    def let_x_repeat(i, prev, x, mu, lam):  # a window narrower than n floats repeats an x
        if x != prev:
            bad_row(i, prev, x, mu, lam)

    with mock.patch.object(ptfn, "_bad_row", let_x_repeat):
        columns_of, count = _sample(PseudoTfn.dependent(0.0, 1.0, 2.0), n, xmin, xmax)
        xs = list(columns_of(0, count)[0])
    assert xs[0] == xmin and xs[-1] == xmax and xs == sorted(xs)
    assert all(map(math.isfinite, xs))


# the ends of [0, 1], -0.0, the least subnormal and a half, among other mus
column_mus = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, 0.5]), finite_mu)


@given(kinds, st.lists(column_mus, max_size=50))
def test_lams_is_lam_over_a_column(kind, mus):
    # every lam, and every check of one, comes from _lams: it is the paper's
    # identity bit for bit, and a lam of 0 (independent, where mu is 0) is +0.0
    lams = list(ptfn._lams(kind, mus))
    want = [mu - 1.0 if kind is Kind.DEPENDENT else 0.0 - mu for mu in mus]
    assert [lam.hex() for lam in lams] == [lam.hex() for lam in want]
    assert all(math.copysign(1.0, lam) == 1.0 for lam in lams if lam == 0.0)
