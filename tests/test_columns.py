"""The column kernels compute the rows of the row kernels: for any chunk,
columns_of(start, stop) is the transposed rows, bit for bit (signed zeros
included), or the same error. The row kernels of tests/rows.py are the
oracle."""

import math
from operator import ge, le, lt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudofuzzy import Kind, PseudoTfn, TriangleShape, alpha_cut_mu, arith, pair_at, ptfn
from pseudofuzzy.errors import NonFinite
from rows import _cut_rows, _product_rows, _sample_rows, _transposed, plain_cut, plain_lam, plain_mu

CHUNK = ptfn._CHUNK_ROWS
COUNTS = [2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 3 * CHUNK + 1]

# feet: signed zeros, values either side of 0, tiny ones whose products
# underflow to a signed 0, and large ones whose sides or products overflow
FEET = [0.0, -0.0, 1.0, -1.0, 0.25, -2.5, 3.0, 1e-200, -1e-200, 5e-324, -5e-324,
        1e300, -1e300, 1.7e308, -1.7e308]
feet = st.one_of(st.sampled_from(FEET), st.floats(-8.0, 8.0, allow_nan=False))
kinds = st.sampled_from(list(Kind))


@st.composite
def triangles(draw):
    a, b, c = sorted([draw(feet), draw(feet), draw(feet)])
    if a == c:
        c = c + 1.0 if abs(c) < 8.0 and draw(st.booleans()) else math.nextafter(c, math.inf)
    return PseudoTfn.independent(a, b, c) if draw(kinds) is Kind.INDEPENDENT \
        else PseudoTfn.dependent(a, b, c)


@st.composite
def chunks(draw):
    """(count, start, stop): a chunk of a table of count rows, often one that
    starts a chunk of the writer or ends the table."""
    count = draw(st.sampled_from(COUNTS))
    starts = list(range(0, count, CHUNK))
    start = draw(st.one_of(st.sampled_from(starts), st.integers(0, count - 1)))
    stop = draw(st.one_of(st.just(min(start + CHUNK, count)), st.integers(start + 1, count)))
    return count, start, stop


def outcome(compute):
    """repr of the columns compute() returns, or the type and message of its error."""
    try:
        columns = compute()
    except Exception as exc:  # the row kernels' errors: ValueError subclasses
        return type(exc), str(exc)
    return repr([list(column) for column in columns])


def rows_outcome(rows):
    return outcome(lambda: _transposed(list(rows())))


def same(columns, rows):
    got, want = outcome(columns), rows_outcome(rows)
    if got != want:  # not an assert: pytest's diff of two long reprs takes minutes
        at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        around = slice(max(at - 80, 0), at + 80)
        pytest.fail(f"columns differ from rows at {at}: {got[around]!r} != {want[around]!r}")


@settings(deadline=None, max_examples=150)
@given(triangles(), chunks(), st.sampled_from([None, (-4.0, 7.5), (-0.0, 1.0), (-1e306, 1.7e308)]))
@example(PseudoTfn.dependent(0.0, 1.0, 2.0), (3, 0, 3), (-0.0, 2.0))  # mu = -0.0 at x = -0.0
def test_sample_columns_are_the_sample_rows(p, chunk, window):
    count, start, stop = chunk
    xmin, xmax = window or ptfn._default_window(p)
    if not (xmin < xmax and xmax - xmin < math.inf):
        return
    same(lambda: ptfn._sample_columns(p, count, xmin, xmax, start, stop),
         lambda: _sample_rows(p, count, xmin, xmax, start, stop))


@pytest.mark.parametrize("start", [0, 1, 2**53 - 5, 2**53 - 3])
@pytest.mark.parametrize("window", [(0.0, 1.0), (1e16, 1e16 + 64.0), (-1e306, 1.7e308)])
def test_sample_columns_near_the_largest_count(start, window):
    # near 2**53 rows, neighbouring xs of a narrow window repeat: the rows' error
    p = PseudoTfn.dependent(0.0, 0.5, 1.0)
    same(lambda: ptfn._sample_columns(p, 2**53, *window, start, start + 3),
         lambda: _sample_rows(p, 2**53, *window, start, start + 3))


@settings(deadline=None, max_examples=100)
@given(triangles(), chunks())
def test_cut_columns_are_the_cut_rows(p, chunk):
    count, start, stop = chunk
    same(lambda: arith._cut_columns(p, count - 1, start, stop),
         lambda: _cut_rows(p, count - 1, start, stop))


def products_match(op, p, q, chunk):
    count, start, stop = chunk
    same(lambda: arith._product_columns(op, p, q, count - 1, start, stop),
         lambda: _product_rows(op, p, q, count - 1, start, stop))


@settings(deadline=None, max_examples=300)
@given(triangles(), triangles(), chunks())
@example(PseudoTfn.dependent(-1e-200, 1e-300, 1e-200), PseudoTfn.dependent(1e-200, 1.5e-200, 2e-200),
         (3, 0, 2))  # straddling cuts times positive ones, whose products underflow to signed zeros
def test_product_columns_are_the_product_rows(p, q, chunk):
    products_match("mul", p, q, chunk)
    if not q.a <= 0.0 <= q.c:
        products_match("div", p, q, chunk)


# one operand per sign class of its cuts: above 0, below 0, straddling 0
# throughout, touching 0 at a foot or the peak, and changing class mid-table
SIGNED = {
    "pos": (1.0, 2.0, 4.0), "neg": (-4.0, -2.0, -1.0),
    "straddle": (-2.0, 0.5, 3.0), "straddle2": (-3.0, -0.25, 1.5),
    "a0": (0.0, 1.0, 2.0), "c0": (-2.0, -1.0, 0.0), "b0": (-1.0, 0.0, 2.0),
    "rises": (-1.0, 2.0, 3.0), "falls": (-3.0, -2.0, 1.0),
    # products of these two underflow to zeros of either sign
    "tiny": (-1e-200, 1e-300, 1e-200), "tinypos": (1e-200, 1.5e-200, 2e-200),
}


@pytest.mark.parametrize("count, start, stop", [(2, 0, 2), (11, 4, 9), (2 * CHUNK + 1, CHUNK, 2 * CHUNK + 1)])
@pytest.mark.parametrize("u", SIGNED)
@pytest.mark.parametrize("v", SIGNED)
def test_product_columns_of_every_sign_class(u, v, count, start, stop):
    p, q = PseudoTfn.dependent(*SIGNED[u]), PseudoTfn.dependent(*SIGNED[v])
    products_match("mul", p, q, (count, start, stop))
    if not q.a <= 0.0 <= q.c:
        products_match("div", p, q, (count, start, stop))


@pytest.mark.parametrize("p, q", [
    ((-1e308, 1e308, 1.7e308), (1.0, 2.0, 3.0)),  # a side b - a overflows: the rows halve it
    ((1e300, 1e301, 1e302), (1e10, 2e10, 3e10)),  # the products overflow: the rows' error
    ((1.0, 2.0, 3.0), (5e-324, 1e-323, 2e-323)),  # the reciprocal of the divisor overflows
    # products that overflow, and a divisor across 0, which _products rejects first
    ((-1.7e308, 0.0, 1.7e308), (-1.0, 0.5, 1.0)),
], ids=["side", "product", "reciprocal", "wide"])
def test_product_columns_fall_back_to_the_rows(p, q):
    p, q = PseudoTfn.dependent(*p), PseudoTfn.dependent(*q)
    for count, start, stop in [(2, 0, 2), (11, 0, 11), (CHUNK + 1, 1, CHUNK + 1)]:
        products_match("mul", p, q, (count, start, stop))
        products_match("div", p, q, (count, start, stop))
        same(lambda: arith._cut_columns(p, count - 1, start, stop),
             lambda: _cut_rows(p, count - 1, start, stop))


# triangles with a side b - a or c - b that overflows: the row kernels' formulas halve them, and the column kernels must too
OVERFLOWING = {"left": (-1e308, 1e308, 1.5e308), "right": (-1.5e308, -1e308, 1e308)}
# whole tables of 2 and 101 rows, a chunk from mid-table to the table's end, and one inside a table
OVERFLOWING_CHUNKS = [(2, 0, 2), (101, 0, 101), (2 * CHUNK + 1, CHUNK + 7, 2 * CHUNK + 1),
                      (2 * CHUNK + 1, CHUNK // 2 + 3, CHUNK + 100)]


@pytest.mark.parametrize("chunk", OVERFLOWING_CHUNKS, ids=["2", "101", "tail", "middle"])
@pytest.mark.parametrize("window", [(-8e307, 8e307), (5e307, 1.4e308), (-1.4e308, -5e307)])
@pytest.mark.parametrize("kind", list(Kind), ids=[kind.value for kind in Kind])
@pytest.mark.parametrize("side", OVERFLOWING)
def test_sample_columns_of_an_overflowing_side(side, kind, window, chunk):
    p = PseudoTfn(TriangleShape(*OVERFLOWING[side]), kind)
    count, start, stop = chunk
    same(lambda: ptfn._sample_columns(p, count, *window, start, stop),
         lambda: _sample_rows(p, count, *window, start, stop))


@pytest.mark.parametrize("kind", list(Kind), ids=[kind.value for kind in Kind])
@pytest.mark.parametrize("side", OVERFLOWING)
def test_default_window_of_an_overflowing_side_is_rejected(side, kind):
    # its width c - a overflows too, so no chunk of it is ever sampled
    p = PseudoTfn(TriangleShape(*OVERFLOWING[side]), kind)
    with pytest.raises(NonFinite, match=r"^xmin must be finite, got -inf$"):
        ptfn._sample(p, 101, *ptfn._default_window(p))


@pytest.mark.parametrize("chunk", OVERFLOWING_CHUNKS, ids=["2", "101", "tail", "middle"])
@pytest.mark.parametrize("side", OVERFLOWING)
def test_tables_of_an_overflowing_side(side, chunk):
    # operands whose products stay finite, so each table is rows, not an error
    p, small = PseudoTfn.dependent(*OVERFLOWING[side]), PseudoTfn.dependent(0.25, 0.5, 0.75)
    count, start, stop = chunk
    same(lambda: arith._cut_columns(p, count - 1, start, stop),
         lambda: _cut_rows(p, count - 1, start, stop))
    products_match("mul", p, small, chunk)
    products_match("mul", small, p, chunk)
    products_match("div", p, PseudoTfn.dependent(2.0, 4.0, 8.0), chunk)


def table_columns(op, p, q, last, start, stop):
    """The columns of the cuts of p (op "cut"), or of the products of p and q."""
    if op == "cut":
        return arith._cut_columns(p, last, start, stop)
    return arith._product_columns(op, p, q, last, start, stop)


@settings(deadline=None, max_examples=150)
@given(triangles(), triangles(), chunks(), st.sampled_from(["cut", "mul", "div"]))
@example(PseudoTfn.dependent(0.0, 1.0, 1.0), PseudoTfn.dependent(2.0, 3.0, 3.0), (11, 4, 9), "cut")
@example(PseudoTfn.dependent(0.0, 1.0, 1.0), PseudoTfn.dependent(2.0, 3.0, 3.0), (11, 4, 9), "mul")
@example(PseudoTfn.dependent(-1.0, 0.0, 0.0), PseudoTfn.dependent(2.0, 3.0, 3.0), (11, 4, 9), "div")
def test_table_columns_keep_the_rules_of_a_cut_table(p, q, chunk, op):
    # what lets the CLI write a table unchecked: read with row start - 1, a
    # chunk's levels rise strictly, from 0 and to 1, and its cuts nest
    # without slack, lo never falling, hi never rising, and lo <= hi
    count, start, stop = chunk
    if op == "div" and q.a <= 0.0 <= q.c:
        return
    first = max(start - 1, 0)
    try:
        alphas, los, his = table_columns(op, p, q, count - 1, first, stop)
    except NonFinite:  # products that overflow: the table is an error, not rows
        return
    assert all(map(lt, alphas, alphas[1:]))
    assert first or alphas[0] == 0.0
    assert stop < count or alphas[-1] == 1.0
    assert all(map(le, los, los[1:]))
    assert all(map(ge, his, his[1:]))
    assert all(map(le, los, his))


# a side whose difference rounds up, sides that overflow, and subnormal sides
CUT_FEET = {
    "finite": (-2.5, 0.25, 3.0), "rounded": (-1e16, 1.5, 1e16), **OVERFLOWING,
    "subnormal": (5e-324, 1e-323, 2.5e-323), "subnormal0": (-1e-323, 0.0, 5e-324),
}
# the largest levels below 1 and levels drawn from [0, 1)
below_one = st.one_of(st.integers(1, 16).map(lambda k: 1.0 - k * 2**-53),
                      st.floats(0.0, 1.0, exclude_max=True))


def cut_in_triangle(p, alpha):
    (lo,), (hi,) = ptfn._side(p, [alpha])
    assert p.a <= lo <= p.b <= hi <= p.c, (lo, hi)


def hexes(*values):
    return [value.hex() for value in values]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("feet", CUT_FEET)
def test_cuts_near_the_peak_lie_either_side_of_it(feet, k):
    # rounding never inverts the endpoints of a cut below alpha = 1
    alpha = 1.0 - k * 2**-53
    cut_in_triangle(PseudoTfn.dependent(*CUT_FEET[feet]), alpha)
    # the scalar API calls the column kernels on one element: at these levels,
    # the cut and the grades at its endpoints are the plain formulas' bit for bit
    a, b, c = CUT_FEET[feet]
    cut = alpha_cut_mu(PseudoTfn.dependent(a, b, c), alpha)
    assert hexes(cut.lo, cut.hi) == hexes(*plain_cut(a, b, c, alpha))
    for kind in Kind:
        p = PseudoTfn(TriangleShape(a, b, c), kind)
        for x in (cut.lo, cut.hi):
            mu = plain_mu(a, b, c, x)
            pair = pair_at(p, x)
            assert hexes(pair.mu, pair.lam) == hexes(mu, plain_lam(kind, mu))


@given(triangles(), below_one)
def test_cuts_lie_either_side_of_the_peak(p, alpha):
    cut_in_triangle(p, alpha)


@pytest.mark.parametrize("j", [2**52 - 2, 2**52, 2**53 - 6, 2**53 - 4])
def test_levels_of_the_largest_table_rise(j):
    # 1 / last exceeds one ulp of the levels in [0.5, 1), so they rise strictly for every level count
    alphas = arith._levels(2**53 - 1, j, j + 3)
    assert alphas[0] < alphas[1] < alphas[2] <= 1.0
