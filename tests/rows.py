"""The row kernels: each computes the rows of a table one at a time, by
plain scalar formulas of mu, lam and the alpha-cut, written here and not
taken from the package, and the inline row checks. They are the oracle
that tests/test_columns.py holds the column kernels of ptfn and arith
to, bit for bit and error for error. _cut_rows raises AssertionError on a
cut that is not finite and ordered, which no finite triangle has."""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from pseudofuzzy.arith import Row, _overflow
from pseudofuzzy.core import _bad_row
from pseudofuzzy.ptfn import Kind, PseudoTfn


def plain_mu(a: float, b: float, c: float, x: float) -> float:
    """mu at x of the triangle (a, b, c); where a side b - a or c - b overflows, of the halved one, which is exact."""
    if x < a or x > c:
        return 0.0
    if x == b:
        return 1.0
    if b - a == math.inf or c - b == math.inf:
        a, b, c, x = 0.5 * a, 0.5 * b, 0.5 * c, 0.5 * x
    if x < b:
        return (x - a) / (b - a)
    return (c - x) / (c - b)


def plain_lam(kind: Kind, mu: float) -> float:
    """The paper's kind identity: lam = mu - 1 (dependent) or -mu (independent), +0.0 where mu is 0."""
    if kind is Kind.DEPENDENT:
        return mu - 1.0
    return 0.0 - mu


def plain_cut(a: float, b: float, c: float, alpha: float) -> tuple[float, float]:
    """(lo, hi) of the alpha-cut of the triangle (a, b, c); where lo or hi is
    not finite, a side overflowed, and the halved triangle's cut is doubled."""
    if alpha == 1.0:
        return b, b
    lo = a + alpha * (b - a)
    hi = c - alpha * (c - b)
    if not (lo < math.inf and hi > -math.inf):
        lo, hi = plain_cut(0.5 * a, 0.5 * b, 0.5 * c, alpha)
        return 2.0 * lo, 2.0 * hi
    return lo, hi


def _transposed(rows: Iterable[Sequence[float]]) -> tuple[list[float], list[float], list[float]]:
    """The three columns of rows of three values, each a list."""
    columns = tuple(map(list, zip(*rows)))
    return columns or ([], [], [])


def _sample_rows(p: PseudoTfn, n: int, xmin: float, xmax: float, start: int, stop: int) -> Iterator:
    """Yield the rows start to stop - 1 of _sample's n rows, one at a time.

    Each row passes core's one row check, made inline (x after the
    previous row's x); core._bad_row explains a row that fails it. The
    column kernel _sample_columns computes the same floats.
    """
    a, b, c, kind, inf = p.a, p.b, p.c, p.kind, math.inf
    span, last = xmax - xmin, n - 1
    # 1.0 changes no bits; past the float range, a power of two keeps i * step finite
    scale = 1.0 if span * last < inf else 2.0 ** last.bit_length()
    step = span / scale
    # the x of row start - 1, by the formula of the loop, which takes it for i < last
    prev = xmin + ((start - 1) * step) / last * scale if start else -inf
    for i in range(start, stop):
        x = xmin + (i * step) / last * scale if i < last else xmax
        mu = plain_mu(a, b, c, x)
        lam = plain_lam(kind, mu)
        if not (-inf < x < inf and 0.0 <= mu <= 1.0 and -1.0 <= lam <= 0.0 and x > prev):
            _bad_row(i, prev, x, mu, lam)
        yield x, mu, lam
        prev = x


def _cut_rows(p: PseudoTfn, last: int, start: int, stop: int) -> Iterator[Row]:
    """Yield (alpha, lo, hi): the alpha-cuts of p at levels j / last, j from start to stop - 1."""
    a, b, c, inf = p.a, p.b, p.c, math.inf
    for j in range(start, stop):
        alpha = j / last
        lo, hi = plain_cut(a, b, c, alpha)
        if not -inf < lo <= hi < inf:
            raise AssertionError(f"row {j}: cut [{lo!r}, {hi!r}] is not finite and ordered")
        yield alpha, lo, hi


def _product_rows(
    op: str, p: PseudoTfn, q: PseudoTfn, last: int, start: int, stop: int
) -> Iterator[Row]:
    """Yield (alpha, lo, hi) at levels j / last, j from start to stop - 1: the
    extremes of the four endpoint products of p's cut and q's (mul) or its
    reciprocal (div), one row at a time.

    A divisor's feet share a sign, so its cuts are finite and not 0.
    """
    div, inf = op == "div", math.inf
    pa, pb, pc, qa, qb, qc = p.a, p.b, p.c, q.a, q.b, q.c
    for j in range(start, stop):
        alpha = j / last
        ulo, uhi = plain_cut(pa, pb, pc, alpha)
        vlo, vhi = plain_cut(qa, qb, qc, alpha)
        if div:
            vlo, vhi = 1.0 / vhi, 1.0 / vlo
        # min() and max() of the products without their call cost: on
        # finite cuts no product is NaN, and ties keep the first, as there
        lo = hi = ulo * vlo
        for product in (ulo * vhi, uhi * vlo, uhi * vhi):
            if product < lo:
                lo = product
            elif product > hi:
                hi = product
        if not (-inf < ulo <= uhi < inf and -inf < vlo <= vhi < inf and -inf < lo <= hi < inf):
            _overflow(op, alpha, p, q)
        yield alpha, lo, hi
