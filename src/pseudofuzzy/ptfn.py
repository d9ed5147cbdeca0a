"""Pseudo triangular fuzzy numbers (PTFNs) and their level cuts.

A PTFN is a triangle (a, b, c) carrying two membership profiles over the
reals. The positive grade mu is the usual triangular hat in both kinds:

    mu(x) = 0            for x <= a
          = (x-a)/(b-a)  on [a, b]
          = (c-x)/(c-b)  on [b, c]
          = 0            for x >= c

The negative grade lam, and its level cuts, are derived from mu by the
kind identity. Written out, the identity yields:

    dependent:    lam = mu - 1: -1 outside [a, c], (x-b)/(b-a) on [a, b],
                  (b-x)/(c-b) on [b, c].
    independent:  lam = -mu: 0 outside [a, c], (a-x)/(b-a) on [a, b],
                  (x-c)/(c-b) on [b, c].

A dependent number keeps |mu| + |lam| = 1 everywhere (case B); an
independent one has |mu| + |lam| = 2*mu, sweeping cases A and C.

Degenerate sides: a == b (or b == c) makes that side a step, with the
peak value 1 taken at x == b. a == b == c is rejected at construction.
"""

from __future__ import annotations

import enum
import math

from .core import (
    DEFAULT_EPS,
    DiscretePseudoFuzzySet,
    MembershipPair,
    PseudoFuzzyElement,
    _bad_row,
    _Frozen,
    _require_eps,
    _require_finite,
    _set,
)
from .errors import (
    AlphaOutOfRange,
    BadCount,
    BadRange,
    BetaOutOfRange,
    InvalidInterval,
    InvalidShape,
    ParamOutOfRange,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Optional


class Kind(enum.Enum):
    """Profile of the negative membership: lam = mu - 1 or lam = -mu."""

    DEPENDENT = "dependent"
    INDEPENDENT = "independent"


class TriangleShape(_Frozen):
    """Triangle feet and peak: a <= b <= c with a < c."""

    __slots__ = ("a", "b", "c")
    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float) -> None:
        a = _require_finite("a", a)
        b = _require_finite("b", b)
        c = _require_finite("c", c)
        if not a <= b <= c:
            raise InvalidShape(f"need a <= b <= c, got ({a!r}, {b!r}, {c!r})")
        if a == c:
            raise InvalidShape(f"zero-width triangle a == c == {a!r}")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "_values", (a, b, c))

    @property
    def width(self) -> float:
        return self.c - self.a


class Interval(_Frozen):
    """Closed real interval [lo, hi]."""

    __slots__ = ("lo", "hi")
    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        lo = _require_finite("lo", lo)
        hi = _require_finite("hi", hi)
        if lo > hi:
            raise InvalidInterval(f"need lo <= hi, got [{lo!r}, {hi!r}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "_values", (lo, hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


class PseudoTfn(_Frozen):
    """A triangular shape tagged with its negative-membership kind."""

    __slots__ = ("shape", "kind")
    shape: TriangleShape
    kind: Kind

    def __init__(self, shape: TriangleShape, kind: Kind) -> None:
        if not isinstance(shape, TriangleShape):
            raise TypeError(f"shape must be a TriangleShape, got {type(shape).__name__}")
        if not isinstance(kind, Kind):
            raise TypeError(f"kind must be a Kind, got {type(kind).__name__}")
        _set(self, "shape", shape)
        _set(self, "kind", kind)
        _set(self, "_values", (shape, kind))

    @classmethod
    def dependent(cls, a: float, b: float, c: float) -> "PseudoTfn":
        return cls(TriangleShape(a, b, c), Kind.DEPENDENT)

    @classmethod
    def independent(cls, a: float, b: float, c: float) -> "PseudoTfn":
        return cls(TriangleShape(a, b, c), Kind.INDEPENDENT)

    @property
    def a(self) -> float:
        return self.shape.a

    @property
    def b(self) -> float:
        return self.shape.b

    @property
    def c(self) -> float:
        return self.shape.c

    @property
    def support(self) -> Interval:
        return Interval(self.shape.a, self.shape.c)


def _mu(a: float, b: float, c: float, x: float) -> float:
    """The membership kernel: mu at x of the triangle (a, b, c), unchecked."""
    if x < a or x > c:
        return 0.0
    if x == b:
        return 1.0
    if b - a == math.inf or c - b == math.inf:  # a side overflows: halve, which is exact
        a, b, c, x = 0.5 * a, 0.5 * b, 0.5 * c, 0.5 * x
    if x < b:
        return (x - a) / (b - a)
    return (c - x) / (c - b)


def mu_at(p: PseudoTfn, x: float) -> float:
    """Positive membership at x; piecewise linear, 1 at the peak."""
    return _mu(p.a, p.b, p.c, _require_finite("x", x))


def _lam(kind: Kind, mu: float) -> float:
    """The kind identity: the negative grade that goes with mu."""
    if kind is Kind.DEPENDENT:
        return mu - 1.0
    return 0.0 - mu  # not -mu: lam is +0.0 where mu is 0


def lambda_at(p: PseudoTfn, x: float) -> float:
    """Negative membership at x per the number's kind."""
    return _lam(p.kind, mu_at(p, x))


def pair_at(p: PseudoTfn, x: float) -> MembershipPair:
    """Both grades at x as a validated MembershipPair."""
    mu = mu_at(p, x)
    return MembershipPair(mu, _lam(p.kind, mu))


def _cut(a: float, b: float, c: float, alpha: float) -> tuple[float, float]:
    """The cut kernel: (lo, hi) of the alpha-cut of the triangle (a, b, c), unchecked."""
    if alpha == 1.0:
        return b, b
    lo = a + alpha * (b - a)
    hi = c - alpha * (c - b)
    if not (lo < math.inf and hi > -math.inf):  # a side overflowed: halve, which is exact
        lo, hi = _cut(0.5 * a, 0.5 * b, 0.5 * c, alpha)
        return 2.0 * lo, 2.0 * hi
    # alpha within ulps of 1 can invert the endpoints by rounding
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    return lo, hi


def alpha_cut_mu(p: PseudoTfn, alpha: float) -> Interval:
    """Level set {x : mu(x) >= alpha} as an interval.

    alpha = 0 returns the support closure [a, c]; alpha = 1 the peak
    [b, b]. Interior levels invert the two linear branches.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:  # NaN fails the chained comparison too
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
    return Interval(*_cut(p.a, p.b, p.c, alpha))


def beta_cut_lambda(p: PseudoTfn, beta: float) -> Interval:
    """Kind-oriented level cut of the negative membership.

    Dependent numbers are cut where lam is weakest (lam >= beta, near 0);
    by lam = mu - 1 that is the mu-cut at level beta + 1, the interval
    [b + beta*(b-a), b - beta*(c-b)]. Independent numbers are cut where
    the negative grade is strongest (lam <= beta); by lam = -mu that is
    the mu-cut at level -beta.
    """
    beta = float(beta)
    if not -1.0 <= beta <= 0.0:
        raise BetaOutOfRange(f"beta must lie in [-1, 0], got {beta!r}")
    if p.kind is Kind.DEPENDENT:
        return alpha_cut_mu(p, beta + 1.0)
    return alpha_cut_mu(p, -beta)


def parametric_point(p: PseudoTfn, r: float, s: float) -> float:
    """Crisp point x(r, s): sweep the alpha-cut at level r by fraction s.

    s = 0 gives the left endpoint, s = 1 the right; r = 1 collapses to
    the peak b for every s.
    """
    r = float(r)
    s = float(s)
    if not 0.0 <= r <= 1.0:
        raise ParamOutOfRange(f"r must lie in [0, 1], got {r!r}")
    if not 0.0 <= s <= 1.0:
        raise ParamOutOfRange(f"s must lie in [0, 1], got {s!r}")
    cut = alpha_cut_mu(p, r)
    return cut.lo + s * (cut.hi - cut.lo)


def _default_window(p: PseudoTfn) -> tuple[float, float]:
    """[a - (c-a), c + (c-a)]: reaches the constant outer branches of lam."""
    width = p.shape.width
    return p.a - width, p.c + width


def _sample(
    p: PseudoTfn, n: int, xmin: float, xmax: float, count: str = "n", ordered: bool = True
) -> Iterator:
    """Check now; later yield (x, mu, lam) at n even steps over [xmin, xmax].

    Each row passes core's one row check, made inline (x after the
    previous row's x only if ordered); core._bad_row explains a row that
    fails it.
    """
    if n > 2**53:  # past 2**53, floats are too coarse to count the points
        raise BadCount(f"need {count} <= 2**53 sample points, got {n!r}")
    if n != int(n) or n < 2:
        raise BadCount(f"need {count} >= 2 sample points, got {n!r}")
    n = int(n)
    xmin = _require_finite("xmin", xmin)
    xmax = _require_finite("xmax", xmax)
    if not xmin < xmax:
        raise BadRange(f"need xmin < xmax, got [{xmin!r}, {xmax!r}]")
    if xmax - xmin == math.inf:
        raise BadRange(f"window width xmax - xmin overflows, got [{xmin!r}, {xmax!r}]")
    return _sample_rows(p, n, xmin, xmax, ordered)


def _sample_rows(p: PseudoTfn, n: int, xmin: float, xmax: float, ordered: bool) -> Iterator:
    a, b, c, kind, inf = p.a, p.b, p.c, p.kind, math.inf
    span, last, prev = xmax - xmin, n - 1, -inf
    # 1.0 changes no bits; past the float range, a power of two keeps i * step finite
    scale = 1.0 if span * last < inf else 2.0 ** last.bit_length()
    step = span / scale
    for i in range(n):
        x = xmin + (i * step) / last * scale if i < last else xmax
        mu = _mu(a, b, c, x)
        lam = _lam(kind, mu)
        if not (-inf < x < inf and 0.0 <= mu <= 1.0 and -1.0 <= lam <= 0.0 and x > prev):
            _bad_row(i, prev, x, mu, lam)
        yield x, mu, lam
        if ordered:
            prev = x


def discretize(p: PseudoTfn, n: int, xmin: float, xmax: float) -> DiscretePseudoFuzzySet:
    """Sample both grades at n equally spaced points of [xmin, xmax]."""
    rows = _sample(p, n, xmin, xmax)
    return DiscretePseudoFuzzySet(
        tuple(PseudoFuzzyElement(x, MembershipPair(mu, lam)) for x, mu, lam in rows)
    )


def _first_violation(rows: Iterable, kind: Kind, eps: float) -> Optional[float]:
    """x of the first (x, mu, lam) row whose lam is off the kind identity by more than eps.

    eps is not checked here. Rows after that one are left unread.
    """
    for x, mu, lam in rows:
        if abs(lam - _lam(kind, mu)) > eps:
            return x
    return None


def kind_violation(p: PseudoTfn, grid: int, eps: float = DEFAULT_EPS) -> Optional[float]:
    """First sampled x where p breaks its kind identity, or None.

    Samples grid points over the default window, one at a time.
    """
    # a grid is not a set: rounding may repeat an x
    rows = _sample(p, grid, *_default_window(p), "grid", ordered=False)
    return _first_violation(rows, p.kind, _require_eps(eps))


def verify_kind(p: PseudoTfn, grid: int, eps: float = DEFAULT_EPS) -> bool:
    """True iff the kind identity holds at every sampled point."""
    return kind_violation(p, grid, eps) is None


def set_kind_violation(
    dset: DiscretePseudoFuzzySet, kind: Kind, eps: float = DEFAULT_EPS
) -> Optional[float]:
    """First x of a discrete set whose pair breaks the given kind rule."""
    rows = ((e.x, e.pair.mu, e.pair.lam) for e in dset)
    return _first_violation(rows, kind, _require_eps(eps))
