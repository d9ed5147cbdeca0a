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
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional

from .core import (
    DEFAULT_EPS,
    DiscretePseudoFuzzySet,
    MembershipPair,
    PseudoFuzzyElement,
    _require_eps,
    _require_finite,
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


class Kind(enum.Enum):
    """Profile of the negative membership: lam = mu - 1 or lam = -mu."""

    DEPENDENT = "dependent"
    INDEPENDENT = "independent"


@dataclass(frozen=True)
class TriangleShape:
    """Triangle feet and peak: a <= b <= c with a < c."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        a = _require_finite("a", self.a)
        b = _require_finite("b", self.b)
        c = _require_finite("c", self.c)
        if not a <= b <= c:
            raise InvalidShape(f"need a <= b <= c, got ({a!r}, {b!r}, {c!r})")
        if a == c:
            raise InvalidShape(f"zero-width triangle a == c == {a!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def width(self) -> float:
        return self.c - self.a


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = _require_finite("lo", self.lo)
        hi = _require_finite("hi", self.hi)
        if lo > hi:
            raise InvalidInterval(f"need lo <= hi, got [{lo!r}, {hi!r}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval", slack: float = 0.0) -> bool:
        return other.lo >= self.lo - slack and other.hi <= self.hi + slack


@dataclass(frozen=True)
class PseudoTfn:
    """A triangular shape tagged with its negative-membership kind."""

    shape: TriangleShape
    kind: Kind

    def __post_init__(self) -> None:
        if not isinstance(self.shape, TriangleShape):
            raise TypeError(f"shape must be a TriangleShape, got {type(self.shape).__name__}")
        if not isinstance(self.kind, Kind):
            raise TypeError(f"kind must be a Kind, got {type(self.kind).__name__}")

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


def _sample(p: PseudoTfn, n: int, xmin: float, xmax: float, count: str = "n") -> Iterator:
    """Check now; later yield (x, mu, lam) at n even steps over [xmin, xmax].

    Each row is within the bounds that _require_finite and MembershipPair
    enforce on x and on (mu, lam); a row that is not goes through them,
    and they raise the error.
    """
    if n != int(n) or n < 2:
        raise BadCount(f"need {count} >= 2 sample points, got {n!r}")
    n = int(n)
    xmin = _require_finite("xmin", xmin)
    xmax = _require_finite("xmax", xmax)
    if not xmin < xmax:
        raise BadRange(f"need xmin < xmax, got [{xmin!r}, {xmax!r}]")
    return _sample_rows(p, n, xmin, xmax)


def _sample_rows(p: PseudoTfn, n: int, xmin: float, xmax: float) -> Iterator:
    a, b, c, kind, inf = p.a, p.b, p.c, p.kind, math.inf
    span = xmax - xmin
    for x in chain((xmin + (i * span) / (n - 1) for i in range(n - 1)), (xmax,)):
        mu = _mu(a, b, c, x)
        lam = _lam(kind, mu)
        if not (-inf < x < inf and 0.0 <= mu <= 1.0 and -1.0 <= lam <= 0.0):
            _require_finite("x", x)
            MembershipPair(mu, lam)
        yield x, mu, lam


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
    rows = _sample(p, grid, *_default_window(p), "grid")
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
