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

Each grade and cut has one kernel, over a column: _mus (mu at rising xs),
_lams (the kind identity) and _side (the cuts at rising levels). The
scalar API calls them on one element, and tables a chunk of rows at a
time. A curve's xs are checked whole, and a chunk that fails names its
first bad row; rounding keeps mu in [0, 1], so it is not checked.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from itertools import compress, islice, repeat
from operator import lt, sub

from .core import (
    _MAX_COUNT,
    DEFAULT_EPS,
    DiscretePseudoFuzzySet,
    MembershipPair,
    PseudoFuzzyElement,
    _bad_row,
    _Frozen,
    _real,
    _require_count,
    _require_eps,
    _require_finite,
    _set,
)
from .errors import (
    AlphaOutOfRange,
    BadRange,
    BetaOutOfRange,
    InvalidInterval,
    InvalidShape,
    NonFinite,
    ParamOutOfRange,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, Optional, Sequence

    # xs, mus, lams; a reader's block may give one mu and one lam that every x shares
    Columns = tuple[Sequence[float], Sequence[float], Sequence[float]]
    # columns_of(start, stop) is the three columns of the rows start to stop - 1 of a table
    ColumnsOf = Callable[[int, int], Columns]

# rows computed at a time: the CLI writes a chunk of this many rows per
# write call, and the library builds a whole table this many rows at a time
_CHUNK_ROWS = 4096


class Kind(enum.Enum):
    """Profile of the negative membership: lam = mu - 1 or lam = -mu."""

    DEPENDENT = "dependent"
    INDEPENDENT = "independent"


def _require_kind(kind: Kind) -> Kind:
    if not isinstance(kind, Kind):
        raise TypeError(f"kind must be a Kind, got {type(kind).__name__}")
    return kind


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
        _set(self, "shape", shape)
        _set(self, "kind", _require_kind(kind))

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


def _mus(p: PseudoTfn, xs: Sequence[float]) -> list[float]:
    """The membership kernel: mu of p at each of xs, which rise, unchecked.

    mu is one branch of the hat on each run of xs: 0 below a, (x - a) / (b - a)
    up to b, 1 at b, (c - x) / (c - b) up to c and 0 above it. Where a side
    b - a or c - b overflows, the triangle and the xs are halved first,
    which is exact.
    """
    a, b, c, inf = p.a, p.b, p.c, math.inf
    ia = bisect_left(xs, a)
    ib = bisect_left(xs, b, ia)
    jb = bisect_right(xs, b, ib)
    jc = bisect_right(xs, c, jb)
    if not (b - a < inf and c - b < inf):  # a side overflows: halve, which is exact
        a, b, c, xs = 0.5 * a, 0.5 * b, 0.5 * c, [0.5 * x for x in xs]
    left, right = b - a, c - b
    mus = [0.0] * ia
    mus += [(x - a) / left for x in islice(xs, ia, ib)]
    mus += repeat(1.0, jb - ib)
    mus += [(c - x) / right for x in islice(xs, jb, jc)]
    mus += repeat(0.0, len(xs) - jc)
    return mus


def mu_at(p: PseudoTfn, x: float) -> float:
    """Positive membership at x; piecewise linear, 1 at the peak."""
    [mu] = _mus(p, [_require_finite("x", x)])
    return mu


def _lams(kind: Kind, mus: Iterable[float]) -> Iterator[float]:
    """The kind identity: the negative grade that goes with each of mus."""
    if kind is Kind.DEPENDENT:
        return map(sub, mus, repeat(1.0))  # mu - 1.0
    return map(sub, repeat(0.0), mus)  # 0.0 - mu, not -mu: lam is +0.0 where mu is 0


def lambda_at(p: PseudoTfn, x: float) -> float:
    """Negative membership at x per the number's kind."""
    [lam] = _lams(p.kind, [mu_at(p, x)])
    return lam


def pair_at(p: PseudoTfn, x: float) -> MembershipPair:
    """Both grades at x as a validated MembershipPair."""
    mu = mu_at(p, x)
    [lam] = _lams(p.kind, [mu])
    return MembershipPair(mu, lam)


def _side(p: PseudoTfn, alphas: list[float]) -> tuple[list[float], list[float]]:
    """The cut kernel: the (los, his) columns of the alpha-cuts of p at each of alphas, one or more, which rise.

    Where a side b - a or c - b overflows, the triangle is halved, which is
    exact, and its cuts doubled. Then every cut is finite, and rounding
    keeps lo in [a, b] and hi in [b, c], lo rising and hi falling with
    alpha (README, "Checks that cannot fail").
    """
    a, b, c, inf = p.a, p.b, p.c, math.inf
    half = not (b - a < inf and c - b < inf)
    if half:
        a, b, c = 0.5 * a, 0.5 * b, 0.5 * c
    left, right = b - a, c - b
    los = [a + alpha * left for alpha in alphas]
    his = [c - alpha * right for alpha in alphas]
    if half:
        los = [2.0 * lo for lo in los]
        his = [2.0 * hi for hi in his]
    if alphas[-1] == 1.0:  # only the last level can be 1, where the cut is the peak
        los[-1] = his[-1] = p.b
    return los, his


def alpha_cut_mu(p: PseudoTfn, alpha: float) -> Interval:
    """Level set {x : mu(x) >= alpha} as an interval.

    alpha = 0 returns the support closure [a, c]; alpha = 1 the peak
    [b, b]. Interior levels invert the two linear branches.
    """
    alpha = _real("alpha", alpha)
    if not 0.0 <= alpha <= 1.0:  # NaN fails the chained comparison too
        raise AlphaOutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
    (lo,), (hi,) = _side(p, [alpha])
    return Interval(lo, hi)


def beta_cut_lambda(p: PseudoTfn, beta: float) -> Interval:
    """Kind-oriented level cut of the negative membership.

    Dependent numbers are cut where lam is weakest (lam >= beta, near 0);
    by lam = mu - 1 that is the mu-cut at level beta + 1, the interval
    [b + beta*(b-a), b - beta*(c-b)]. Independent numbers are cut where
    the negative grade is strongest (lam <= beta); by lam = -mu that is
    the mu-cut at level -beta.
    """
    beta = _real("beta", beta)
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
    r = _real("r", r)
    s = _real("s", s)
    if not 0.0 <= r <= 1.0:
        raise ParamOutOfRange(f"r must lie in [0, 1], got {r!r}")
    if not 0.0 <= s <= 1.0:
        raise ParamOutOfRange(f"s must lie in [0, 1], got {s!r}")
    cut = alpha_cut_mu(p, r)
    # 1.0 changes no bits; where the width overflows, halving both ends is exact
    half = 0.5 if cut.hi - cut.lo == math.inf else 1.0
    return (half * cut.lo + s * (half * cut.hi - half * cut.lo)) / half


def _default_window(p: PseudoTfn) -> tuple[float, float]:
    """[a - (c-a), c + (c-a)]: reaches the constant outer branches of lam."""
    width = p.shape.width
    return p.a - width, p.c + width


def _sample(
    p: PseudoTfn, n: int, xmin: float, xmax: float, count: str = "n"
) -> tuple[ColumnsOf, int]:
    """Check now; return (columns_of, n) for the n rows (x, mu, lam) at even steps over [xmin, xmax].

    columns_of(start, stop) is the (xs, mus, lams) columns of the rows start
    to stop - 1, so the rows can be computed a chunk at a time, in any order.
    """
    n = _require_count(n, 2, _MAX_COUNT, count, " sample points")
    xmin = _require_finite("xmin", xmin)
    xmax = _require_finite("xmax", xmax)
    if not xmin < xmax:
        raise BadRange(f"need xmin < xmax, got [{xmin!r}, {xmax!r}]")
    if xmax - xmin == math.inf:
        raise BadRange(f"window width xmax - xmin overflows, got [{xmin!r}, {xmax!r}]")
    return (lambda start, stop: _sample_columns(p, n, xmin, xmax, start, stop)), n


def _sample_columns(p: PseudoTfn, n: int, xmin: float, xmax: float, start: int, stop: int) -> Columns:
    """The rows start to stop - 1 of _sample's n rows, start < stop, as (xs, mus, lams) columns.

    Row i's x is xmin + (i * step) / (n - 1) * scale, the last one xmax.
    mu is _mus's and lam _lams's. The xs are checked whole: they rise
    strictly from row start - 1 and stay finite.
    In a chunk that fails, core._bad_row is called on each row whose x
    fails, in order, and raises the error of the first. mu and lam need no
    check: on a run, 0 <= x - a <= b - a and 0 <= c - x <= c - b hold in
    floats too, as rounding is monotone, so mu lies in [0, 1] and lam in
    [-1, 0].
    """
    inf = math.inf
    span, last = xmax - xmin, n - 1
    # 1.0 changes no bits; past the float range, a power of two keeps i * step finite
    scale = 1.0 if span * last < inf else 2.0 ** last.bit_length()
    step = span / scale
    # the x of row start - 1, which the formula gives for every row but the last
    prev = xmin + ((start - 1) * step) / last * scale if start else -inf
    # rows by the formula: monotone in i, so sorted, as _mus needs
    xs = [xmin + (i * step) / last * scale for i in range(start, min(stop, last))]
    mus = _mus(p, xs)
    if stop == n:  # the last row is xmax, which may fall at or below the formula's row before it
        xs.append(xmax)
        mus += _mus(p, [xmax])
    lams = list(_lams(p.kind, mus))
    if not (xs[0] > prev and xs[-1] < inf and all(map(lt, xs, islice(xs, 1, None)))):
        for i, x, mu, lam in zip(range(start, stop), xs, mus, lams):
            if not prev < x < inf:
                _bad_row(i, prev, x, mu, lam)
            prev = x
    return xs, mus, lams


def _rows(columns_of: ColumnsOf, count: int) -> Iterator[tuple[float, float, float]]:
    """The rows 0 to count - 1 of columns_of, computed _CHUNK_ROWS at a time."""
    for start in range(0, count, _CHUNK_ROWS):
        yield from zip(*columns_of(start, min(start + _CHUNK_ROWS, count)))


def discretize(p: PseudoTfn, n: int, xmin: float, xmax: float) -> DiscretePseudoFuzzySet:
    """Sample both grades at n equally spaced points of [xmin, xmax]."""
    columns_of, n = _sample(p, n, xmin, xmax)
    return DiscretePseudoFuzzySet(
        tuple(PseudoFuzzyElement(x, MembershipPair(mu, lam)) for x, mu, lam in _rows(columns_of, n))
    )


def _first_violation(columns: Iterable[Columns], kind: Kind, eps: float) -> Optional[float]:
    """x of the first row whose lam is off the kind identity by more than eps.

    The rows come as (xs, mus, lams) columns. Every column is read, also
    those after that row's, so a reader that checks its rows as it yields
    them, such as the CLI's curve reader, checks them all. A reader may
    give a block's mus and lams as one value each, which every x of the
    block shares: compress stops at the shortest column, so that pair is
    checked once, and the block's first x is its first violation. eps is
    not checked here.
    """
    first = None
    for xs, mus, lams in columns:
        if first is None:
            off = map(abs, map(sub, lams, _lams(kind, mus)))
            first = next(compress(xs, map(lt, repeat(eps), off)), None)
    return first


def kind_violation(p: PseudoTfn, grid: int, eps: float = DEFAULT_EPS) -> Optional[float]:
    """None: p's lam is derived from its mu (_lams), so no x breaks its kind identity.

    Checks grid and the default window as sampling would, then eps; samples nothing.
    """
    try:
        _sample(p, grid, *_default_window(p), "grid")  # checks now; its rows are never read
    except NonFinite:  # a side of the window past the float range: name the window, as curve does
        raise NonFinite(f"default window of ({p.a!r}, {p.b!r}, {p.c!r}) is not finite") from None
    _require_eps(eps)
    return None


def set_kind_violation(
    dset: DiscretePseudoFuzzySet, kind: Kind, eps: float = DEFAULT_EPS
) -> Optional[float]:
    """First x of a discrete set, or any iterable of elements, whose pair breaks the kind rule."""
    kind, eps = _require_kind(kind), _require_eps(eps)
    rows = [(e.x, e.pair.mu, e.pair.lam) for e in dset]  # one pass: dset may be an iterator
    columns = tuple(zip(*rows)) or ((), (), ())  # no rows zip to no columns
    return _first_violation([columns], kind, eps)
