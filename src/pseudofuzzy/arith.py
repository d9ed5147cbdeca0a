"""Arithmetic on pseudo triangular fuzzy numbers via level cuts.

Addition, subtraction, and scaling stay triangular, so they return a new
PseudoTfn with the closed-form shape. Products and quotients of triangles
are not triangular; mul and div therefore return a CutTable: interval
endpoints tabulated at equally spaced levels in [0, 1]. A table is
computed as a stream of (alpha, lo, hi) float rows, by one loop per table
that calls the cut kernel and checks each row inline: cut_table, mul and
div collect the stream into a CutTable, and the CLI writes it out as it
comes. _nested_rows holds the rules of a table for both.

All positive-membership machinery is kind-agnostic; the negative grade of
any result is recovered from the kind identity (lam = mu - 1 dependent,
lam = -mu independent), so operands must share a kind.

extension_oracle is the independent cross-check: it lifts the crisp
operation pointwise over sampled supports with the sup-min rule and bins
the results by membership level. It shares no code with the fast paths.
It is the package's only numpy user, and imports numpy on its first
call, so importing the package and every CLI command never load it.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_left

from .core import DEFAULT_EPS, MembershipPair, _Frozen, _require_finite, _set
from .errors import (
    BadCount,
    DivisorStraddlesZero,
    InvalidCutTable,
    KindMismatch,
    NonFinite,
    ZeroScale,
)
from .ptfn import Interval, Kind, PseudoTfn, TriangleShape, _cut, _lam, mu_at

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, NoReturn, Optional

    import numpy as np

DEFAULT_LEVELS = 11
DEFAULT_ORACLE_GRID = 256

Row = tuple[float, float, float]  # (alpha, lo, hi) of a cut table


class BinaryOpCode(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"


class CutTable(_Frozen):
    """Interval endpoints of a result, one row per membership level.

    Rows are (alpha, interval) pairs with alphas strictly increasing from
    0 to 1 and intervals nested downward (higher levels inside lower
    ones, within the package tolerance for rounding).
    """

    __slots__ = ("rows", "kind")
    rows: tuple[tuple[float, Interval], ...]
    kind: Kind

    def __init__(self, rows: Iterable[tuple[float, Interval]], kind: Kind) -> None:
        _set(self, "rows", rows)
        _set(self, "kind", kind)
        self.__post_init__()  # through self, so a wrapper set on the class sees the call
        _set(self, "_values", (self.rows, kind))

    def __post_init__(self) -> None:
        rows = tuple((float(alpha), interval) for alpha, interval in self.rows)
        _set(self, "rows", rows)
        for _ in _nested_rows((alpha, interval.lo, interval.hi) for alpha, interval in rows):
            pass

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(alpha for alpha, _ in self.rows)

    @property
    def support(self) -> Interval:
        return self.rows[0][1]


def _nested_rows(rows: Iterable[Row]) -> Iterator[Row]:
    """Pass (alpha, lo, hi) rows through, checking the rules of a CutTable.

    Levels start at 0, rise strictly and end at 1; each row nests inside
    the one before it. A row is checked before it is passed on; the row
    count and the last level once the rows run out.
    """
    count = 0
    for alpha, lo, hi in rows:
        if count == 0:
            if alpha != 0.0:
                raise InvalidCutTable("levels must start at 0 and end at 1")
        else:
            if alpha <= last:
                raise InvalidCutTable(f"levels not strictly increasing at row {count}")
            # slack scales with endpoint magnitude: endpoint products of
            # wide triangles carry rounding beyond any absolute tolerance
            slack = DEFAULT_EPS * max(1.0, abs(outer_lo), abs(outer_hi))
            if not (lo >= outer_lo - slack and hi <= outer_hi + slack):
                raise InvalidCutTable(f"row {count} not nested inside row {count - 1}")
        yield alpha, lo, hi
        last, outer_lo, outer_hi = alpha, lo, hi
        count += 1
    if count < 2:
        raise InvalidCutTable(f"need at least 2 rows, got {count}")
    if last != 1.0:
        raise InvalidCutTable("levels must start at 0 and end at 1")


def _require_same_kind(p: PseudoTfn, q: PseudoTfn) -> Kind:
    if p.kind is not q.kind:
        raise KindMismatch(f"cannot combine {p.kind.value} with {q.kind.value}")
    return p.kind


def _last_level(levels: int) -> int:
    """The index of the last of levels equally spaced alphas; level j is j / last."""
    if levels > 2**53:  # past 2**53, neighbouring levels j / last may round to one float
        raise BadCount(f"need levels <= 2**53, got {levels!r}")
    if levels != int(levels) or levels < 2:
        raise BadCount(f"need levels >= 2, got {levels!r}")
    return int(levels) - 1


def _check_divisor(q: PseudoTfn) -> None:
    if q.a <= 0.0 <= q.c:
        raise DivisorStraddlesZero(f"divisor support [{q.a!r}, {q.c!r}] contains zero")


def _feet(p: PseudoTfn) -> str:
    return f"({p.a!r}, {p.b!r}, {p.c!r})"


def add(p: PseudoTfn, q: PseudoTfn) -> PseudoTfn:
    """Level-cut sum; shape is the component-wise sum of the shapes."""
    kind = _require_same_kind(p, q)
    try:
        return PseudoTfn(TriangleShape(p.a + q.a, p.b + q.b, p.c + q.c), kind)
    except NonFinite as exc:
        raise NonFinite(f"add overflows on {_feet(p)} + {_feet(q)}: {exc}") from None


def sub(p: PseudoTfn, q: PseudoTfn) -> PseudoTfn:
    """Level-cut difference: [lo1 - hi2, hi1 - lo2] at every level."""
    kind = _require_same_kind(p, q)
    try:
        return PseudoTfn(TriangleShape(p.a - q.c, p.b - q.b, p.c - q.a), kind)
    except NonFinite as exc:
        raise NonFinite(f"sub overflows on {_feet(p)} - {_feet(q)}: {exc}") from None


def scale(p: PseudoTfn, k: float) -> PseudoTfn:
    """Multiply by a crisp constant; negative k reflects the triangle."""
    k = float(k)
    if not math.isfinite(k):
        raise NonFinite(f"k must be finite, got {k!r}")
    if k == 0.0:
        raise ZeroScale("scaling by 0 collapses the triangle to a point")
    feet = (k * p.a, k * p.b, k * p.c) if k > 0.0 else (k * p.c, k * p.b, k * p.a)
    try:
        return PseudoTfn(TriangleShape(*feet), p.kind)
    except NonFinite as exc:
        raise NonFinite(f"scale overflows on {_feet(p)} * {k!r}: {exc}") from None


def _overflow(op: str, alpha: float, p: PseudoTfn, q: Optional[PseudoTfn] = None) -> NoReturn:
    """Raise the error of the row of op at alpha, which failed its inline check.

    A cut that is not a finite interval (p's for cut_table, p's then q's
    for mul, the divisor q's for div) is reported as Interval reports it;
    past those, the product or the quotient is not finite.
    """
    operands = {"cut_table": (p,), "mul": (p, q), "div": (q,)}[op]
    try:
        cuts = [Interval(*_cut(t.a, t.b, t.c, alpha)) for t in operands]
    except NonFinite as exc:
        raise NonFinite(f"{op} overflows at alpha={alpha!r}: {exc}") from None
    if op == "mul":
        u, v = cuts
        reason = f"product of cuts [{u.lo!r}, {u.hi!r}] and [{v.lo!r}, {v.hi!r}] is not finite"
    else:
        (v,) = cuts
        reason = f"quotient by divisor cut [{v.lo!r}, {v.hi!r}] is not finite"
    raise NonFinite(f"{op} overflows at alpha={alpha!r}: {reason}")


def _table(rows: Iterable[Row], kind: Kind) -> CutTable:
    return CutTable(tuple((alpha, Interval(lo, hi)) for alpha, lo, hi in rows), kind)


def _cut_rows(p: PseudoTfn, levels: int) -> Iterator[Row]:
    """Yield (alpha, lo, hi): the alpha-cuts of p at levels equally spaced levels."""
    last = _last_level(levels)
    a, b, c, inf = p.a, p.b, p.c, math.inf
    for j in range(last + 1):
        alpha = j / last
        lo, hi = _cut(a, b, c, alpha)
        if not -inf < lo <= hi < inf:
            _overflow("cut_table", alpha, p)
        yield alpha, lo, hi


def _product_rows(op: str, p: PseudoTfn, q: PseudoTfn, levels: int) -> Iterator[Row]:
    """Yield (alpha, lo, hi) at levels equally spaced levels: the extremes of
    the four endpoint products of p's cut and q's (mul) or its reciprocal (div).

    A divisor's feet share a sign, so its cuts are finite and not 0.
    """
    _require_same_kind(p, q)
    div, inf = op == "div", math.inf
    if div:
        _check_divisor(q)
    last = _last_level(levels)
    pa, pb, pc, qa, qb, qc = p.a, p.b, p.c, q.a, q.b, q.c
    for j in range(last + 1):
        alpha = j / last
        ulo, uhi = _cut(pa, pb, pc, alpha)
        vlo, vhi = _cut(qa, qb, qc, alpha)
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


def cut_table(p: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Tabulate the alpha-cuts of a PTFN at equally spaced levels."""
    return _table(_cut_rows(p, levels), p.kind)


def mul(p: PseudoTfn, q: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Per-level interval product: extremes of the four endpoint products."""
    return _table(_product_rows("mul", p, q, levels), p.kind)


def div(p: PseudoTfn, q: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Per-level interval quotient: product with the reciprocal interval."""
    return _table(_product_rows("div", p, q, levels), p.kind)


def __getattr__(name: str):
    # PEP 562: arith.np resolves to numpy on demand, for callers that
    # reach the oracle's array type through this module
    if name == "np":
        import numpy

        return numpy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _oracle_samples(p: PseudoTfn, grid: int) -> np.ndarray:
    import numpy as np

    # grid uniform subintervals over the support, plus the peak so the
    # level set at alpha = 1 is never empty
    xs = np.linspace(p.a, p.c, grid + 1)
    return np.unique(np.append(xs, p.b))


# on ndarrays these dispatch to numpy's add, subtract, multiply, divide
_ORACLE_OPS = {
    BinaryOpCode.ADD: operator.add,
    BinaryOpCode.SUB: operator.sub,
    BinaryOpCode.MUL: operator.mul,
    BinaryOpCode.DIV: operator.truediv,
}


def extension_oracle(
    p: PseudoTfn,
    q: PseudoTfn,
    op: BinaryOpCode,
    grid_per_operand: int = DEFAULT_ORACLE_GRID,
    levels: int = DEFAULT_LEVELS,
) -> CutTable:
    """Brute-force sup-min lift of a crisp binary operation.

    Each support is sampled on grid_per_operand uniform subintervals
    (plus the peak). Every sample pair contributes the crisp result with
    membership min(mu_p, mu_q); each level row is the min/max of results
    whose membership reaches that level. Endpoints converge to the exact
    cut arithmetic at rate (support width) / grid_per_operand per
    operand.
    """
    import numpy as np

    kind = _require_same_kind(p, q)
    if grid_per_operand != int(grid_per_operand) or grid_per_operand < 16:
        raise BadCount(f"need grid_per_operand >= 16, got {grid_per_operand!r}")
    if op is BinaryOpCode.DIV:
        _check_divisor(q)
    last = _last_level(levels)
    grid = int(grid_per_operand)

    xs = _oracle_samples(p, grid)
    ys = _oracle_samples(q, grid)
    mu_x = np.array([mu_at(p, float(x)) for x in xs])
    mu_y = np.array([mu_at(q, float(y)) for y in ys])

    results = _ORACLE_OPS[op](xs[:, None], ys[None, :])
    memberships = np.minimum(mu_x[:, None], mu_y[None, :])

    rows = []
    for j in range(last + 1):
        alpha = j / last
        reached = results[memberships >= alpha]
        rows.append((alpha, Interval(float(reached.min()), float(reached.max()))))
    return CutTable(tuple(rows), kind)


def lambda_of_result(table: CutTable, x: float) -> MembershipPair:
    """Reconstruct both grades of a tabulated result at x.

    mu comes from the highest level whose interval contains x, linearly
    interpolated against the next level's interval edge; outside the
    level-0 interval mu is 0. lam then follows the table's kind identity,
    reproducing the constant outer branches far from the support.
    """
    x = _require_finite("x", x)
    rows = table.rows
    if not rows[0][1].contains(x):
        mu = 0.0
    elif rows[-1][1].contains(x):
        mu = 1.0
    else:
        # row 0 holds x and the last row does not: bisect for a row k
        # that holds x where row k + 1 does not, in a nested table the
        # last row that holds x
        k = bisect_left(rows, True, 1, len(rows) - 1, key=lambda row: not row[1].contains(x)) - 1
        alpha_lo, wide = rows[k]
        alpha_hi, narrow = rows[k + 1]
        if x < narrow.lo:
            gap = narrow.lo - wide.lo
            t = (x - wide.lo) / gap if gap > 0.0 else 1.0
        else:
            gap = wide.hi - narrow.hi
            t = (wide.hi - x) / gap if gap > 0.0 else 1.0
        mu = alpha_lo + t * (alpha_hi - alpha_lo)
        mu = min(max(mu, 0.0), 1.0)
    return MembershipPair(mu, _lam(table.kind, mu))
