"""Arithmetic on pseudo triangular fuzzy numbers via level cuts.

Addition, subtraction, and scaling stay triangular, so they return a new
PseudoTfn with the closed-form shape. Products and quotients of triangles
are not triangular; mul and div therefore return a CutTable: interval
endpoints tabulated at equally spaced levels in [0, 1]. A table is
computed a chunk of rows at a time, from any row to any other, as
(alphas, los, his) float columns: the cuts of each operand by ptfn's cut
kernel, and the least and greatest of their four endpoint products. A
chunk with a product that is not finite raises the error of its first
such row. cut_table, mul and div collect all rows into a CutTable, whose
rules _nested_rows checks, and the CLI writes them a chunk at a time.
Rounding keeps the rows of a computed table by those rules, levels
rising and cuts nested without slack, so the CLI checks none of them.

All positive-membership machinery is kind-agnostic; the negative grade of
any result is recovered from the kind identity (lam = mu - 1 dependent,
lam = -mu independent), so operands must share a kind.

extension_oracle is the independent cross-check: it lifts the crisp
operation pointwise over sampled supports with the sup-min rule and bins
the results by membership level. It shares no code with the fast paths
it checks, the cut kernel and the products of mul and div; it takes mu
from ptfn's membership kernel.
It is the package's only numpy user, and imports numpy on its first
call, so importing the package and every CLI command never load it.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_left

from .core import (
    _MAX_COUNT,
    DEFAULT_EPS,
    MembershipPair,
    _Frozen,
    _require_count,
    _require_finite,
    _set,
)
from .errors import (
    DivisorStraddlesZero,
    InvalidCutTable,
    KindMismatch,
    NonFinite,
    ZeroScale,
)
from .ptfn import (
    Interval,
    Kind,
    PseudoTfn,
    TriangleShape,
    _lams,
    _mus,
    _require_kind,
    _rows,
    _side,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, NoReturn

    import numpy as np

    from .ptfn import Columns, ColumnsOf

DEFAULT_LEVELS = 11
DEFAULT_ORACLE_GRID = 256
# the oracle holds about four (grid + 2)**2 float64 arrays: 0.53 GB traced at this bound
MAX_ORACLE_GRID = 4096

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
        _set(self, "kind", _require_kind(kind))
        self.__post_init__()  # through self, so a wrapper set on the class sees the call
        _set(self, "_values", (self.rows, kind))

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        for i, row in enumerate(rows):
            size = len(row) if hasattr(row, "__len__") else None
            if size != 2:
                found = type(row).__name__ if size is None else f"{size} values"
                raise TypeError(f"row {i}: expected an (alpha, Interval) pair, got {found}")
            _, interval = row
            if not isinstance(interval, Interval):
                found = type(interval).__name__
                raise TypeError(f"row {i}: interval must be an Interval, got {found}")
        rows = tuple((float(alpha), interval) for alpha, interval in rows)
        _set(self, "rows", rows)
        _nested_rows((alpha, interval.lo, interval.hi) for alpha, interval in rows)

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(alpha for alpha, _ in self.rows)

    @property
    def support(self) -> Interval:
        return self.rows[0][1]


def _nested_rows(rows: Iterable[Row]) -> None:
    """Check (alpha, lo, hi) rows by the rules of a CutTable.

    Levels start at 0, rise strictly and end at 1; each row nests inside
    the one before it, within a slack for rounding. The first row that
    breaks a rule raises its error, and the row count and the last level
    are checked once the rows run out.
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
    return _require_count(levels, 2, _MAX_COUNT, "levels") - 1


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
    k = _require_finite("k", k)
    if k == 0.0:
        raise ZeroScale("scaling by 0 collapses the triangle to a point")
    feet = (k * p.a, k * p.b, k * p.c) if k > 0.0 else (k * p.c, k * p.b, k * p.a)
    try:
        return PseudoTfn(TriangleShape(*feet), p.kind)
    except NonFinite as exc:
        raise NonFinite(f"scale overflows on {_feet(p)} * {k!r}: {exc}") from None


def _overflow(op: str, alpha: float, p: PseudoTfn, q: PseudoTfn) -> NoReturn:
    """Raise the error of the row of op at alpha, whose product (mul) or quotient (div) is not finite."""
    (ulo,), (uhi,) = _side(p, [alpha])
    (vlo,), (vhi,) = _side(q, [alpha])
    if op == "mul":
        reason = f"product of cuts [{ulo!r}, {uhi!r}] and [{vlo!r}, {vhi!r}] is not finite"
    else:
        reason = f"quotient by divisor cut [{vlo!r}, {vhi!r}] is not finite"
    raise NonFinite(f"{op} overflows at alpha={alpha!r}: {reason}")


def _table(columns_of: ColumnsOf, count: int, kind: Kind) -> CutTable:
    rows = _rows(columns_of, count)
    return CutTable(tuple((alpha, Interval(lo, hi)) for alpha, lo, hi in rows), kind)


def _levels(last: int, start: int, stop: int) -> list[float]:
    """The levels j / last, j from start to stop - 1, as the loop computes them."""
    return [j / last for j in range(start, stop)]


def _cuts(p: PseudoTfn, levels: int) -> tuple[ColumnsOf, int]:
    """Check now; return (columns_of, levels) for the alpha-cuts of p at levels equally spaced levels.

    columns_of(start, stop) is the (alphas, los, his) columns of the rows start to stop - 1.
    """
    last = _last_level(levels)
    return (lambda start, stop: _cut_columns(p, last, start, stop)), last + 1


def _cut_columns(p: PseudoTfn, last: int, start: int, stop: int) -> Columns:
    """The (alphas, los, his) columns of the alpha-cuts of p at levels j / last, j from start to stop - 1."""
    alphas = _levels(last, start, stop)
    return alphas, *_side(p, alphas)


def _products(op: str, p: PseudoTfn, q: PseudoTfn, levels: int) -> tuple[ColumnsOf, int]:
    """Check now; return (columns_of, levels) for the cuts of p * q (mul) or p / q (div)
    at levels equally spaced levels.

    columns_of(start, stop) is the (alphas, los, his) columns of the rows start to stop - 1.
    """
    _require_same_kind(p, q)
    if op == "div":
        _check_divisor(q)
    last = _last_level(levels)
    return (lambda start, stop: _product_columns(op, p, q, last, start, stop)), last + 1


def _product_columns(
    op: str, p: PseudoTfn, q: PseudoTfn, last: int, start: int, stop: int
) -> Columns:
    """The (alphas, los, his) columns of p * q (mul) or p / q (div) at levels j / last, j from start to stop - 1.

    Each row's lo and hi are the least and the greatest of the four
    products of the endpoints of p's cut and of q's (mul) or its
    reciprocal (div), ties kept first as min() and max() keep them, so
    signed zeros are theirs too. A chunk that holds a row whose reciprocal
    or product is not finite raises _overflow's error at the first.
    """
    alphas = _levels(last, start, stop)
    u, v = _side(p, alphas), _side(q, alphas)
    if op == "div" and alphas:
        # cuts shrink toward the peak as alpha rises, so the rows whose
        # divisor cut holds 0 or has a reciprocal that overflows come first:
        # if the chunk's first row has an ordered, finite reciprocal, every row has
        vlo, vhi = v
        if not -math.inf < 1.0 / vhi[0] <= 1.0 / vlo[0] < math.inf:
            _overflow(op, alphas[0], p, q)
        v = [1.0 / y for y in vhi], [1.0 / y for y in vlo]
        del vlo, vhi
    los, his = [], []
    for ulo, uhi, vlo, vhi in zip(*u, *v):
        # min() and max() of the products without their call cost: on
        # finite cuts no product is NaN
        lo = hi = ulo * vlo
        for product in (ulo * vhi, uhi * vlo, uhi * vhi):
            if product < lo:
                lo = product
            elif product > hi:
                hi = product
        los.append(lo)
        his.append(hi)
    del u, v
    # lo <= hi in every row: min and max bound them
    if alphas and not (-math.inf < min(los) and max(his) < math.inf):
        first = next(i for i, (lo, hi) in enumerate(zip(los, his)) if not -math.inf < lo <= hi < math.inf)
        _overflow(op, alphas[first], p, q)
    return alphas, los, his


def cut_table(p: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Tabulate the alpha-cuts of a PTFN at equally spaced levels."""
    return _table(*_cuts(p, levels), p.kind)


def mul(p: PseudoTfn, q: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Per-level interval product: extremes of the four endpoint products."""
    return _table(*_products("mul", p, q, levels), p.kind)


def div(p: PseudoTfn, q: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Per-level interval quotient: product with the reciprocal interval."""
    return _table(*_products("div", p, q, levels), p.kind)


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
    (plus the peak), 16 to MAX_ORACLE_GRID of them. Every sample pair
    contributes the crisp result with membership min(mu_p, mu_q); each
    level row is the min/max of results whose membership reaches that
    level. Endpoints converge to the exact cut arithmetic at rate
    (support width) / grid_per_operand per operand.
    """
    import numpy as np

    if not isinstance(op, BinaryOpCode):
        raise TypeError(f"op must be a BinaryOpCode, got {type(op).__name__}")
    kind = _require_same_kind(p, q)
    grid = _require_count(grid_per_operand, 16, MAX_ORACLE_GRID, "grid_per_operand")
    if op is BinaryOpCode.DIV:
        _check_divisor(q)
    last = _last_level(levels)

    xs = _oracle_samples(p, grid)
    ys = _oracle_samples(q, grid)
    samples = np.concatenate((xs, ys))
    bad = samples[~np.isfinite(samples)]
    if bad.size:  # a support whose width overflows: the error mu_at gives for the first
        raise NonFinite(f"x must be finite, got {float(bad[0])!r}")
    mu_x = np.array(_mus(p, xs.tolist()))  # the samples rise, as _mus needs
    mu_y = np.array(_mus(q, ys.tolist()))

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
    [lam] = _lams(table.kind, [mu])
    return MembershipPair(mu, lam)
