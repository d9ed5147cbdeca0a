"""Arithmetic on pseudo triangular fuzzy numbers via level cuts.

Addition, subtraction, and scaling stay triangular, so they return a new
PseudoTfn with the closed-form shape. Products and quotients of triangles
are not triangular; mul and div therefore return a CutTable: interval
endpoints tabulated at equally spaced levels in [0, 1].

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .core import DEFAULT_EPS, MembershipPair, _require_finite
from .errors import (
    BadCount,
    DivisorStraddlesZero,
    InvalidCutTable,
    KindMismatch,
    NonFinite,
    ZeroScale,
)
from .ptfn import Interval, Kind, PseudoTfn, TriangleShape, _lam, alpha_cut_mu, mu_at

if TYPE_CHECKING:
    import numpy as np

DEFAULT_LEVELS = 11
DEFAULT_ORACLE_GRID = 256


class BinaryOpCode(enum.Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"


@dataclass(frozen=True)
class CutTable:
    """Interval endpoints of a result, one row per membership level.

    Rows are (alpha, interval) pairs with alphas strictly increasing from
    0 to 1 and intervals nested downward (higher levels inside lower
    ones, within the package tolerance for rounding).
    """

    rows: tuple[tuple[float, Interval], ...]
    kind: Kind

    def __post_init__(self) -> None:
        rows = tuple((float(alpha), interval) for alpha, interval in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) < 2:
            raise InvalidCutTable(f"need at least 2 rows, got {len(rows)}")
        if rows[0][0] != 0.0 or rows[-1][0] != 1.0:
            raise InvalidCutTable("levels must start at 0 and end at 1")
        for i in range(1, len(rows)):
            if rows[i][0] <= rows[i - 1][0]:
                raise InvalidCutTable(f"levels not strictly increasing at row {i}")
            outer = rows[i - 1][1]
            # slack scales with endpoint magnitude: endpoint products of
            # wide triangles carry rounding beyond any absolute tolerance
            slack = DEFAULT_EPS * max(1.0, abs(outer.lo), abs(outer.hi))
            if not outer.contains_interval(rows[i][1], slack=slack):
                raise InvalidCutTable(f"row {i} not nested inside row {i - 1}")

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(alpha for alpha, _ in self.rows)

    @property
    def support(self) -> Interval:
        return self.rows[0][1]


def _require_same_kind(p: PseudoTfn, q: PseudoTfn) -> Kind:
    if p.kind is not q.kind:
        raise KindMismatch(f"cannot combine {p.kind.value} with {q.kind.value}")
    return p.kind


def _level_values(levels: int) -> list[float]:
    if levels != int(levels) or levels < 2:
        raise BadCount(f"need levels >= 2, got {levels!r}")
    levels = int(levels)
    return [j / (levels - 1) for j in range(levels)]


def _check_divisor(q: PseudoTfn) -> None:
    if q.a <= 0.0 <= q.c:
        raise DivisorStraddlesZero(f"divisor support [{q.a!r}, {q.c!r}] contains zero")


def add(p: PseudoTfn, q: PseudoTfn) -> PseudoTfn:
    """Level-cut sum; shape is the component-wise sum of the shapes."""
    kind = _require_same_kind(p, q)
    return PseudoTfn(TriangleShape(p.a + q.a, p.b + q.b, p.c + q.c), kind)


def sub(p: PseudoTfn, q: PseudoTfn) -> PseudoTfn:
    """Level-cut difference: [lo1 - hi2, hi1 - lo2] at every level."""
    kind = _require_same_kind(p, q)
    return PseudoTfn(TriangleShape(p.a - q.c, p.b - q.b, p.c - q.a), kind)


def scale(p: PseudoTfn, k: float) -> PseudoTfn:
    """Multiply by a crisp constant; negative k reflects the triangle."""
    k = float(k)
    if not math.isfinite(k):
        raise NonFinite(f"k must be finite, got {k!r}")
    if k == 0.0:
        raise ZeroScale("scaling by 0 collapses the triangle to a point")
    if k > 0.0:
        shape = TriangleShape(k * p.a, k * p.b, k * p.c)
    else:
        shape = TriangleShape(k * p.c, k * p.b, k * p.a)
    return PseudoTfn(shape, p.kind)


def _interval_mul(u: Interval, v: Interval) -> Interval:
    products = (u.lo * v.lo, u.lo * v.hi, u.hi * v.lo, u.hi * v.hi)
    try:
        return Interval(min(products), max(products))
    except NonFinite:
        raise NonFinite(
            f"product of cuts [{u.lo!r}, {u.hi!r}] and [{v.lo!r}, {v.hi!r}] is not finite"
        ) from None


def _tabulate(op: str, kind: Kind, levels: int, cut_at: Callable[[float], Interval]) -> CutTable:
    """CutTable of cut_at(alpha) at levels equally spaced alphas.

    A non-finite endpoint is reported with the operation and the level.
    """
    rows = []
    for alpha in _level_values(levels):
        try:
            rows.append((alpha, cut_at(alpha)))
        except NonFinite as exc:
            raise NonFinite(f"{op} overflows at alpha={alpha!r}: {exc}") from None
    return CutTable(tuple(rows), kind)


def cut_table(p: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Tabulate the alpha-cuts of a PTFN at equally spaced levels."""
    return _tabulate("cut_table", p.kind, levels, lambda alpha: alpha_cut_mu(p, alpha))


def mul(p: PseudoTfn, q: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Per-level interval product: extremes of the four endpoint products."""
    kind = _require_same_kind(p, q)
    return _tabulate(
        "mul",
        kind,
        levels,
        lambda alpha: _interval_mul(alpha_cut_mu(p, alpha), alpha_cut_mu(q, alpha)),
    )


def div(p: PseudoTfn, q: PseudoTfn, levels: int = DEFAULT_LEVELS) -> CutTable:
    """Per-level interval quotient: product with the reciprocal interval."""
    kind = _require_same_kind(p, q)
    _check_divisor(q)

    def quotient(alpha: float) -> Interval:
        den = alpha_cut_mu(q, alpha)
        try:
            return _interval_mul(alpha_cut_mu(p, alpha), Interval(1.0 / den.hi, 1.0 / den.lo))
        except NonFinite:
            raise NonFinite(
                f"quotient by divisor cut [{den.lo!r}, {den.hi!r}] is not finite"
            ) from None

    return _tabulate("div", kind, levels, quotient)


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
    level_values = _level_values(levels)
    grid = int(grid_per_operand)

    xs = _oracle_samples(p, grid)
    ys = _oracle_samples(q, grid)
    mu_x = np.array([mu_at(p, float(x)) for x in xs])
    mu_y = np.array([mu_at(q, float(y)) for y in ys])

    results = _ORACLE_OPS[op](xs[:, None], ys[None, :])
    memberships = np.minimum(mu_x[:, None], mu_y[None, :])

    rows = []
    for alpha in level_values:
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
        mu = alpha_lo + t * (alpha_hi - alpha_lo)
        mu = min(max(mu, 0.0), 1.0)
    return MembershipPair(mu, _lam(table.kind, mu))
