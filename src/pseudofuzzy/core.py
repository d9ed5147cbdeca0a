"""Membership-pair algebra for bipolar fuzzy grades.

A pseudo fuzzy grade attaches two memberships to one element: a positive
grade mu in [0, 1] and a negative grade lam in [-1, 0]. The magnitude sum
|mu| + |lam| always lies in [0, 2] and splits the pairs into three cases:

    case A:  |mu| + |lam| < 1
    case B:  |mu| + |lam| = 1   (the "dependent" regime)
    case C:  |mu| + |lam| > 1

Equality at 1 is decided inside an absolute tolerance band so the three
cases form a partition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn, Union

from .errors import (
    BadTolerance,
    DuplicateSupportPoint,
    LambdaOutOfRange,
    MuOutOfRange,
    NonFinite,
    UnsortedSupport,
)

#: Absolute comparison tolerance shared across the package. All quantities
#: handled here live in [-1, 2], so an absolute tolerance is well scaled.
DEFAULT_EPS = 1e-9


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFinite(f"{name} must be finite, got {value!r}")
    return value


def _require_eps(eps: float) -> float:
    eps = float(eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise BadTolerance(f"eps must be a finite positive real, got {eps!r}")
    return eps


class CaseLabel(enum.IntEnum):
    """Magnitude case of a pair; ordering A < B < C follows the sum."""

    A = 1
    B = 2
    C = 3


@dataclass(frozen=True)
class MembershipPair:
    """One (mu, lam) grade pair: mu in [0, 1], lam in [-1, 0]."""

    mu: float
    lam: float

    def __post_init__(self) -> None:
        mu = _require_finite("mu", self.mu)
        lam = _require_finite("lam", self.lam)
        if not 0.0 <= mu <= 1.0:
            raise MuOutOfRange(f"mu must lie in [0, 1], got {mu!r}")
        if not -1.0 <= lam <= 0.0:
            raise LambdaOutOfRange(f"lam must lie in [-1, 0], got {lam!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class PseudoFuzzyElement:
    """A support point together with its membership pair."""

    x: float
    pair: MembershipPair

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _require_finite("x", self.x))
        if not isinstance(self.pair, MembershipPair):
            raise TypeError(f"pair must be a MembershipPair, got {type(self.pair).__name__}")


@dataclass(frozen=True)
class DiscretePseudoFuzzySet:
    """Finite pseudo fuzzy set: elements ordered by strictly increasing x."""

    elements: tuple[PseudoFuzzyElement, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        prev = -math.inf
        for i, e in enumerate(elements):
            if not e.x > prev:  # an element's x and pair are already checked
                _bad_row(i, prev, e.x, e.pair.mu, e.pair.lam)
            prev = e.x

    def __iter__(self) -> Iterator[PseudoFuzzyElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


#: Anything validate_set can turn into a PseudoFuzzyElement.
ElementLike = Union[
    PseudoFuzzyElement,
    tuple,  # (x, mu, lam) or (x, (mu, lam)) or (x, MembershipPair)
]


def validate_pair(mu: float, lam: float) -> MembershipPair:
    """Validate one grade pair, returning it as a MembershipPair.

    Raises MuOutOfRange / LambdaOutOfRange on a bound violation and
    NonFinite for NaN or infinite inputs.
    """
    return MembershipPair(mu, lam)


def magnitude_sum(pair: MembershipPair) -> float:
    """|mu| + |lam| of a valid pair; always in [0, 2]."""
    return abs(pair.mu) + abs(pair.lam)


def classify_case(pair: MembershipPair, eps: float = DEFAULT_EPS) -> CaseLabel:
    """Classify a pair by its magnitude sum into case A, B, or C.

    Sums within eps of 1 map to case B; below the band to A; above to C.
    The band makes the classification a partition even though the raw case
    bounds touch at 1.
    """
    eps = _require_eps(eps)
    s = magnitude_sum(pair)
    if abs(s - 1.0) <= eps:
        return CaseLabel.B
    if s < 1.0:
        return CaseLabel.A
    return CaseLabel.C


def is_dependent_pair(pair: MembershipPair, eps: float = DEFAULT_EPS) -> bool:
    """True iff the magnitude sum equals 1 within eps (case B)."""
    return classify_case(pair, eps) is CaseLabel.B


def _as_element(item: ElementLike, index: int) -> PseudoFuzzyElement:
    if isinstance(item, PseudoFuzzyElement):
        return item
    try:
        if len(item) == 3:
            x, mu, lam = item
            pair = validate_pair(mu, lam)
        elif len(item) == 2:
            x, grades = item
            if isinstance(grades, MembershipPair):
                pair = grades
            else:
                pair = validate_pair(*grades)
        else:
            raise TypeError
    except (TypeError, IndexError):
        raise TypeError(
            f"element {index}: expected PseudoFuzzyElement, (x, mu, lam) or (x, pair)"
        ) from None
    except (MuOutOfRange, LambdaOutOfRange, NonFinite) as exc:
        raise type(exc)(f"element {index}: {exc}") from None
    return PseudoFuzzyElement(float(x), pair)


def _bad_row(index: int, prev: float, x: float, mu: float, lam: float) -> NoReturn:
    """Raise the error of row index, (x, mu, lam), which follows a row at prev.

    Callers check each row inline and call this only on a row that fails
    -inf < x < inf and 0 <= mu <= 1 and -1 <= lam <= 0 and x > prev;
    prev is -inf for the first row, or for rows in no order.
    """
    _as_element((x, mu, lam), index)
    if x == prev:
        raise DuplicateSupportPoint(f"duplicate support point x={x!r} at index {index}")
    raise UnsortedSupport(f"support not increasing at index {index}: {x!r} < {prev!r}")


def validate_set(elements: Iterable[ElementLike]) -> DiscretePseudoFuzzySet:
    """Build a DiscretePseudoFuzzySet from element-like items.

    Accepts PseudoFuzzyElement instances, (x, mu, lam) triplets, or
    (x, pair) tuples. Raises UnsortedSupport / DuplicateSupportPoint on
    ordering violations, and pair errors annotated with the offending
    index.
    """
    built = tuple(_as_element(item, i) for i, item in enumerate(elements))
    return DiscretePseudoFuzzySet(built)
