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
import operator

from .errors import (
    BadCount,
    BadTolerance,
    DuplicateSupportPoint,
    LambdaOutOfRange,
    MuOutOfRange,
    NonFinite,
    UnsortedSupport,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Iterator, NoReturn

#: Absolute comparison tolerance shared across the package. All quantities
#: handled here live in [-1, 2], so an absolute tolerance is well scaled.
DEFAULT_EPS = 1e-9


def _real(name: str, value: float) -> float:
    """value as a float; TypeError "{name} must be a real number" if it is none."""
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range, read as 1e400 is
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):  # float() takes numbers and numeric strings only
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}") from None


def _require_finite(name: str, value: float) -> float:
    value = _real(name, value)
    if not math.isfinite(value):
        raise NonFinite(f"{name} must be finite, got {value!r}")
    return value


def _require_eps(eps: float) -> float:
    eps = _real("eps", eps)
    if not math.isfinite(eps) or eps <= 0.0:
        raise BadTolerance(f"eps must be a finite positive real, got {eps!r}")
    return eps


#: The most points or levels a count may ask for: past 2**53, floats are too
#: coarse to tell neighbouring points or levels apart.
_MAX_COUNT = 2**53


def _show_count(n: object) -> str:
    try:
        return repr(n)
    except ValueError:  # an int with more digits than str() converts
        return f"{'a negative' if n < 0 else 'an'} integer of {n.bit_length()} bits"


def _require_count(n: int, least: int, most: int, name: str, unit: str = "") -> int:
    """n as an int in [least, most], or BadCount "need {name} <= {most}{unit}, got n".

    NaN, a non-integral n and an n below least get the ">= least" message;
    an n that does not compare with an int, such as a str, is a TypeError.
    """
    try:
        too_many = n > most
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {type(n).__name__}") from None
    except ArithmeticError:  # a Decimal NaN, which does not compare
        raise BadCount(f"need {name} >= {least}{unit}, got {_show_count(n)}") from None
    if too_many:
        bound = "2**53" if most == _MAX_COUNT else most
        raise BadCount(f"need {name} <= {bound}{unit}, got {_show_count(n)}")
    if not (n >= least and n == int(n)):  # NaN and -inf fail n >= least before int()
        raise BadCount(f"need {name} >= {least}{unit}, got {_show_count(n)}")
    return int(n)


class CaseLabel(enum.IntEnum):
    """Magnitude case of a pair; ordering A < B < C follows the sum."""

    A = 1
    B = 2
    C = 3


#: Sets a field of a _Frozen instance; for its __init__ only.
_set = object.__setattr__


class _Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in __slots__ and its __init__ sets each
    once with _set. ==, hash, repr, match patterns and pickling follow
    from the slots, as a frozen dataclass's follow from its fields;
    assigning or deleting an attribute raises
    dataclasses.FrozenInstanceError, as there. Each field is stored once:
    == and hash build the key of the fields on each call, at about a
    frozen dataclass's speed, and no object holds a second copy of them.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__
        cls._key = operator.attrgetter(*cls.__slots__)

    def __setattr__(self, name: str, value: object) -> NoReturn:
        from dataclasses import FrozenInstanceError  # not on the import path: it costs ms

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # rebuilt through __init__: the default slot state would meet the frozen __setattr__
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class MembershipPair(_Frozen):
    """One (mu, lam) grade pair: mu in [0, 1], lam in [-1, 0]."""

    __slots__ = ("mu", "lam")
    mu: float
    lam: float

    def __init__(self, mu: float, lam: float) -> None:
        mu = _require_finite("mu", mu)
        lam = _require_finite("lam", lam)
        if not 0.0 <= mu <= 1.0:
            raise MuOutOfRange(f"mu must lie in [0, 1], got {mu!r}")
        if not -1.0 <= lam <= 0.0:
            raise LambdaOutOfRange(f"lam must lie in [-1, 0], got {lam!r}")
        _set(self, "mu", mu)
        _set(self, "lam", lam)


class PseudoFuzzyElement(_Frozen):
    """A support point together with its membership pair."""

    __slots__ = ("x", "pair")
    x: float
    pair: MembershipPair

    def __init__(self, x: float, pair: MembershipPair) -> None:
        x = _require_finite("x", x)
        if not isinstance(pair, MembershipPair):
            raise TypeError(f"pair must be a MembershipPair, got {type(pair).__name__}")
        _set(self, "x", x)
        _set(self, "pair", pair)


class DiscretePseudoFuzzySet(_Frozen):
    """Finite pseudo fuzzy set: elements sorted by strictly increasing x."""

    __slots__ = ("elements",)
    elements: tuple[PseudoFuzzyElement, ...]

    def __init__(self, elements: Iterable[PseudoFuzzyElement]) -> None:
        elements = tuple(elements)
        prev = -math.inf
        for i, e in enumerate(elements):
            if not isinstance(e, PseudoFuzzyElement):
                raise TypeError(f"element {i}: expected PseudoFuzzyElement, got {type(e).__name__}")
            if not e.x > prev:  # an element's x and pair are already checked
                _bad_row(i, prev, e.x, e.pair.mu, e.pair.lam)
            prev = e.x
        _set(self, "elements", elements)

    def __iter__(self) -> Iterator[PseudoFuzzyElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


#: Anything validate_set can turn into a PseudoFuzzyElement.
ElementLike = PseudoFuzzyElement | tuple  # tuple: (x, mu, lam), (x, (mu, lam)) or (x, pair)


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
            x, *grades = item
        elif len(item) == 2:
            x, grades = item
        else:
            raise TypeError
        if not isinstance(grades, MembershipPair):
            mu, lam = grades
    except (TypeError, ValueError, IndexError):  # not a sequence, or one of the wrong length
        raise TypeError(
            f"element {index}: expected PseudoFuzzyElement, (x, mu, lam) or (x, pair)"
        ) from None
    try:
        pair = grades if isinstance(grades, MembershipPair) else validate_pair(mu, lam)
    except (MuOutOfRange, LambdaOutOfRange, NonFinite, TypeError) as exc:
        raise type(exc)(f"element {index}: {exc}") from None
    try:
        return PseudoFuzzyElement(x, pair)
    except TypeError as exc:  # x is not a number; a non-finite x keeps its own message
        raise TypeError(f"element {index}: {exc}") from None


def _bad_row(index: int, prev: float, x: float, mu: float, lam: float) -> NoReturn:
    """Raise the error of row index, (x, mu, lam), which follows a row at prev.

    Callers check each row inline and call this only on a row that fails
    -inf < x < inf and 0 <= mu <= 1 and -1 <= lam <= 0 and x > prev;
    prev is -inf for the first row.
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
