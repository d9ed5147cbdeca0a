"""The contract of the seven immutable value classes: construction, checks,
immutability, equality, hash, repr, copying, pickling and matching."""

import copy
import dataclasses
import pickle

import pytest

from pseudofuzzy import (
    CutTable,
    DiscretePseudoFuzzySet,
    InvalidCutTable,
    InvalidInterval,
    InvalidShape,
    Interval,
    Kind,
    LambdaOutOfRange,
    MembershipPair,
    MuOutOfRange,
    NonFinite,
    PseudoFuzzyElement,
    PseudoTfn,
    TriangleShape,
    UnsortedSupport,
)

DEP = Kind.DEPENDENT
PAIR = MembershipPair(0.25, -0.75)
ELEMENT = PseudoFuzzyElement(0.5, PAIR)
SHAPE = TriangleShape(0, 1, 2)
ROWS = ((0.0, Interval(0, 2)), (1.0, Interval(1, 1)))
# row 1 nests inside row 0 only within the slack of DEFAULT_EPS
SLACK_ROWS = ((0.0, Interval(0, 1)), (0.5, Interval(-1e-12, 1 + 1e-12)), (1.0, Interval(0.5, 0.5)))

# class, positional arguments, a second equal value built by keywords, and its repr
CASES = [
    (MembershipPair, (0.25, -0.75), dict(mu=0.25, lam=-0.75),
     "MembershipPair(mu=0.25, lam=-0.75)"),
    (PseudoFuzzyElement, (0.5, PAIR), dict(x=0.5, pair=MembershipPair(0.25, -0.75)),
     "PseudoFuzzyElement(x=0.5, pair=MembershipPair(mu=0.25, lam=-0.75))"),
    (DiscretePseudoFuzzySet, ((ELEMENT,),), dict(elements=[ELEMENT]),
     "DiscretePseudoFuzzySet(elements=(PseudoFuzzyElement(x=0.5, "
     "pair=MembershipPair(mu=0.25, lam=-0.75)),))"),
    (TriangleShape, (0, 1, 2), dict(a=0.0, b=1.0, c=2.0),
     "TriangleShape(a=0.0, b=1.0, c=2.0)"),
    (Interval, (0, 1), dict(lo=0.0, hi=1.0), "Interval(lo=0.0, hi=1.0)"),
    (PseudoTfn, (SHAPE, DEP), dict(shape=TriangleShape(0.0, 1.0, 2.0), kind=DEP),
     "PseudoTfn(shape=TriangleShape(a=0.0, b=1.0, c=2.0), kind=<Kind.DEPENDENT: 'dependent'>)"),
    (CutTable, (ROWS, DEP), dict(rows=[(0, Interval(0, 2)), (1, Interval(1, 1))], kind=DEP),
     "CutTable(rows=((0.0, Interval(lo=0.0, hi=2.0)), (1.0, Interval(lo=1.0, hi=1.0))), "
     "kind=<Kind.DEPENDENT: 'dependent'>)"),
    (CutTable, (SLACK_ROWS, DEP), dict(rows=list(SLACK_ROWS), kind=DEP),
     "CutTable(rows=((0.0, Interval(lo=0.0, hi=1.0)), (0.5, Interval(lo=-1e-12, hi=1.000000000001)), "
     "(1.0, Interval(lo=0.5, hi=0.5))), kind=<Kind.DEPENDENT: 'dependent'>)"),
]
IDS = [case[0].__name__ for case in CASES]
IDS[-1] += "-slack"


def _values():
    return [cls(*args) for cls, args, _, _ in CASES]


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text):
    value, other = cls(*args), cls(**kwargs)
    assert type(value) is cls
    assert value == other and not value != other
    assert hash(value) == hash(other)
    assert repr(value) == repr(other) == text
    for name, given in kwargs.items():
        assert getattr(value, name) == given or getattr(value, name) == tuple(given)


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_wrong_arity_or_unknown_keyword_is_a_type_error(cls, args, kwargs, text):
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, args[-1])
    with pytest.raises(TypeError):
        cls(**kwargs, extra=1)
    with pytest.raises(TypeError):
        cls(*args, **{next(iter(kwargs)): args[0]})


@pytest.mark.parametrize("build, error, message", [
    (lambda: MembershipPair(1.5, 0.0), MuOutOfRange, "mu must lie in [0, 1], got 1.5"),
    (lambda: MembershipPair(0.5, 0.5), LambdaOutOfRange, "lam must lie in [-1, 0], got 0.5"),
    (lambda: MembershipPair(float("nan"), 0.0), NonFinite, "mu must be finite, got nan"),
    (lambda: PseudoFuzzyElement(float("inf"), PAIR), NonFinite, "x must be finite, got inf"),
    (lambda: PseudoFuzzyElement(0.0, (0.5, -0.5)), TypeError,
     "pair must be a MembershipPair, got tuple"),
    (lambda: DiscretePseudoFuzzySet((ELEMENT, PseudoFuzzyElement(0.0, PAIR))), UnsortedSupport,
     "support not increasing at index 1: 0.0 < 0.5"),
    (lambda: DiscretePseudoFuzzySet([(0, 0.5, -0.5)]), TypeError,
     "element 0: expected PseudoFuzzyElement, got tuple"),
    (lambda: TriangleShape(2, 1, 0), InvalidShape, "need a <= b <= c, got (2.0, 1.0, 0.0)"),
    (lambda: TriangleShape(1, 1, 1), InvalidShape, "zero-width triangle a == c == 1.0"),
    (lambda: TriangleShape(0, 1, float("inf")), NonFinite, "c must be finite, got inf"),
    (lambda: Interval(1, 0), InvalidInterval, "need lo <= hi, got [1.0, 0.0]"),
    (lambda: PseudoTfn((0, 1, 2), DEP), TypeError, "shape must be a TriangleShape, got tuple"),
    (lambda: PseudoTfn(SHAPE, "dependent"), TypeError, "kind must be a Kind, got str"),
    (lambda: CutTable(ROWS[::-1], DEP), InvalidCutTable, "levels must start at 0 and end at 1"),
    (lambda: CutTable(ROWS[:1], DEP), InvalidCutTable, "need at least 2 rows, got 1"),
    (lambda: CutTable(ROWS, 42), TypeError, "kind must be a Kind, got int"),
    (lambda: CutTable([(0.0, (1, 2)), (1.0, (1, 2))], DEP), TypeError,
     "row 0: interval must be an Interval, got tuple"),
    (lambda: CutTable([0.0, 1.0], DEP), TypeError,
     "row 0: expected an (alpha, Interval) pair, got float"),
    (lambda: CutTable([(0.0, Interval(0, 2), 2.0), *ROWS[1:]], DEP), TypeError,
     "row 0: expected an (alpha, Interval) pair, got 3 values"),
    (lambda: TriangleShape(10**400, 1, 2), NonFinite, "a must be finite, got inf"),
    (lambda: TriangleShape(-10**400, 1, 2), NonFinite, "a must be finite, got -inf"),
    (lambda: TriangleShape("a", 1, 2), TypeError, "a must be a real number, got str"),
    (lambda: MembershipPair(None, 0.0), TypeError, "mu must be a real number, got NoneType"),
    (lambda: CutTable(((0.0, Interval(0, 1)), (1.0, Interval(2, 2))), DEP), InvalidCutTable,
     "row 1 not nested inside row 0"),
    (lambda: CutTable((SLACK_ROWS[0], (0.5, Interval(-1e-12, 1 + 1e-8)), SLACK_ROWS[2]), DEP),
     InvalidCutTable, "row 1 not nested inside row 0"),  # beyond the slack
])
def test_checks_keep_their_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, args, kwargs, text):
    value = cls(*args)
    frozen = dataclasses.FrozenInstanceError
    for name in (*kwargs, "other"):
        with pytest.raises(frozen, match=f"cannot assign to field '{name}'"):
            setattr(value, name, args[0])
        with pytest.raises(frozen, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


def test_values_of_different_classes_are_unequal():
    values = _values() + [Interval(0.25, 0.75), PseudoTfn(SHAPE, Kind.INDEPENDENT)]
    for i, value in enumerate(values):
        for j, other in enumerate(values):
            assert (value == other) is (i == j)
            assert (value != other) is (i != j)
    assert Interval(0, 1) != MembershipPair(0, -1)
    assert Interval(0, 1) != (0.0, 1.0)
    assert TriangleShape(0, 1, 2) != (0.0, 1.0, 2.0)


def test_equal_values_hash_alike_and_work_as_keys():
    table = {value: i for i, value in enumerate(_values())}
    again = [cls(**kwargs) for cls, _, kwargs, _ in CASES]
    assert [table[value] for value in again] == list(range(len(CASES)))
    assert hash(PseudoTfn.dependent(0, 1, 2)) == hash(PseudoTfn(TriangleShape(0.0, 1, 2.0), DEP))
    assert len({Interval(0, 1), Interval(0.0, 1.0), Interval(0, 2)}) == 2


@pytest.mark.parametrize("cls, args, kwargs, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, args, kwargs, text):
    value = cls(*args)
    copies = [copy.copy(value), copy.deepcopy(value)]
    protocols = (0, 2, pickle.HIGHEST_PROTOCOL)
    copies += [pickle.loads(pickle.dumps(value, protocol)) for protocol in protocols]
    for other in copies:
        assert type(other) is cls
        assert other == value and hash(other) == hash(value) and repr(other) == text


def test_positional_match_patterns():
    def describe(value):
        match value:
            case MembershipPair(mu, lam):
                return ("pair", mu, lam)
            case PseudoFuzzyElement(x, MembershipPair(mu, _)):
                return ("element", x, mu)
            case DiscretePseudoFuzzySet(elements):
                return ("set", len(elements))
            case PseudoTfn(TriangleShape(a, b, c), Kind.DEPENDENT):
                return ("dependent", a, b, c)
            case TriangleShape(a, _, c):
                return ("shape", a, c)
            case Interval(lo, hi):
                return ("interval", lo, hi)
            case CutTable(rows, kind):
                return ("table", len(rows), kind)
        return None

    assert [describe(value) for value in _values()] == [
        ("pair", 0.25, -0.75),
        ("element", 0.5, 0.25),
        ("set", 1),
        ("shape", 0.0, 2.0),
        ("interval", 0.0, 1.0),
        ("dependent", 0.0, 1.0, 2.0),
        ("table", 2, DEP),
        ("table", 3, DEP),
    ]
    assert describe(PseudoTfn(SHAPE, Kind.INDEPENDENT)) is None
