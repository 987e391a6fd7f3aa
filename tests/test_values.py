"""Oracle for the value classes: each behaves as the frozen dataclass it
replaced (Bound, which replaced none, as the one it would be), rebuilt here
with the same fields and compare/repr flags, and each constructor refuses
what it refused before, with the same message."""
import copy
import dataclasses
import pickle
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from liejordan.bounds import Bound, GroupDims, bound
from liejordan.center import CenterClass, WeightSet, center_classes, is_faithful, pair
from liejordan.finitegroup import FiniteGroup, Subgroup
from liejordan.minfaithful import RdimResult, rdim, rdim_table
from liejordan.rootdata import (DominantWeight, RootDatum, SimpleType, build_root_datum,
                                enumerate_dominant_weights, weyl_dim)

W = DominantWeight

BOUND_FIELDS = [("value", True, True), ("k", True, True), ("b", True, True)]

# Case name -> (class, fields as (name, compared, shown[, init]), sample
# arguments); a field is an __init__ argument when it is shown, unless init
# says otherwise.
# Samples of one case include equal pairs and pairs that differ only in a
# field == ignores.
# Bound's samples are grouped by the node of the expression tree that each
# of its shapes replaced: ExactInt the exact values, SymbolicJ a bare J(k),
# and the symbolic b * J(k)^b, a Product holding a Power, under both names:
# Power varies the exponent b at one k, Product the k at one b.
SPECS = {
    "ExactInt": (Bound, BOUND_FIELDS,
                 [(1, 0, 1), (720, 5, 1), (720, 5, 1), (10 ** 60, 71, 1), (3, 0, 3)]),
    "SymbolicJ": (Bound, BOUND_FIELDS, [(None, 1, 1), (None, 54, 1), (None, 54, 1), (None, 70, 1)]),
    "Power": (Bound, BOUND_FIELDS, [(None, 54, 2), (None, 54, 2), (None, 54, 3), (None, 54, 7)]),
    "Product": (Bound, BOUND_FIELDS, [(None, 28, 2), (None, 28, 2), (None, 3, 2), (None, 54, 2)]),
    "GroupDims": (GroupDims, [("n", True, True), ("b", True, True)], [(0,), (3,), (3, 1), (3, 2)]),
    "SimpleType": (SimpleType, [("family", True, True), ("rank", True, True)],
                   [("A", 1), ("A", 1), ("E", 7), ("G", 2), ("B", 12)]),
    "DominantWeight": (DominantWeight, [("coords", True, True)],
                       [((1, 0),), ([1, 0],), ((0, 2, 1),), ((),)]),
    "RootDatum": (RootDatum, [("type", True, True), ("cartan", False, False),
                              ("rho_pairings", False, False), ("rho_product", False, False),
                              ("center", False, False)],
                  [(SimpleType(f, r),) for f, r in (("A", 2), ("A", 2), ("G", 2), ("B", 3))]),
    "CenterClass": (CenterClass, [("coords", True, True)],
                    [((Fraction(1, 2), 0),), ((Fraction(1, 2), Fraction(0)),), (("1/3", "1/2"),),
                     ((Fraction(1, 4), Fraction(3, 4)),)]),
    "WeightSet": (WeightSet, [("weights", True, True)],
                  [((W((1, 0)), W((0, 1))),), ((W((0, 1)), W((1, 0))),), ((W((2, 0)),),)]),
    "RdimResult": (RdimResult, [("total_dim", True, True), ("witness", True, True),
                                ("per_weight_dims", True, True)],
                   [(56, WeightSet((W((1, 0)),)), (56,)), (56, WeightSet((W((1, 0)),)), (56,)),
                    (3, WeightSet((W((0, 1)),)), (3,))]),
    "Subgroup": (Subgroup, [("elements", True, True), ("generators", False, True)],
                 [((0,),), ((0, 1), (1,)), ((0, 1),), ((0, 1, 2), (1, 2))]),
    "FiniteGroup": (FiniteGroup, [("mult", True, True), ("order", False, False),
                                  ("inverses", False, False)],
                    [([[0]],), (((0, 1), (1, 0)),), ([[0, 1], [1, 0]],),
                     (((0, 1, 2), (1, 2, 0), (2, 0, 1)),)]),
}

# Each constructor, and each function that checks the same field, refuses
# with the same message; a bool is not an integer anywhere, and a center
# coordinate is an int, a Fraction or a str, never a float, bool or Decimal.
# A flag is a bool, and center_classes and is_faithful take a RootDatum only.
INEXACT = "coordinates must be integers, Fractions or strings, got"
A1 = build_root_datum(SimpleType("A", 1))
ELEMENTS = "subgroup elements must be a tuple of distinct ints in ascending order from 0, got"
GENERATORS = "subgroup generators must be a tuple of ints, got"
DIMS = "per_weight_dims must be positive ints, one per witness weight, that sum to total_dim"
REFUSALS = [
    (Subgroup, ((5, 3), "x"), f"{ELEMENTS} (5, 3)"),
    (Subgroup, ((0, 3, 3),), f"{ELEMENTS} (0, 3, 3)"),
    (Subgroup, ((1, 2),), f"{ELEMENTS} (1, 2)"),
    (Subgroup, ((),), f"{ELEMENTS} ()"),
    (Subgroup, ([0, 1],), f"{ELEMENTS} [0, 1]"),
    (Subgroup, ((0, True),), f"{ELEMENTS} (0, True)"),
    (Subgroup, ((0, 1.0),), f"{ELEMENTS} (0, 1.0)"),
    (Subgroup, ((0, 1), "x"), f"{GENERATORS} 'x'"),
    (Subgroup, ((0, 1), [1]), f"{GENERATORS} [1]"),
    (Subgroup, ((0, 1), (True,)), f"{GENERATORS} (True,)"),
    (FiniteGroup, ([[0.0, 1.0], [1.0, 0.0]],), "row 0 has non-integer entries"),
    (FiniteGroup, ([[0, 1, 2], [1, 2, 0], [2, 0, 1.0]],), "row 2 has non-integer entries"),
    (RdimResult, (-1, None, "x"), "an rdim witness must be a WeightSet, got None"),
    (RdimResult, (3, (W((1,)),), (3,)),
     "an rdim witness must be a WeightSet, got (DominantWeight(coords=(1,)),)"),
    (RdimResult, (-1, WeightSet((W((1,)),)), "x"), f"{DIMS} -1, got 'x'"),
    (RdimResult, (3, WeightSet((W((1,)),)), [3]), f"{DIMS} 3, got [3]"),
    (RdimResult, (5, WeightSet((W((1,)),)), (3,)), f"{DIMS} 5, got (3,)"),
    (RdimResult, (6, WeightSet((W((1,)),)), (3, 3)), f"{DIMS} 6, got (3, 3)"),
    (RdimResult, (0, WeightSet((W((1,)),)), (0,)), f"{DIMS} 0, got (0,)"),
    (RdimResult, (1, WeightSet((W((1,)),)), (True,)), f"{DIMS} 1, got (True,)"),
    (RdimResult, (3.0, WeightSet((W((1,)),)), (3,)), f"{DIMS} 3.0, got (3,)"),
    (rdim, (A1, "yes"), "override must be True or False, got 'yes'"),
    (rdim, (A1, 1), "override must be True or False, got 1"),
    (enumerate_dominant_weights, (A1, 3, None), "allow_large_cap must be True or False, got None"),
    (enumerate_dominant_weights, (A1, 3, 0), "allow_large_cap must be True or False, got 0"),
    (center_classes, ("A3",), "expected a RootDatum, got 'A3'"),
    (center_classes, (SimpleType("A", 3),), "expected a RootDatum, got A3"),
    (is_faithful, ("A1", WeightSet((W((1,)),))), "expected a RootDatum, got 'A1'"),
    (is_faithful, (None, WeightSet((W((1,)),))), "expected a RootDatum, got None"),
    (rdim, ("A3",), "expected a RootDatum, got 'A3'"),
    (rdim, (SimpleType("A", 3), True), "expected a RootDatum, got A3"),
    (weyl_dim, ("A3", W((1, 0, 0))), "expected a RootDatum, got 'A3'"),
    (weyl_dim, (A1, (1,)), "expected a DominantWeight, got (1,)"),
    (weyl_dim, (A1, None), "expected a DominantWeight, got None"),
    (pair, ((1, 0, 0), ["1/2", 0, 0]), "expected a DominantWeight, got (1, 0, 0)"),
    (pair, (None, ("1/2",)), "expected a DominantWeight, got None"),
    (enumerate_dominant_weights, ("A3", 5), "expected a RootDatum, got 'A3'"),
    (enumerate_dominant_weights, (None, 5, True), "expected a RootDatum, got None"),
    (build_root_datum, ("A3",), "expected a SimpleType, got 'A3'"),
    (RootDatum, ("A3",), "expected a SimpleType, got 'A3'"),
    (RootDatum, (("A", 3),), "expected a SimpleType, got (A, 3)"),
    (GroupDims, (-1,), "dimension must be a non-negative integer, got -1"),
    (GroupDims, (1.5,), "dimension must be a non-negative integer, got 1.5"),
    (GroupDims, (1, 0), "component count must be a positive integer, got 0"),
    (GroupDims, (True,), "dimension must be a non-negative integer, got True"),
    (GroupDims, (1, True), "component count must be a positive integer, got True"),
    (bound, ("lie", True), "dimension must be a non-negative integer, got True"),
    (bound, ("lie", 3, True), "component count must be a positive integer, got True"),
    (enumerate_dominant_weights, (A1, True), "cap must be a positive integer, got True"),
    (SimpleType, ("H", 2), "unknown family 'H', expected one of A..G"),
    (SimpleType, ("A", 0), "family A requires rank >= 1, got 0"),
    (SimpleType, ("E", 5), "family E exists only in rank 6, 7, 8, got 5"),
    (SimpleType, ("A", 2.0), "rank must be an integer, got 2.0"),
    (SimpleType, ("A", True), "rank must be an integer, got True"),
    (DominantWeight, ((1, -1),), "weight coordinates must be non-negative integers, got (1, -1)"),
    (DominantWeight, ([0, "x"],), "weight coordinates must be non-negative integers, got [0, x]"),
    (DominantWeight, ((1.0,),), "weight coordinates must be non-negative integers, got (1.0,)"),
    (DominantWeight, ((True,),), "weight coordinates must be non-negative integers, got (True,)"),
    (CenterClass, ((0, 0),), "the identity class is not represented"),
    (CenterClass, ((Fraction(1, 2), 1),),
     "class coordinates must lie in [0, 1), got (Fraction(1, 2), Fraction(1, 1))"),
    (CenterClass, (("1/2", "-1/2"),),
     "class coordinates must lie in [0, 1), got (Fraction(1, 2), Fraction(-1, 2))"),
    (CenterClass, ((Fraction(3, 2),),), "class coordinates must lie in [0, 1), got (Fraction(3, 2),)"),
    (CenterClass, ((float("inf"),),), f"{INEXACT} (inf,)"),
    (pair, (W((1,)), [float("inf")]), f"{INEXACT} (inf,)"),
    (CenterClass, (("1/3", 0.5),), f"{INEXACT} ('1/3', 0.5)"),
    (CenterClass, (("1/2", -0.5),), f"{INEXACT} ('1/2', -0.5)"),
    (CenterClass, ((Fraction(1, 2), True),), f"{INEXACT} (Fraction(1, 2), True)"),
    (CenterClass, ((Decimal("0.5"),),), f"{INEXACT} (Decimal('0.5'),)"),
    (pair, (W((1,)), [0.5]), f"{INEXACT} (0.5,)"),
    (pair, (W((1, 1)), (False, "1/2")), f"{INEXACT} (False, '1/2')"),
    (pair, (W((1,)), [Decimal(1)]), f"{INEXACT} (Decimal('1'),)"),
    (WeightSet, ((),), "a weight set must contain at least one weight"),
    (WeightSet, ((W((0, 0)),),), "the zero weight detects nothing and is not allowed"),
    (WeightSet, ((W((1, 0)), W((1, 0))),), "duplicate weight (1, 0)"),
    (rdim_table, ("3",), "max rank must be an integer, got '3'"),
    (rdim_table, (True,), "max rank must be an integer, got True"),
    (rdim_table, (2.5,), "max rank must be an integer, got 2.5"),
    (Bound, (None, -5, -1), "J's argument k must be a non-negative integer, got -5"),
    (Bound, (None, 54, -1), "exponent b must be a positive integer, got -1"),
    (Bound, (None, 54, 0), "exponent b must be a positive integer, got 0"),
    (Bound, (None, 54, 2.0), "exponent b must be a positive integer, got 2.0"),
    (Bound, (None, 54, True), "exponent b must be a positive integer, got True"),
    (Bound, (None, 1.5, 1), "J's argument k must be a non-negative integer, got 1.5"),
    (Bound, (None, False, 1), "J's argument k must be a non-negative integer, got False"),
    (Bound, (0, 0, 1), "bound value must be None or a positive integer, got 0"),
    (Bound, (-720, 5, 1), "bound value must be None or a positive integer, got -720"),
    (Bound, (720.0, 5, 1), "bound value must be None or a positive integer, got 720.0"),
    (Bound, ("720", 5, 1), "bound value must be None or a positive integer, got '720'"),
    (Bound, (True, 0, 1), "bound value must be None or a positive integer, got True"),
]


def reference(case):
    """The frozen dataclass the case's class was, as a class of the same name."""
    cls, fields, _ = SPECS[case]
    return dataclasses.make_dataclass(cls.__name__, [
        (f[0], object, dataclasses.field(compare=f[1], repr=f[2], init=_init(f),
                                          **({} if _init(f) else {"default": None})))
        for f in fields], frozen=True)


def _init(field) -> bool:
    """Whether a field spec names an __init__ argument."""
    return field[3] if len(field) > 3 else field[2]


def pairs(case):
    """(value, its reference dataclass twin) for each sample of the case."""
    cls, fields, samples = SPECS[case]
    ref = reference(case)
    out = []
    for args in samples:
        value = cls(*args)
        out.append((value, ref(*(getattr(value, f[0]) for f in fields if _init(f)))))
    return out


@pytest.mark.parametrize("case", list(SPECS))
def test_repr_eq_hash_match_the_dataclass(case):
    samples = pairs(case)
    for value, ref in samples:
        assert repr(value) == repr(ref)
        assert hash(value) == hash(ref)
        assert value == value and not value != value
    for a, ref_a in samples:
        for b, ref_b in samples:
            assert (a == b) == (ref_a == ref_b)
            assert (a != b) == (ref_a != ref_b)
            if a == b:
                assert hash(a) == hash(b)
    assert any(a == b and a is not b for a, _ in samples for b, _ in samples)


@pytest.mark.parametrize("case", list(SPECS))
def test_unequal_across_classes(case):
    value, ref = pairs(case)[0]
    assert value.__eq__(ref) is NotImplemented
    assert value != ref and ref != value
    for other in SPECS:
        if other != case:
            assert value != pairs(other)[0][0]


@pytest.mark.parametrize("case", list(SPECS))
def test_frozen(case):
    _, fields, _ = SPECS[case]
    for value, ref in pairs(case):
        for name in [f[0] for f in fields] + ["other"]:
            for obj in (value, ref):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)
            if name != "other":
                for obj in (value, ref):
                    with pytest.raises(AttributeError):
                        delattr(obj, name)


@pytest.mark.parametrize("case", list(SPECS))
def test_copy_and_pickle_keep_the_value(case):
    cls, fields, _ = SPECS[case]
    for value, _ in pairs(case):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and repr(twin) == repr(value)
            assert all(getattr(twin, name) == getattr(value, name) for name, *_ in fields)


@pytest.mark.parametrize("case", list(SPECS))
def test_copy_and_pickle_call_the_constructor_on_the_shown_fields(case):
    cls, fields, _ = SPECS[case]
    for value, _ in pairs(case):
        shown = tuple(getattr(value, name) for name, _, is_shown, *_ in fields if is_shown)
        assert value.__reduce__() == (cls, shown)
    if cls is RootDatum:  # the one class whose constructor takes less than its slots
        assert value.__reduce__() == (RootDatum, (value.type,))


@pytest.mark.parametrize("cls,args,message", REFUSALS,
                         ids=[f"{c.__name__}{a!r}" for c, a, _ in REFUSALS])
def test_refusals_unchanged(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


def test_normalised_fields():
    assert DominantWeight([1, 0]).coords == (1, 0)
    assert DominantWeight(x for x in (1, 2)).coords == (1, 2)
    coords = CenterClass(("1/3", Fraction(1, 2), 0)).coords
    assert coords == (Fraction(1, 3), Fraction(1, 2), Fraction(0))
    assert all(type(c) is Fraction for c in coords)
    assert [w.coords for w in WeightSet((W((0, 1)), W((1, 0))))] == [(0, 1), (1, 0)]
    datum = build_root_datum(SimpleType("A", 2))
    assert (datum.rho_pairings, datum.rho_product) == ((1, 1, 2), 2)
    assert Subgroup((0, 1)).generators == ()


def test_repr_of_a_fraction_past_the_int_str_limit_is_short():
    tiny = Fraction(1, 10 ** (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits))
    short = "CenterClass(coords=(1/1" + "0" * 36 + "...)"
    assert repr(CenterClass((tiny,))) == short
    assert repr(CenterClass((tiny, Fraction(1, 2)))) == short
    assert repr(CenterClass((1 - tiny,))) == "CenterClass(coords=(" + "9" * 39 + "...)"
    assert repr(CenterClass((Fraction(1, 3),))) == "CenterClass(coords=(Fraction(1, 3),))"


def test_root_datum_repr_shows_the_type_only():
    datum = build_root_datum(SimpleType("B", 30))
    assert repr(datum) == "RootDatum(type=SimpleType(family='B', rank=30))"
    assert len(repr(datum)) <= 1024


def test_root_datum_equality_still_reads_the_coroots():
    # Every field, the coroots included, is derived from the type, so two
    # datums of one type are equal and of two types are not.
    datum = build_root_datum(SimpleType("A", 2))
    twin = RootDatum(SimpleType("A", 2))
    assert twin == datum and hash(twin) == hash(datum)
    assert twin.positive_coroots == datum.positive_coroots == ((0, 1), (1, 0), (1, 1))
    other = RootDatum(SimpleType("A", 3))
    assert other != datum and hash(other) != hash(datum)


def test_root_datum_is_built_from_its_type_alone():
    # Handed fields could disagree with the type, as one of A2's three
    # coroots does here, and weyl_dim would answer from them.
    cartan = build_root_datum(SimpleType("A", 2)).cartan
    with pytest.raises(TypeError):
        RootDatum(SimpleType("A", 2), cartan, ((1, 0),))
