"""Oracle for the value classes: each behaves as the frozen dataclass it
replaced, rebuilt here with the same fields and compare/repr flags, and each
constructor refuses what it refused before, with the same message."""
import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from liejordan.bounds import ExactInt, GroupDims, Power, Product, SymbolicJ
from liejordan.center import CenterClass, WeightSet
from liejordan.finitegroup import Subgroup
from liejordan.minfaithful import RdimResult
from liejordan.rootdata import DominantWeight, RootDatum, SimpleType, build_root_datum

W = DominantWeight

# Class -> (fields as (name, compared, shown), sample arguments); a field is
# an __init__ argument when it is shown.
# Samples of one class include equal pairs and pairs that differ only in a
# field == ignores.
SPECS = {
    ExactInt: ([("value", True, True)], [(1,), (2,), (2,), (10 ** 60,)]),
    SymbolicJ: ([("arg", True, True)], [(1,), (54,), (54,), (70,)]),
    Power: ([("base", True, True), ("exponent", True, True)],
            [(SymbolicJ(54), 2), (SymbolicJ(54), 2), (SymbolicJ(3), 2), (ExactInt(7), 5)]),
    Product: ([("operands", True, True)],
              [((ExactInt(2), SymbolicJ(54)),), ([ExactInt(2), SymbolicJ(54)],),
               ((ExactInt(2), Power(SymbolicJ(54), 2)),)]),
    GroupDims: ([("n", True, True), ("b", True, True)], [(0,), (3,), (3, 1), (3, 2)]),
    SimpleType: ([("family", True, True), ("rank", True, True)],
                 [("A", 1), ("A", 1), ("E", 7), ("G", 2), ("B", 12)]),
    DominantWeight: ([("coords", True, True)], [((1, 0),), ([1, 0],), ((0, 2, 1),), ((),)]),
    RootDatum: ([("type", True, True), ("cartan", True, True),
                 ("positive_coroots", True, True), ("rho_pairings", False, False),
                 ("rho_product", False, False)],
                [tuple(getattr(build_root_datum(SimpleType(f, r)), name)
                       for name in ("type", "cartan", "positive_coroots"))
                 for f, r in (("A", 2), ("A", 2), ("G", 2), ("B", 3))]),
    CenterClass: ([("coords", True, True)],
                  [((Fraction(1, 2), 0),), ((Fraction(1, 2), Fraction(0)),), (("1/3", 0.5),),
                   ((Fraction(1, 4), Fraction(3, 4)),)]),
    WeightSet: ([("weights", True, True)],
                [((W((1, 0)), W((0, 1))),), ((W((0, 1)), W((1, 0))),), ((W((2, 0)),),)]),
    RdimResult: ([("total_dim", True, True), ("witness", True, True),
                  ("per_weight_dims", True, True)],
                 [(56, WeightSet((W((1, 0)),)), (56,)), (56, WeightSet((W((1, 0)),)), (56,)),
                  (3, WeightSet((W((0, 1)),)), (3,))]),
    Subgroup: ([("elements", True, True), ("generators", False, True)],
               [((0,),), ((0, 1), (1,)), ((0, 1),), ((0, 1, 2), (1, 2))]),
}

REFUSALS = [
    (ExactInt, (0,), "bounds are positive integers, got 0"),
    (ExactInt, (-10 ** 50,),
     "bounds are positive integers, got -100000000000000000000000000000000000000..."),
    (SymbolicJ, (63,), "J(63) has a known exact value and must not stay symbolic"),
    (SymbolicJ, (0,), "J(0) has a known exact value and must not stay symbolic"),
    (SymbolicJ, (71,), "J(71) has a known exact value and must not stay symbolic"),
    (Power, (SymbolicJ(2), 1), "power nodes need exponent >= 2, got 1"),
    (Product, ((ExactInt(2),),), "product nodes need at least two operands"),
    (GroupDims, (-1,), "dimension must be a non-negative integer, got -1"),
    (GroupDims, (1.5,), "dimension must be a non-negative integer, got 1.5"),
    (GroupDims, (1, 0), "component count must be a positive integer, got 0"),
    (SimpleType, ("H", 2), "unknown family 'H', expected one of A..G"),
    (SimpleType, ("A", 0), "family A requires rank >= 1, got 0"),
    (SimpleType, ("E", 5), "family E exists only in rank 6, 7, 8, got 5"),
    (SimpleType, ("A", 2.0), "rank must be an integer, got 2.0"),
    (SimpleType, ("A", True), "rank must be an integer, got True"),
    (DominantWeight, ((1, -1),), "weight coordinates must be non-negative integers, got (1, -1)"),
    (DominantWeight, ([0, "x"],), "weight coordinates must be non-negative integers, got [0, x]"),
    (DominantWeight, ((1.0,),), "weight coordinates must be non-negative integers, got (1.0,)"),
    (CenterClass, ((0, 0),), "the identity class is not represented"),
    (CenterClass, ((Fraction(1, 2), 1),),
     "class coordinates must lie in [0, 1), got (Fraction(1, 2), Fraction(1, 1))"),
    (CenterClass, (("1/2", -0.5),),
     "class coordinates must lie in [0, 1), got (Fraction(1, 2), Fraction(-1, 2))"),
    (CenterClass, ((Fraction(3, 2),),), "class coordinates must lie in [0, 1), got (Fraction(3, 2),)"),
    (WeightSet, ((),), "a weight set must contain at least one weight"),
    (WeightSet, ((W((0, 0)),),), "the zero weight detects nothing and is not allowed"),
    (WeightSet, ((W((1, 0)), W((1, 0))),), "duplicate weight (1, 0)"),
]


def reference(cls):
    """The frozen dataclass cls was, as a class of the same name."""
    fields, _ = SPECS[cls]
    return dataclasses.make_dataclass(cls.__name__, [
        (name, object, dataclasses.field(compare=compared, repr=shown, init=shown,
                                          **({} if shown else {"default": None})))
        for name, compared, shown in fields], frozen=True)


def pairs(cls):
    """(value, its reference dataclass twin) for each sample of cls."""
    fields, samples = SPECS[cls]
    ref = reference(cls)
    out = []
    for args in samples:
        value = cls(*args)
        out.append((value, ref(*(getattr(value, name) for name, _, shown in fields if shown))))
    return out


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
def test_repr_eq_hash_match_the_dataclass(cls):
    samples = pairs(cls)
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


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
def test_unequal_across_classes(cls):
    value, ref = pairs(cls)[0]
    assert value.__eq__(ref) is NotImplemented
    assert value != ref and ref != value
    for other in SPECS:
        if other is not cls:
            assert value != pairs(other)[0][0]


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
def test_frozen(cls):
    fields, _ = SPECS[cls]
    for value, ref in pairs(cls):
        for name in [f[0] for f in fields] + ["other"]:
            for obj in (value, ref):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)
            if name != "other":
                for obj in (value, ref):
                    with pytest.raises(AttributeError):
                        delattr(obj, name)


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda c: c.__name__)
def test_copy_and_pickle_keep_the_value(cls):
    fields, _ = SPECS[cls]
    for value, _ in pairs(cls):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and repr(twin) == repr(value)
            assert all(getattr(twin, name) == getattr(value, name) for name, _, _ in fields)


@pytest.mark.parametrize("cls,args,message", REFUSALS,
                         ids=[f"{c.__name__}{a!r}" for c, a, _ in REFUSALS])
def test_refusals_unchanged(cls, args, message):
    with pytest.raises(ValueError) as info:
        cls(*args)
    assert str(info.value) == message


def test_normalised_fields():
    assert DominantWeight([1, 0]).coords == (1, 0)
    assert Product([ExactInt(2), SymbolicJ(3)]).operands == (ExactInt(2), SymbolicJ(3))
    coords = CenterClass(("1/3", 0.5, 0)).coords
    assert coords == (Fraction(1, 3), Fraction(1, 2), Fraction(0))
    assert all(type(c) is Fraction for c in coords)
    assert [w.coords for w in WeightSet((W((0, 1)), W((1, 0))))] == [(0, 1), (1, 0)]
    datum = build_root_datum(SimpleType("A", 2))
    assert (datum.rho_pairings, datum.rho_product) == ((1, 1, 2), 2)
    assert Subgroup((0, 1)).generators == ()
