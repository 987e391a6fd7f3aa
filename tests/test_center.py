"""Center computation and faithfulness of weight sets."""
import random
import time
from fractions import Fraction

import pytest

from liejordan import rootdata
from liejordan.center import CenterClass, WeightSet, center_classes, is_faithful, pair
from liejordan.errors import ResourceGuardError
from liejordan.minfaithful import rdim
from liejordan.rootdata import DominantWeight, RootDatum, SimpleType, _center, build_root_datum

from test_rootdata import BUDGET_TYPES, _datum, _fund


def _ws(*coord_tuples):
    return WeightSet(tuple(DominantWeight(c) for c in coord_tuples))


def _class_set(datum):
    return {cls.coords for cls in center_classes(datum)}


@pytest.mark.parametrize("fam,rank,expected", [
    ("E", 8, 1), ("F", 4, 1), ("G", 2, 1),
    ("E", 7, 2), ("E", 6, 3),
    ("B", 2, 2), ("B", 9, 2), ("C", 2, 2), ("C", 9, 2),
    ("D", 3, 4), ("D", 4, 4), ("D", 9, 4),
    ("A", 1, 2), ("A", 4, 5), ("A", 9, 10),
])
def test_center_orders(fam, rank, expected):
    assert _center(SimpleType(fam, rank))[0] == expected


def test_class_count_matches_order():
    for fam, rank in BUDGET_TYPES:
        d = _datum(fam, rank)
        assert len(center_classes(d)) == _center(d.type)[0] - 1


def test_classes_form_a_group_mod_one():
    for fam, rank in [("A", 5), ("D", 4), ("D", 5), ("E", 6)]:
        d = _datum(fam, rank)
        classes = _class_set(d)
        with_zero = classes | {tuple(Fraction(0) for _ in range(rank))}
        for a in with_zero:
            for b in with_zero:
                s = tuple((x + y) % 1 for x, y in zip(a, b))
                assert s in with_zero


def test_type_b_class_is_half_last_coroot():
    for l in range(2, 10):
        expected = tuple(Fraction(0) for _ in range(l - 1)) + (Fraction(1, 2),)
        assert _class_set(_datum("B", l)) == {expected}


def test_e7_class_pinned():
    want = tuple(Fraction(n, 2) for n in (1, 0, 1, 0, 0, 0, 1))
    assert _class_set(_datum("E", 7)) == {want}


def test_e6_classes_pinned():
    zeta = tuple(Fraction(n, 3) for n in (1, 2, 0, 1, 2, 0))
    two_zeta = tuple((2 * c) % 1 for c in zeta)
    assert _class_set(_datum("E", 6)) == {zeta, two_zeta}


def test_d_even_classes_pinned():
    for l in (4, 6, 8):
        half = Fraction(1, 2)
        zero = Fraction(0)
        zeta1 = tuple(half if (i % 2 == 0 and i < l - 1) else zero for i in range(l))
        zeta2 = tuple(zero for _ in range(l - 2)) + (half, half)
        zeta3 = tuple((a + b) % 1 for a, b in zip(zeta1, zeta2))
        assert _class_set(_datum("D", l)) == {zeta1, zeta2, zeta3}


def test_d_odd_classes_are_powers_of_a_quarter_element():
    # the generator is half the odd-position coroots plus a quarter
    # difference of the two fork coroots; which fork carries 1/4 is a
    # numbering artifact, so compare the whole class set
    for l in (3, 5, 7, 9):
        zeta = [Fraction(0)] * l
        for i in range(0, l - 2, 2):
            zeta[i] = Fraction(1, 2)
        zeta[l - 2] = Fraction(1, 4)
        zeta[l - 1] = Fraction(-1, 4)
        powers = set()
        for k in (1, 2, 3):
            powers.add(tuple((k * c) % 1 for c in zeta))
        assert _class_set(_datum("D", l)) == powers


def test_pairing_values_pinned():
    e7 = _datum("E", 7)
    (cls,) = center_classes(e7)
    assert pair(_fund(7, 0), cls) == Fraction(1, 2)
    e6 = _datum("E", 6)
    values = {pair(_fund(6, 0), cls) for cls in center_classes(e6)}
    assert values == {Fraction(1, 3), Fraction(2, 3)}


def test_pairing_of_integer_lift_is_zero():
    assert pair(DominantWeight((3, 5)), (2, 7)) == 0
    assert pair(DominantWeight((1, 2)), (Fraction(1), Fraction(-4))) == 0


@pytest.mark.parametrize("coord", ["1e10000000", "1E-10000000", "-2e+1_000_000_000",
                                   "1e" + "9" * 10000, "1e4301"])
def test_an_exponent_past_the_digit_limit_is_refused_unexpanded(coord):
    # Fraction would raise 10 to it: "1e10000000" took about 22 s.
    start = time.perf_counter()
    with pytest.raises((ValueError, ResourceGuardError)) as err:
        pair(DominantWeight((1,)), [coord])
    assert time.perf_counter() - start < 0.1
    assert len(str(err.value).encode()) <= 1024
    with pytest.raises((ValueError, ResourceGuardError)):
        CenterClass(("1/2", coord))


def test_an_exponent_within_the_digit_limit_still_parses():
    assert pair(DominantWeight((1,)), ["1e2"]) == 0
    assert pair(DominantWeight((3,)), ["1e-2"]) == Fraction(3, 100)
    assert pair(DominantWeight((1,)), [" 25E-" + "0" * 50 + "2 "]) == Fraction(1, 4)
    assert CenterClass(("5e-1",)).coords == (Fraction(1, 2),)
    assert pair(DominantWeight((1,)), ["1e4300"]) == 0


def test_pairing_rejects_length_mismatch():
    with pytest.raises(ValueError):
        pair(DominantWeight((1, 0)), (Fraction(1, 2),))


def test_center_class_validation():
    with pytest.raises(ValueError):
        CenterClass((Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        CenterClass((Fraction(3, 2),))


def test_center_class_refusal_quotes_a_huge_coordinate_short():
    # str() of this coordinate would pass the int->str limit.
    huge = Fraction(10 ** 5000 + 1, 10 ** 5000)
    with pytest.raises(ValueError, match=r"^class coordinates must lie in \[0, 1\), got \(1") as err:
        CenterClass((huge,))
    assert len(str(err.value)) < 100


def test_center_class_refusal_quotes_many_coordinates_short():
    with pytest.raises(ValueError) as err:
        CenterClass((Fraction(1, 2),) * 1000 + (Fraction(3, 2),))
    assert str(err.value) == ("class coordinates must lie in [0, 1), got "
                              "(Fraction(1, 2), Fraction(1, 2), Fractio...")


def test_a_zero_denominator_is_malformed():
    with pytest.raises(ValueError) as err:
        CenterClass(("1/0",))
    assert str(err.value) == "coordinates need nonzero denominators, got ('1/0',)"
    with pytest.raises(ValueError) as err:
        pair(DominantWeight((1,)), ["1/0"])
    assert str(err.value) == "coordinates need nonzero denominators, got ('1/0',)"
    with pytest.raises(ValueError) as err:
        pair(DominantWeight((1,) * 1000), ["1/2"] * 999 + ["1/0"])
    assert str(err.value) == ("coordinates need nonzero denominators, got "
                              "('1/2', '1/2', '1/2', '1/2', '1/2', '1/2...")


def test_an_unparsable_string_is_quoted_short():
    # Fraction's own message quotes the whole token: 5,032 characters here.
    for refused in (lambda: pair(DominantWeight((1,)), ["x" * 5000]),
                    lambda: CenterClass(("y" * 5000,)),
                    lambda: CenterClass(("9" * 5000,))):
        with pytest.raises(ValueError, match="^coordinate strings must be rationals") as err:
            refused()
        assert len(str(err.value).encode()) < 300


def test_weight_set_validation():
    with pytest.raises(ValueError):
        WeightSet(())
    with pytest.raises(ValueError):
        _ws((0, 0))
    with pytest.raises(ValueError):
        _ws((1, 0), (1, 0))
    ws = _ws((1, 0), (0, 1))
    assert [w.coords for w in ws] == [(0, 1), (1, 0)]


def test_faithful_examples():
    assert is_faithful(_datum("A", 3), _ws((1, 0, 0)))
    assert not is_faithful(_datum("B", 3), _ws((1, 0, 0)))
    assert is_faithful(_datum("B", 3), _ws((0, 0, 1)))
    assert is_faithful(_datum("G", 2), _ws((1, 0)))
    assert not is_faithful(_datum("D", 4), _ws((1, 0, 0, 0)))
    assert is_faithful(_datum("D", 4), _ws((1, 0, 0, 0), (0, 0, 0, 1)))


def test_faithful_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        is_faithful(_datum("A", 2), _ws((1, 0, 0)))


def _random_weight_sets(rng, rank, count):
    for _ in range(count):
        size = rng.randint(1, 3)
        coords = set()
        while len(coords) < size:
            c = tuple(rng.randint(0, 4) for _ in range(rank))
            if any(c):
                coords.add(c)
        yield coords


def test_type_b_closed_form_random():
    rng = random.Random(101)
    for l in range(2, 10):
        d = _datum("B", l)
        for coords in _random_weight_sets(rng, l, 60):
            expected = any(c[l - 1] % 2 for c in coords)
            assert is_faithful(d, _ws(*coords)) == expected


def test_type_d_odd_closed_form_random():
    # faithful iff some weight pairs with the center generator to a
    # fraction of exact order four, i.e. the two fork coordinates have
    # odd sum; both-odd weights kill the order-two central element
    rng = random.Random(202)
    for l in (3, 5, 7, 9):
        d = _datum("D", l)
        for coords in _random_weight_sets(rng, l, 60):
            expected = any((c[l - 2] + c[l - 1]) % 2 for c in coords)
            assert is_faithful(d, _ws(*coords)) == expected


def test_type_d_odd_both_odd_is_not_faithful():
    d = _datum("D", 5)
    assert not is_faithful(d, _ws((0, 0, 0, 1, 1)))
    assert not is_faithful(d, _ws((0, 0, 0, 3, 1)))
    assert is_faithful(d, _ws((0, 0, 0, 1, 0)))
    assert is_faithful(d, _ws((0, 0, 0, 0, 1)))


class _UnhashableDatum(RootDatum):
    def __hash__(self):
        raise TypeError("the center must not be cached on the whole root datum")


@pytest.mark.parametrize("fam,rank", [("E", 8), ("D", 5), ("A", 3)])
def test_center_is_cached_on_the_cartan_matrix(fam, rank):
    d = _datum(fam, rank)
    unhashable = _UnhashableDatum(d.type)
    fundamental = WeightSet(tuple(_fund(rank, i) for i in range(rank)))
    assert is_faithful(unhashable, fundamental) is True
    assert center_classes(unhashable) == center_classes(d)
    assert rdim(unhashable) == rdim(d)


@pytest.mark.parametrize("fam,rank", [("E", 7), ("D", 5), ("A", 3), ("G", 2)])
def test_a_built_datum_carries_its_center(monkeypatch, fam, rank):
    d = build_root_datum(SimpleType(fam, rank))
    expected = (center_classes(d), rdim(d))
    fundamental = WeightSet(tuple(_fund(rank, i) for i in range(rank)))

    def refused(stype):
        raise AssertionError("the center is computed again")

    monkeypatch.setattr(rootdata, "_center", refused)
    assert (center_classes(d), rdim(d)) == expected
    assert is_faithful(d, fundamental) is True
