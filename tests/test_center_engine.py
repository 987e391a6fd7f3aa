"""The integer center and the reachable-state rdim DP against the first code.

The oracle (old_center.py) computes the center with a Bareiss determinant
and a Fraction inverse on every call, and runs the rdim DP over all
2**|classes| coverage states.  The code under test keeps the classes as
integer vectors mod the Cartan determinant, computed once per datum, and
stores only the reachable DP states.  Their center orders, class lists,
faithfulness verdicts and rdim results, witnesses included, must agree.
pair, which now sums in integers over a common denominator, must give the
first pairing's value or raise its exception type on any element, except
that a zero denominator, on which the first pairing let ZeroDivisionError
out, is now malformed input (ValueError).
"""
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import old_center as old
from liejordan.center import CenterClass, WeightSet, center_classes, is_faithful, pair
from liejordan.minfaithful import rdim
from liejordan.rootdata import DominantWeight, SimpleType, _center, build_root_datum

EXCEPTIONAL = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


def _types(max_rank):
    classical = [(fam, rank) for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                 for rank in range(lo, max_rank + 1)]
    return classical + [t for t in EXCEPTIONAL if t[1] <= max_rank]


def _datum(fam, rank):
    return build_root_datum(SimpleType(fam, rank))


@pytest.mark.parametrize("fam,rank", _types(20))
def test_center_matches_oracle(fam, rank):
    d = _datum(fam, rank)
    assert _center(d.type)[0] == old.center_order(d)
    assert center_classes(d) == old.center_classes(d)


@pytest.mark.parametrize("fam,rank", _types(9))
def test_is_faithful_matches_oracle(fam, rank):
    d = _datum(fam, rank)
    rng = random.Random(f"{fam}{rank}")
    for _ in range(12):
        coords = {tuple(rng.randint(0, 5) for _ in range(rank))
                  for _ in range(rng.randint(1, 3))}
        coords.discard((0,) * rank)
        if not coords:
            continue
        ws = WeightSet(tuple(DominantWeight(c) for c in coords))
        assert is_faithful(d, ws) == old.is_faithful(d, ws), (fam, rank, ws)


@pytest.mark.parametrize("fam,rank", _types(16))
def test_rdim_matches_oracle(fam, rank):
    d = _datum(fam, rank)
    assert rdim(d, override=True) == old.rdim(d, override=True)


def test_rdim_memory_does_not_follow_the_class_count():
    # A16 has 16 nonidentity central classes; a slot per coverage subset
    # alone would take 2**16 list entries.
    d = _datum("A", 16)
    tracemalloc.start()
    try:
        rdim(d, override=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.4 * 2 ** 20


_COORD = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(max_denominator=10 ** 4),
    st.fractions(max_denominator=10 ** 4).map(str),
    st.sampled_from(["x", "1/0", "", " 1/2 ", "-3/4", "2.5"]),
)


@st.composite
def _weight_and_element(draw):
    rank = draw(st.sampled_from(range(1, 10)))
    coords = draw(st.lists(st.integers(0, 10 ** 6), min_size=rank, max_size=rank))
    kind = draw(st.sampled_from(["vector", "class", "any-length"]))
    if kind == "class":
        d = draw(st.integers(2, 60))
        x = draw(st.lists(st.integers(0, d - 1), min_size=rank, max_size=rank))
        x[0] = x[0] or 1  # the identity class is not represented
        return DominantWeight(tuple(coords)), CenterClass(tuple(Fraction(e, d) for e in x))
    size = rank if kind == "vector" else draw(st.integers(0, 10))
    return DominantWeight(tuple(coords)), draw(st.lists(_COORD, min_size=size, max_size=size))


def _pairing(f, weight, element):
    """(type, value) of f's answer, or the type of the exception it raised."""
    try:
        value = f(weight, element)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)
    return type(value), value


@settings(max_examples=150, deadline=None)
@given(_weight_and_element())
@example((DominantWeight((0,)), ["1/0"]))
def test_pair_matches_the_fraction_pairing(case):
    weight, element = case
    expected = _pairing(old.pair, weight, element)
    if expected is ZeroDivisionError:
        expected = ValueError
    assert _pairing(pair, weight, element) == expected

