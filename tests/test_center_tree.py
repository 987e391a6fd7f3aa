"""The center closed from the family table against the Bareiss elimination.

The oracle (old_center.bareiss_center) eliminates the whole Cartan matrix
and closes every column of its adjugate; the code under test closes the
generators the family table declares for the type, Bourbaki's Plates I-IX.
Their orders and sorted class lists must agree, on every type up to rank
40 and at ranks 100 and 200 of the classical families.
"""
import time

import pytest

import old_center as old
from liejordan.rootdata import _FAMILIES, SimpleType, _cartan, _center

EXCEPTIONAL = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
CLASSICAL_MIN = (("A", 1), ("B", 2), ("C", 2), ("D", 3))


def _types(max_rank):
    classical = [(fam, rank) for fam, lo in CLASSICAL_MIN
                 for rank in range(lo, max_rank + 1)]
    return classical + [t for t in EXCEPTIONAL if t[1] <= max_rank]


@pytest.mark.parametrize("fam,rank", _types(40))
def test_tree_center_matches_bareiss(fam, rank):
    stype = SimpleType(fam, rank)
    assert _center(stype) == old.bareiss_center(_cartan(stype))


@pytest.mark.parametrize("rank", [100, 200])
@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
def test_tree_center_matches_bareiss_at_high_rank(fam, rank):
    stype = SimpleType(fam, rank)
    assert _center(stype) == old.bareiss_center(_cartan(stype))


@pytest.mark.parametrize("fam,rank", _types(40))
def test_family_table_holds_the_center_order(fam, rank):
    d, classes = _center(SimpleType(fam, rank))
    assert _FAMILIES[fam].order(rank) == d == len(classes) + 1


def test_a200_center_is_linear_work():
    # The Bareiss elimination took about 1.5 s on a 2-vCPU Xeon; the center
    # closes one generator into 201 classes of 200 coordinates.
    stype = SimpleType("A", 200)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _center(stype)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1, f"_center on A200 took {min(times):.3f} s"
