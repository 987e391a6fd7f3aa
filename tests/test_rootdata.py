"""Root data construction, Weyl dimensions, dominant weight enumeration."""
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from liejordan.errors import RankBudgetError
from liejordan.rootdata import (DominantWeight, SimpleType, _product, build_root_datum,
                                check_rank_budget, enumerate_dominant_weights, max_rank,
                                positive_root_count, weyl_dim)

BUDGET_TYPES = (
    [("A", l) for l in range(1, 10)] + [("B", l) for l in range(2, 10)] +
    [("C", l) for l in range(2, 10)] + [("D", l) for l in range(3, 10)] +
    [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _datum(fam, rank):
    return build_root_datum(SimpleType(fam, rank))


def _fund(rank, i):
    return DominantWeight(tuple(1 if j == i else 0 for j in range(rank)))


@pytest.mark.parametrize("fam,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9),
    ("F", 3), ("F", 5), ("G", 1), ("G", 3), ("H", 2), ("AB", 1),
    ("A", 2.5), ("E", 6.0), ("A", "3"), ("A", True), ("B", None), (["A"], 2),
])
def test_invalid_types_rejected(fam, rank):
    with pytest.raises(ValueError):
        SimpleType(fam, rank)


def test_a1_is_the_smallest_case():
    d = _datum("A", 1)
    assert d.cartan == ((2,),)
    assert d.positive_coroots == ((1,),)
    assert weyl_dim(d, DominantWeight((0,))) == 1
    assert weyl_dim(d, DominantWeight((5,))) == 6


@pytest.mark.parametrize("fam,rank", BUDGET_TYPES)
def test_cartan_matrix_shape(fam, rank):
    m = _datum(fam, rank).cartan
    for i in range(rank):
        assert m[i][i] == 2
        for j in range(rank):
            if i != j:
                assert m[i][j] <= 0


@pytest.mark.parametrize("fam,rank", BUDGET_TYPES)
def test_coroot_closure_counts(fam, rank):
    d = _datum(fam, rank)
    assert len(d.positive_coroots) == positive_root_count(d.type)
    assert len(set(d.positive_coroots)) == len(d.positive_coroots)
    for i in range(rank):
        simple = tuple(1 if j == i else 0 for j in range(rank))
        assert simple in d.positive_coroots
    for coroot in d.positive_coroots:
        assert all(c >= 0 for c in coroot)


def test_coroot_count_literals():
    assert len(_datum("G", 2).positive_coroots) == 6
    assert len(_datum("E", 8).positive_coroots) == 120
    assert len(_datum("B", 5).positive_coroots) == 25


@pytest.mark.parametrize("fam,rank,node,expected", [
    ("A", 1, 0, 2), ("A", 4, 0, 5), ("A", 9, 0, 10),
    ("B", 2, 0, 5), ("B", 2, 1, 4), ("B", 5, 4, 32),
    ("C", 2, 0, 4), ("C", 3, 0, 6), ("C", 9, 0, 18),
    ("D", 4, 0, 8), ("D", 4, 3, 8), ("D", 9, 8, 256),
    ("E", 6, 0, 27), ("E", 7, 0, 56), ("E", 8, 0, 248),
    ("F", 4, 0, 26), ("F", 4, 3, 52),
    ("G", 2, 0, 7), ("G", 2, 1, 14),
])
def test_fundamental_dimensions(fam, rank, node, expected):
    assert weyl_dim(_datum(fam, rank), _fund(rank, node)) == expected


def test_zero_weight_has_dimension_one():
    for fam, rank in BUDGET_TYPES:
        assert weyl_dim(_datum(fam, rank), DominantWeight((0,) * rank)) == 1


def test_weyl_dim_rejects_wrong_length():
    with pytest.raises(ValueError):
        weyl_dim(_datum("A", 2), DominantWeight((1,)))


def test_weight_coordinates_validated():
    with pytest.raises(ValueError):
        DominantWeight((1, -1))


def test_weyl_dim_strictly_monotone_random():
    rng = random.Random(20260815)
    for _ in range(300):
        fam, rank = BUDGET_TYPES[rng.randrange(len(BUDGET_TYPES))]
        d = _datum(fam, rank)
        lo = tuple(rng.randint(0, 3) for _ in range(rank))
        hi = tuple(c + rng.randint(0, 2) for c in lo)
        dlo = weyl_dim(d, DominantWeight(lo))
        dhi = weyl_dim(d, DominantWeight(hi))
        if hi == lo:
            assert dhi == dlo
        else:
            assert dhi > dlo


def test_enumeration_examples():
    out = enumerate_dominant_weights(_datum("A", 1), 3)
    assert [(w.coords, d) for w, d in out] == [((1,), 2), ((2,), 3)]
    assert enumerate_dominant_weights(_datum("G", 2), 6) == []
    out = enumerate_dominant_weights(_datum("E", 7), 56)
    assert [(w.coords, d) for w, d in out] == [((1, 0, 0, 0, 0, 0, 0), 56)]


def test_enumeration_is_sorted_and_nonzero():
    out = enumerate_dominant_weights(_datum("B", 3), 120)
    keys = [(d, w.coords) for w, d in out]
    assert keys == sorted(keys)
    assert all(any(w.coords) for w, _ in out)
    assert all(d <= 120 for _, d in out)


@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("B", 2)])
def test_enumeration_matches_box_search(fam, rank):
    # every coordinate of a weight with dim <= cap is below cap, since the
    # dimension strictly increases along each coordinate from dim(0) = 1
    cap = 30
    d = _datum(fam, rank)
    brute = set()
    for coords in itertools.product(range(cap + 1), repeat=rank):
        if any(coords) and weyl_dim(d, DominantWeight(coords)) <= cap:
            brute.add(coords)
    out = enumerate_dominant_weights(d, cap)
    assert {w.coords for w, _ in out} == brute


def test_enumeration_cap_guard():
    limit = 2 ** max_rank() + 10
    with pytest.raises(RankBudgetError):
        enumerate_dominant_weights(_datum("A", 1), limit + 1)
    out = enumerate_dominant_weights(_datum("A", 1), limit + 1, allow_large_cap=True)
    assert len(out) == limit
    with pytest.raises(ValueError):
        enumerate_dominant_weights(_datum("A", 1), 0)


def test_enumeration_cap_guard_forms_no_power_of_a_huge_budget(monkeypatch):
    # A cap of at most budget bits is under 2**budget + 10; forming that
    # bound for a budget of 10**8 would take 12.5 MB.
    monkeypatch.setenv("LIEJORDAN_MAX_RANK", str(10 ** 8))
    d = _datum("A", 1)
    tracemalloc.start()
    try:
        out = enumerate_dominant_weights(d, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(w.coords, dim) for w, dim in out] == [((1,), 2), ((2,), 3)]
    assert peak < 2 ** 20


def test_caps_past_the_int_str_limit_are_refused_short():
    cap = 10 ** 5000
    with pytest.raises(RankBudgetError) as err:
        enumerate_dominant_weights(_datum("A", 1), cap)
    assert str(err.value) == (f"cap {'1' + '0' * 39}... exceeds budget 522; "
                              "pass allow_large_cap=True to override")
    with pytest.raises(ValueError) as err:
        enumerate_dominant_weights(_datum("A", 1), -cap)
    assert str(err.value) == f"cap must be a positive integer, got {'-1' + '0' * 38}..."
    with pytest.raises(ValueError):
        enumerate_dominant_weights(_datum("A", 1), 3.0)


def test_ranks_past_the_int_str_limit_are_quoted_short(monkeypatch):
    monkeypatch.delenv("LIEJORDAN_MAX_RANK", raising=False)
    huge = 10 ** 5000
    with pytest.raises(ValueError) as err:
        SimpleType("E", huge)
    assert str(err.value) == f"family E exists only in rank 6, 7, 8, got {'1' + '0' * 39}..."
    with pytest.raises(ValueError) as err:
        SimpleType("A", -huge)
    assert str(err.value) == f"family A requires rank >= 1, got {'-1' + '0' * 38}..."
    with pytest.raises(RankBudgetError) as err:
        check_rank_budget(SimpleType("A", huge))
    assert str(err.value) == (f"rank {'1' + '0' * 39}... exceeds budget 9; "
                              "set LIEJORDAN_MAX_RANK to raise it (override=True in the library)")


def test_rank_budget_env(monkeypatch):
    assert max_rank() == 9
    monkeypatch.setenv("LIEJORDAN_MAX_RANK", "11")
    assert max_rank() == 11
    monkeypatch.setenv("LIEJORDAN_MAX_RANK", "zero")
    with pytest.raises(ValueError):
        max_rank()
    monkeypatch.setenv("LIEJORDAN_MAX_RANK", "-2")
    with pytest.raises(ValueError):
        max_rank()


@given(st.integers(0, 1024), st.integers(1, 64), st.integers(0, 2 ** 32))
def test_product_in_pairs_is_math_prod(count, bits, seed):
    # Lengths reach twice the 512 factors from which _product multiplies in pairs.
    rng = random.Random(seed)
    values = [rng.randrange(-2 ** bits, 2 ** bits) for _ in range(count)]
    assert _product(values) == math.prod(values)
