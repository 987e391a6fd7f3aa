"""Type checks, Cartan matrices, root counts, coroots, Weyl dimensions and
the dominant-weight enumeration against the first code.

The type checks, matrices and root counts must give the same messages and
values as the oracle's if/elif chains, which the family table replaced.
The oracle (old_rootdata.py) also recomputes each pairing in the coroot closure,
multiplies the Weyl factors with no digit guard and evaluates every weight
it keeps twice.  The code under test carries the pairings through the
closure, forms the product in one guarded routine, and carries the factors
down the enumeration so that each vector is evaluated once.  Their coroot
lists, values and ordered (weight, dim) lists must agree; past the
kept-digit limit the code under test refuses instead, before the product
is formed.  Past rank 24 the closed-form coroots of A-D are checked
against the live closure, the code under test for E-G.
"""
import random
import sys
import time

import pytest

import old_rootdata as old
from liejordan import rootdata
from liejordan.center import WeightSet
from liejordan.errors import ResourceGuardError, _echo
from liejordan.rootdata import (DominantWeight, SimpleType, build_root_datum,
                                enumerate_dominant_weights, weyl_dim)

EXCEPTIONAL = [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
DEFAULT_DIGITS = sys.int_info.default_max_str_digits


def _types(max_rank):
    classical = [(fam, rank) for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                 for rank in range(lo, max_rank + 1)]
    return classical + [t for t in EXCEPTIONAL if t[1] <= max_rank]


def _datum(fam, rank):
    return build_root_datum(SimpleType(fam, rank))


def _kept_digits():
    return 10 * (sys.get_int_max_str_digits() or DEFAULT_DIGITS)


@pytest.mark.parametrize("fam", ["A", "B", "C", "D", "E", "F", "G", "H", "a", ""])
def test_types_matrices_and_root_counts_match_oracle(fam):
    for rank in range(-1, 41):
        try:
            old.check_simple_type(fam, rank)
        except ValueError as want:
            with pytest.raises(ValueError) as got:
                SimpleType(fam, rank)
            assert str(got.value) == str(want)
            continue
        t = SimpleType(fam, rank)
        assert rootdata.cartan_matrix(t) == old.cartan_matrix(t)
        assert rootdata.positive_root_count(t) == old.positive_root_count(t)


@pytest.mark.parametrize("fam,rank", _types(24))
def test_coroots_match_oracle(fam, rank):
    d = _datum(fam, rank)
    transposed = tuple(zip(*d.cartan))
    assert d.positive_coroots == tuple(old._positive_roots(transposed))


@pytest.mark.parametrize("fam,rank", _types(12))
def test_enumeration_matches_oracle(fam, rank):
    d = _datum(fam, rank)
    cap = 2 ** rank + 10
    got = enumerate_dominant_weights(d, cap, allow_large_cap=True)
    want = old.enumerate_dominant_weights(d, cap, allow_large_cap=True)
    assert [(w.coords, dim) for w, dim in got] == [(w.coords, dim) for w, dim in want]


@pytest.mark.parametrize("fam,rank", _types(9))
def test_weyl_dim_matches_oracle(fam, rank):
    d = _datum(fam, rank)
    rng = random.Random(f"weyl {fam}{rank}")
    for top in (0, 1, 3, 10, 10 ** 6, 10 ** 40):
        for _ in range(4):
            w = DominantWeight(tuple(rng.randint(0, top) for _ in range(rank)))
            assert weyl_dim(d, w) == old.weyl_dim(d, w), w


@pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 3), ("C", 4), ("D", 5),
                                      ("E", 6), ("F", 4), ("G", 2)])
def test_enumeration_evaluates_each_vector_once(monkeypatch, fam, rank):
    probed = []
    evaluate = rootdata._weyl_dim

    def recording(datum, coords, factors):
        probed.append(tuple(coords))
        return evaluate(datum, coords, factors)

    monkeypatch.setattr(rootdata, "_weyl_dim", recording)
    out = enumerate_dominant_weights(_datum(fam, rank), 2 ** rank + 10)
    assert len(probed) == len(set(probed))
    assert (0,) * rank not in probed
    assert {w.coords for w, _ in out} <= set(probed)


def test_huge_e8_weight_refused_before_the_product_is_formed():
    digits = sys.get_int_max_str_digits() or DEFAULT_DIGITS
    weight = DominantWeight((10 ** digits - 1,) * 8)
    d = _datum("E", 8)
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="PYTHONINTMAXSTRDIGITS"):
        weyl_dim(d, weight)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("fam,rank", _types(9))
def test_answers_up_to_the_kept_limit_are_returned(fam, rank):
    # All coordinates equal to M give dimension (M + 1)**N, N positive coroots;
    # 10**(n*k) has n*k + 1 digits.
    d = _datum(fam, rank)
    n = len(d.positive_coroots)
    k = (_kept_digits() - 1) // n
    under = DominantWeight((10 ** k - 1,) * rank)
    assert weyl_dim(d, under) == old.weyl_dim(d, under) == 10 ** (n * k)
    with pytest.raises(ResourceGuardError, match="decimal digits, more than"):
        weyl_dim(d, DominantWeight((10 ** (k + 1) - 1,) * rank))


def test_kept_limit_boundary_is_exact():
    kept = _kept_digits()
    d = _datum("A", 1)
    under = DominantWeight((10 ** kept - 2,))
    assert weyl_dim(d, under) == old.weyl_dim(d, under)
    with pytest.raises(ResourceGuardError) as refused:
        weyl_dim(d, DominantWeight((10 ** kept - 1,)))
    assert f"at least {kept + 1} decimal digits, more than {kept}, 10 times" in str(refused.value)


def test_guard_falls_back_to_the_default_budget_when_the_limit_is_off():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        kept = 10 * DEFAULT_DIGITS
        d = _datum("A", 1)
        assert weyl_dim(d, DominantWeight((10 ** kept - 2,))) == 10 ** kept - 1
        with pytest.raises(ResourceGuardError) as refused:
            weyl_dim(d, DominantWeight((10 ** kept - 1,)))
    finally:
        sys.set_int_max_str_digits(saved)
    assert f"the {DEFAULT_DIGITS} allowed by the int->str digit limit" in str(refused.value)


def _assert_echoed_short(digits):
    long = 10 ** digits - 1
    with pytest.raises(ValueError) as negative:
        DominantWeight((-1, long))
    assert str(negative.value).endswith("got (-1, " + "9" * 35 + "...")
    w = DominantWeight((long,))
    with pytest.raises(ValueError) as duplicate:
        WeightSet((w, w))
    assert str(duplicate.value) == "duplicate weight (" + "9" * 39 + "..."
    assert _echo(long) == "9" * 40 + "..."


def test_long_weights_are_echoed_short():
    _assert_echoed_short(4000)


def test_weights_past_the_int_str_limit_are_echoed_short():
    _assert_echoed_short(sys.int_info.default_max_str_digits + 700)


def test_repr_of_a_weight_past_the_int_str_limit_is_short():
    long = 10 ** (sys.get_int_max_str_digits() or DEFAULT_DIGITS)
    assert repr(DominantWeight((2, long))) == "DominantWeight(coords=(2, 1" + "0" * 35 + "...)"
    assert repr(DominantWeight((2, 10 ** 40))) == f"DominantWeight(coords=(2, {10 ** 40}))"


def _closure(t):
    return rootdata._positive_roots(tuple(zip(*rootdata.cartan_matrix(t))))


@pytest.mark.parametrize("fam,rank", [(fam, rank) for fam in "ABCD" for rank in range(25, 41)]
                         + [(fam, 100) for fam in "ABCD"])
def test_classical_coroots_match_the_closure(fam, rank):
    t = SimpleType(fam, rank)
    assert rootdata.build_root_datum(t).positive_coroots == tuple(_closure(t))


def test_only_the_exceptional_types_take_the_closure(monkeypatch):
    def refused(cartan):
        raise RuntimeError("closure")

    monkeypatch.setattr(rootdata, "_positive_roots", refused)
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 17):
            build_root_datum(SimpleType(fam, rank))  # the count check still runs
    with pytest.raises(RuntimeError, match="closure"):
        build_root_datum(SimpleType("E", 6))


def test_root_datum_past_the_cell_budget_is_refused_before_it_is_built(monkeypatch):
    def built(rank):
        raise AssertionError("built")

    # cartan_matrix, where every type's data starts, reads the bonds first.
    monkeypatch.setitem(rootdata._FAMILIES, "B", (2, built, *rootdata._FAMILIES["B"][2:]))
    with pytest.raises(ResourceGuardError, match=rootdata.CELLS_ENV_VAR) as refused:
        build_root_datum(SimpleType("B", 300))
    assert "type B300 takes" in str(refused.value)


def test_cartan_matrix_past_the_cell_budget_allocates_nothing(monkeypatch):
    import tracemalloc

    monkeypatch.delenv(rootdata.CELLS_ENV_VAR, raising=False)
    stype = SimpleType("B", 300)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match=rootdata.CELLS_ENV_VAR) as refused:
            rootdata.cartan_matrix(stype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value).startswith("type B300 takes 27090600 cells")
    assert peak < 2 ** 14  # the 90000 Cartan cells alone would take over 700 kB


def test_dropped_datums_leave_no_memory_behind():
    # Nothing keeps a root datum or its center past its last reference.  Kept,
    # these datums would hold several MB: B61 alone has 3721 coroots of 61 cells.
    import gc
    import tracemalloc

    from liejordan.center import center_classes, is_faithful

    def use(t):
        datum = build_root_datum(t)
        center_classes(datum)
        is_faithful(datum, WeightSet((DominantWeight((1,) * t.rank),)))

    use(SimpleType("A", 2))  # the lazy imports, before the baseline
    tracemalloc.start()
    try:
        gc.collect()
        baseline = tracemalloc.get_traced_memory()[0]
        for fam, rank in (("A", 73), ("B", 61), ("C", 59), ("D", 67), ("E", 8), ("F", 4)):
            use(SimpleType(fam, rank))
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert left < 2 ** 16, f"{left} bytes stayed behind"
