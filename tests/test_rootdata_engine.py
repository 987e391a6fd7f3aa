"""Type checks, Cartan matrices, root counts, coroots, Weyl dimensions and
the dominant-weight enumeration against the first code.

The type checks, matrices and root counts must give the same messages and
values as the oracle's if/elif chains, which the family table replaced.
The oracle (old_rootdata.py) also recomputes each pairing in the coroot closure,
multiplies the Weyl factors with no digit guard and evaluates every weight
it keeps twice.  The code under test carries the pairings through the
closure, forms the product from the family's numerator (B-D multiply
x_i**2 - x_j**2) or, past the guard's short path, from the per-coroot
factors in one guarded routine, and carries lambda + rho down the
enumeration so that each vector is evaluated once.  Their coroot
lists, values and ordered (weight, dim) lists must agree; past the
kept-digit limit the code under test refuses instead, before the product
is formed.
"""
import random
import sys
import time
from itertools import combinations
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        assert rootdata._cartan(t) == old.cartan_matrix(t)
        assert rootdata.positive_root_count(t) == old.positive_root_count(t)


@pytest.mark.parametrize("fam,rank", _types(24))
def test_coroots_match_oracle(fam, rank):
    d = _datum(fam, rank)
    transposed = tuple(zip(*d.cartan))
    assert d.positive_coroots == tuple(old._positive_roots(transposed))


def _orthonormal_fundamental_dim(fam, l, k):
    """dim V(omega_k) of A_l-D_l, k 0-based, by Weyl's formula in the
    orthonormal basis of Bourbaki's Plates I-IV, with coordinates doubled:
    the product over the positive roots a of <m, a^vee> / <rho, a^vee> for
    m = rho + omega_k.  The coroot pairings are v_i - v_j for A; the pair
    e_i -+ e_j of B-D contributes v_i**2 - v_j**2, and the root at e_i of B
    or C contributes v_i (up to a factor 2 that cancels)."""
    rho = {"A": range(2 * l, -1, -2), "B": range(2 * l - 1, 0, -2),
           "C": range(2 * l, 0, -2), "D": range(2 * l - 2, -1, -2)}[fam]
    if fam == "B" and k == l - 1 or fam == "D" and k >= l - 2:  # a spin node
        omega = [1] * (l - 1) + [1 if k == l - 1 else -1]
    else:
        omega = [2] * (k + 1) + [0] * (len(rho) - k - 1)

    def product(v):
        pairs = combinations(v, 2)
        factors = [a - b for a, b in pairs] if fam == "A" else [a * a - b * b for a, b in pairs]
        return rootdata._product(factors + (list(v) if fam in "BC" else []))

    dim, rem = divmod(product(list(map(add, rho, omega))), product(rho))
    assert not rem
    return dim


def test_fundamental_dimensions_match_the_weyl_formula():
    # The family table's column against the guarded Weyl routine at each unit
    # weight, whose Weyl factors <omega_i + rho, c> are <rho, c> + c_i, at every node of
    # every type of rank <= 24.  At ranks 60 and 100, where a datum has up to
    # 10**4 coroots, the first, middle and last two nodes of A-D are checked
    # against the formula in the orthonormal basis instead.
    for fam, rank in _types(24):
        d = _datum(fam, rank)
        assert rootdata._FAMILIES[fam].fundamentals(rank) == [
            rootdata._guarded_weyl_dim(d, (0,) * i + (1,) + (0,) * (rank - i - 1),
                                       list(map(add, d.rho_pairings, column)))
            for i, column in enumerate(zip(*d.positive_coroots))]
    for fam in "ABCD":
        for rank in (60, 100):
            table = rootdata._FAMILIES[fam].fundamentals(rank)
            assert len(table) == rank
            for k in (0, rank // 2, rank - 2, rank - 1):
                assert table[k] == _orthonormal_fundamental_dim(fam, rank, k), (fam, rank, k)


NUMERATOR_TYPES = _types(24)[:-5] + [(fam, rank) for fam in "ABCD" for rank in (33, 60, 100)]


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_numerators_are_the_products_of_the_factors(data):
    # Each A-D numerator, which multiplies x_i**2 - x_j**2 for B-D, against the
    # product of the per-coroot factors at a random dominant lambda + rho, at
    # every rank <= 24 and at ranks 33, 60 and 100: numerators and factor
    # lists reach both sides of _product's switch at 512 factors.
    for fam, rank in NUMERATOR_TYPES:
        d = _datum(fam, rank)
        top = data.draw(st.sampled_from([0, 1, 3, 100, 10 ** 6]))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        x = list(d._rho)
        for increment in d._increments:
            c = rng.randint(0, top)
            x = [a + c * b for a, b in zip(x, increment)]
        assert d._numerator(x) == rootdata._product(d._factors(x)), (fam, rank, x)


@pytest.mark.parametrize("fam,rank", _types(12))
def test_enumeration_matches_oracle(fam, rank):
    d = _datum(fam, rank)
    cap = 2 ** rank + 10
    got = enumerate_dominant_weights(d, cap, allow_large_cap=True)
    want = old.enumerate_dominant_weights(d, cap, allow_large_cap=True)
    assert [(w.coords, dim) for w, dim in got] == [(w.coords, dim) for w, dim in want]


@pytest.mark.parametrize("fam,rank", _types(10)[:-5])
def test_enumeration_matches_oracle_where_the_levi_bound_binds(fam, rank):
    # A-D skip a position when dim(lambda) times the Levi subsystem's
    # fundamental dimension passes the cap.  At each candidate's dimension
    # under 2**rank + 10, and one below it, the search keeps the oracle's
    # list: its weights of dimension at most that cap.
    d = _datum(fam, rank)
    want = [(w.coords, dim) for w, dim in old.enumerate_dominant_weights(d, 2 ** rank + 10, True)]
    for cap in sorted({dim - k for _, dim in want for k in (0, 1)}):
        got = enumerate_dominant_weights(d, cap, True)
        assert [(w.coords, dim) for w, dim in got] == [p for p in want if p[1] <= cap], cap


@pytest.mark.parametrize("fam,rank,cap,probes", [("E", 6, 3000, 29), ("E", 7, 4000, 14),
                                                 ("E", 8, 30000, 4), ("F", 4, 2000, 15),
                                                 ("G", 2, 500, 17)])
def test_exceptional_searches_keep_the_first_prune_alone(monkeypatch, fam, rank, cap, probes):
    # E-G have no Levi bound: their column does not give the Levi subsystem's
    # dimensions at a lower rank (E6 past node 1 is D5; F4's and G2's ignore
    # the rank).  At caps where a product bound would bind, the search keeps
    # the oracle's list and makes the probes of the first prune alone.
    calls = []
    evaluate = rootdata._weyl_dim
    monkeypatch.setattr(rootdata, "_weyl_dim",
                        lambda datum, coords, factors: calls.append(tuple(coords))
                        or evaluate(datum, coords, factors))
    d = _datum(fam, rank)
    got = enumerate_dominant_weights(d, cap, True)
    assert len(calls) == probes
    want = old.enumerate_dominant_weights(d, cap, True)
    assert [(w.coords, dim) for w, dim in got] == [(w.coords, dim) for w, dim in want]


@pytest.mark.parametrize("fam,rank", _types(9))
def test_weyl_dim_matches_oracle(fam, rank):
    d = _datum(fam, rank)
    rng = random.Random(f"weyl {fam}{rank}")
    for top in (0, 1, 3, 10, 10 ** 6, 10 ** 40):
        for _ in range(4):
            w = DominantWeight(tuple(rng.randint(0, top) for _ in range(rank)))
            assert weyl_dim(d, w) == old.weyl_dim(d, w), w


def _coroot_weyl_dim(d, coords):
    """weyl_dim with each factor formed as the oracle forms it, the dot
    product of coords + 1 with a positive coroot, through the same guard."""
    shifted = [x + 1 for x in coords]
    factors = [sum(map(mul, shifted, c)) for c in d.positive_coroots]
    return rootdata._guarded_weyl_dim(d, coords, factors)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_epsilon_factors_match_the_coroot_formula(data):
    # The epsilon form of A-D against the coroot dot products of the oracle,
    # at every type of rank <= 12.  Near the guard, where coordinates of about
    # M give about N * log10(M) digits over N positive coroots, both sides
    # answer alike or refuse with the same message.
    fam, rank = data.draw(st.sampled_from(_types(12)[:-5]))
    d = _datum(fam, rank)
    k = (_kept_digits() - 1) // len(d.positive_coroots)
    coordinate = data.draw(st.sampled_from([st.integers(0, 3), st.integers(0, 10 ** 6),
                                            st.integers(10 ** (k - 1), 10 ** (k + 1))]))
    w = DominantWeight(tuple(data.draw(st.lists(coordinate, min_size=rank, max_size=rank))))
    try:
        want = _coroot_weyl_dim(d, w.coords)
    except ResourceGuardError as refused:
        with pytest.raises(ResourceGuardError) as got:
            weyl_dim(d, w)
        assert str(got.value) == str(refused)
    else:
        assert weyl_dim(d, w) == want == old.weyl_dim(d, w)


@pytest.mark.parametrize("fam,rank", [("A", 4), ("B", 3), ("C", 4), ("D", 5),
                                      ("E", 6), ("F", 4), ("G", 2)])
def test_enumeration_evaluates_each_vector_once(monkeypatch, fam, rank):
    probed = []
    evaluate = rootdata._weyl_dim

    def recording(datum, coords, factors):
        probed.append(tuple(coords))
        return evaluate(datum, coords, factors)

    monkeypatch.setattr(rootdata, "_weyl_dim", recording)
    d = _datum(fam, rank)
    out = enumerate_dominant_weights(d, 2 ** rank + 10)
    assert len(probed) == len(set(probed))
    assert (0,) * rank not in probed
    # A fundamental weight is never probed: its dimension is the family table's.
    units = [(w, dim) for w, dim in out if sum(w.coords) == 1]
    assert {w.coords for w, _ in out if sum(w.coords) > 1} <= set(probed)
    assert units and not {w.coords for w, _ in units} & set(probed)
    monkeypatch.undo()
    assert all(dim == weyl_dim(d, w) for w, dim in units)


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


def test_only_the_exceptional_types_take_the_closure(monkeypatch):
    # Nor does the length of the coroot view take it, for any type: a
    # lie-search op reads len(positive_coroots) once, and it must stay the
    # closed-form count, with no coroot formed.
    def refused(cartan):
        raise RuntimeError("closure")

    exceptional = [_datum(fam, rank) for fam, rank in EXCEPTIONAL]
    monkeypatch.setattr(rootdata, "_positive_roots", refused)
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(lo, 17):
            d = build_root_datum(SimpleType(fam, rank))  # the count check still runs
            assert len(d.positive_coroots) == old.positive_root_count(d.type)
    for d in exceptional:
        assert len(d.positive_coroots) == old.positive_root_count(d.type)
    with pytest.raises(RuntimeError, match="closure"):
        build_root_datum(SimpleType("E", 6))


def test_root_datum_past_the_cell_budget_is_refused_before_it_is_built(monkeypatch):
    def built(rank):
        raise AssertionError("built")

    # A datum checks the cell budget before it reads the bonds or any other column.
    monkeypatch.setitem(rootdata._FAMILIES, "B", rootdata._FAMILIES["B"]._replace(bonds=built))
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
            build_root_datum(stype)
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
