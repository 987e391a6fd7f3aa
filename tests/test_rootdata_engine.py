"""Type checks, Cartan matrices, root counts, coroots, Weyl dimensions and
the dominant-weight enumeration against the first code.

The type checks, matrices and root counts must give the same messages and
values as the oracle's if/elif chains, which the family table replaced.
The oracle (old_rootdata.py) also recomputes each pairing in the coroot closure,
multiplies the Weyl factors with no digit guard and evaluates every weight
it keeps twice.  The code under test carries the pairings through the
closure, multiplies the family's one factor list (B-D take one factor
x_i**2 - x_j**2 per pair of coroots), and carries lambda + rho down the
enumeration so that each vector is evaluated once.  Their coroot
lists, values and ordered (weight, dim) lists must agree; past the
kept-digit limit the code under test refuses instead, before the product
is formed when its factors show the size.  Where the code's factors are
checked on their own, the oracle is the per-coroot product formed here
from the datum's positive_coroots.
"""
import math
import random
import re
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


def _coroot_product(coroots, shifted):
    """The product of the pairings <shifted, c> over the positive coroots c,
    for shifted = lambda + rho in the fundamental-weight basis."""
    return math.prod([sum(map(mul, shifted, c)) for c in coroots])


def _digit_count(n):
    """Decimal digits of n >= 1, with no str() past the int->str limit."""
    digits = n.bit_length() * 30103 // 100000  # never more than the count
    while 10 ** digits <= n:
        digits += 1
    return digits


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
    assert tuple(d.positive_coroots) == tuple(old._positive_roots(transposed))


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
    # The family table's column, and weyl_dim, against the per-coroot Weyl
    # product at each unit weight, whose factors <omega_i + rho, c> are
    # <rho, c> + c_i, at every node of every type of rank <= 24.  At ranks 60
    # and 100, where a datum has up to 10**4 coroots, the first, middle and
    # last two nodes of A-D are checked against the formula in the
    # orthonormal basis instead.
    for fam, rank in _types(24):
        d = _datum(fam, rank)
        coroots = tuple(d.positive_coroots)
        rho = _coroot_product(coroots, [1] * rank)
        units = [(0,) * i + (1,) + (0,) * (rank - i - 1) for i in range(rank)]
        want = [_coroot_product(coroots, [u + 1 for u in unit]) // rho for unit in units]
        assert rootdata._FAMILIES[fam].fundamentals(rank) == want
        assert [weyl_dim(d, DominantWeight(unit)) for unit in units] == want
    for fam in "ABCD":
        for rank in (60, 100):
            table = rootdata._FAMILIES[fam].fundamentals(rank)
            assert len(table) == rank
            for k in (0, rank // 2, rank - 2, rank - 1):
                assert table[k] == _orthonormal_fundamental_dim(fam, rank, k), (fam, rank, k)


NUMERATOR_TYPES = _types(24)[:-5] + [(fam, rank) for fam in "ABCD" for rank in (33, 60, 100)]
_COROOTS = {}  # (family, rank) -> (positive coroots, product of their pairings with rho)


@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_numerators_are_the_products_of_the_factors(data):
    # The product of each A-D factor list, which holds one x_i**2 - x_j**2 per
    # pair of B-D coroots, against the per-coroot product at a random dominant
    # lambda + rho, at every rank <= 24 and at ranks 33, 60 and 100: the
    # products reach both sides of _product's switch at 512 factors.  B and D
    # scale their factors, so the two are compared as ratios to their values
    # at rho.
    for fam, rank in NUMERATOR_TYPES:
        d = _datum(fam, rank)
        if (fam, rank) not in _COROOTS:
            coroots = tuple(d.positive_coroots)
            _COROOTS[fam, rank] = coroots, _coroot_product(coroots, [1] * rank)
        coroots, rho = _COROOTS[fam, rank]
        top = data.draw(st.sampled_from([0, 1, 3, 100, 10 ** 6]))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        coords = [rng.randint(0, top) for _ in range(rank)]
        x = list(d._rho)
        for c, increment in zip(coords, d._increments):
            x = [a + c * b for a, b in zip(x, increment)]
        got = rootdata._product(d._factors(x)) * rho
        want = _coroot_product(coroots, [c + 1 for c in coords]) * d.rho_product
        assert got == want, (fam, rank, coords)


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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_epsilon_factors_match_the_coroot_formula(data):
    # The epsilon form of A-D against the oracle's unguarded coroot product,
    # at every type of rank <= 12.  Near the guard, where coordinates of about
    # M give about N * log10(M) digits over N positive coroots, the code
    # answers alike, or refuses exactly when the product has more digits than
    # are kept, with an "at least" count that the product does reach.
    fam, rank = data.draw(st.sampled_from(_types(12)[:-5]))
    d = _datum(fam, rank)
    kept = _kept_digits()
    k = (kept - 1) // len(d.positive_coroots)
    coordinate = data.draw(st.sampled_from([st.integers(0, 3), st.integers(0, 10 ** 6),
                                            st.integers(10 ** (k - 1), 10 ** (k + 1))]))
    w = DominantWeight(tuple(data.draw(st.lists(coordinate, min_size=rank, max_size=rank))))
    want = old.weyl_dim(d, w)
    digits = _digit_count(want)
    if digits <= kept:
        assert weyl_dim(d, w) == want
        return
    with pytest.raises(ResourceGuardError) as refused:
        weyl_dim(d, w)
    message = str(refused.value)
    least = int(re.fullmatch(r"the exact value has at least (\d+) decimal digits, more than "
                             rf"{kept}, 10 times the {kept // 10} allowed by .*", message)[1])
    assert kept < least <= digits, message


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


@pytest.mark.parametrize("fam", ["B", "D"])
def test_huge_rank_16_weights_refused_before_the_product_is_formed(fam):
    # B16 and D16 have the most factors of any lie-search type, and each
    # x_i**2 - x_j**2 of coordinates 10**4300 has about 8600 digits.
    digits = sys.get_int_max_str_digits() or DEFAULT_DIGITS
    weight = DominantWeight((10 ** digits,) * 16)
    d = _datum(fam, 16)
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError, match="PYTHONINTMAXSTRDIGITS"):
        weyl_dim(d, weight)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("B", 3), ("D", 4), ("G", 2)])
def test_weyl_dim_answers_on_both_sides_of_the_short_path_edge(monkeypatch, fam, rank):
    # The product is formed unguarded while N * bits(M + 1) <= 3 * kept for
    # coordinates at most M over N positive coroots, since then the dimension
    # is below 2**(3 * kept) < 10**kept; past that edge the guard checks it.
    # At all coordinates M the dimension is (M + 1)**N, and on both sides of
    # the edge it has fewer digits than are kept, so both answer.
    guarded = []
    formed = rootdata._formed
    monkeypatch.setattr(rootdata, "_formed", lambda bits, make: guarded.append(bits)
                        or formed(bits, make))
    d = _datum(fam, rank)
    n = len(d.positive_coroots)
    width = 3 * _kept_digits() // n  # the most bits of M + 1 on the short path
    for bits, checks in ((width, 0), (width + 1, 1)):
        weight = DominantWeight((2 ** (bits - 1) - 1,) * rank)
        guarded.clear()
        assert weyl_dim(d, weight) == old.weyl_dim(d, weight) == 2 ** ((bits - 1) * n)
        assert len(guarded) == checks


def test_a_factor_list_short_of_the_root_count_is_caught(monkeypatch):
    # B's factor list without its x_i factors, and G2 with a simple bond in
    # place of its triple one, no longer stand for every positive coroot.
    b = rootdata._FAMILIES["B"]
    short = b._replace(form=(b.form[0], rootdata._differences))
    monkeypatch.setitem(rootdata._FAMILIES, "B", short)
    with pytest.raises(AssertionError, match="B3: 6 positive coroots, expected 9"):
        build_root_datum(SimpleType("B", 3))
    g = rootdata._FAMILIES["G"]
    monkeypatch.setitem(rootdata._FAMILIES, "G", g._replace(bonds=lambda l: [(0, 1, 1, 1)]))
    with pytest.raises(AssertionError, match="G2: 3 positive coroots, expected 6"):
        build_root_datum(SimpleType("G", 2))


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
