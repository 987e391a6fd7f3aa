"""The Jordan constant from G itself, and its witnesses, against the
lattice-and-scan engine it replaced (old_finitegroup.py).

J(G) is the least index of a normal abelian subgroup of G, and no witness
needs the subgroup lattice: for J = 1 it is the trivial subgroup, and
otherwise the least supplement of a largest normal abelian subgroup that
attains J, which for J = |G| is G itself.
"""
import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import old_finitegroup as old
from liejordan import finitegroup
from liejordan.errors import OrderLimitError
from liejordan.finitegroup import (FiniteGroup, Subgroup, _commute, _greedy_generators,
                                   _jordan, _largest_normal_abelian, jordan_constant,
                                   jordan_constant_with_witness, parse_group)
from test_finitegroup import KNOB, _oracle_close, corpus, subgroup_group
from test_finitegroup_engine import CORPUS, PERM_GROUPS, S5, group_text, perm_text

# Groups of order 128 whose lattices have 29212 and 7420 subgroups, and
# D4 x S3 x C2^2 of order 192, where the supplement search closed 9134
# candidates and searched 728 of them for a normal abelian subgroup.
BIG_GROUPS = {
    "c2^7": (14, [[(2 * i + 1, 2 * i + 2)] for i in range(7)]),
    "d4xc2^4": (12, [[(1, 3)], [(1, 2, 3, 4)], [(5, 6)], [(7, 8)], [(9, 10)], [(11, 12)]]),
    "d4xs3xc2^2": (11, [[(1, 3)], [(1, 2, 3, 4)], [(5, 6)], [(5, 6, 7)], [(8, 9)], [(10, 11)]]),
}
# J, witness elements and witness generators.  The elements of the first
# two are as the lattice-and-scan engine gave them, in about 19 s and 5 s;
# the rest as the supplement search gave them before it skipped anything.
BIG_ANSWERS = {
    "c2^7": (1, (0,), ()),
    "d4xc2^4": (2, (0, 16, 32, 48, 64, 80, 96, 112), (32, 112, 16)),
    "d4xs3xc2^2": (4, tuple(range(0, 192, 4)), (60, 180, 4, 24)),
}
NAMES = CORPUS + ["s3", "s4", "a5"] + list(PERM_GROUPS)
# S4 x C2^3, order 192: J = 6, and the witness is the first S4, which the
# lattice-and-scan engine found in about 6 s.
S4XC2CUBED = perm_text(10, [[(1, 2)], [(1, 2, 3, 4)], [(5, 6)], [(7, 8)], [(9, 10)]])
S4XC2CUBED_WITNESS = tuple(range(0, 192, 8))


@pytest.mark.parametrize("name", sorted(BIG_GROUPS))
def test_big_groups_answer_without_their_lattice(name):
    text = perm_text(*BIG_GROUPS[name])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        value, witness = jordan_constant_with_witness(parse_group(text))
        times.append(time.perf_counter() - start)
    assert (value, witness.elements, witness.generators) == BIG_ANSWERS[name]
    assert min(times) < 0.2, f"{name} took {min(times):.3f} s"


def reflection(n):
    """The reflection of the n-gon 1..n that fixes 1, as cycles."""
    return [(i, n + 2 - i) for i in range(2, (n + 3) // 2)]


# Dihedral groups with J = 2 and a large cyclic part, where a scan of pairs
# of noncommuting elements took 0.16 to 0.55 s: J and witness elements as
# the lattice-scan oracle gives them, in about 1.2 s each.
DIHEDRAL = {
    "d47xc2": (perm_text(49, [[tuple(range(1, 48))], reflection(47), [(48, 49)]]),
               (2, tuple(range(0, 188, 2)))),
    "d97": (perm_text(97, [[tuple(range(1, 98))], reflection(97)]), (2, tuple(range(194)))),
}


@pytest.mark.parametrize("name", sorted(DIHEDRAL))
def test_dihedral_groups_with_j_2_answer_fast(name):
    text, expected = DIHEDRAL[name]
    G = parse_group(text)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        value, witness = jordan_constant_with_witness(G)
        times.append(time.perf_counter() - start)
    assert (value, witness.elements) == expected
    assert min(times) < 0.1, f"{name} took {min(times):.3f} s"


def test_s4xc2cubed_answers_without_its_lattice():
    G = parse_group(S4XC2CUBED)
    start = time.perf_counter()
    value, witness = jordan_constant_with_witness(G)
    elapsed = time.perf_counter() - start
    assert (value, witness.elements) == (6, S4XC2CUBED_WITNESS)
    assert _oracle_close(G.mult, witness.generators) == witness.elements
    assert elapsed < 1, f"S4 x C2^3 took {elapsed:.3f} s"


@pytest.mark.parametrize("text", [S5] + [perm_text(*BIG_GROUPS[n]) for n in sorted(BIG_GROUPS)],
                         ids=["s5"] + sorted(BIG_GROUPS))
def test_jordan_constant_never_walks_the_lattice(monkeypatch, text):
    """No lattice function is left to walk; J alone starts no witness search."""
    G = parse_group(text)
    expected = jordan_constant_with_witness(G)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("a witness search began")
    monkeypatch.setattr(finitegroup, "_least_supplement", refuse)
    assert jordan_constant(G) == expected


@pytest.mark.parametrize("name", ["o24_s4", "s4xc2"])
def test_the_witness_searches_g_for_a_once(monkeypatch, name):
    G = parse_group(group_text(name))
    searched = []
    search = finitegroup._largest_normal_abelian

    def counted(H, elements, gens):
        searched.append(len(elements))
        return search(H, elements, gens)
    monkeypatch.setattr(finitegroup, "_largest_normal_abelian", counted)
    value, _ = jordan_constant_with_witness(G)
    assert value not in (1, 2, G.order)
    assert searched.count(G.order) == 1


@pytest.mark.parametrize("name,generators", [("a5", (1, 3, 12)), ("s5", (1, 2, 6, 24))],
                         ids=["a5", "s5"])
def test_a_witness_of_j_equal_to_the_order_starts_no_closure(monkeypatch, name, generators):
    G = parse_group(S5 if name == "s5" else group_text(name))
    closures = []
    closure = finitegroup._closure

    def counted(*args):
        closures.append(args)
        return closure(*args)
    monkeypatch.setattr(finitegroup, "_closure", counted)
    value, witness = jordan_constant_with_witness(G)
    assert (value, witness.elements, witness.generators) == (
        G.order, tuple(range(G.order)), generators)
    assert closures == []


def counted_work(monkeypatch, groups):
    """The _closure and _largest_normal_abelian calls that
    jordan_constant_with_witness makes on these groups."""
    calls = {"_closure": 0, "_largest_normal_abelian": 0}
    for name in calls:
        def counted(*args, name=name, function=getattr(finitegroup, name)):
            calls[name] += 1
            return function(*args)
        monkeypatch.setattr(finitegroup, name, counted)
    for G in groups:
        jordan_constant_with_witness(G)
    return calls["_closure"], calls["_largest_normal_abelian"]


def test_the_witness_search_work_is_pinned(monkeypatch):
    # Before the search closed its candidates over B and skipped B that a
    # normal cyclic subgroup of G/A centralises, lifts that commute, and the
    # normal abelian search at J = 2, these groups took 804 closures and 68
    # searches, and D4 x S3 x C2^2 took 9134 and 728.  A join of
    # _class_unions is a closure too now; counted with them, those were
    # 1406 and 14664 closures.
    groups = [parse_group(group_text(name)) for name in CORPUS + ["s3", "s4", "a5"]]
    assert counted_work(monkeypatch, groups) == (876, 41)
    big = parse_group(perm_text(*BIG_GROUPS["d4xs3xc2^2"]))
    assert counted_work(monkeypatch, [big]) == (880, 2)


def generated(mult, gens, limit=None):
    """The sorted elements of the subgroup the gens generate, closed one
    element at a time, or None past limit elements."""
    reached, seen = [0], {0}
    for x in reached:
        for s in gens:
            y = mult[x][s]
            if y not in seen:
                if len(reached) == limit:
                    return None
                seen.add(y)
                reached.append(y)
    return tuple(sorted(reached))


def recorded_search(monkeypatch, G):
    """J of G, its witness, the levels of B its supplement search walked,
    and each candidate it closed, as {mask of B: {lifts: closure}}."""
    levels, closed = [], {}
    walk, close = finitegroup._class_unions, finitegroup._closure

    def walked(*args):
        if sys._getframe(1).f_code.co_name != "_least_supplement":
            return walk(*args)
        return (levels.append(level) or level for level in walk(*args))

    def closing(H, gens, start=(1, (0,)), limit=None):
        F = close(H, gens, start, limit)
        if limit is not None:
            closed.setdefault(start[0], {})[gens] = F
        return F
    monkeypatch.setattr(finitegroup, "_class_unions", walked)
    monkeypatch.setattr(finitegroup, "_closure", closing)
    value, witness = jordan_constant_with_witness(G)
    monkeypatch.undo()
    return value, witness, levels, closed


# D4 x D4 is the one where the search for a normal abelian subgroup turns
# candidates down: J = 4, and four F of order 32 have one of order 16.
LEMMA_GROUPS = {name: group_text(name) for name in NAMES}
LEMMA_GROUPS.update((name, perm_text(*BIG_GROUPS[name])) for name in ("d4xc2^4", "d4xs3xc2^2"))
LEMMA_GROUPS["d4xd4"] = perm_text(8, [[(1, 3)], [(1, 2, 3, 4)], [(5, 7)], [(5, 6, 7, 8)]])


@pytest.mark.parametrize("name", list(LEMMA_GROUPS))
def test_the_witness_search_skips_only_candidates_that_fail(monkeypatch, name):
    """Against the search without skips, over each B it walked: where it
    closed no lifts, no candidate of order J |B| has J(F) = J, by F's own
    table; lifts it did not close generate an abelian F; those it closed
    give the subgroup they generate; at J = 2, each F it closed has a
    normal abelian subgroup of index 2; and the witness attains J."""
    G = parse_group(LEMMA_GROUPS[name])
    mult, n = G.mult, G.order
    value, A = _jordan(G, n)
    if value in (1, n):
        return
    found, witness, levels, closed = recorded_search(monkeypatch, G)
    assert found == value and levels
    assert jordan_constant(subgroup_group(G, witness)) == value
    in_a = [x for x in range(n) if A >> x & 1]
    tops = _greedy_generators(G, range(n), (A, in_a))
    failing = set()
    for level in levels:
        for mask, members in level:
            base = _greedy_generators(G, members)
            cosets, covered = [], set()
            for a in in_a:
                if a not in covered:
                    cosets.append(a)
                    covered.update(mult[a][b] for b in members)
            candidates = {}
            for lifts in itertools.product(cosets, repeat=len(tops)):
                lifted = tuple(mult[t][a] for t, a in zip(tops, lifts))
                candidates[lifted] = generated(mult, base + lifted, value * len(members))
            if mask not in closed:
                failing.update(F for F in candidates.values() if F is not None)
                continue
            for lifted, F in candidates.items():
                if lifted not in closed[mask]:
                    whole = generated(mult, base + lifted)
                    assert _largest_normal_abelian(G, whole, base + lifted).bit_count() == len(whole)
                    continue
                assert (F is None) == (closed[mask][lifted] is None)
                if F is not None:
                    assert tuple(sorted(closed[mask][lifted][1])) == F
                    if value == 2:
                        assert _largest_normal_abelian(G, F, base + lifted).bit_count() == len(members)
    for F in failing:
        assert jordan_constant(subgroup_group(G, Subgroup(F))) < value


def test_the_order_limit_comes_before_any_work(monkeypatch):
    s6 = parse_group("perm 6\n2 1 3 4 5 6\n2 3 4 5 6 1\n", max_order=720)

    def refuse(*args, **kwargs):
        raise AssertionError("work began before the order check")
    for name in ("_commute", "_largest_normal_abelian", "_least_supplement"):
        monkeypatch.setattr(finitegroup, name, refuse)
    for jordan in (jordan_constant, jordan_constant_with_witness):
        with pytest.raises(OrderLimitError) as err:
            jordan(s6)
        assert str(err.value) == "group order 720 exceeds limit 200" + KNOB


@pytest.mark.parametrize("name", NAMES)
def test_witness_generators_generate_the_witness(name):
    G = parse_group(group_text(name))
    value, witness = jordan_constant_with_witness(G)
    assert _oracle_close(G.mult, witness.generators) == witness.elements
    if value == 1:
        assert witness.generators == ()
    elif value == G.order:
        assert witness.generators == G._generators
    else:
        assert not _commute(G.mult, witness.generators)


def test_every_shortcut_is_taken_in_the_corpus():
    groups = [parse_group(group_text(name)) for name in NAMES]
    kinds = {v if v <= 2 else "order" if v == G.order else "supplement"
             for G, v in ((G, jordan_constant(G)) for G in groups)}
    assert kinds == {1, 2, "order", "supplement"}


@st.composite
def permutation_groups(draw):
    """The group generated by one to three random permutations of degree
    at most 6, kept when its order is at most 72."""
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(1, degree + 1)), min_size=1, max_size=3))
    text = f"perm {degree}\n" + "".join(" ".join(map(str, g)) + "\n" for g in gens)
    try:
        return parse_group(text, max_order=72)
    except OrderLimitError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(permutation_groups())
def test_matches_the_lattice_scan_on_permutation_groups(G):
    value, witness = jordan_constant_with_witness(G)
    old_value, old_witness = old.scan_jordan_constant_with_witness(G)
    assert (value, witness.elements) == (old_value, old_witness.elements)
    assert jordan_constant(G) == value
    assert _oracle_close(G.mult, witness.generators) == witness.elements


FACTORS = {name: corpus(stem) for name, stem in [
    ("s3", "o06_s3"), ("d4", "o08_d4"), ("q8", "o08_q8"), ("a4", "o12_a4"),
    ("c2", "o02_c2"), ("c3", "o03_c3"), ("c4", "o04_c4")]}
# Every multiset of factors whose direct product has order at most 96 and
# holds A4 or two nonabelian factors: the 20 such products whose J is not
# 1, 2 or |G|.
PRODUCTS = [names for size in (1, 2, 3, 4)
            for names in itertools.combinations_with_replacement(sorted(FACTORS), size)
            if math.prod(FACTORS[name].order for name in names) <= 96
            and ("a4" in names or sum(name in ("s3", "d4", "q8") for name in names) > 1)]


def direct_product(names):
    """The Cayley table of the direct product of these corpus groups."""
    mults = [FACTORS[name].mult for name in names]
    pairs = list(itertools.product(*(range(len(mult)) for mult in mults)))
    index = {pair: i for i, pair in enumerate(pairs)}
    return FiniteGroup([[index[tuple(mult[x][y] for mult, x, y in zip(mults, a, b))]
                         for b in pairs] for a in pairs])


def relabelled(G, labels):
    """G with each index i renamed labels[i], where labels[0] = 0."""
    back = {label: i for i, label in enumerate(labels)}
    return FiniteGroup([[labels[G.mult[back[x]][back[y]]] for y in range(G.order)]
                        for x in range(G.order)])


def check_against_the_lattice_scan(G):
    value, witness = jordan_constant_with_witness(G)
    old_value, old_witness = old.scan_jordan_constant_with_witness(G)
    assert (value, witness.elements) == (old_value, old_witness.elements)
    assert _oracle_close(G.mult, witness.generators) == witness.elements
    return value


# Renamings i -> i * unit mod |G| under which the least witness is not
# generated by B and the least elements outside A, has the second B of
# its order, or is not the first witness of its order found.
@pytest.mark.parametrize("names,unit", [(("a4", "c4"), 5), (("a4", "c2", "c3"), 11)])
def test_matches_the_lattice_scan_on_renamed_products(names, unit):
    G = direct_product(names)
    assert check_against_the_lattice_scan(
        relabelled(G, [i * unit % G.order for i in range(G.order)])) == 3


# Each product is renamed by a seeded shuffle.  A failure is reported as
# drawn: every shrink step reruns the oracle scan, and shrinking the seed
# or a drawn shuffle took minutes.
@settings(max_examples=12, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(st.sampled_from(PRODUCTS), st.integers(0, 2 ** 32))
def test_matches_the_lattice_scan_on_direct_products(names, seed):
    G = direct_product(names)
    assume(jordan_constant(G) not in (1, 2, G.order))
    labels = [0] + random.Random(seed).sample(range(1, G.order), G.order - 1)
    check_against_the_lattice_scan(relabelled(G, labels))
