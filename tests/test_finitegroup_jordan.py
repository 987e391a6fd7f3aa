"""The Jordan constant from G itself, and its witnesses, against the
lattice-and-scan engine it replaced (old_finitegroup.py).

J(G) is the least index of a normal abelian subgroup of G, and no witness
needs the subgroup lattice: for J = 1, J = |G| and J = 2 it comes directly,
and otherwise from the supplements of a largest normal abelian subgroup.
"""
import itertools
import math
import random
import time

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

import old_finitegroup as old
from liejordan import finitegroup
from liejordan.errors import OrderLimitError
from liejordan.finitegroup import (FiniteGroup, jordan_constant, jordan_constant_with_witness,
                                   parse_group)
from test_finitegroup import _oracle_close, corpus
from test_finitegroup_engine import CORPUS, PERM_GROUPS, S5, group_text, perm_text

# Groups of order 128 whose lattices have 29212 and 7420 subgroups.
BIG_GROUPS = {
    "c2^7": (14, [[(2 * i + 1, 2 * i + 2)] for i in range(7)]),
    "d4xc2^4": (12, [[(1, 3)], [(1, 2, 3, 4)], [(5, 6)], [(7, 8)], [(9, 10)], [(11, 12)]]),
}
# J and witness elements as the lattice-and-scan engine gave them, in
# about 19 s and 5 s.
BIG_ANSWERS = {
    "c2^7": (1, (0,)),
    "d4xc2^4": (2, (0, 16, 32, 48, 64, 80, 96, 112)),
}
NAMES = CORPUS + ["s3", "s4", "a5"] + list(PERM_GROUPS)
# S4 x C2^3, order 192: J = 6, and the witness is the first S4, which the
# lattice-and-scan engine found in about 6 s.
S4XC2CUBED = perm_text(10, [[(1, 2)], [(1, 2, 3, 4)], [(5, 6)], [(7, 8)], [(9, 10)]])
S4XC2CUBED_WITNESS = tuple(range(0, 192, 8))


def lattice_never_walked(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the subgroup lattice was walked")
    monkeypatch.setattr(finitegroup, "all_subgroups", refuse)


@pytest.mark.parametrize("name", sorted(BIG_GROUPS))
def test_big_groups_answer_without_their_lattice(monkeypatch, name):
    lattice_never_walked(monkeypatch)
    text = perm_text(*BIG_GROUPS[name])
    times = []
    for _ in range(3):
        start = time.perf_counter()
        value, witness = jordan_constant_with_witness(parse_group(text))
        times.append(time.perf_counter() - start)
    assert (value, witness.elements) == BIG_ANSWERS[name]
    assert min(times) < 0.2, f"{name} took {min(times):.3f} s"


def test_s4xc2cubed_answers_without_its_lattice(monkeypatch):
    lattice_never_walked(monkeypatch)
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
    G = parse_group(text)
    expected = jordan_constant_with_witness(G)[0]
    lattice_never_walked(monkeypatch)
    assert jordan_constant(G) == expected


def test_the_order_limit_comes_before_any_work(monkeypatch):
    s6 = parse_group("perm 6\n2 1 3 4 5 6\n2 3 4 5 6 1\n", max_order=720)

    def refuse(*args, **kwargs):
        raise AssertionError("work began before the order check")
    for name in ("_commute", "_largest_normal_abelian", "_least_nonabelian", "all_subgroups"):
        monkeypatch.setattr(finitegroup, name, refuse)
    for jordan in (jordan_constant, jordan_constant_with_witness):
        with pytest.raises(OrderLimitError, match="^group order 720 exceeds limit 200$"):
            jordan(s6)


@pytest.mark.parametrize("name", NAMES)
def test_witness_generators_generate_the_witness(monkeypatch, name):
    G = parse_group(group_text(name))
    lattice_never_walked(monkeypatch)
    value, witness = jordan_constant_with_witness(G)
    assert _oracle_close(G.mult, witness.generators) == witness.elements
    if value == 1:
        assert witness.generators == ()
    elif value == G.order:
        assert witness.generators == G._generators
    elif value == 2:
        a, b = witness.generators
        assert G.mult[a][b] != G.mult[b][a]


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
                         for b in pairs] for a in pairs], check_associativity=False)


def relabelled(G, labels):
    """G with each index i renamed labels[i], where labels[0] = 0."""
    back = {label: i for i, label in enumerate(labels)}
    return FiniteGroup([[labels[G.mult[back[x]][back[y]]] for y in range(G.order)]
                        for x in range(G.order)], check_associativity=False)


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
