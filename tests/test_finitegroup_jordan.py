"""The Jordan constant from G itself, and its witnesses, against the
lattice-and-scan engine it replaced (old_finitegroup.py).

J(G) is the least index of a normal abelian subgroup of G, and only the
witness may need the subgroup lattice: for J = 1, J = |G| and J = 2 it
comes without one.
"""
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import old_finitegroup as old
from liejordan import finitegroup
from liejordan.errors import OrderLimitError
from liejordan.finitegroup import jordan_constant, jordan_constant_with_witness, parse_group
from test_finitegroup import _oracle_close
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
def test_witness_generators_generate_the_witness(name):
    G = parse_group(group_text(name))
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
    kinds = {v if v <= 2 else "order" if v == G.order else "lattice"
             for G, v in ((G, jordan_constant(G)) for G in groups)}
    assert kinds == {1, 2, "order", "lattice"}


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
