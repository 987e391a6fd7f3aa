"""The finite-group engine against the first engine, kept as an oracle.

The oracle (old_finitegroup.py) closes subgroups by multiplying all pairs
of elements and scans every subgroup for every F; the engine under test
finds J from a largest normal abelian subgroup of G and never lists the
lattice.  Their Jordan constants and witnesses must agree exactly.
"""
import time
from pathlib import Path

import pytest

import old_finitegroup as old
from liejordan.errors import OrderLimitError
from liejordan.finitegroup import Subgroup, jordan_constant_with_witness, parse_group
from test_finitegroup import min_normal_abelian_index

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = sorted(p.stem for p in (FIXTURES / "corpus").glob("*.grp"))

# Permutation groups as (degree, generators written as cycles).
PERM_GROUPS = {
    "c2^5": (10, [[(1, 2)], [(3, 4)], [(5, 6)], [(7, 8)], [(9, 10)]]),
    "s4xc2": (6, [[(1, 2)], [(1, 2, 3, 4)], [(5, 6)]]),
    "d4xc2xc2": (8, [[(1, 3)], [(1, 2, 3, 4)], [(5, 6)], [(7, 8)]]),
    "s3xs3": (6, [[(1, 2)], [(1, 2, 3)], [(4, 5)], [(4, 5, 6)]]),
}
S5 = "perm 5\n2 3 4 5 1\n2 1 3 4 5\n"


def perm_text(degree, generators):
    lines = [f"perm {degree}"]
    for cycles in generators:
        images = list(range(1, degree + 1))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a - 1] = b
        lines.append(" ".join(map(str, images)))
    return "\n".join(lines) + "\n"


def group_text(name):
    if name in PERM_GROUPS:
        return perm_text(*PERM_GROUPS[name])
    if name in CORPUS:
        return (FIXTURES / "corpus" / f"{name}.grp").read_text()
    return (FIXTURES / f"{name}.grp").read_text()


@pytest.mark.parametrize("name", CORPUS + ["s3", "s4", "a5"] + list(PERM_GROUPS))
def test_engine_matches_old_engine(name):
    G = parse_group(group_text(name))
    value, witness = jordan_constant_with_witness(G)
    old_value, old_witness = old.jordan_constant_with_witness(G, old.all_subgroups(G))
    assert value == old_value
    assert witness.elements == old_witness.elements


@pytest.mark.parametrize("name", CORPUS + ["s4"])
def test_min_normal_abelian_index_matches_old_scan(name):
    G = parse_group(group_text(name))
    lattice = old.all_subgroups(G)
    for F in lattice:
        expected = old.min_index(G, F, lattice)
        assert min_normal_abelian_index(F, G) == expected
        # without generators, every element of F conjugates
        assert min_normal_abelian_index(Subgroup(F.elements), G) == expected


def test_s5_lattice_and_jordan_constant():
    start = time.monotonic()
    G = parse_group(S5)
    value, witness = jordan_constant_with_witness(G)
    elapsed = time.monotonic() - start
    assert G.order == 120
    assert len(old.bitmask_subgroups(G)) == 156
    assert value == 120
    assert witness.elements == tuple(range(120))
    assert elapsed < 2, f"S5 took {elapsed:.2f} s"


def test_s6_and_s7_are_still_refused():
    s6_text = "perm 6\n2 1 3 4 5 6\n2 3 4 5 6 1\n"
    s7_text = "perm 7\n2 1 3 4 5 6 7\n2 3 4 5 6 7 1\n"
    for text in (s6_text, s7_text):
        with pytest.raises(OrderLimitError, match="exceeded 200 elements"):
            parse_group(text)
    s6 = parse_group(s6_text, max_order=720)
    assert s6.order == 720
    with pytest.raises(OrderLimitError, match="exceeds limit 200"):
        jordan_constant_with_witness(s6)
    with pytest.raises(OrderLimitError, match="exceeded 5000 elements"):
        parse_group(s7_text, max_order=5000)


def naive_perm_table(text):
    """Cayley table of a perm description, one product at a time."""
    lines = text.split("\n")
    degree = int(lines[0].split()[1])
    generators = [tuple(int(t) - 1 for t in ln.split()) for ln in lines[1:] if ln]
    identity = tuple(range(degree))
    elements, frontier = {identity}, [identity]
    while frontier:
        frontier = list({tuple(p[g[x]] for x in range(degree))
                         for p in frontier for g in generators} - elements)
        elements.update(frontier)
    ordered = [identity] + sorted(elements - {identity})
    index = {p: i for i, p in enumerate(ordered)}
    return tuple(tuple(index[tuple(p[q[x]] for x in range(degree))] for q in ordered)
                 for p in ordered)


@pytest.mark.parametrize("text", [
    group_text("s3"), group_text("s4"), group_text("a5"),
    *(group_text(name) for name in PERM_GROUPS), S5,
    "perm 1\n1\n", "perm 1\n", "perm 3\n1 2 3\n", "perm 3\n2 3 1\n1 2 3\n2 3 1\n",
])
def test_perm_table_matches_products(text):
    assert parse_group(text).mult == naive_perm_table(text)
