"""The first finite-group engine, kept as a test oracle for the current one.

Subgroups are sorted element tuples.  The lattice walk extends every known
subgroup by every outside element and closes the result by multiplying all
pairs of elements; the scan tests every subgroup of the lattice against
every candidate F.  It is slow (about 32 s on S5) but simple, and its
answers, witnesses included, are the ones the current engine must give.
"""
from liejordan.errors import OrderLimitError
from liejordan.finitegroup import DEFAULT_JORDAN_LIMIT, Subgroup


def _closure_in_table(mult, seed):
    """Subgroup generated by the seed elements; finite, so products suffice."""
    elements = [0]
    present = {0}
    for s in seed:
        if s not in present:
            present.add(s)
            elements.append(s)
    i = 0
    while i < len(elements):
        a = elements[i]
        row_a = mult[a]
        j = 0
        while j < len(elements):
            b = elements[j]
            for p in (row_a[b], mult[b][a]):
                if p not in present:
                    present.add(p)
                    elements.append(p)
            j += 1
        i += 1
    return tuple(sorted(present))


def all_subgroups(G, max_order=DEFAULT_JORDAN_LIMIT):
    """Every subgroup, sorted by order then element list."""
    if G.order > max_order:
        raise OrderLimitError(
            f"group order {G.order} exceeds limit {max_order}")
    mult = G.mult
    trivial = (0,)
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for elems in frontier:
            gens = found[elems]
            inside = set(elems)
            for g in range(1, G.order):
                if g in inside:
                    continue
                bigger = _closure_in_table(mult, elems + (g,))
                if bigger not in found:
                    found[bigger] = gens + (g,)
                    nxt.append(bigger)
        frontier = nxt
    return [Subgroup(elems, found[elems])
            for elems in sorted(found, key=lambda e: (len(e), e))]


def _is_abelian(mult, elements):
    return all(mult[a][b] == mult[b][a] for a in elements for b in elements)


def _is_normal_in(G, sub_elements, ambient):
    conjugators = ambient.generators or ambient.elements
    return all(
        G.mult[G.mult[g][a]][G.inverses[g]] in sub_elements
        for g in conjugators for a in sub_elements)


def min_index(G, F, lattice):
    """Smallest index of a normal abelian subgroup of F, over the lattice."""
    inside = frozenset(F.elements)
    best = F.order  # the trivial subgroup is always normal and abelian
    for A in lattice:
        aset = frozenset(A.elements)
        if not aset <= inside:
            continue
        index = F.order // A.order
        if index >= best:
            continue
        if _is_abelian(G.mult, A.elements) and _is_normal_in(G, aset, F):
            best = index
    return best


def jordan_constant_with_witness(G, lattice):
    """Jordan constant of G plus the first subgroup attaining it, given the
    lattice from all_subgroups."""
    best = 0
    witness = lattice[0]
    for F in lattice:
        value = min_index(G, F, lattice)
        if value > best:
            best = value
            witness = F
    return best, witness
