"""The earlier finite-group engines, kept as test oracles for the current one.

The first engine: subgroups are sorted element tuples.  The lattice walk
extends every known subgroup by every outside element and closes the
result by multiplying all pairs of elements; the scan tests every subgroup
of the lattice against every candidate F.  It is slow (about 32 s on S5)
but simple, and its answers, witnesses included, are the ones the current
engine must give.

The second engine (bitmask_subgroups, scan_jordan_constant_with_witness)
walks the lattice on int bitmasks by cyclic extension and scans every
subgroup F for its minimal normal abelian index.  It is the scan that the
current engine replaced by the Jordan constant of G itself.
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


# -- the second engine: bitmask lattice and full scan ---------------------

def _cyclic_subgroups(mult, order):
    """Every nontrivial cyclic subgroup as (mask, smallest generator)."""
    cyclic = {}
    for g in range(1, order):
        mask, x = 1, g
        while x:
            mask |= 1 << x
            x = mult[x][g]
        cyclic.setdefault(mask, g)
    return list(cyclic.items())


def _join(mult, cols, bits, base, mask, gens):
    """Mask and elements of <H, gens>, gens including the generators of H,
    grown from H coset by coset."""
    elements = list(base)
    reps = [0]
    for x in reps:
        row = mult[x]
        for s in gens:
            y = row[s]
            if not mask >> y & 1:
                coset = list(map(cols[y].__getitem__, base))
                elements += coset
                mask |= sum(map(bits.__getitem__, coset))
                reps.append(y)
    return mask, elements


def bitmask_subgroups(G, max_order=DEFAULT_JORDAN_LIMIT):
    """Every subgroup, sorted by order then element list."""
    if G.order > max_order:
        raise OrderLimitError(
            f"group order {G.order} exceeds limit {max_order}")
    mult = G.mult
    cols = tuple(zip(*mult))
    bits = [1 << i for i in range(G.order)]
    cyclic = _cyclic_subgroups(mult, G.order)
    found = {1: ([0], ())}
    frontier = [1]
    while frontier:
        nxt = []
        for mask in frontier:
            base, gens = found[mask]
            for cmask, g in cyclic:
                if cmask & ~mask:
                    grown = gens + (g,)
                    bigger, elements = _join(mult, cols, bits, base, mask, grown)
                    if bigger not in found:
                        found[bigger] = (elements, grown)
                        nxt.append(bigger)
        frontier = nxt
    subs = [Subgroup(tuple(sorted(elements)), gens)
            for elements, gens in found.values()]
    subs.sort(key=lambda s: (s.order, s.elements))
    return subs


def _mask(elements):
    return sum(1 << e for e in elements)


def _abelian_largest_first(G, lattice):
    mult = G.mult
    return [(_mask(A.elements), A.order, A.generators) for A in reversed(lattice)
            if all(mult[a][b] == mult[b][a] for a in A.generators for b in A.generators)]


def _scan_min_index(G, fmask, order, conjugators, abelian):
    mult, inv = G.mult, G.inverses
    for amask, aorder, agens in abelian:
        if not amask & ~fmask and all(
                amask >> mult[mult[g][a]][inv[g]] & 1
                for g in conjugators for a in agens):
            return order // aorder
    return order


def scan_jordan_constant_with_witness(G, max_order=DEFAULT_JORDAN_LIMIT):
    """Jordan constant of G as the maximum over every subgroup F of its
    minimal normal abelian index, plus the first F attaining it."""
    lattice = bitmask_subgroups(G, max_order)
    abelian = _abelian_largest_first(G, lattice)
    abelian_masks = {mask for mask, _, _ in abelian}
    best, witness = 1, lattice[0]
    for F in lattice:
        if F.order <= best:
            continue
        fmask = _mask(F.elements)
        if fmask in abelian_masks:
            continue
        value = _scan_min_index(G, fmask, F.order, F.generators, abelian)
        if value > best:
            best = value
            witness = F
    return best, witness
