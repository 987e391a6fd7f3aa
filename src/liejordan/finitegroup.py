"""Exact Jordan constants of explicit finite groups.

A group arrives either as a Cayley table or as permutation generators
and is normalised to a table with the identity at index 0.  The Jordan
constant is the maximum over all subgroups F of the minimal index of a
normal abelian subgroup of F; it is 1 exactly for abelian groups, and
the group order itself is the trivial boundedness constant.

In the lattice walk and the scan, subgroups are int bitmasks over the
element indices, so a subset test is a & ~b == 0.  Enumeration is cyclic
extension (Neubuser 1960; Holt, Eick & O'Brien, Handbook of
Computational Group Theory, 2005): every subgroup is generated by its
cyclic subgroups, so extending each known subgroup by each cyclic
subgroup <g> not already inside it, breadth first from the trivial
group, finds the whole lattice.  A join <H, g> is grown from H coset by
coset.  Each subgroup keeps the generator list that built it, which
makes the abelian test (generators commute) and normality (conjugates
of generators stay inside) cheap; the minimal-index scan takes the
abelian subgroups largest first, so the first normal one inside F wins.

One order limit guards it all, since subgroup lattices explode quickly;
it is checked on a table's header and during a permutation closure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .errors import OrderLimitError, _echo

DEFAULT_JORDAN_LIMIT = 200


class FiniteGroup:
    """A finite group as a Cayley table over indices 0..order-1.

    Index 0 is the identity.  Table input is fully validated: every row
    and column must be a permutation, row and column 0 the identity,
    and associativity is checked on all triples.  Groups built from
    permutation generators skip the associativity check, which holds by
    construction.
    """

    def __init__(self, mult, check_associativity: bool = True):
        self.mult = tuple(tuple(row) for row in mult)
        self.order = len(self.mult)
        self._validate(check_associativity)
        self.inverses = tuple(row.index(0) for row in self.mult)

    def _validate(self, check_associativity: bool):
        n = self.order
        if n < 1:
            raise ValueError("a group table needs at least the identity")
        everything = frozenset(range(n))
        for i, row in enumerate(self.mult):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            if frozenset(row) != everything:
                raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
        for j, column in enumerate(zip(*self.mult)):
            if frozenset(column) != everything:
                raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")
        if any(self.mult[0][j] != j for j in range(n)):
            raise ValueError("row 0 is not the identity")
        if any(self.mult[i][0] != i for i in range(n)):
            raise ValueError("column 0 is not the identity")
        if check_associativity:
            mult = self.mult
            for a in range(n):
                row_a = mult[a]
                for b in range(n):
                    ab = row_a[b]
                    row_ab = mult[ab]
                    row_b = mult[b]
                    for c in range(n):
                        if row_ab[c] != row_a[row_b[c]]:
                            raise ValueError(
                                f"associativity fails at ({a}, {b}, {c})")


@dataclass(frozen=True)
class Subgroup:
    """A subgroup by sorted element indices plus a generating set."""

    elements: tuple[int, ...]
    generators: tuple[int, ...] = field(default=(), compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)


def _parse_perm_line(line: str, degree: int, lineno: int) -> tuple[int, ...]:
    tokens = line.split()
    if len(tokens) != degree:
        raise ValueError(
            f"line {lineno}: expected {degree} images, got {len(tokens)}")
    try:
        images = tuple(int(t) - 1 for t in tokens)
    except ValueError:
        raise ValueError(f"line {lineno}: images must be integers") from None
    if sorted(images) != list(range(degree)):
        raise ValueError(f"line {lineno}: not a permutation of 1..{degree}")
    return images


def _times(q):
    """The map p -> p*q = p[q[.]]; itemgetter of one index returns a bare
    item, so degree 1 (q the identity) gets the identity map."""
    return itemgetter(*q) if len(q) > 1 else lambda p: p


def _perm_closure(generators, degree: int, limit: int) -> dict:
    """All products of the generators, breadth first, each mapped to the
    (element, generator index) it was first reached from; None for the
    identity, which comes first."""
    rights = [_times(g) for g in generators]
    identity = tuple(range(degree))
    reached: dict = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for k, right in enumerate(rights):
                q = right(p)
                if q not in reached:
                    if len(reached) >= limit:
                        raise OrderLimitError(
                            f"permutation closure exceeded {limit} elements")
                    reached[q] = (p, k)
                    nxt.append(q)
        frontier = nxt
    return reached


def _perm_table(reached, generators) -> list:
    """Cayley table of a permutation closure, identity first, the rest sorted.

    Since (p*g)*q = p*(g*q), the row of p*g is the row of p read through
    the row of g: one C-level itemgetter call per row, parents first.
    """
    identity, *rest = reached
    ordered = [identity] + sorted(rest)
    index = {p: i for i, p in enumerate(ordered)}
    through = [_times(tuple(index[_times(q)(g)] for q in ordered)) for g in generators]
    rows: list = [None] * len(ordered)
    rows[0] = tuple(range(len(ordered)))
    for q, step in reached.items():
        if step is not None:
            p, k = step
            rows[index[q]] = through[k](rows[index[p]])
    return rows


def _check_limit(max_order: int) -> None:
    if max_order < 1:
        raise ValueError(f"the order limit must be positive, got {_echo(max_order)}")


def parse_group(text: str, max_order: int = DEFAULT_JORDAN_LIMIT) -> FiniteGroup:
    """Parse a group description.

    Two formats, chosen by the first line:

    * "perm <degree>" followed by one generator per line, written as the
      images of 1..degree.  The group is the closure of the generators;
      the product p*q acts by applying q first.
    * "table <n>" followed by n rows of n indices in 0..n-1, with the
      identity at index 0.

    Groups over max_order are refused before any table of them is built;
    a max_order below 1 is malformed input.
    """
    _check_limit(max_order)
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty group description")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header {_echo(lines[0])}, expected 'perm <n>' or 'table <n>'")
    kind, raw_size = header
    try:
        size = int(raw_size)
    except ValueError:
        raise ValueError(f"bad header size {_echo(raw_size)}") from None
    if size < 1:
        raise ValueError(f"header size must be positive, got {_echo(size)}")

    if kind == "perm":
        generators = [
            _parse_perm_line(ln, size, i + 2) for i, ln in enumerate(lines[1:])]
        if not generators:  # the trivial group, without a degree-long identity
            return FiniteGroup([[0]], check_associativity=False)
        reached = _perm_closure(generators, size, max_order)
        return FiniteGroup(_perm_table(reached, generators), check_associativity=False)

    if kind == "table":
        if size > max_order:
            raise OrderLimitError(f"group order {_echo(size)} exceeds limit {max_order}")
        rows = lines[1:]
        if len(rows) != size:
            raise ValueError(f"expected {size} table rows, got {len(rows)}")
        mult = []
        for i, ln in enumerate(rows):
            try:
                row = [int(t) for t in ln.split()]
            except ValueError:
                raise ValueError(f"table row {i} has non-integer entries") from None
            if any(not 0 <= x < size for x in row):
                raise ValueError(f"table row {i} has entries outside 0..{size - 1}")
            mult.append(row)
        return FiniteGroup(mult)

    raise ValueError(f"unknown format {kind!r}, expected 'perm' or 'table'")


def _cyclic_subgroups(mult, order) -> list[tuple[int, int]]:
    """Every nontrivial cyclic subgroup as (mask, smallest generator)."""
    cyclic: dict[int, int] = {}
    for g in range(1, order):
        mask, x = 1, g
        while x:
            mask |= 1 << x
            x = mult[x][g]
        cyclic.setdefault(mask, g)
    return list(cyclic.items())


def _join(mult, cols, bits, base, mask, gens) -> tuple[int, list[int]]:
    """Mask and elements of the subgroup K generated by gens, which include
    the generators of the subgroup H with elements base and mask.

    K is grown as a union of right cosets Hy.  Such a union contains the
    identity, and it is closed under right multiplication by the generators
    (hence is K) once y*s lies in it for every coset representative y and
    generator s, so the work is |K| + [K:H]*len(gens) table lookups.
    """
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


def all_subgroups(G: FiniteGroup, max_order: int = DEFAULT_JORDAN_LIMIT) -> list[Subgroup]:
    """Every subgroup, sorted by order then element list.

    Groups over max_order are refused: the lattice walk costs about
    (number of subgroups) x (number of cyclic subgroups) joins.
    """
    _check_limit(max_order)
    if G.order > max_order:
        raise OrderLimitError(
            f"group order {G.order} exceeds limit {max_order}")
    mult = G.mult
    cols = tuple(zip(*mult))
    bits = [1 << i for i in range(G.order)]
    cyclic = _cyclic_subgroups(mult, G.order)
    found: dict[int, tuple[list[int], tuple[int, ...]]] = {1: ([0], ())}
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


def _mask(elements) -> int:
    return sum(1 << e for e in elements)


def _abelian_largest_first(G: FiniteGroup, lattice) -> list[tuple[int, int, tuple[int, ...]]]:
    """The abelian subgroups of the lattice as (mask, order, generators),
    largest first: a subgroup is abelian when its generators commute."""
    mult = G.mult
    return [(_mask(A.elements), A.order, A.generators) for A in reversed(lattice)
            if all(mult[a][b] == mult[b][a] for a in A.generators for b in A.generators)]


def _min_index(G: FiniteGroup, fmask: int, order: int, conjugators, abelian) -> int:
    """Least index of a normal abelian subgroup of F, given by its mask, order
    and a generating set.  The first abelian subgroup, largest first, that
    lies in F and that every conjugator maps into itself (checking its
    generators suffices) attains it."""
    mult, inv = G.mult, G.inverses
    for amask, aorder, agens in abelian:
        if not amask & ~fmask and all(
                amask >> mult[mult[g][a]][inv[g]] & 1
                for g in conjugators for a in agens):
            return order // aorder
    return order


def jordan_constant_with_witness(
    G: FiniteGroup, max_order: int = DEFAULT_JORDAN_LIMIT
) -> tuple[int, Subgroup]:
    """Jordan constant of G plus the first subgroup attaining it.

    The witness is the first subgroup in (order, elements) order whose
    minimal normal abelian index equals the maximum.  The trivial subgroup
    has index 1, an abelian F has index 1 and no F has an index above its
    order, so only nonabelian F larger than the best so far are scanned.
    """
    lattice = all_subgroups(G, max_order)
    abelian = _abelian_largest_first(G, lattice)
    abelian_masks = {mask for mask, _, _ in abelian}
    best, witness = 1, lattice[0]
    for F in lattice:
        if F.order <= best:
            continue
        fmask = _mask(F.elements)
        if fmask in abelian_masks:
            continue
        value = _min_index(G, fmask, F.order, F.generators, abelian)
        if value > best:
            best = value
            witness = F
    return best, witness


def jordan_constant(G: FiniteGroup, max_order: int = DEFAULT_JORDAN_LIMIT) -> int:
    """Maximum over subgroups F of the minimal normal abelian index in F."""
    return jordan_constant_with_witness(G, max_order)[0]
