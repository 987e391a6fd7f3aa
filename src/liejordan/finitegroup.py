"""Exact Jordan constants of explicit finite groups.

A group arrives either as a Cayley table or as permutation generators
and is normalised to a table with the identity at index 0.  The Jordan
constant is the maximum over all subgroups F of the minimal index of a
normal abelian subgroup of F; it is 1 exactly for abelian groups, and
the group order itself is the trivial boundedness constant.

The maximum is attained at F = G.  If A is normal abelian in G and
F <= G, then A∩F is normal abelian in F and [F : A∩F] = [FA : A] <=
[G : A].  So J(G) = |G| / |A| for a largest normal abelian subgroup A of
G (Popov, Jordan groups and automorphism groups of algebraic varieties,
2014), found among unions of conjugacy classes without any subgroup
lattice.  The witness is the first subgroup in (order, elements) order
that attains J.  No subgroup exceeds J, an abelian one has index 1 and a
nonabelian one at least 2, so:

* J = 1: the trivial subgroup;
* J = |G|: G itself, the only subgroup that large;
* J = 2: the least nonabelian subgroup, which two noncommuting elements
  generate;
* otherwise the first F of the lattice walk that attains J.

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
it is checked on a table's header, during a permutation closure, and
before any Jordan constant is computed.
"""
from __future__ import annotations

from operator import itemgetter

from .errors import DEFAULT_JORDAN_LIMIT, FrozenValue, OrderLimitError, _echo


class FiniteGroup:
    """A finite group as a Cayley table over indices 0..order-1.

    Index 0 is the identity.  Table input is fully validated: every row
    and column must be a permutation, row and column 0 the identity,
    and associativity is checked by Light's test on a greedy generating
    set.  Groups built from permutation generators skip the associativity
    check, which holds by construction.
    """

    def __init__(self, mult, check_associativity: bool = True):
        self.mult = tuple(tuple(row) for row in mult)
        self.order = len(self.mult)
        self._validate()
        self._generators = _greedy_generators(self.mult)
        if check_associativity:
            self._check_associativity()
        self.inverses = tuple(row.index(0) for row in self.mult)

    def _validate(self):
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

    def _check_associativity(self):
        """Light's test: the elements g with (x*g)*y = x*(g*y) for all x, y
        are closed under products, so checking a generating set suffices,
        one row comparison per x and generator.  On failure the full scan
        names the first failing triple."""
        mult = self.mult
        for g in self._generators:
            times_g = _times(mult[g])
            if any(mult[row[g]] != times_g(row) for row in mult):
                break
        else:
            return
        n = self.order
        for a in range(n):
            row_a = mult[a]
            for b in range(n):
                row_ab = mult[row_a[b]]
                row_b = mult[b]
                for c in range(n):
                    if row_ab[c] != row_a[row_b[c]]:
                        raise ValueError(f"associativity fails at ({a}, {b}, {c})")


class Subgroup(FrozenValue, compared=("elements",)):
    """A subgroup by sorted element indices plus a generating set, which
    == and the hash ignore."""

    __slots__ = ("elements", "generators")

    def __init__(self, elements: tuple[int, ...], generators: tuple[int, ...] = ()):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", generators)

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


def _check_order(G: FiniteGroup, max_order: int) -> None:
    _check_limit(max_order)
    if G.order > max_order:
        raise OrderLimitError(
            f"group order {G.order} exceeds limit {max_order}")


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


def _closure(mult, gens, limit):
    """Mask and elements of the closure of the identity under right
    multiplication by gens, the subgroup they generate in a group, or
    None once it outgrows limit elements."""
    mask, reached = 1, [0]
    for x in reached:
        row = mult[x]
        for s in gens:
            y = row[s]
            if not mask >> y & 1:
                if len(reached) == limit:
                    return None
                mask |= 1 << y
                reached.append(y)
    return mask, reached


def _greedy_generators(mult) -> tuple[int, ...]:
    """The least element outside the closure of those before it, added
    until the closure of the identity under right multiplication by them
    is the whole table; in a group, each one at least doubles it."""
    gens, mask = [], 1
    for g in range(1, len(mult)):
        if not mask >> g & 1:
            gens.append(g)
            mask = _closure(mult, gens, len(mult))[0]
    return tuple(gens)


def _join(mult, cols, bits, base, mask, gens) -> tuple[int, list[int]]:
    """Mask and elements of the subgroup K generated by the subgroup H with
    elements base and mask and by gens, which include the generators of H
    unless H is normal.

    K is grown as a union of right cosets Hy.  Such a union contains the
    identity, and it is closed under right multiplication by the generators
    (hence is K) once y*s lies in it for every coset representative y and
    generator s, so the work is |K| + [K:H]*len(gens) table lookups.  A
    union of cosets of a normal H is closed under H as well.
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
    _check_order(G, max_order)
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


def _commute(mult, elements) -> bool:
    return all(mult[a][b] == mult[b][a] for a in elements for b in elements)


def _abelian_largest_first(G: FiniteGroup, lattice) -> list[tuple[int, int, tuple[int, ...]]]:
    """The abelian subgroups of the lattice as (mask, order, generators),
    largest first: a subgroup is abelian when its generators commute."""
    return [(_mask(A.elements), A.order, A.generators) for A in reversed(lattice)
            if _commute(G.mult, A.generators)]


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


def _conjugacy_classes(G: FiniteGroup) -> list[tuple[int, list[int]]]:
    """Each conjugacy class as (mask, elements from the least one): its
    orbit under conjugation by the generators."""
    mult, inv, gens = G.mult, G.inverses, G._generators
    classes, seen = [], 0
    for c in range(G.order):
        if not seen >> c & 1:
            orbit, omask = [c], 1 << c
            for x in orbit:
                for g in gens:
                    y = mult[mult[g][x]][inv[g]]
                    if not omask >> y & 1:
                        omask |= 1 << y
                        orbit.append(y)
            seen |= omask
            classes.append((omask, orbit))
    return classes


def _largest_normal_abelian(G: FiniteGroup) -> int:
    """Order of the largest normal abelian subgroup of G.

    Each one A lies in the normal abelian AZ, with Z the center, so the
    search runs over unions of conjugacy classes that contain Z.  A class
    C may join a normal abelian A when one element c of it commutes with A
    and with C (conjugation carries c to the rest), and then <A, C> is
    normal abelian again.  Every such subgroup is reached by adding its
    classes one at a time, in any order; a closure can swallow classes,
    so each subgroup found is extended by every class, not only by later
    ones.
    """
    mult, n = G.mult, G.order
    cols = tuple(zip(*mult))
    bits = [1 << i for i in range(n)]
    center, classes = [], []
    for omask, orbit in _conjugacy_classes(G):
        c = orbit[0]
        if len(orbit) == 1:
            center.append(c)
            continue
        row, col = mult[c], cols[c]
        commuting = sum(bits[x] for x in range(n) if row[x] == col[x])
        if not omask & ~commuting:
            classes.append((omask, orbit, commuting))
    start = _mask(center)
    found, stack = {start}, [(start, center)]
    while stack:
        mask, elements = stack.pop()
        for omask, orbit, commuting in classes:
            if omask & ~mask and not mask & ~commuting:
                bigger, grown = _join(mult, cols, bits, elements, mask, orbit)
                if bigger not in found:
                    found.add(bigger)
                    stack.append((bigger, grown))
    return max(map(int.bit_count, found))


def _least_nonabelian(G: FiniteGroup) -> Subgroup:
    """The first nonabelian subgroup in (order, elements) order.

    Any two of its elements that do not commute generate it: they generate
    a nonabelian subgroup of it, which cannot be smaller.  So its order m
    is the least order of a subgroup <a, b> with ab != ba.  Conjugation
    preserves orders, so the first pass
    finds m with a a class representative, and a closure stops as soon as
    it outgrows the least order so far (past |G|/2 it is G).  The second
    pass looks for the least elements among the subgroups of order m, and
    skips a pair inside one already found, since it generates that one.
    """
    mult, n = G.mult, G.order
    cols = tuple(zip(*mult))
    m, first = n, None
    for _, orbit in _conjugacy_classes(G):
        a = orbit[0]
        row, col = mult[a], cols[a]
        for b in range(1, n):
            if row[b] != col[b]:
                first = first or (a, b)
                closed = _closure(mult, (a, b), min(m - 1, n // 2))
                if closed is not None:
                    m = len(closed[1])
    if m == n:
        return Subgroup(tuple(range(n)), first)
    best, within = None, [0] * n  # within[x]: the subgroups found that hold x
    for a in range(1, n):
        row, col = mult[a], cols[a]
        for b in range(a + 1, n):
            if row[b] != col[b] and not within[a] >> b & 1:
                closed = _closure(mult, (a, b), m)
                if closed is not None:
                    mask, elements = closed
                    for x in elements:
                        within[x] |= mask
                    elements.sort()
                    if best is None or elements < best[0]:
                        best = elements, (a, b)
    elements, pair = best
    return Subgroup(tuple(elements), pair)


def jordan_constant_with_witness(
    G: FiniteGroup, max_order: int = DEFAULT_JORDAN_LIMIT
) -> tuple[int, Subgroup]:
    """Jordan constant of G plus the first subgroup, in (order, elements)
    order, whose minimal normal abelian index attains it.  The module
    docstring says why J = 1, |G| and 2 need no subgroup lattice."""
    value = jordan_constant(G, max_order)
    if value == 1:
        return value, Subgroup((0,), ())
    if value == G.order:
        return value, Subgroup(tuple(range(G.order)), G._generators)
    if value == 2:
        return value, _least_nonabelian(G)
    lattice = all_subgroups(G, max_order)
    abelian = _abelian_largest_first(G, lattice)
    return value, next(
        F for F in lattice
        if F.order >= value and not _commute(G.mult, F.generators)
        and _min_index(G, _mask(F.elements), F.order, F.generators, abelian) == value)


def jordan_constant(G: FiniteGroup, max_order: int = DEFAULT_JORDAN_LIMIT) -> int:
    """Maximum over subgroups F of the minimal normal abelian index in F,
    which is the least index of a normal abelian subgroup of G itself."""
    _check_order(G, max_order)
    if _commute(G.mult, G._generators):
        return 1
    return G.order // _largest_normal_abelian(G)
