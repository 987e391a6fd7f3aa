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
that attains J.  For J = 1 it is the trivial subgroup, and otherwise a
supplement of A.  If F attains J, then J <= [F : A∩F] = [FA : A] <= J,
so FA = G, and B = A∩F is normalised by F and by the abelian A, hence
normal in G, with |F| = J |B|.  For generators t1..tk of G modulo A,
F = <B, t1 a1, ..., tk ak> for some aj in A that matter only through
their cosets aj B.  So B runs over the G-normal subgroups of A, unions
of classes found by the search for A, one order at a time from the
least; each choice of cosets is closed over B up to J cosets of it, and
the least nonabelian closure with no normal abelian subgroup larger than
B, at the first order that has one, is the witness.  For J = |G|, A is
trivial, so the witness has at least |G| elements and is G itself.

Three skips leave out only candidates that fail:
* a B centralised by some g whose coset generates a normal cyclic
  subgroup N/A != 1 of G/A, as a central coset does.  As FA = G, F∩N
  is B<f> for an f = ga in F, normal in F, abelian since A centralises
  B, and larger than B, so J(F) < J;
* lifts that commute with each other and with B, since F would be
  abelian, with J(F) = 1;
* the search for a normal abelian subgroup of a closed nonabelian F
  when J = 2, as one larger than B, of index 2, would be F itself.

Subgroups are int bitmasks over the element indices, so a subset test is
a & ~b == 0.  Every subgroup is grown by one closure, coset by coset over
a subgroup H that its generators normalise: the union of right cosets
Hy is closed under H, so it is the subgroup once it holds x*s for each
representative x and each generator s.  Over the trivial H it grows
element by element.  One search for A serves both J and the witness.

One order limit guards it all.  It is checked on a table's header,
during a permutation closure, and before any Jordan constant is computed.
"""
from __future__ import annotations

from itertools import product
from operator import eq, ge, itemgetter

from .errors import (DEFAULT_JORDAN_LIMIT, FrozenValue, OrderLimitError, _echo, _field_echo,
                     _instance)

_KNOB = "; raise it with --jordan-limit (max_order in the library)"


class FiniteGroup(FrozenValue, shown=("mult",)):
    """A finite group as a Cayley table over indices 0..order-1, compared
    by its table.  Index 0 is the identity.  The table is fully validated:
    every row and column must be a permutation of the indices, as ints, not
    bools, row and column 0 the identity, and associativity is checked by
    Light's test on a greedy generating set, naming the triple it fails at."""

    __slots__ = ("mult", "order", "inverses", "_cols", "_generators")

    def __init__(self, mult):
        mult = tuple(map(tuple, mult))
        _validate(mult)
        _light_test(_closed_group(mult, self))


def _closed_group(mult, G=None) -> FiniteGroup:
    """G, or a new FiniteGroup, with its fields set from mult, a tuple of table
    rows that form a group, which is not checked here: FiniteGroup checks its
    table around this call, and a permutation closure's is one by construction."""
    G = object.__new__(FiniteGroup) if G is None else G
    fields = (mult, len(mult), tuple(row.index(0) for row in mult), tuple(zip(*mult)))  # slot order
    for name, value in zip(FiniteGroup.__slots__, fields):
        object.__setattr__(G, name, value)
    object.__setattr__(G, "_generators", _greedy_generators(G, range(len(mult))))
    return G


def _validate(mult) -> None:
    n = len(mult)
    if n < 1:
        raise ValueError("a group table needs at least the identity")
    everything = frozenset(range(n))
    for i, row in enumerate(mult):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        if frozenset(row) != everything:
            raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*mult)):
        if frozenset(column) != everything:
            raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")
    if any(mult[0][j] != j for j in range(n)):
        raise ValueError("row 0 is not the identity")
    if any(mult[i][0] != i for i in range(n)):
        raise ValueError("column 0 is not the identity")
    for i, row in enumerate(mult):  # a float, Fraction or Decimal makes sum() no int
        if type(sum(row)) is not int or type(row[row.index(0)]) is bool or (  # a bool is 0 or 1
                n > 1 and type(row[row.index(1)]) is bool):
            raise ValueError(f"row {i} has non-integer entries")


def _light_test(G: FiniteGroup) -> None:
    """Light's test: the elements g with (x*g)*y = x*(g*y) for all x, y
    are closed under products, so checking a generating set suffices,
    one row comparison per x and generator; 0 passes on a validated table.
    A failure names (x, g, y): the first generator g and row x that fail,
    and the first column y where the rows of x*g and x*(g*_) differ."""
    mult = G.mult
    for g in G._generators:
        times_g = _times(mult[g])
        for x, row in enumerate(mult):
            if mult[row[g]] != times_g(row):
                y = list(map(eq, mult[row[g]], times_g(row))).index(False)
                raise ValueError(f"associativity fails at ({x}, {g}, {y})")


class Subgroup(FrozenValue, compared=("elements",)):
    """A subgroup by sorted element indices plus a generating set, which
    == and the hash ignore.  The elements are a tuple of distinct ints in
    ascending order from 0, the generators a tuple of ints."""

    __slots__ = ("elements", "generators")

    def __init__(self, elements: tuple[int, ...], generators: tuple[int, ...] = ()):
        ints = type(elements) is tuple and all(type(x) is int for x in elements)
        if not ints or elements[:1] != (0,) or any(map(ge, elements, elements[1:])):
            raise ValueError("subgroup elements must be a tuple of distinct ints in ascending "
                             f"order from 0, got {_field_echo(elements)}")
        if type(generators) is not tuple or not all(type(g) is int for g in generators):
            raise ValueError(f"subgroup generators must be a tuple of ints, got "
                             f"{_field_echo(generators)}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", generators)

    @property
    def order(self) -> int:
        return len(self.elements)


def _parse_perm_line(line: str, degree: int, lineno: int) -> tuple[int, ...]:
    tokens = line.split()
    if len(tokens) != degree:
        raise ValueError(
            f"line {lineno}: expected {_echo(degree)} images, got {len(tokens)}")
    try:
        images = tuple(int(t) - 1 for t in tokens)
    except ValueError:
        raise ValueError(f"line {lineno}: images must be integers") from None
    if sorted(images) != list(range(degree)):
        raise ValueError(f"line {lineno}: not a permutation of 1..{degree}")
    return images


def _parse_table_row(tokens, size: int, i: int) -> tuple[int, ...]:
    """Table row i from tokens that are not all plain indices: int() still
    accepts spellings such as 01, +3, 1_0 and Arabic-Indic digits, and a
    bad row is refused by what is wrong with it."""
    try:
        row = tuple([int(t) for t in tokens])
    except ValueError:
        raise ValueError(f"table row {i} has non-integer entries") from None
    if any(not 0 <= x < size for x in row):
        raise ValueError(f"table row {i} has entries outside 0..{size - 1}")
    return row


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
                            f"permutation closure exceeded {limit} elements{_KNOB}")
                    reached[q] = (p, k)
                    nxt.append(q)
        frontier = nxt
    return reached


def _perm_table(reached, generators) -> tuple:
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
    return tuple(rows)


def _check_limit(max_order: int) -> None:
    if type(max_order) is not int:
        raise ValueError(f"the order limit must be an integer, got {_echo(max_order)}")
    if max_order < 1:
        raise ValueError(f"the order limit must be positive, got {_echo(max_order)}")


def parse_group(text: str, max_order: int = DEFAULT_JORDAN_LIMIT) -> FiniteGroup:
    """Parse a group description.

    Two formats, chosen by the first line:

    * "perm <degree>" followed by one generator per line, written as the
      images of 1..degree.  The group is the closure of the generators;
      the product p*q acts by applying q first.
    * "table <n>" followed by n rows of n indices in 0..n-1, with the
      identity at index 0.  A row is decoded by one lookup of its tokens
      in a map from the spellings of 0..n-1; a row with another token
      goes through int(), which accepts it or names what is wrong.

    Groups over max_order are refused before any table of them is built;
    a max_order below 1 is malformed input.
    """
    _check_limit(max_order)
    lines = [ln.strip() for ln in _instance(text, str).splitlines()]
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
        if kind != "table" or not raw_size.isdecimal():
            raise ValueError(f"bad header size {_echo(raw_size)}") from None
        from decimal import Decimal  # exact past the int->str limit, in linear time
        size = Decimal(raw_size)
        size = int(size) if size <= max_order else size
    if size < 1:
        raise ValueError(f"header size must be positive, got {_echo(size)}")

    if kind == "perm":
        generators = [
            _parse_perm_line(ln, size, i + 2) for i, ln in enumerate(lines[1:])]
        if not generators:  # the trivial group, without a degree-long identity
            return _closed_group(((0,),))
        reached = _perm_closure(generators, size, max_order)
        return _closed_group(_perm_table(reached, generators))

    if kind == "table":
        if size > max_order:
            raise OrderLimitError(f"group order {_echo(size)} exceeds limit {max_order}{_KNOB}")
        rows = lines[1:]
        if len(rows) != size:
            raise ValueError(f"expected {size} table rows, got {len(rows)}")
        index = {str(i): i for i in range(size)}.__getitem__
        mult = []
        for i, ln in enumerate(rows):
            tokens = ln.split()
            try:
                mult.append(tuple(map(index, tokens)))
            except KeyError:
                mult.append(_parse_table_row(tokens, size, i))
        return FiniteGroup(mult)

    raise ValueError(f"unknown format {_echo(kind)}, expected 'perm' or 'table'")


def _closure(G: FiniteGroup, gens, start=(1, (0,)), limit=None):
    """The subgroup K generated by start, a subgroup H as (mask, elements)
    with the identity first, and gens, as (mask, elements), grown coset by
    coset; or None once it needs more than limit cosets of H.

    The union of right cosets Hy, each listed as h*y for h in H's order,
    is closed under H on the left, so it is K once x*s lies in it for every
    representative x and s in gens, if it is closed under H on the right
    too: when gens normalise H, or when H is generated by some of gens over
    a subgroup they normalise.  Over the trivial H each coset is one
    element.  That costs [K:H] * (|gens| + |H|) table lookups.
    """
    mult, cols = G.mult, G._cols
    mask, base = start
    reps, elements = [0], list(base)
    for x in reps:
        row = mult[x]
        for s in gens:
            y = row[s]
            if not mask >> y & 1:
                if len(reps) == limit:
                    return None
                col = cols[y]
                for h in base:
                    z = col[h]
                    mask |= 1 << z
                    elements.append(z)
                reps.append(y)
    return mask, elements


def _greedy_generators(G: FiniteGroup, elements, start=(1, (0,))) -> tuple[int, ...]:
    """The first of the elements outside the subgroup generated by start, a
    normal subgroup as (mask, elements), and those before it, added until
    that subgroup holds all of them; in a group, each one at least doubles
    it.  Each subgroup is closed over the one before."""
    gens = []
    for g in elements:
        if not start[0] >> g & 1:
            gens.append(g)
            start = _closure(G, gens, start)
    return tuple(gens)


def _commute(mult, elements) -> bool:
    return all(mult[a][b] == mult[b][a] for a in elements for b in elements)


def _conjugacy_classes(G: FiniteGroup, elements, gens) -> list[tuple[int, list[int]]]:
    """Each conjugacy class of the subgroup with these sorted elements and
    generators, as (mask, elements from the least one): its orbit under
    conjugation by the generators."""
    mult, inv = G.mult, G.inverses
    classes, seen = [], 0
    for c in elements:
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


def _class_unions(G: FiniteGroup, members, classes):
    """Each subgroup reached from the normal one with these elements by
    joining classes (mask, elements, mask of all that commute with them)
    one at a time, each to a subgroup its commuting mask holds, as levels:
    lists of (mask, elements) of one order, sorted by mask, least order
    first.  A join at least doubles a normal subgroup, so a level is
    complete once every smaller one has been extended.

    Each subgroup H reached is normal, so its join K with a class C is
    closed over H coset by coset, at |K| + [K:H]*|C| table lookups.
    """
    start = sum(1 << x for x in members)
    seen, levels = {start}, {len(members): [(start, members)]}
    while levels:
        level = sorted(levels.pop(min(levels)))
        yield level
        for mask, base in level:
            for omask, orbit, commuting in classes:
                if omask & ~mask and not mask & ~commuting:
                    bigger, grown = _closure(G, orbit, (mask, base))
                    if bigger not in seen:
                        seen.add(bigger)
                        levels.setdefault(len(grown), []).append((bigger, grown))


def _largest_normal_abelian(G: FiniteGroup, elements, gens) -> int:
    """Mask of a largest normal abelian subgroup of the subgroup F of G with
    these sorted elements and generators.

    Each one A lies in the normal abelian AZ, with Z the center, so the
    search runs over unions of conjugacy classes that contain Z.  A class
    C may join a normal abelian A when one element c of it commutes with A
    and with C (conjugation carries c to the rest), and then <A, C> is
    normal abelian again.  Every such subgroup is reached by adding its
    classes one at a time, in any order; a closure can swallow classes,
    so each subgroup found is extended by every class, not only by later
    ones.  The last union of the last level is the largest.
    """
    mult, cols = G.mult, G._cols
    center, classes = [], []
    for omask, orbit in _conjugacy_classes(G, elements, gens):
        c = orbit[0]
        if len(orbit) == 1:
            center.append(c)
            continue
        row, col = mult[c], cols[c]
        commuting = sum(1 << x for x in elements if row[x] == col[x])
        if not omask & ~commuting:
            classes.append((omask, orbit, commuting))
    *_, level = _class_unions(G, center, classes)
    return level[-1][0]


def _cyclic_centralisers(G: FiniteGroup, A: int, in_a, tops) -> list[int]:
    """For each coset gA != A of the normal abelian A, a mask with these
    sorted elements, that generates a normal cyclic subgroup of G/A, the
    mask of the elements of A that commute with g; tops generate G modulo
    A.  As A is abelian, each element of gA centralises the same part of A."""
    mult, inv = G.mult, G.inverses
    cosets = _closure(G, tops, (A, in_a))[1]  # A, then one coset of A after another
    centralisers = []
    for g in cosets[len(in_a)::len(in_a)]:
        cyclic = _closure(G, (g,), (A, in_a))[0]  # <g>A
        if all(cyclic >> mult[mult[inv[t]][g]][t] & 1 for t in tops):
            centralisers.append(sum(1 << a for a in in_a if mult[g][a] == mult[a][g]))
    return centralisers


def _least_supplement(G: FiniteGroup, value: int, A: int) -> Subgroup:
    """The witness when J = value is neither 1 nor |G|: the supplement
    search of the module docstring over the largest normal abelian A, a
    mask.  The B come one level of _class_unions at a time, and a level
    that holds a witness is never extended.  Each candidate F = <B, lifts>
    is closed over B from its lifts alone, which normalise it, and one
    that stops within value cosets of B has value * |B| elements, as it
    meets every coset of A, and meets A in B.

    The three skips of the module docstring leave out only candidates that
    fail: a B inside a centraliser from _cyclic_centralisers, whose F all
    have a normal abelian subgroup B<f> larger than B; lifts that commute
    with each other and with B, since F would be abelian; and, for value
    = 2, the search for a normal abelian subgroup of a closed F, whose
    only candidate larger than B would be the nonabelian F itself.  F = G,
    from B = A, passes unchecked too, since A is largest in G.
    """
    mult, n = G.mult, G.order
    in_a = [x for x in range(n) if A >> x & 1]
    tops = _greedy_generators(G, range(n), (A, in_a))
    centralisers = _cyclic_centralisers(G, A, in_a, tops)
    classes = [(omask, orbit, A) for omask, orbit in _conjugacy_classes(G, in_a, G._generators)]
    for level in _class_unions(G, [0], classes):
        size, found = len(level[0][1]), []
        for B in level:
            if any(not B[0] & ~c for c in centralisers):
                continue
            members = B[1]
            base = _greedy_generators(G, members)
            cosets, covered = [], set()
            for a in in_a:  # the least element of each coset aB comes first
                if a not in covered:
                    cosets.append(a)
                    covered.update(map(mult[a].__getitem__, members))
            for lifts in product(cosets, repeat=len(tops)):
                gens = base + tuple(mult[t][a] for t, a in zip(tops, lifts))
                if not _commute(mult, gens):
                    F = _closure(G, gens[len(base):], B, value)
                    if F is not None:
                        found.append((sorted(F[1]), gens))
        for elements, gens in sorted(found):
            if len(elements) == n or value == 2 or (
                    _largest_normal_abelian(G, elements, gens).bit_count() == size):
                return Subgroup(tuple(elements), gens)
    raise AssertionError("G itself is a witness")


def _jordan(G: FiniteGroup, max_order: int) -> tuple[int, int]:
    """J and the mask of a largest normal abelian subgroup A of G, from
    which J = |G| / |A|, once G passes the order limit."""
    _instance(G, FiniteGroup)
    _check_limit(max_order)
    if G.order > max_order:
        raise OrderLimitError(f"group order {G.order} exceeds limit {max_order}{_KNOB}")
    if _commute(G.mult, G._generators):
        return 1, (1 << G.order) - 1
    A = _largest_normal_abelian(G, range(G.order), G._generators)
    return G.order // A.bit_count(), A


def jordan_constant_with_witness(
    G: FiniteGroup, max_order: int = DEFAULT_JORDAN_LIMIT
) -> tuple[int, Subgroup]:
    """Jordan constant of G plus the first subgroup, in (order, elements)
    order, whose minimal normal abelian index attains it.  Past J = 1, it
    is a supplement F of a largest normal abelian A: J <= [F : A∩F] = [FA :
    A] <= J gives FA = G, so F is generated by the G-normal B = A∩F and a
    lift of each generator of G modulo A, and |F| = J |B|.  No case walks
    the subgroup lattice."""
    value, A = _jordan(G, max_order)
    if value == 1:
        return value, Subgroup((0,), ())
    if value == G.order:
        return value, Subgroup(tuple(range(G.order)), G._generators)
    return value, _least_supplement(G, value, A)


def jordan_constant(G: FiniteGroup, max_order: int = DEFAULT_JORDAN_LIMIT) -> int:
    """Maximum over subgroups F of the minimal normal abelian index in F,
    which is the least index of a normal abelian subgroup of G itself."""
    return _jordan(G, max_order)[0]
