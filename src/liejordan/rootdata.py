"""Exact root-system combinatorics for the simple Lie types A through G.

Everything is integer arithmetic.  Weights are written in the
fundamental-weight basis and coroots in the simple-coroot basis; the
Cartan matrix has entry [i][j] equal to the pairing of simple root i
against simple coroot j.  The Weyl dimension formula needs the
pairings <lambda + rho, c> with the positive coroots c, and a root datum
reads them off lambda + rho in its own coordinates:

* A-D: the orthonormal basis e_i of Bourbaki's Plates I-IV, doubled for
  B and D so the coordinates stay integers, where each pairing is
  x_i -+ x_j, a half of it, or x_i: O(rank) numbers in place of the
  rank * |positive roots| cells of the coroots.  B-D multiply x_i**2 - x_j**2
  for each pair x_i -+ x_j, and form per-coroot factors only for the digit guard;
* E-G: the pairings themselves, over the coroots that the reflection
  closure finds from the transposed Cartan matrix, at most 120.

Raising lambda_k adds one increment vector per node in either basis: the
epsilon vector of omega_k, or column k of the coroots.  The Cartan matrix
and the coroots of a datum are views, formed when read; the coroots of
every family come from the reflection closure.

Each family is declared once, as a _Family row of _FAMILIES whose fields,
ranks, bonds, roots, order, generators, fundamentals, cap and form, every
reader takes by name.  Nothing is cached: a datum goes with its last
reference.  The bonds fix the node numbering, 0-based in the table and
1-based in the notes below, which is Bourbaki's for A-D:

* A, B, C: a chain 1..l; for B the short simple root is node l, for C
  the long one is node l.
* D: a chain 1..(l-2) with both fork nodes l-1 and l attached to node
  l-2 (for l = 3 that means nodes 2 and 3 hang off node 1).
* E: a chain 1..(l-1) with node l attached to node l-3.
* F4: nodes 1, 2 short, nodes 3, 4 long.
* G2: node 1 short.

A Bourbaki-numbering conversion table is in the README; nothing in the
code depends on it.
"""
from __future__ import annotations

import itertools
import math
import os
from collections import namedtuple
from operator import add, sub

from .errors import (_FORMED_PER_PRINTED, FrozenValue, RankBudgetError, ResourceGuardError,
                     _digit_budget, _echo, _formed)

DEFAULT_MAX_RANK = 9
RANK_ENV_VAR = "LIEJORDAN_MAX_RANK"
DEFAULT_MAX_CELLS = 10_000_000
CELLS_ENV_VAR = "LIEJORDAN_MAX_CELLS"


def _chain(nodes: int) -> list[tuple[int, int, int, int]]:
    """Simple bonds joining nodes 0..nodes-1 in a row."""
    return [(i, i + 1, 1, 1) for i in range(nodes - 1)]


def _prefixes(size: int, scale: int, count: int) -> list[tuple[int, ...]]:
    """The vectors scale * (e_0 + ... + e_k), k < count, of the given size."""
    return [(scale,) * (k + 1) + (0,) * (size - k - 1) for k in range(count)]


def _differences(x: list[int]) -> list[int]:
    """x_i - x_j over the pairs i < j."""
    return list(itertools.starmap(sub, itertools.combinations(x, 2)))


def _pairs(x: list[int]) -> list[int]:
    """x_i - x_j, then x_i + x_j, over the pairs i < j."""
    return _differences(x) + list(itertools.starmap(add, itertools.combinations(x, 2)))


def _halves(x: list[int]) -> list[int]:
    """(x_i - x_j) / 2, then (x_i + x_j) / 2, over the pairs i < j, for x
    whose coordinates share a parity p: x_i = 2 h_i + p, so the halves are
    h_i - h_j and h_i + h_j + p."""
    h, p = [v >> 1 for v in x], x[0] & 1
    return _differences(h) + [a + b + p for a, b in itertools.combinations(h, 2)]


# One row per family (Bourbaki, Lie Groups and Lie Algebras, Ch. 4-6, Plates I-IX).  Past the
# rows below, field order matters only to the tests' frozen oracle, which reads row[5].
# ranks: the least rank for A-D, every rank for E-G.  Every other field is a function of l.
# bonds: Dynkin bonds (i, j, a, b), each setting the Cartan entries [i][j] = -a, [j][i] = -b.
# roots: the number of positive roots.  order: the center order d, the Cartan determinant.
# generators: of the center, integer vectors x mod d over the simple coroots, for classes x/d.
# fundamentals: dim V(omega_k) in node order, an exterior power of the defining
#   representation for A-D (its primitive part for C) or a spin one.
# cap: the least total dimension of a faithful set of fundamental weights: the defining
#   representation for A and C, the spin one for B and odd D, the vector and a half-spin one
#   for even D, and the least fundamental one, which is faithful, for E-G.
# form: for A-D (increments, factors, numerator), the vectors of omega_k in the orthonormal
#   basis e_i, doubled for B and D, and the maps from lambda + rho there to its Weyl factors
#   and to their product, which B-D form from x_i**2 - x_j**2 (over 4 for B and D, whose
#   coordinates share a parity, so a square is 0 or 1 mod 4: x_i**2 >> 2 - x_j**2 >> 2); None
#   for E-G, whose coroots come from the reflection closure.
_Family = namedtuple("_Family", "ranks bonds roots order generators fundamentals cap form")
_FAMILIES = {
    "A": _Family(1, _chain, lambda l: l * (l + 1) // 2, lambda l: l + 1,
                 lambda l: [tuple(range(1, l + 1))],
                 lambda l: [math.comb(l + 1, k) for k in range(1, l + 1)], lambda l: l + 1,
                 (lambda l: _prefixes(l + 1, 1, l), _differences,
                  lambda x: _product(_differences(x)))),
    "B": _Family(2, lambda l: _chain(l - 1) + [(l - 2, l - 1, 2, 1)], lambda l: l * l,
                 lambda l: 2, lambda l: [(0,) * (l - 1) + (1,)],
                 lambda l: [math.comb(2 * l + 1, k) for k in range(1, l)] + [2 ** l],
                 lambda l: 2 ** l,
                 (lambda l: _prefixes(l, 2, l - 1) + [(1,) * l], lambda x: _halves(x) + x,
                  lambda x: _product(_differences([a * a >> 2 for a in x]) + x))),
    "C": _Family(2, lambda l: _chain(l - 1) + [(l - 2, l - 1, 1, 2)], lambda l: l * l,
                 lambda l: 2, lambda l: [(1, 0) * (l // 2) + (1,) * (l % 2)],
                 lambda l: [2 * l] + [math.comb(2 * l, k) - math.comb(2 * l, k - 2)
                                      for k in range(2, l + 1)], lambda l: 2 * l,
                 (lambda l: _prefixes(l, 1, l), lambda x: _pairs(x) + x,
                  lambda x: _product(_differences([a * a for a in x]) + x))),
    "D": _Family(3, lambda l: _chain(l - 1) + [(l - 3, l - 1, 1, 1)], lambda l: l * (l - 1),
                 lambda l: 4, lambda l: [(0,) * (l - 2) + (2, 2),
                                         (2, 0) * (l // 2 - 1) + ((2, 1, 3) if l % 2 else (0, 2))],
                 lambda l: [math.comb(2 * l, k) for k in range(1, l - 1)] + [2 ** (l - 1)] * 2,
                 lambda l: 2 ** (l - 1) + (0 if l % 2 else 2 * l),
                 (lambda l: _prefixes(l, 2, l - 2) + [(1,) * (l - 1) + (-1,), (1,) * l], _halves,
                  lambda x: _product(_differences([a * a >> 2 for a in x])))),
    "E": _Family((6, 7, 8), lambda l: _chain(l - 1) + [(l - 4, l - 1, 1, 1)],
                 {6: 36, 7: 63, 8: 120}.get, {6: 3, 7: 2, 8: 1}.get,
                 {6: [(1, 2, 0, 1, 2, 0)], 7: [(1, 0, 1, 0, 0, 0, 1)], 8: []}.get,
                 {6: [27, 351, 2925, 351, 27, 78], 7: [56, 1539, 27664, 365750, 8645, 133, 912],
                  8: [248, 30380, 2450240, 146325270, 6899079264, 6696000, 3875, 147250]}.get,
                 {6: 27, 7: 56, 8: 248}.get, None),
    "F": _Family((4,), lambda l: [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)], lambda l: 24,
                 lambda l: 1, lambda l: [], lambda l: [26, 273, 1274, 52], lambda l: 26, None),
    "G": _Family((2,), lambda l: [(0, 1, 1, 3)], lambda l: 6, lambda l: 1, lambda l: [],
                 lambda l: [7, 14], lambda l: 7, None),
}


def _center(stype: SimpleType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, classes): the center order and the nonidentity central classes as sorted integer
    vectors x mod d, x standing for x/d mod 1, their count checked against d.  Each generator x
    adds its multiples k * x mod d until one is a class, and their sums with the earlier classes."""
    family = _FAMILIES[stype.family]
    d, zero = family.order(stype.rank), (0,) * stype.rank
    classes = {zero}
    for x in family.generators(stype.rank):
        multiples, k = [], 1
        while (shift := tuple([k * a % d for a in x])) not in classes:
            multiples.append(shift)
            k += 1
        classes.update(multiples, [tuple([(a + b) % d for a, b in zip(h, m)])
                                   for h in classes if any(h) for m in multiples])
    if len(classes) != d:
        raise AssertionError(f"{stype}: found {len(classes)} central classes, order is {d}")
    classes.discard(zero)
    return d, tuple(sorted(classes))


def _budget(env_var: str, default: int) -> int:
    """A positive integer budget, read from the environment on each call."""
    raw = os.environ.get(env_var)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{env_var} must be a positive integer, got {_echo(raw)}")
    return value


def max_rank() -> int:
    """Configured rank budget, read from the environment on each call."""
    return _budget(RANK_ENV_VAR, DEFAULT_MAX_RANK)


class SimpleType(FrozenValue):
    """A simple type label: family letter A..G plus rank."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if not isinstance(family, str) or family not in _FAMILIES:
            raise ValueError(f"unknown family {_echo(family)}, expected one of A..G")
        if type(rank) is not int:
            raise ValueError(f"rank must be an integer, got {_echo(rank)}")
        ranks = _FAMILIES[family].ranks
        if isinstance(ranks, int):
            if rank < ranks:
                raise ValueError(f"family {family} requires rank >= {ranks}, got {_echo(rank)}")
        elif rank not in ranks:
            allowed = ", ".join(map(str, ranks))
            raise ValueError(f"family {family} exists only in rank {allowed}, got {_echo(rank)}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class DominantWeight(FrozenValue):
    """A dominant integral weight: non-negative fundamental-weight coords."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        coords = tuple(coords) if iter(coords) is coords else coords  # an iterator is read once
        for c in coords:
            if type(c) is not int or c < 0:
                raise ValueError(
                    f"weight coordinates must be non-negative integers, got {_echo(coords)}")
        object.__setattr__(self, "coords", tuple(coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


def _cartan(stype: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the given type, entry [i][j] = <alpha_i, alpha_j^vee>,
    built from the family's bonds with no cell budget: a RootDatum checks it
    first, and RootDatum.cartan reads this."""
    l = stype.rank
    m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i, j, a, b in _FAMILIES[stype.family].bonds(l):
        m[i][j], m[j][i] = -a, -b
    return tuple(map(tuple, m))


def positive_root_count(stype: SimpleType) -> int:
    """Number of positive roots, by the classical closed forms."""
    return _FAMILIES[stype.family].roots(stype.rank)


def _positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots of the system with this Cartan matrix, as coordinate
    vectors over the simple roots, sorted by height then lexicographically.

    Reflection closure upwards: starting from the simple roots, apply each
    simple reflection s_j that raises the height, those with p[j] < 0 for
    the root's pairings p against the simple coroots.  Every positive root
    is reachable this way: a positive non-simple root b pairs positively
    with some simple coroot j, so s_j b is a positive root of lower height,
    and b is s_j of it, reached by a raising reflection.  Each root travels
    with its pairings: the image v - p[j] alpha_j pairs to
    p - p[j] * (row j).  Row j is nonzero only at j and its Dynkin
    neighbours, at most 4 entries, so the image's pairings are a copy of p
    with just those entries updated.  Over the transposed Cartan matrix the
    roots found are the positive coroots, the one way they are derived: the
    E-G datums' increments and every datum's positive_coroots view.
    """
    rank = len(cartan)
    simple = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    support = [[(k, b) for k, b in enumerate(row) if b] for row in cartan]
    found = set(simple)
    frontier = list(zip(simple, map(list, cartan)))
    while frontier:
        nxt = []
        for vec, pairing in frontier:
            for j, p in enumerate(pairing):
                if p >= 0:  # s_j keeps or lowers the height
                    continue
                image = list(vec)
                image[j] -= p
                image = tuple(image)
                if image not in found:
                    found.add(image)
                    moved = pairing.copy()
                    for k, b in support[j]:
                        moved[k] -= p * b
                    nxt.append((image, moved))
        frontier = nxt
    return sorted(found, key=lambda v: (sum(v), v))


def _product(values: list[int]) -> int:
    """The product of a list of integers.  Below 512 factors math.prod is faster; from there,
    multiplying in pairs round by round costs a few multiplications of the result's size where
    math.prod's steps cost its square.  512 is the crossover measured on Python 3.11 for factors
    of 5 to 48 bits: math.prod is 1.0-1.3x slower at 512 and 1.6-2.1x at 1024.  At 378-496, it
    is 1.1-1.35x faster on A's 5-bit factors and 1.0-1.3x slower on B-D's 10-13-bit ones."""
    if len(values) < 512:
        return math.prod(values)
    while len(values) > 1:
        values = [a * b for a, b in itertools.zip_longest(values[::2], values[1::2], fillvalue=1)]
    return values[0]


class RootDatum(FrozenValue, shown=("type",)):
    """A simple type with what the Weyl dimension formula and the center
    need of it, every field derived from the type.

    A weight lambda + rho is carried in the datum's own coordinates: the
    orthonormal ones of the epsilon form for A-D, its pairings with the
    positive coroots for E-G.  Raising lambda_k by one adds increment k
    (for E-G, column k of the coroots), the family's factors map the
    coordinates to the Weyl factors <lambda + rho, c> and its numerator to
    their product.  rho is the sum of the increments; its pairings, in
    ascending order, and their product, the Weyl formula's denominator, are
    derived on construction, and so is the center (d, classes) of _center.
    The Cartan matrix and the positive coroots are views, formed on each
    access; cartan is the one public reader of the Cartan matrix.
    """

    __slots__ = ("type", "rho_pairings", "rho_product", "center", "_rho", "_increments", "_factors",
                 "_numerator")

    def __init__(self, type: SimpleType):
        check_cell_budget(_instance(type, SimpleType))
        form = _FAMILIES[type.family].form
        if form:
            increments, factors, numerator = form[0](type.rank), form[1], form[2]
        else:
            increments = list(zip(*_positive_roots(tuple(zip(*_cartan(type))))))
            factors, numerator = list, _product
        rho = [sum(column) for column in zip(*increments)]
        pairings = sorted(factors(rho))
        expected = positive_root_count(type)
        if len(pairings) != expected:
            raise AssertionError(f"{type}: {len(pairings)} positive coroots, expected {expected}")
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "rho_pairings", tuple(pairings))
        object.__setattr__(self, "rho_product", _product(pairings))
        object.__setattr__(self, "center", _center(type))
        object.__setattr__(self, "_rho", tuple(rho))
        object.__setattr__(self, "_increments", tuple(increments))
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_numerator", numerator)

    @property
    def rank(self) -> int:
        return self.type.rank

    @property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        return _cartan(self.type)

    @property
    def positive_coroots(self) -> _CorootView:
        return _CorootView(self)


class _CorootView:
    """The positive coroots of a root datum over the simple coroots, by
    height and then lexicographically, as a read-only sequence equal to
    the tuple of them.  Its length is the closed-form root count, which
    forms nothing; the coroots are formed on each read, as the roots of the
    transposed Cartan matrix that the reflection closure finds."""

    __slots__ = ("_datum",)

    def __init__(self, datum: RootDatum):
        self._datum = datum

    def _formed(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_positive_roots(tuple(zip(*_cartan(self._datum.type)))))

    def __len__(self) -> int:
        return positive_root_count(self._datum.type)

    def __iter__(self):
        return iter(self._formed())

    def __getitem__(self, index):
        return self._formed()[index]

    def __eq__(self, other):
        return self._formed() == (other._formed() if isinstance(other, _CorootView) else other)

    def __hash__(self):
        return hash(self._formed())

    def __repr__(self) -> str:
        return repr(self._formed())


def build_root_datum(stype: SimpleType) -> RootDatum:
    """The root datum of a simple type, refused past the cell budget before
    anything is built: O(rank**2) numbers for A-D, and at most 120 coroots
    for E-G.  Its count of Weyl factors is checked against the closed-form
    root count, so a wrong table entry or matrix cannot slip through quietly."""
    return RootDatum(stype)


def _weyl_dim(datum: RootDatum, coords, x) -> int:
    """Weyl dimension of coords (any rank integers) from x = coords + rho in
    the datum's basis: the product of the factors <coords + rho, c> over the
    positive coroots c, over that of the <rho, c>.  A factor is at most (max
    coordinate + 1) times <rho, c>, so at most that times the last of the
    ascending rho_pairings.  Short answers clear the digit guard at once, and
    the family's numerator multiplies their factors, for B-D as
    x_i**2 - x_j**2; longer ones go to _guarded_weyl_dim as per-coroot factors.
    """
    rho = datum.rho_pairings
    top = (max(coords) + 1).bit_length() + rho[-1].bit_length()
    if len(rho) * top <= 3 * _FORMED_PER_PRINTED * _digit_budget():  # 8**k < 10**k
        return _quotient(datum, coords, datum._numerator(x))
    return _guarded_weyl_dim(datum, coords, datum._factors(x))


def _guarded_weyl_dim(datum: RootDatum, coords, factors) -> int:
    """Weyl dimension of coords from its factors <coords + rho, c>, refused when it has more
    digits than exact integers are kept with: before their product is formed when the factors
    show it (a factor f is at least 2**(f.bit_length() - 1)), else after."""
    bits = sum(f.bit_length() - 1 - r.bit_length() for f, r in zip(factors, datum.rho_pairings))
    return _formed(bits, lambda: _quotient(datum, coords, _product(factors)))


def _quotient(datum: RootDatum, coords, numerator: int) -> int:
    """The Weyl numerator of coords over rho_product, which divides it."""
    dim, rem = divmod(numerator, datum.rho_product)
    if rem:
        raise AssertionError(f"non-integral dimension for {datum.type} at {_echo(coords)}")
    return dim


def weyl_dim(datum: RootDatum, weight: DominantWeight) -> int:
    """Dimension of the irreducible representation with this highest weight,
    by the Weyl dimension formula.  A dimension with more decimal digits
    than ten times CPython's int->str limit (its default, when the limit is
    off) raises ResourceGuardError, before the product is formed when its
    factors already show the size."""
    _instance(datum, RootDatum)
    coords = _instance(weight, DominantWeight).coords
    if len(coords) != datum.rank:
        raise ValueError(
            f"weight has {len(coords)} coordinates, type {datum.type} has rank {datum.rank}")
    x = list(datum._rho)
    for c, increment in zip(coords, datum._increments):
        if c:
            x = [a + c * b for a, b in zip(x, increment)]
    return _weyl_dim(datum, coords, x)


def enumerate_dominant_weights(
    datum: RootDatum, cap: int, allow_large_cap: bool = False
) -> list[tuple[DominantWeight, int]]:
    """All nonzero dominant weights with dimension <= cap, with dimensions.

    Sorted by dimension, then lexicographically by coordinates.  The
    search raises one coordinate pos at a time, then only those past it,
    and keeps each vector once, as it reaches it; the dimension is strictly
    monotone in each coordinate, so raising pos stops at the first vector
    over the cap.  coords + rho travels down the search in the datum's own
    basis, where raising coordinate pos by one adds increment pos: an
    epsilon vector for A-D, a coroot column for E-G, which the family's
    factors map to the Weyl factors of each probe.

    Two lower bounds on lambda + omega_pos, lambda = coords, which every
    completion raising pos is at least, stop the search before a probe.
    Each Weyl ratio <lambda + mu + rho, c> / <rho, c> of dominant lambda, mu
    is 1 + x_c + y_c, with x_c = <lambda, c> / <rho, c> >= 0, y_c likewise.
    (1) The product holds every monomial of prod(1 + x_c) and prod(1 + y_c),
    the constant 1 once, so dim(lambda + mu) >= dim(lambda) + dim(mu) - 1:
    pos is raised no further once dim + dim(omega_pos) - 1 > cap.  (2) For
    A-D, lambda lives below start, and nodes start..rank-1 span a Levi L of
    the family at rank rank - start (B1 and C1 are A1, D2 is A1 x A1, D1's
    entry 1 never prunes).  On L's coroots x_c = 0 and <rho, c> = <rho_L, c>,
    so those ratios multiply to dim_L(omega_pos); the rest, each at least
    1 + x_c, multiply to at least dim(lambda).  So pos is skipped when
    dim * dim_L(omega_pos) > cap; E-G keep (1) alone.  The family's
    fundamentals give both (at rank - start for L) and each fundamental
    weight's dimension, so no fundamental weight is ever probed.

    Caps above 2**max_rank() + 10 are refused unless allow_large_cap is
    True, to keep accidental huge searches from running away.  rdim
    searches under the family's cap, which never passes 2**rank + 10.
    """
    _instance(datum, RootDatum)
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {_echo(cap)}")
    _check_flag("allow_large_cap", allow_large_cap)
    budget = max_rank()
    # A cap of at most budget bits is below 2**budget: no need to form it.
    if not allow_large_cap and cap.bit_length() > budget and cap > 2 ** budget + 10:
        raise RankBudgetError(f"cap {_echo(cap)} exceeds budget {_echo(2 ** budget + 10)}; "
                              "pass allow_large_cap=True to override")
    rank = datum.rank
    family = _FAMILIES[datum.type.family]
    steps = list(zip(datum._increments, family.fundamentals(rank)))
    coords = [0] * rank
    out: list[tuple[DominantWeight, int]] = []

    def extend(start: int, x: list[int], dim: int):
        # coords[start:] are zero; x is coords + rho in the datum's basis, and
        # dim (at most cap) is its dimension; at start 0, bound (2) is (1).
        levi = family.fundamentals(rank - start) if family.form and 0 < start < rank else None
        for pos in range(start, rank):
            if levi and dim * levi[pos - start] > cap:  # bound (2): no completion fits
                continue
            increment, fundamental = steps[pos]  # omega_pos in the datum's basis, dim(omega_pos)
            raised, grown = x, dim
            for value in itertools.count(1):
                if grown + fundamental - 1 > cap:  # no completion of coords + omega_pos fits
                    break
                coords[pos] = value
                raised = list(map(add, raised, increment))
                # Only the zero weight has dimension 1, so then coords is omega_pos.
                grown = fundamental if grown == 1 else _weyl_dim(datum, coords, raised)
                if grown > cap:
                    break
                out.append((DominantWeight(tuple(coords)), grown))
                extend(pos + 1, raised, grown)
            coords[pos] = 0

    extend(0, list(datum._rho), 1)
    out.sort(key=lambda pair: (pair[1], pair[0].coords))
    return out


def check_cell_budget(stype: SimpleType):
    """Refuse a type whose data would pass the cell budget, from the family
    table before any of it is built: rank**2 Cartan cells, d * rank cells
    for the d center classes and |positive roots| * rank coroot cells."""
    family, l = _FAMILIES[stype.family], stype.rank
    cells = l * (l + family.order(l) + family.roots(l))
    budget = _budget(CELLS_ENV_VAR, DEFAULT_MAX_CELLS)
    if cells > budget:
        raise ResourceGuardError(
            f"type {stype.family}{_echo(l)} takes {_echo(cells)} cells (Cartan matrix, center "
            f"classes and coroots), more than the budget of {_echo(budget)}; "
            f"set {CELLS_ENV_VAR} to raise it")


def _instance(value, cls):
    """value, refused unless it is an instance of cls: a root-system argument of the wrong type."""
    if not isinstance(value, cls):
        raise ValueError(f"expected a {cls.__name__}, got {_echo(value)}")
    return value


def _check_flag(name: str, value) -> None:
    """Refuse a flag that is not a bool, since any object has a truth value."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be True or False, got {_echo(value)}")


def check_rank_budget(stype: SimpleType, override: bool = False):
    """Refuse ranks over the configured budget unless overridden."""
    budget = max_rank()
    if stype.rank > budget and not override:
        raise RankBudgetError(
            f"rank {_echo(stype.rank)} exceeds budget {budget}; "
            f"set {RANK_ENV_VAR} to raise it (override=True in the library)")
