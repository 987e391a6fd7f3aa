"""Exact root-system combinatorics for the simple Lie types A through G.

Everything is integer arithmetic on coordinate vectors: weights are
written in the fundamental-weight basis, coroots in the simple-coroot
basis, and the pairing of a weight with a coroot is then a plain dot
product.  The Cartan matrix is stored with entry [i][j] equal to the
pairing of simple root i against simple coroot j.  The positive coroots
of A-D are written out from their closed form, and those of E-G come from
the reflection closure over the transposed Cartan matrix.

Each family is declared once, in _FAMILIES: ranks, Dynkin bonds, number
of positive roots, and center order and generators, which _center closes
into the classes each RootDatum carries.  Nothing is cached: a datum goes
with its last reference.  The bonds fix the node numbering, 0-based in
the table and 1-based in the notes below:

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
from operator import add, mul

from .errors import (_FORMED_PER_PRINTED, FrozenValue, RankBudgetError, ResourceGuardError,
                     _digit_budget, _echo, _field_echo, _formed)

DEFAULT_MAX_RANK = 9
RANK_ENV_VAR = "LIEJORDAN_MAX_RANK"
DEFAULT_MAX_CELLS = 10_000_000
CELLS_ENV_VAR = "LIEJORDAN_MAX_CELLS"


def _chain(nodes: int) -> list[tuple[int, int, int, int]]:
    """Simple bonds joining nodes 0..nodes-1 in a row."""
    return [(i, i + 1, 1, 1) for i in range(nodes - 1)]


# Family letter -> (ranks, bonds, positive-root count, center order, center
# generators).  The ranks are the least one for A-D and all of them for E-G;
# a bond (i, j, a, b) sets the Cartan entries [i][j] = -a and [j][i] = -b;
# the center order is the Cartan determinant d, and each generator of the
# center is a class over the simple coroots, an integer vector x mod d
# standing for x/d.  Bourbaki, Lie Groups and Lie Algebras, Ch. 4-6, Plates I-IX.
_FAMILIES = {
    "A": (1, _chain, lambda l: l * (l + 1) // 2, lambda l: l + 1,
          lambda l: [tuple(range(1, l + 1))]),
    "B": (2, lambda l: _chain(l - 1) + [(l - 2, l - 1, 2, 1)], lambda l: l * l,
          lambda l: 2, lambda l: [(0,) * (l - 1) + (1,)]),
    "C": (2, lambda l: _chain(l - 1) + [(l - 2, l - 1, 1, 2)], lambda l: l * l,
          lambda l: 2, lambda l: [(1, 0) * (l // 2) + (1,) * (l % 2)]),
    "D": (3, lambda l: _chain(l - 1) + [(l - 3, l - 1, 1, 1)], lambda l: l * (l - 1),
          lambda l: 4, lambda l: [(0,) * (l - 2) + (2, 2),
                                  (2, 0) * (l // 2 - 1) + ((2, 1, 3) if l % 2 else (0, 2))]),
    "E": ((6, 7, 8), lambda l: _chain(l - 1) + [(l - 4, l - 1, 1, 1)],
          {6: 36, 7: 63, 8: 120}.get, {6: 3, 7: 2, 8: 1}.get,
          {6: [(1, 2, 0, 1, 2, 0)], 7: [(1, 0, 1, 0, 0, 0, 1)], 8: []}.get),
    "F": ((4,), lambda l: [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)], lambda l: 24,
          lambda l: 1, lambda l: []),
    "G": ((2,), lambda l: [(0, 1, 1, 3)], lambda l: 6, lambda l: 1, lambda l: []),
}


def _center(stype: SimpleType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, classes): the center order and the nonidentity central classes
    as sorted integer vectors x mod d, x standing for x/d mod 1, closed
    coset by coset from the family table's generators; the count is checked against d."""
    *_, order, generators = _FAMILIES[stype.family]
    d, zero = order(stype.rank), (0,) * stype.rank
    group, classes = [zero], {zero}
    for x in generators(stype.rank):
        shift, added = x, []
        while shift not in classes:
            coset = [tuple([(a + b) % d for a, b in zip(h, shift)]) for h in group]
            classes.update(coset)
            added += coset
            shift = tuple([(a + b) % d for a, b in zip(shift, x)])
        group += added
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
        ranks = _FAMILIES[family][0]
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


def cartan_matrix(stype: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the given type; entry [i][j] = <alpha_i, alpha_j^vee>.
    Every type's data starts here, so the cell budget is checked here first."""
    check_cell_budget(stype)
    l = stype.rank
    bonds = _FAMILIES[stype.family][1](l)
    m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i, j, a, b in bonds:
        m[i][j], m[j][i] = -a, -b
    return tuple(map(tuple, m))


def positive_root_count(stype: SimpleType) -> int:
    """Number of positive roots, by the classical closed forms."""
    return _FAMILIES[stype.family][2](stype.rank)


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
    with just those entries updated.
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


def _classical_coroots(stype: SimpleType) -> list[tuple[int, ...]]:
    """Positive coroots of A_l-D_l over the simple coroots, from their closed
    form, in the order _positive_roots gives them: by height, then
    lexicographically.

    The coroots of A and D are their roots, those of B the roots of C and
    those of C the roots of B (Bourbaki, Lie Groups and Lie Algebras,
    Plates I-IV).  With z(n), o(n), t(n) runs of n zeros, ones and twos, the
    coroots are, for each i < l:
      * the runs z(i) o(a) z(l-i-a), 1 <= a < l-i, which miss the last node;
      * z(i) o(m-i-k) t(k) s for a suffix s, m = l - len(s), and
        k = 0 .. K twos: s = (), K = 0 for A (the runs to the last node);
        s = (1,), K = m-i for B; s = (), K = m-i-1 for C; s = (1, 1),
        K = m-i-1 for D;
      * for D and i <= l-2, the fork z(i) o(l-2-i) (0, 1).
    Their heights a, m-i+k+sum(s) and l-1-i differ at one i, save the fork
    and the run z(i) o(l-1-i) (0,), which it precedes; each starts at node
    i, save the fork at i = l-2, which starts at l-1 where D has no other.
    So walking i downwards and adding each coroot to the list of its height
    leaves every list in lexicographic order, with no sort.
    """
    family, l = stype.family, stype.rank
    suffix = {"A": (), "B": (1,), "C": (), "D": (1, 1)}[family]
    m, lift = l - len(suffix), sum(suffix)
    by_height = [[] for _ in range(2 * l)]
    for i in range(l - 1, -1, -1):
        zeros = (0,) * i
        if family == "D" and i <= l - 2:
            by_height[l - 1 - i].append(zeros + (1,) * (l - 2 - i) + (0, 1))
        for a in range(1, l - i):
            by_height[a].append(zeros + (1,) * a + (0,) * (l - i - a))
        for k in range({"A": 1, "B": m - i + 1}.get(family, m - i)):
            by_height[m - i + k + lift].append(
                zeros + (1,) * (m - i - k) + (2,) * k + suffix)
    return [coroot for level in by_height for coroot in level]


def _product(values) -> int:
    """The product of integers, multiplied in pairs round by round: a few
    multiplications of the result's size, where math.prod's left-to-right
    steps cost the square of that size."""
    values = list(values) or [1]
    while len(values) > 1:
        values = [a * b for a, b in itertools.zip_longest(values[::2], values[1::2], fillvalue=1)]
    return values[0]


class RootDatum(FrozenValue, shown=("type",), compared=("type", "cartan", "positive_coroots")):
    """A simple type together with its Cartan matrix and positive coroots.

    Coroot vectors are coordinates in the simple-coroot basis, so the
    pairing of a weight lambda with a coroot c is sum(lambda_i * c_i).
    rho pairs to the coordinate sum of c; those pairings and their product,
    the denominator of the Weyl dimension formula, are derived on
    construction, and so is the center (d, classes) of _center.
    """

    __slots__ = ("type", "cartan", "positive_coroots", "rho_pairings", "rho_product", "center")

    def __init__(self, type: SimpleType, cartan: tuple[tuple[int, ...], ...],
                 positive_coroots: tuple[tuple[int, ...], ...]):
        pairings = tuple(map(sum, positive_coroots))
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "positive_coroots", positive_coroots)
        object.__setattr__(self, "rho_pairings", pairings)
        object.__setattr__(self, "rho_product", _product(pairings))
        object.__setattr__(self, "center", _center(type))

    @property
    def rank(self) -> int:
        return self.type.rank


def build_root_datum(stype: SimpleType) -> RootDatum:
    """Construct the root datum for a simple type, refused past the cell
    budget (by cartan_matrix) before anything is built.

    The positive coroots are the positive roots of the dual system, whose
    Cartan matrix is the transpose of this one: written out by their closed
    form for A-D, and by the reflection closure over that matrix for E-G.
    The count is checked against the classical closed form, so a wrong
    matrix cannot slip through quietly.
    """
    cartan = cartan_matrix(stype)
    if stype.family in "ABCD":
        coroots = _classical_coroots(stype)
    else:
        coroots = _positive_roots(tuple(zip(*cartan)))
    expected = positive_root_count(stype)
    if len(coroots) != expected:
        raise AssertionError(f"{stype}: {len(coroots)} positive coroots, expected {expected}")
    return RootDatum(stype, cartan, tuple(coroots))


def _weyl_dim(datum: RootDatum, coords, factors) -> int:
    """Weyl dimension of coords (any rank integers) from its factors
    <coords + rho, c> over the positive coroots c: their product over that
    of the <rho, c>.

    A quotient with more digits than exact integers are kept with is
    refused, before the product is formed when the factors show it (a
    factor f is at least 2**(f.bit_length() - 1)).  A factor is at most
    (max coordinate + 1) times the highest coroot height, the last
    coroot's: short answers clear at once, longer ones multiply in pairs.
    """
    rho = datum.rho_pairings

    def quotient(product=math.prod) -> int:
        dim, rem = divmod(product(factors), datum.rho_product)
        if rem:
            raise AssertionError(f"non-integral dimension for {datum.type} at {_echo(coords)}")
        return dim

    top = (max(coords) + 1).bit_length() + rho[-1].bit_length()
    if len(rho) * top <= 3 * _FORMED_PER_PRINTED * _digit_budget():  # 8**k < 10**k
        return quotient()
    return _formed(sum(f.bit_length() - 1 - r.bit_length()
                       for f, r in zip(factors, rho)), lambda: quotient(_product))


def weyl_dim(datum: RootDatum, weight: DominantWeight) -> int:
    """Dimension of the irreducible representation with this highest weight,
    by the Weyl dimension formula.  A dimension with more decimal digits
    than ten times CPython's int->str limit (its default, when the limit is
    off) raises ResourceGuardError, before the product is formed when its
    factors already show the size."""
    coords = weight.coords
    if len(coords) != datum.rank:
        raise ValueError(
            f"weight has {len(coords)} coordinates, type {datum.type} has rank {datum.rank}")
    shifted = [x + 1 for x in coords]
    return _weyl_dim(datum, coords, [sum(map(mul, shifted, c)) for c in datum.positive_coroots])


def _fundamental_weights(datum: RootDatum) -> list[tuple[DominantWeight, int]]:
    """The fundamental weights with their dimensions, in node order: the
    first probe of the enumeration at each position."""
    out, rank = [], datum.rank
    for pos, column in enumerate(zip(*datum.positive_coroots)):
        unit = (0,) * pos + (1,) + (0,) * (rank - pos - 1)
        dim = _weyl_dim(datum, unit, list(map(add, datum.rho_pairings, column)))
        out.append((DominantWeight(unit), dim))
    return out


def enumerate_dominant_weights(
    datum: RootDatum, cap: int, allow_large_cap: bool = False, fundamental_dims=None
) -> list[tuple[DominantWeight, int]]:
    """All nonzero dominant weights with dimension <= cap, with dimensions.

    Sorted by dimension, then lexicographically by coordinates.  The
    search extends coordinates one position at a time; since the
    dimension is strictly monotone in each coordinate, a partial vector
    that already exceeds the cap cannot be completed, and the zero tail
    of a partial vector is a valid lower bound for any completion.  Each
    vector is evaluated once: appending a zero keeps its dimension.  The
    Weyl factors <coords + rho, c> travel down the search, and raising
    coordinate pos by one adds column pos of the coroots to them.

    The search also stops before raising coordinate pos when
    dim + fundamental_dims[pos] - 1 > cap, since for dominant lambda, mu
    dim(lambda + mu) >= dim(lambda) + dim(mu) - 1, and every completion
    is at least lambda + omega_pos.  Proof: each Weyl ratio
    <lambda + mu + rho, c> / <rho, c> is 1 + x_c + y_c, with
    x_c = <lambda, c> / <rho, c> >= 0 and y_c likewise for mu; expanding
    the product gives every monomial of prod(1 + x_c) and of
    prod(1 + y_c), and the constant 1 only once.  The fundamental
    dimensions, in node order, are probed here unless the caller hands
    them in as fundamental_dims; they also stand for the first probe at
    each position after an all-zero prefix, which is that fundamental
    weight.

    Caps above 2**max_rank() + 10 are refused unless allow_large_cap is
    set, to keep accidental huge searches from running away.  rdim
    searches under the total of the cheapest faithful set of fundamental
    weights, which never passes 2**rank + 10.
    """
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {_echo(cap)}")
    budget = max_rank()
    # A cap of at most budget bits is below 2**budget: no need to form it.
    if not allow_large_cap and cap.bit_length() > budget and cap > 2 ** budget + 10:
        raise RankBudgetError(f"cap {_echo(cap)} exceeds budget {_echo(2 ** budget + 10)}; "
                              "pass allow_large_cap=True to override")
    rank = datum.rank
    if fundamental_dims is None:
        fundamental_dims = [dim for _, dim in _fundamental_weights(datum)]
    elif (type(fundamental_dims) not in (list, tuple) or len(fundamental_dims) != rank
          or any(type(dim) is not int for dim in fundamental_dims)):
        raise ValueError(f"fundamental_dims must be {rank} ints, got {_field_echo(fundamental_dims)}")
    columns = list(zip(*datum.positive_coroots))
    coords = [0] * rank
    out: list[tuple[DominantWeight, int]] = []

    def extend(pos: int, factors: list[int], dim: int):
        # coords[pos:] are zero; factors are the Weyl factors of coords, and
        # dim (at most cap) is its dimension.
        if pos == rank:
            if dim > 1:  # only the zero weight has dimension 1
                out.append((DominantWeight(tuple(coords)), dim))
            return
        extend(pos + 1, factors, dim)
        column, fundamental = columns[pos], fundamental_dims[pos]
        grown = dim
        for value in itertools.count(1):
            if grown + fundamental - 1 > cap:  # no completion of coords + omega_pos fits
                break
            coords[pos] = value
            factors = list(map(add, factors, column))
            # Only the zero weight has dimension 1, so then coords is omega_pos.
            grown = fundamental if grown == 1 else _weyl_dim(datum, coords, factors)
            if grown > cap:
                break
            extend(pos + 1, factors, grown)
        coords[pos] = 0

    extend(0, list(datum.rho_pairings), 1)
    out.sort(key=lambda pair: (pair[1], pair[0].coords))
    return out


def check_cell_budget(stype: SimpleType):
    """Refuse a type whose data would pass the cell budget, from the family
    table before any of it is built: rank**2 Cartan cells, d * rank cells
    for the d center classes and |positive roots| * rank coroot cells."""
    _, _, roots, order, _ = _FAMILIES[stype.family]
    l = stype.rank
    cells, budget = l * (l + order(l) + roots(l)), _budget(CELLS_ENV_VAR, DEFAULT_MAX_CELLS)
    if cells > budget:
        raise ResourceGuardError(
            f"type {stype.family}{_echo(l)} takes {_echo(cells)} cells (Cartan matrix, center "
            f"classes and coroots), more than the budget of {_echo(budget)}; "
            f"set {CELLS_ENV_VAR} to raise it")


def check_rank_budget(stype: SimpleType, override: bool = False):
    """Refuse ranks over the configured budget unless overridden."""
    budget = max_rank()
    if stype.rank > budget and not override:
        raise RankBudgetError(
            f"rank {_echo(stype.rank)} exceeds budget {budget}; "
            f"set {RANK_ENV_VAR} or pass override=True")
