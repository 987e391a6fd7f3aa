"""Exact root-system combinatorics for the simple Lie types A through G.

Everything is integer arithmetic on coordinate vectors: weights are
written in the fundamental-weight basis, coroots in the simple-coroot
basis, and the pairing of a weight with a coroot is then a plain dot
product.  The Cartan matrix is stored with entry [i][j] equal to the
pairing of simple root i against simple coroot j.

Each family is declared once, in _FAMILIES: its ranks, its Dynkin bonds,
its number of positive roots and the order of its center.  The bonds fix
the node numbering, 0-based in the table and 1-based in the notes below:

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
from functools import lru_cache
from operator import add, mul

from .errors import (_FORMED_PER_PRINTED, FrozenValue, RankBudgetError, ResourceGuardError,
                     _digit_budget, _echo, _formed)

DEFAULT_MAX_RANK = 9
RANK_ENV_VAR = "LIEJORDAN_MAX_RANK"
DEFAULT_MAX_CELLS = 10_000_000
CELLS_ENV_VAR = "LIEJORDAN_MAX_CELLS"


def _chain(nodes: int) -> list[tuple[int, int, int, int]]:
    """Simple bonds joining nodes 0..nodes-1 in a row."""
    return [(i, i + 1, 1, 1) for i in range(nodes - 1)]


# Family letter -> (ranks, bonds, positive-root count, center order).  The
# ranks are the least one for A-D and all of them for E-G; a bond
# (i, j, a, b) sets the Cartan entries [i][j] = -a and [j][i] = -b; the
# center order is the Cartan determinant.  Bourbaki, Lie Groups and Lie
# Algebras, Ch. 4-6, Plates I-IX.
_FAMILIES = {
    "A": (1, _chain, lambda l: l * (l + 1) // 2, lambda l: l + 1),
    "B": (2, lambda l: _chain(l - 1) + [(l - 2, l - 1, 2, 1)], lambda l: l * l,
          lambda l: 2),
    "C": (2, lambda l: _chain(l - 1) + [(l - 2, l - 1, 1, 2)], lambda l: l * l,
          lambda l: 2),
    "D": (3, lambda l: _chain(l - 1) + [(l - 3, l - 1, 1, 1)], lambda l: l * (l - 1),
          lambda l: 4),
    "E": ((6, 7, 8), lambda l: _chain(l - 1) + [(l - 4, l - 1, 1, 1)],
          {6: 36, 7: 63, 8: 120}.get, {6: 3, 7: 2, 8: 1}.get),
    "F": ((4,), lambda l: [(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)], lambda l: 24,
          lambda l: 1),
    "G": ((2,), lambda l: [(0, 1, 1, 3)], lambda l: 6, lambda l: 1),
}


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
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}, expected one of A..G")
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
            if not isinstance(c, int) or c < 0:
                raise ValueError(
                    f"weight coordinates must be non-negative integers, got {_echo(coords)}")
        object.__setattr__(self, "coords", tuple(coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


def cartan_matrix(stype: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the given type; entry [i][j] = <alpha_i, alpha_j^vee>."""
    l = stype.rank
    m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i, j, a, b in _FAMILIES[stype.family][1](l):
        m[i][j], m[j][i] = -a, -b
    return tuple(map(tuple, m))


def positive_root_count(stype: SimpleType) -> int:
    """Number of positive roots, by the classical closed forms."""
    return _FAMILIES[stype.family][2](stype.rank)


def _positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots of the system with this Cartan matrix, as coordinate
    vectors over the simple roots, sorted by height then lexicographically.

    Reflection closure: starting from the simple roots, apply simple
    reflections and keep whatever stays non-negative.  Every positive root
    is reachable this way because a positive non-simple root always has a
    reflection lowering its height through another positive root.  Each
    root travels with its pairings p against the simple coroots: the image
    v - p[j] alpha_j pairs to p - p[j] * (row j), and only its coordinate
    j can turn negative.
    """
    rank = len(cartan)
    simple = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    found = set(simple)
    frontier = list(zip(simple, cartan))
    while frontier:
        nxt = []
        for vec, pairing in frontier:
            for j, p in enumerate(pairing):
                if p == 0 or vec[j] < p:  # the image is vec, or is not positive
                    continue
                image = list(vec)
                image[j] -= p
                image = tuple(image)
                if image not in found:
                    found.add(image)
                    nxt.append((image, [a - p * b for a, b in zip(pairing, cartan[j])]))
        frontier = nxt
    return sorted(found, key=lambda v: (sum(v), v))


class RootDatum(FrozenValue, shown=("type", "cartan", "positive_coroots")):
    """A simple type together with its Cartan matrix and positive coroots.

    Coroot vectors are coordinates in the simple-coroot basis, so the
    pairing of a weight lambda with a coroot c is sum(lambda_i * c_i).
    rho pairs to the coordinate sum of c; those pairings and their product,
    the denominator of the Weyl dimension formula, are derived on
    construction.
    """

    __slots__ = ("type", "cartan", "positive_coroots", "rho_pairings", "rho_product")

    def __init__(self, type: SimpleType, cartan: tuple[tuple[int, ...], ...],
                 positive_coroots: tuple[tuple[int, ...], ...]):
        pairings = tuple(map(sum, positive_coroots))
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "positive_coroots", positive_coroots)
        object.__setattr__(self, "rho_pairings", pairings)
        object.__setattr__(self, "rho_product", math.prod(pairings))

    @property
    def rank(self) -> int:
        return self.type.rank


@lru_cache(maxsize=None)
def build_root_datum(stype: SimpleType) -> RootDatum:
    """Construct the root datum for a simple type.

    The positive coroots are the positive roots of the dual system, whose
    Cartan matrix is the transpose of this one.  The count is checked
    against the classical closed form, so a wrong matrix cannot slip
    through quietly.
    """
    cartan = cartan_matrix(stype)
    rank = stype.rank
    transposed = tuple(tuple(cartan[i][j] for i in range(rank)) for j in range(rank))
    coroots = _positive_roots(transposed)
    expected = positive_root_count(stype)
    if len(coroots) != expected:
        raise AssertionError(
            f"{stype}: coroot closure produced {len(coroots)} vectors, expected {expected}")
    return RootDatum(stype, cartan, tuple(coroots))


def _weyl_dim(datum: RootDatum, coords, factors) -> int:
    """Weyl dimension of coords (any rank integers) from its factors
    <coords + rho, c> over the positive coroots c: their product over that
    of the <rho, c>.

    A quotient with more digits than exact integers are kept with is
    refused, before the product is formed when the factors show it (a
    factor f is at least 2**(f.bit_length() - 1)).  A factor is at most
    (max coordinate + 1) times the highest coroot height, the last
    coroot's, which clears short answers at once.
    """
    rho = datum.rho_pairings

    def quotient() -> int:
        dim, rem = divmod(math.prod(factors), datum.rho_product)
        if rem:
            raise AssertionError(f"non-integral dimension for {datum.type} at {_echo(coords)}")
        return dim

    top = (max(coords) + 1).bit_length() + rho[-1].bit_length()
    if len(rho) * top <= 3 * _FORMED_PER_PRINTED * _digit_budget():  # 8**k < 10**k
        return quotient()
    return _formed(sum(f.bit_length() - 1 - r.bit_length()
                       for f, r in zip(factors, rho)), quotient)


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
    out = []
    for pos, column in enumerate(zip(*datum.positive_coroots)):
        unit = tuple(int(i == pos) for i in range(datum.rank))
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
    fundamental_dims, the dimensions of the fundamental weights in node
    order when the caller has them, stand in for the first probe at each
    position after an all-zero prefix, which is that fundamental weight.

    Caps above 2**max_rank() + 10 are refused unless allow_large_cap is
    set, to keep accidental huge searches from running away.  rdim
    searches under the total of the cheapest faithful set of fundamental
    weights, which never passes 2**rank + 10.
    """
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {_echo(cap)}")
    budget = max_rank()
    # A cap of at most budget bits is below 2**budget: no need to form it.
    if not allow_large_cap and cap.bit_length() > budget and cap > 2 ** budget + 10:
        raise RankBudgetError(f"cap {_echo(cap)} exceeds budget {_echo(2 ** budget + 10)}; "
                              "pass allow_large_cap=True to override")
    rank = datum.rank
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
        column = columns[pos]
        for value in itertools.count(1):
            coords[pos] = value
            factors = list(map(add, factors, column))
            if dim == 1 and value == 1 and fundamental_dims:  # a fundamental weight
                grown = fundamental_dims[pos]
            else:
                grown = _weyl_dim(datum, coords, factors)
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
    _, _, roots, order = _FAMILIES[stype.family]
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
