"""The first type checks, Cartan matrices, root counts, coroot closure,
weyl_dim and dominant-weight enumeration, kept as a test oracle for the
current ones.

The type checks, Cartan matrices and root counts spell each family out in
if/elif chains over two rank tables; the closure recomputes the pairing of
every root it reflects; weyl_dim multiplies the Weyl factors with no digit
guard; the enumeration builds a DominantWeight for every probe and
evaluates each weight it keeps a second time.  Its messages, matrices,
counts, root lists, values and ordered (weight, dim) lists are the ones
the current code must give.
"""
from liejordan.errors import RankBudgetError
from liejordan.rootdata import DominantWeight, RootDatum, SimpleType, max_rank

# Minimum rank at which each family is a valid, non-redundant type.
_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}
_EXCEPTIONAL_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


def check_simple_type(fam, rank):
    """The checks SimpleType ran on its family letter and rank."""
    if fam in _MIN_RANK:
        if rank < _MIN_RANK[fam]:
            raise ValueError(
                f"family {fam} requires rank >= {_MIN_RANK[fam]}, got {rank}")
    elif fam in _EXCEPTIONAL_RANKS:
        if rank not in _EXCEPTIONAL_RANKS[fam]:
            allowed = ", ".join(str(r) for r in _EXCEPTIONAL_RANKS[fam])
            raise ValueError(
                f"family {fam} exists only in rank {allowed}, got {rank}")
    else:
        raise ValueError(f"unknown family {fam!r}, expected one of A..G")


def cartan_matrix(stype: SimpleType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the given type; entry [i][j] = <alpha_i, alpha_j^vee>."""
    fam, l = stype.family, stype.rank
    m = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def edge(i, j):
        m[i][j] = -1
        m[j][i] = -1

    if fam in ("A", "B", "C"):
        for i in range(l - 1):
            edge(i, i + 1)
        if fam == "B":
            m[l - 2][l - 1] = -2  # node l short
        elif fam == "C":
            m[l - 1][l - 2] = -2  # node l long
    elif fam == "D":
        for i in range(l - 3):
            edge(i, i + 1)
        edge(l - 3, l - 2)
        edge(l - 3, l - 1)
    elif fam == "E":
        for i in range(l - 2):
            edge(i, i + 1)
        edge(l - 4, l - 1)
    elif fam == "F":
        edge(0, 1)
        edge(2, 3)
        m[1][2] = -1
        m[2][1] = -2  # nodes 1, 2 short
    else:  # G
        m[0][1] = -1
        m[1][0] = -3  # node 1 short
    return tuple(tuple(row) for row in m)


def positive_root_count(stype: SimpleType) -> int:
    """Number of positive roots, by the classical closed forms."""
    fam, l = stype.family, stype.rank
    if fam == "A":
        return l * (l + 1) // 2
    if fam in ("B", "C"):
        return l * l
    if fam == "D":
        return l * (l - 1)
    if fam == "E":
        return {6: 36, 7: 63, 8: 120}[l]
    if fam == "F":
        return 24
    return 6  # G2


def _positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots of the system with this Cartan matrix, as coordinate
    vectors over the simple roots, sorted by height then lexicographically.

    Reflection closure: starting from the simple roots, apply simple
    reflections and keep whatever stays non-negative.  Every positive root
    is reachable this way because a positive non-simple root always has a
    reflection lowering its height through another positive root.
    """
    rank = len(cartan)
    simple = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    found = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for vec in frontier:
            for j in range(rank):
                pairing = sum(vec[i] * cartan[i][j] for i in range(rank))
                image = list(vec)
                image[j] -= pairing
                image = tuple(image)
                if image not in found and all(c >= 0 for c in image):
                    found.add(image)
                    nxt.append(image)
        frontier = nxt
    return sorted(found, key=lambda v: (sum(v), v))


def weyl_dim(datum: RootDatum, weight: DominantWeight) -> int:
    """Dimension of the irreducible representation with this highest weight.

    Evaluated as a single exact integer quotient over the positive
    coroots: the product of <weight + rho, c> divided by the product of
    <rho, c>, where rho pairs to the coordinate sum of c.  The quotient
    is asserted to be exact.
    """
    coords = weight.coords
    if len(coords) != datum.rank:
        raise ValueError(
            f"weight has {len(coords)} coordinates, type {datum.type} has rank {datum.rank}")
    shifted = tuple(c + 1 for c in coords)
    num = 1
    den = 1
    for coroot in datum.positive_coroots:
        num *= sum(s * c for s, c in zip(shifted, coroot))
        den *= sum(coroot)
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError(f"non-integral dimension for {datum.type}, weight {coords}")
    return dim


def enumerate_dominant_weights(
    datum: RootDatum, cap: int, allow_large_cap: bool = False
) -> list[tuple[DominantWeight, int]]:
    """All nonzero dominant weights with dimension <= cap, with dimensions.

    Sorted by dimension, then lexicographically by coordinates.  The
    search extends coordinates one position at a time; since the
    dimension is strictly monotone in each coordinate, a partial vector
    that already exceeds the cap cannot be completed, and the zero tail
    of a partial vector is a valid lower bound for any completion.

    Caps above 2**max_rank() + 10 are refused unless allow_large_cap is
    set, to keep accidental huge searches from running away.
    """
    if cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap}")
    limit = 2 ** max_rank() + 10
    if cap > limit and not allow_large_cap:
        raise RankBudgetError(
            f"cap {cap} exceeds budget {limit}; pass allow_large_cap=True to override")
    rank = datum.rank
    coords = [0] * rank
    out: list[tuple[DominantWeight, int]] = []

    def extend(pos: int):
        if pos == rank:
            w = DominantWeight(tuple(coords))
            if not w.is_zero:
                out.append((w, weyl_dim(datum, w)))
            return
        value = 0
        while True:
            coords[pos] = value
            if weyl_dim(datum, DominantWeight(tuple(coords))) > cap:
                break
            extend(pos + 1)
            value += 1
        coords[pos] = 0

    extend(0)
    out.sort(key=lambda pair: (pair[1], pair[0].coords))
    return out
