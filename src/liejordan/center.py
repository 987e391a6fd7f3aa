"""Center of the simply connected group and faithfulness of weight sets.

An element of the maximal torus is written x = sum mu_i alpha_i^vee with
rational coefficients; it is central exactly when every simple root
takes an integer value on it, i.e. when the Cartan matrix applied to mu
is integral.  The center is therefore the finite group (C^-1 Z^l) / Z^l,
of order d = det C.  Since C^-1 = adj(C) / d, every class is x/d mod 1
for an integer vector x mod d, and the classes are kept in that form,
computed once per Cartan matrix.  Every Dynkin diagram is a tree, so d
and each column of adj C come from one integer sweep up the tree and
one down, O(rank) steps each, and only as many columns are solved as
it takes to generate the center.  CenterClass shows a class by its
unique representative with all coordinates in [0, 1).

The center reads nothing but the Cartan matrix.  The public functions
take a root datum; the CLI's center and faithful commands call the
Cartan-matrix forms underneath them, so they never build the coroots.
Only CenterClass, center_classes and pair build fractions, and only they
import the fractions module, so rdim and faithful never load it.

A weight evaluates on the class x/d to sum lambda_i x_i / d mod 1, and a
central element acts trivially in the irreducible representation of
highest weight lambda exactly when sum lambda_i x_i is 0 mod d.  A set of
weights is faithful when no nonidentity central class evaluates to 0
under all of them.

Convention note: for D of odd rank the center is cyclic of order 4 and
the class representatives carry quarter coordinates on the two fork
nodes; which fork node shows 1/4 and which 3/4 is an artifact of the
node numbering, so tests against externally given generators should
compare class sets, not individual lifts.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import FrozenValue, _echo
from .rootdata import DominantWeight, RootDatum


class CenterClass(FrozenValue):
    """A nonidentity central class, as simple-coroot coordinates in [0, 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        from fractions import Fraction
        coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        if not any(coords):
            raise ValueError("the identity class is not represented")
        for c in coords:
            if not 0 <= c.numerator < c.denominator:
                raise ValueError(f"class coordinates must lie in [0, 1), got {coords}")
        object.__setattr__(self, "coords", coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


class WeightSet(FrozenValue):
    """A nonempty set of nonzero dominant weights, kept in sorted order."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[DominantWeight, ...]):
        weights = tuple(weights)
        if not weights:
            raise ValueError("a weight set must contain at least one weight")
        seen = set()
        for w in weights:
            if w.is_zero:
                raise ValueError("the zero weight detects nothing and is not allowed")
            if w.coords in seen:
                raise ValueError(f"duplicate weight {_echo(w.coords)}")
            seen.add(w.coords)
        object.__setattr__(self, "weights", tuple(sorted(weights, key=lambda w: w.coords)))

    def __iter__(self):
        return iter(self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        return ";".join(str(w) for w in self.weights)


@lru_cache(maxsize=None)
def _center(cartan: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, classes): the Cartan determinant and the nonidentity central
    classes as sorted integer vectors x mod d, x standing for x/d mod 1.
    Keyed on the Cartan matrix, the only input, whose hash is far cheaper
    than that of the whole root datum.

    The Dynkin diagram is a tree; it is rooted at node 0.  With P_v the
    product of D_c over the children c of v, the determinant of the
    subtree at v is D_v = C_vv P_v - sum_c C_vc C_cv P_c (P_v / D_c), and
    d is D at the root.  Column j of adj C solves C x = d e_j.  A sweep up
    from the leaves leaves the equation D_v x_v + P_v C_vp x_p = d S_v at
    each node v with parent p, where S_v = P_v [v = j] - sum_c C_vc S_c
    (P_v / D_c); S is zero off the path from j to the root.  A sweep down
    then gives x = S at the root and x_v = (d S_v - P_v C_vp x_p) / D_v
    below it.  Every division is exact, so a column takes O(rank) integer
    steps.  The columns generate the center mod d: each is added to the
    group coset by coset, a column already in it is skipped, and no more
    are solved once it has d elements.  That it ends with exactly d is
    checked.
    """
    rank = len(cartan)
    parent = [-1] * rank
    children: list[list[int]] = [[] for _ in range(rank)]
    order = [0]
    for v in order:  # breadth first from node 0
        for c, entry in enumerate(cartan[v]):
            if entry and c != v and c != parent[v]:
                if c == 0 or parent[c] >= 0:
                    raise AssertionError(f"{cartan}: the Dynkin diagram is not a tree")
                parent[c] = v
                children[v].append(c)
                order.append(c)
    if len(order) != rank:
        raise AssertionError(f"{cartan}: the Dynkin diagram is not connected")
    prod = [1] * rank  # P_v
    det = [1] * rank  # D_v
    for v in reversed(order):  # children before their parent
        for c in children[v]:
            prod[v] *= det[c]
        det[v] = cartan[v][v] * prod[v] - sum(
            cartan[v][c] * cartan[c][v] * prod[c] * (prod[v] // det[c]) for c in children[v])
    d = det[0]
    up, down = [0] * rank, [0] * rank  # the sweeps' factors on each edge
    for v in order[1:]:
        p = parent[v]
        up[v] = cartan[p][v] * (prod[p] // det[v])
        down[v] = prod[v] * cartan[v][p]

    def column(j: int) -> tuple[int, ...]:
        s = [0] * rank
        s[j] = prod[j]
        v = j
        while v:
            s[parent[v]] = -up[v] * s[v]
            v = parent[v]
        x = s[:1] + [0] * (rank - 1)
        for v in order[1:]:
            x[v] = (d * s[v] - down[v] * x[parent[v]]) // det[v]
        return tuple(e % d for e in x)

    zero = (0,) * rank
    group = [zero]
    classes = {zero}
    for j in range(rank):
        if len(group) >= d:
            break
        x = column(j)
        shift = x
        added = []
        while shift not in classes:
            coset = [tuple([(a + b) % d for a, b in zip(h, shift)]) for h in group]
            classes.update(coset)
            added += coset
            shift = tuple([(a + b) % d for a, b in zip(shift, x)])
        group += added
    if len(classes) != d:
        raise AssertionError(
            f"{cartan}: found {len(classes)} central classes, determinant is {d}")
    classes.discard(zero)
    return d, tuple(sorted(classes))


def center_order(datum: RootDatum) -> int:
    """Order of the center: the determinant of the Cartan matrix."""
    return _center(datum.cartan)[0]


def center_classes(datum: RootDatum) -> list[CenterClass]:
    """All nonidentity central classes, sorted lexicographically."""
    return _center_classes(datum.cartan)


def _center_classes(cartan) -> list[CenterClass]:
    """center_classes from the Cartan matrix alone."""
    from fractions import Fraction
    d, classes = _center(cartan)
    shares = [Fraction(c, d) for c in range(d)]  # each coordinate is some c/d, built once
    return [CenterClass(tuple([shares[c] for c in x])) for x in classes]


def pair(weight: DominantWeight, element) -> Fraction:
    """Value of a weight on a central element, as a fraction in [0, 1).

    The element may be a CenterClass or any rational coordinate vector
    over the simple coroots; integer shifts of the coordinates do not
    change the result because weight coordinates are integers.
    """
    from fractions import Fraction
    coords = element.coords if isinstance(element, CenterClass) else tuple(element)
    if len(coords) != len(weight.coords):
        raise ValueError(
            f"element has {len(coords)} coordinates, weight has {len(weight.coords)}")
    return sum((Fraction(c) * l for l, c in zip(weight.coords, coords)),
               Fraction(0)) % 1


def is_faithful(datum: RootDatum, weight_set: WeightSet) -> bool:
    """Whether the direct sum over the weight set has trivial kernel.

    True exactly when every nonidentity central class is detected by at
    least one weight in the set.
    """
    for w in weight_set:
        if len(w.coords) != datum.rank:
            raise ValueError(
                f"weight {_echo(w.coords)} does not match rank {datum.rank} of {datum.type}")
    return _is_faithful(datum.cartan, weight_set)


def _is_faithful(cartan, weight_set: WeightSet) -> bool:
    """is_faithful from the Cartan matrix alone, for weights of its rank."""
    d, classes = _center(cartan)
    return all(
        any(sum(l * c for l, c in zip(w.coords, x)) % d for w in weight_set)
        for x in classes)
