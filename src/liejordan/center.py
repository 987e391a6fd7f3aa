"""Center of the simply connected group and faithfulness of weight sets.

An element of the maximal torus is written x = sum mu_i alpha_i^vee with
rational coefficients; it is central exactly when every simple root
takes an integer value on it, i.e. when the Cartan matrix applied to mu
is integral.  The center is therefore the finite group (C^-1 Z^l) / Z^l,
of order d = det C.  Since C^-1 = adj(C) / d, every class is x/d mod 1
for an integer vector x mod d, and the classes are kept in that form,
computed once per Cartan matrix.  CenterClass shows a class by its unique
representative with all coordinates in [0, 1).

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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import _echo
from .rootdata import DominantWeight, RootDatum


@dataclass(frozen=True)
class CenterClass:
    """A nonidentity central class, as simple-coroot coordinates in [0, 1)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        if not any(coords):
            raise ValueError("the identity class is not represented")
        for c in coords:
            if not 0 <= c < 1:
                raise ValueError(f"class coordinates must lie in [0, 1), got {coords}")
        object.__setattr__(self, "coords", coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


@dataclass(frozen=True)
class WeightSet:
    """A nonempty set of nonzero dominant weights, kept in sorted order."""

    weights: tuple[DominantWeight, ...]

    def __post_init__(self):
        weights = tuple(self.weights)
        if not weights:
            raise ValueError("a weight set must contain at least one weight")
        seen = set()
        for w in weights:
            if w.is_zero:
                raise ValueError("the zero weight detects nothing and is not allowed")
            if w.coords in seen:
                raise ValueError(f"duplicate weight {_echo(w.coords)}")
            seen.add(w.coords)
        object.__setattr__(
            self, "weights", tuple(sorted(weights, key=lambda w: w.coords)))

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

    One fraction-free Gauss-Jordan elimination takes [C | I] to
    [d*I | adj C].  It needs no pivoting: the pivot at step k is the k-th
    leading principal minor, itself a positive Cartan determinant.  The
    columns of adj C generate the center mod d; the closure under
    addition has exactly d elements, which is checked.
    """
    rank = len(cartan)
    aug = [list(row) + [int(i == j) for j in range(rank)]
           for i, row in enumerate(cartan)]
    prev = 1
    for k in range(rank):
        pivot = aug[k]
        for i, row in enumerate(aug):
            if i != k:
                f = row[k]
                aug[i] = [(pivot[k] * a - f * b) // prev for a, b in zip(row, pivot)]
        prev = pivot[k]
    d = prev
    generators = [tuple(aug[i][rank + j] % d for i in range(rank)) for j in range(rank)]
    zero = (0,) * rank
    classes = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                s = tuple((x + y) % d for x, y in zip(a, g))
                if s not in classes:
                    classes.add(s)
                    nxt.append(s)
        frontier = nxt
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
    d, classes = _center(datum.cartan)
    return [CenterClass(tuple(Fraction(c, d) for c in x)) for x in classes]


def pair(weight: DominantWeight, element) -> Fraction:
    """Value of a weight on a central element, as a fraction in [0, 1).

    The element may be a CenterClass or any rational coordinate vector
    over the simple coroots; integer shifts of the coordinates do not
    change the result because weight coordinates are integers.
    """
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
    d, classes = _center(datum.cartan)
    return all(
        any(sum(l * c for l, c in zip(w.coords, x)) % d for w in weight_set)
        for x in classes)
