"""Center of the simply connected group and faithfulness of weight sets.

An element of the maximal torus is written x = sum mu_i alpha_i^vee with
rational coefficients; it is central exactly when every simple root
takes an integer value on it, i.e. when the Cartan matrix applied to mu
is integral.  The center is therefore the finite group (C^-1 Z^l) / Z^l,
of order d = det C.  Since C^-1 = adj(C) / d, every class is x/d mod 1
for an integer vector x mod d, and the classes are kept in that form,
computed once per type.  The family table in rootdata declares d and
generators of the center for each family (Bourbaki's Plates I-IX), and
the classes are their closure.  CenterClass shows a class by its unique
representative with all coordinates in [0, 1).

The center reads nothing but the family table.  The public functions
take a root datum; the CLI's center and faithful commands call the
forms on the type underneath them, so they never build the Cartan
matrix or the coroots.
Only CenterClass, center_classes and pair build fractions, and only they
import the fractions module, so rdim and faithful never load it.  pair
sums in integers over the common denominator and builds one Fraction.

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

import math
from functools import lru_cache

from .errors import FrozenValue, _echo, _field_echo
from .rootdata import _FAMILIES, DominantWeight, RootDatum, SimpleType


class CenterClass(FrozenValue):
    """A nonidentity central class, as simple-coroot coordinates in [0, 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[Fraction, ...]):
        coords = _fractions(coords)
        if not any(coords):
            raise ValueError("the identity class is not represented")
        for c in coords:
            if not 0 <= c.numerator < c.denominator:
                raise ValueError(f"class coordinates must lie in [0, 1), got {_field_echo(coords)}")
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
def _center(stype: SimpleType) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, classes): the center order and the nonidentity central classes
    as sorted integer vectors x mod d, x standing for x/d mod 1, closed
    coset by coset from the family table's generators; that the group ends
    with d elements is checked.  Keyed on the type, whose hash is cheaper
    than that of its Cartan matrix."""
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


def _fractions(coords) -> tuple[Fraction, ...]:
    """The coordinates as Fractions.  Only int, Fraction and str ones are
    taken, so arithmetic stays exact: a float, a bool, a Decimal or a zero
    denominator is malformed input."""
    import fractions
    Fraction = fractions.Fraction
    coords = tuple(coords)
    try:
        exact = [c if type(c) is Fraction else Fraction(c) for c in coords
                 if type(c) is Fraction or type(c) is int or type(c) is str]
    except ZeroDivisionError:
        raise ValueError(
            f"coordinates need nonzero denominators, got {_field_echo(coords)}") from None
    if len(exact) < len(coords):
        raise ValueError(
            f"coordinates must be integers, Fractions or strings, got {_field_echo(coords)}")
    return tuple(exact)


def center_classes(datum: RootDatum) -> list[CenterClass]:
    """All nonidentity central classes, sorted lexicographically."""
    return _center_classes(datum.type)


def _center_classes(stype: SimpleType) -> list[CenterClass]:
    """center_classes from the type alone."""
    import fractions
    d, classes = _center(stype)
    shares = [fractions.Fraction(c, d) for c in range(d)]  # each coordinate is some c/d, built once
    return [CenterClass(tuple([shares[c] for c in x])) for x in classes]


def pair(weight: DominantWeight, element) -> Fraction:
    """Value of a weight on a central element, as a fraction in [0, 1).

    The element may be a CenterClass or any rational coordinate vector
    over the simple coroots; integer shifts of the coordinates do not
    change the result because weight coordinates are integers.
    """
    import fractions
    coords = element.coords if isinstance(element, CenterClass) else _fractions(element)
    if len(coords) != len(weight.coords):
        raise ValueError(
            f"element has {len(coords)} coordinates, weight has {len(weight.coords)}")
    den = math.lcm(*[c.denominator for c in coords])
    s = sum(l * c.numerator * (den // c.denominator) for l, c in zip(weight.coords, coords))
    return fractions.Fraction(s % den, den)


def is_faithful(datum: RootDatum, weight_set: WeightSet) -> bool:
    """Whether the direct sum over the weight set has trivial kernel.

    True exactly when every nonidentity central class is detected by at
    least one weight in the set.
    """
    for w in weight_set:
        if len(w.coords) != datum.rank:
            raise ValueError(
                f"weight {_echo(w.coords)} does not match rank {datum.rank} of {datum.type}")
    return _is_faithful(datum.type, weight_set)


def _is_faithful(stype: SimpleType, weight_set: WeightSet) -> bool:
    """is_faithful from the type alone, for weights of its rank."""
    d, classes = _center(stype)
    return all(
        any(sum(l * c for l, c in zip(w.coords, x)) % d for w in weight_set)
        for x in classes)
