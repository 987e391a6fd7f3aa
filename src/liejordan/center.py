"""Center of the simply connected group and faithfulness of weight sets.

An element of the maximal torus is written x = sum mu_i alpha_i^vee with
rational coefficients; it is central exactly when every simple root
takes an integer value on it, i.e. when the Cartan matrix applied to mu
is integral.  The center is therefore the finite group (C^-1 Z^l) / Z^l,
of order d = det C.  Since C^-1 = adj(C) / d, every class is x/d mod 1
for an integer vector x mod d, and the classes are kept in that form.
rootdata._center closes the center generators the family table declares
(Bourbaki's Plates I-IX) into the pair (d, classes), and each root datum
carries that pair as its center.  CenterClass shows a class by its
unique representative with all coordinates in [0, 1).

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

from .errors import FrozenValue, ResourceGuardError, _digit_budget, _echo, _field_echo
from .rootdata import DominantWeight, RootDatum, _instance


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


def _fractions(coords) -> tuple[Fraction, ...]:
    """The coordinates as Fractions.  Only int, Fraction and str ones are
    taken, so arithmetic stays exact: a float, a bool, a Decimal, a zero
    denominator or a string Fraction cannot parse is malformed input, and
    an exponent past the int->str digit limit is refused unexpanded."""
    from fractions import Fraction
    coords, budget = tuple(coords), _digit_budget()
    for text in [c for c in coords if type(c) is str]:
        exp = text.lower().partition("e")[2].strip().replace("_", "")
        exp = (exp[1:] if exp[:1] in "+-" else exp).lstrip("0")
        if exp.isdecimal() and (len(exp) > len(str(budget)) or int(exp) > budget):
            raise ResourceGuardError(f"coordinate {_echo(text)} has an exponent over {budget} "
                                     "(raise the digit limit with PYTHONINTMAXSTRDIGITS)")
    try:
        exact = [c if type(c) is Fraction else Fraction(c) for c in coords
                 if type(c) is Fraction or type(c) is int or type(c) is str]
    except ZeroDivisionError:
        raise ValueError(
            f"coordinates need nonzero denominators, got {_field_echo(coords)}") from None
    except ValueError:
        raise ValueError(f"coordinate strings must be rationals such as -1/2 within the "
                         f"int->str digit limit, got {_field_echo(coords)}") from None
    if len(exact) < len(coords):
        raise ValueError(
            f"coordinates must be integers, Fractions or strings, got {_field_echo(coords)}")
    return tuple(exact)


def center_classes(datum: RootDatum) -> list[CenterClass]:
    """All nonidentity central classes, sorted lexicographically."""
    import fractions
    d, classes = _instance(datum, RootDatum).center
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
    if len(coords) != len(_instance(weight, DominantWeight).coords):
        raise ValueError(
            f"element has {len(coords)} coordinates, weight has {len(weight.coords)}")
    den = math.lcm(*[c.denominator for c in coords])
    s = sum(l * c.numerator * (den // c.denominator) for l, c in zip(weight.coords, coords))
    return fractions.Fraction(s % den, den)


def is_faithful(datum: RootDatum, weight_set: WeightSet) -> bool:
    """Whether the direct sum over the weight set has trivial kernel: whether
    every nonidentity central class is detected by some weight in the set."""
    d, classes = _instance(datum, RootDatum).center
    for w in weight_set:
        if len(w.coords) != datum.rank:
            raise ValueError(
                f"weight {_echo(w.coords)} does not match rank {datum.rank} of {datum.type}")
    return all(
        any(sum(l * c for l, c in zip(w.coords, x)) % d for w in weight_set)
        for x in classes)

