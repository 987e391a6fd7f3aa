"""Exact bounds for Jordan constants of transformation groups.

The driving quantity is the Jordan constant J(n) of the complex general
linear group in dimension n.  It equals (n+1)! once n is at least 71
and also at n in {63, 65, 67, 69}; for the remaining small n the exact
value is not pinned down here, so it stays symbolic.  Every bound below
is one value b * J(k)^b, held as its exact integer or, while J(k) stays
symbolic, as k and b; never as a float.

Dimension-zero groups are trivial, so J(0) = 1 by convention; callers
that care can flag when that convention fired.  Exact values are kept
and printed within the digit limits set out in errors.

Families and dimensions often share a J(k): compact-complex n=2 and
riemannian n=4 both need 10341!.  Each factorial is formed once and
kept, as a bare integer, in a process-wide cache of the 32 most recently
used.  Under the default digit limit no factorial of more than about
45,000 digits is formed (19 KB), so the cache holds at most about
0.6 MB; the bound grows in proportion to PYTHONINTMAXSTRDIGITS.  The
digit limits are checked on every call against the limit of that
moment; no refusal is cached.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import (_FORMED_PER_PRINTED, FrozenValue, _digit_budget, _echo, _formed,
                     _refusal, _within)

_EXACT_SPORADIC = frozenset({63, 65, 67, 69})
_EXACT_FROM = 71

_factorial = lru_cache(maxsize=32)(math.factorial)  # see the module docstring


class Bound(FrozenValue):
    """The bound b * J(k)^b: value is its exact integer, or None while J(k)
    stays symbolic; k is a non-negative and b a positive integer.
    render() takes an optional formatter for the exact integers in it."""

    __slots__ = ("value", "k", "b")

    def __init__(self, value: int | None, k: int, b: int):
        if value is not None and (type(value) is not int or value < 1):
            raise ValueError(f"bound value must be None or a positive integer, got {_echo(value)}")
        if type(k) is not int or k < 0:
            raise ValueError(f"J's argument k must be a non-negative integer, got {_echo(k)}")
        if type(b) is not int or b < 1:
            raise ValueError(f"exponent b must be a positive integer, got {_echo(b)}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b", b)

    def render(self, fmt=str) -> str:
        if self.value is not None:
            return fmt(_within(self.value, _digit_budget()))
        if self.b == 1:
            return f"J({self.k})"
        return f"{fmt(_within(self.b, _digit_budget()))} * J({self.k})^{self.b}"


# Group dimension m of each family as a function of n; None marks the
# hyperbolic stabilizer, which embeds linearly in dimension n and is
# bounded by J(n) itself.
FAMILIES = {
    "lie": lambda n: n,
    "lie-connected": lambda n: n,
    "algebraic": lambda n: 2 * n,
    "compact-complex": lambda n: 2 * n * n + n,
    "hyperbolic": lambda n: n * n + 2 * n,
    "hyperbolic-stabilizer": None,
    "riemannian": lambda n: n * (n + 1) // 2,
}
# Families whose groups may have several components.
WITH_COMPONENTS = ("lie", "algebraic")


def _linear_cap(m: int) -> int:
    """Dimension k of the faithful linear model used by the Lie-group bound,
    refused before 2^m is formed when J(k) has too many digits to keep."""
    limit = _FORMED_PER_PRINTED * _digit_budget()
    if m >= limit.bit_length():  # then k > 2^m > limit, and J(k) = (k+1)! > 10^k
        raise _refusal(f"2^{_echo(m)}", limit)
    return m * (2 ** m + 10)


class GroupDims(FrozenValue):
    """Dimension n of the group and its number of components b."""

    __slots__ = ("n", "b")

    def __init__(self, n: int, b: int = 1):
        if type(n) is not int or n < 0:
            raise ValueError(f"dimension must be a non-negative integer, got {_echo(n)}")
        if type(b) is not int or b < 1:
            raise ValueError(f"component count must be a positive integer, got {_echo(b)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)


def bound(family: str, n: int, components: int | None = None) -> Bound:
    """Jordan bound b * J(k)^b, k = m(2^m + 10), for a group of the family with
    an identity component of dimension m = FAMILIES[family](n) (the hyperbolic
    stabilizer: k = n) and b components; components (b, default 1) applies to
    the WITH_COMPONENTS families only."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown family of groups {_echo(family)}")
    if components is not None and family not in WITH_COMPONENTS:
        raise ValueError(f"a component count does not apply to {family}")
    b = GroupDims(n, 1 if components is None else components).b
    group_dim = FAMILIES[family]
    k = n if group_dim is None else _linear_cap(group_dim(n))
    if 0 < k < _EXACT_FROM and k not in _EXACT_SPORADIC:
        return Bound(None, k, b)
    # (k+1)! > ((k+1)/e)^(k+1) >= ((k+1)//3)^(k+1)
    bits = (k + 1) * (((k + 1) // 3).bit_length() - 1)
    x = _formed(bits, lambda: _factorial(k + 1))
    if b == 1:
        return Bound(x, k, b)
    power = _formed(b * (x.bit_length() - 1), lambda: x ** b)
    return Bound(_formed(b.bit_length() + power.bit_length() - 2, lambda: b * power), k, b)


def bound_lie(dims: GroupDims) -> Bound:
    """Lie group with an n-dimensional identity component and b components."""
    return bound("lie", dims.n, dims.b)


def bound_lie_connected(n: int) -> Bound:
    """Connected Lie group of dimension n."""
    return bound("lie-connected", n)


def bound_algebraic(dims: GroupDims) -> Bound:
    """Complex algebraic group, n-dimensional identity component, b components."""
    return bound("algebraic", dims.n, dims.b)


def bound_compact_complex(n: int) -> Bound:
    """Automorphism group of a compact complex n-manifold."""
    return bound("compact-complex", n)


def bound_hyperbolic(n: int) -> Bound:
    """Isometry group of hyperbolic n-space, inside PGL of dimension (n+1)^2 - 1."""
    return bound("hyperbolic", n)


def stabilizer_bound_hyperbolic(n: int) -> Bound:
    """Point stabilizer in the hyperbolic isometry group: linear in dimension n."""
    return bound("hyperbolic-stabilizer", n)


def bound_riemannian(n: int) -> Bound:
    """Isometry group of a compact Riemannian n-manifold."""
    return bound("riemannian", n)


def expr_to_json(expr: Bound) -> dict:
    """Serialize a bound to a JSON-ready dict: an exact integer, the atom
    J(k), or the product of b and the power J(k)^b.

    Integers travel as decimal strings so arbitrary-precision values
    survive any JSON reader.
    """
    if expr.value is not None:
        return {"kind": "exact", "value": expr.render()}
    j = {"kind": "symbolic_j", "arg": expr.k}
    if expr.b == 1:
        return j
    return {"kind": "product", "operands": [
        {"kind": "exact", "value": str(_within(expr.b, _digit_budget()))},
        {"kind": "power", "operands": [j], "exponent": expr.b}]}
