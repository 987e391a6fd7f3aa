"""The bound expressions as a tree of four node classes, kept as a test
oracle for the one bound value that replaced them.

ExactInt, SymbolicJ, Power and Product each render themselves and
expr_to_json walks the tree; bound() builds J(k), b * J(k)^b or an exact
integer from them.  Its renderings, JSON, exact values and refusals, type
and message, are the ones the current code must give.  The module below
is that code as it was, with absolute imports.
"""
from __future__ import annotations

import math
from functools import lru_cache

from liejordan.errors import (_FORMED_PER_PRINTED, FrozenValue, _digit_budget, _echo,
                             _formed, _refusal, _within)

_EXACT_SPORADIC = frozenset({63, 65, 67, 69})
_EXACT_FROM = 71

_factorial = lru_cache(maxsize=32)(math.factorial)


class BoundExpr(FrozenValue):
    """Base class for exact bound values and symbolic bound expressions;
    render() takes an optional formatter for the exact integers in it."""

    __slots__ = ()

    def is_exact(self) -> bool:
        return isinstance(self, ExactInt)


class ExactInt(BoundExpr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        if value < 1:
            raise ValueError(f"bounds are positive integers, got {_echo(value)}")
        object.__setattr__(self, "value", value)

    def render(self, fmt=str) -> str:
        return fmt(_within(self.value, _digit_budget()))


class SymbolicJ(BoundExpr):
    __slots__ = ("arg",)

    def __init__(self, arg: int):
        if not (1 <= arg < _EXACT_FROM) or arg in _EXACT_SPORADIC:
            raise ValueError(f"J({_echo(arg)}) has a known exact value and must not stay symbolic")
        object.__setattr__(self, "arg", arg)

    def render(self, fmt=str) -> str:
        return f"J({self.arg})"


class Power(BoundExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: BoundExpr, exponent: int):
        if exponent < 2:
            raise ValueError(f"power nodes need exponent >= 2, got {_echo(exponent)}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def render(self, fmt=str) -> str:
        base = self.base.render(fmt)
        if isinstance(self.base, Product):
            base = f"({base})"
        return f"{base}^{self.exponent}"


class Product(BoundExpr):
    __slots__ = ("operands",)

    def __init__(self, operands: tuple[BoundExpr, ...]):
        if len(operands) < 2:
            raise ValueError("product nodes need at least two operands")
        object.__setattr__(self, "operands", tuple(operands))

    def render(self, fmt=str) -> str:
        return " * ".join(op.render(fmt) for op in self.operands)


def jordan_gl(n: int) -> BoundExpr:
    """Jordan constant of the n-dimensional complex general linear group.

    Exactly (n+1)! for n >= 71 and for n in {63, 65, 67, 69}; 1 for
    n = 0; a symbolic atom J(n) otherwise.
    """
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {_echo(n)}")
    if n == 0:
        return ExactInt(1)
    if n >= _EXACT_FROM or n in _EXACT_SPORADIC:
        # (n+1)! > ((n+1)/e)^(n+1) >= ((n+1)//3)^(n+1)
        bits = (n + 1) * (((n + 1) // 3).bit_length() - 1)
        return ExactInt(_formed(bits, lambda: _factorial(n + 1)))
    return SymbolicJ(n)


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
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"dimension must be a non-negative integer, got {_echo(n)}")
        if not isinstance(b, int) or b < 1:
            raise ValueError(f"component count must be a positive integer, got {_echo(b)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)


def bound(family: str, n: int, components: int | None = None) -> BoundExpr:
    """Jordan bound b * J(m(2^m + 10))^b for a group of the family with an
    identity component of dimension m = FAMILIES[family](n) (the hyperbolic
    stabilizer: J(n) itself) and b components; components (b, default 1)
    applies to the WITH_COMPONENTS families only."""
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValueError(f"unknown family of groups {_echo(family)}")
    if components is not None and family not in WITH_COMPONENTS:
        raise ValueError(f"a component count does not apply to {family}")
    b = GroupDims(n, 1 if components is None else components).b
    group_dim = FAMILIES[family]
    j = jordan_gl(n if group_dim is None else _linear_cap(group_dim(n)))
    if b == 1:
        return j
    if not j.is_exact():
        return Product((ExactInt(b), Power(j, b)))
    x = j.value
    power = _formed(b * (x.bit_length() - 1), lambda: x ** b)
    return ExactInt(_formed(b.bit_length() + power.bit_length() - 2, lambda: b * power))


def bound_lie(dims: GroupDims) -> BoundExpr:
    """Lie group with an n-dimensional identity component and b components."""
    return bound("lie", dims.n, dims.b)


def bound_lie_connected(n: int) -> BoundExpr:
    """Connected Lie group of dimension n."""
    return bound("lie-connected", n)


def bound_algebraic(dims: GroupDims) -> BoundExpr:
    """Complex algebraic group, n-dimensional identity component, b components."""
    return bound("algebraic", dims.n, dims.b)


def bound_compact_complex(n: int) -> BoundExpr:
    """Automorphism group of a compact complex n-manifold."""
    return bound("compact-complex", n)


def bound_hyperbolic(n: int) -> BoundExpr:
    """Isometry group of hyperbolic n-space, inside PGL of dimension (n+1)^2 - 1."""
    return bound("hyperbolic", n)


def stabilizer_bound_hyperbolic(n: int) -> BoundExpr:
    """Point stabilizer in the hyperbolic isometry group: linear in dimension n."""
    return bound("hyperbolic-stabilizer", n)


def bound_riemannian(n: int) -> BoundExpr:
    """Isometry group of a compact Riemannian n-manifold."""
    return bound("riemannian", n)


def expr_to_json(expr: BoundExpr) -> dict:
    """Serialize a bound expression to a JSON-ready dict.

    Integers travel as decimal strings so arbitrary-precision values
    survive any JSON reader.
    """
    if isinstance(expr, ExactInt):
        return {"kind": "exact", "value": expr.render()}
    if isinstance(expr, SymbolicJ):
        return {"kind": "symbolic_j", "arg": expr.arg}
    if isinstance(expr, Power):
        return {"kind": "power", "operands": [expr_to_json(expr.base)],
                "exponent": expr.exponent}
    if isinstance(expr, Product):
        return {"kind": "product",
                "operands": [expr_to_json(op) for op in expr.operands]}
    raise TypeError(f"not a bound expression: {expr!r}")
