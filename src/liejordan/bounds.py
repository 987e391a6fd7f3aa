"""Exact bound expressions for Jordan constants of transformation groups.

The driving quantity is the Jordan constant J(n) of the complex general
linear group in dimension n.  It equals (n+1)! once n is at least 71
and also at n in {63, 65, 67, 69}; for the remaining small n the exact
value is not pinned down here, so those atoms stay symbolic.  Every
bound below is either an exact integer or a product/power expression
over symbolic J atoms, never a float.

Dimension-zero groups are trivial, so J(0) = 1 by convention; callers
that care can flag when that convention fired.  Exact values are kept
and printed within the digit limits set out in errors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (_FORMED_PER_PRINTED, _digit_budget, _formed, _refusal,
                     _within)

_EXACT_SPORADIC = frozenset({63, 65, 67, 69})
_EXACT_FROM = 71
# Deepest expression tree expr_from_json accepts; bound() builds depth 3,
# and the limit keeps the recursive parse and render far from the
# interpreter's recursion limit.
_MAX_JSON_DEPTH = 100


class BoundExpr:
    """Base class for exact bound values and symbolic bound expressions;
    render() takes an optional formatter for the exact integers in it."""

    __slots__ = ()

    def is_exact(self) -> bool:
        return isinstance(self, ExactInt)


@dataclass(frozen=True)
class ExactInt(BoundExpr):
    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError(f"bounds are positive integers, got {self.value}")

    def render(self, fmt=str) -> str:
        return fmt(_within(self.value, _digit_budget()))


@dataclass(frozen=True)
class SymbolicJ(BoundExpr):
    arg: int

    def __post_init__(self):
        m = self.arg
        if not (1 <= m < _EXACT_FROM) or m in _EXACT_SPORADIC:
            raise ValueError(f"J({m}) has a known exact value and must not stay symbolic")

    def render(self, fmt=str) -> str:
        return f"J({self.arg})"


@dataclass(frozen=True)
class Power(BoundExpr):
    base: BoundExpr
    exponent: int

    def __post_init__(self):
        if self.exponent < 2:
            raise ValueError(f"power nodes need exponent >= 2, got {self.exponent}")

    def render(self, fmt=str) -> str:
        base = self.base.render(fmt)
        if isinstance(self.base, Product):
            base = f"({base})"
        return f"{base}^{self.exponent}"


@dataclass(frozen=True)
class Product(BoundExpr):
    operands: tuple[BoundExpr, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("product nodes need at least two operands")
        object.__setattr__(self, "operands", tuple(self.operands))

    def render(self, fmt=str) -> str:
        return " * ".join(op.render(fmt) for op in self.operands)


def _power(base: BoundExpr, exponent: int) -> BoundExpr:
    """base^exponent, with an exact base evaluated and a power of a power
    folded into one power, so (J(5)^2)^3 is J(5)^6."""
    if exponent == 1:
        return base
    if isinstance(base, Power):
        return _power(base.base, base.exponent * exponent)
    if base.is_exact():
        x = base.value
        return ExactInt(_formed(exponent * (x.bit_length() - 1), lambda: x ** exponent))
    return Power(base, exponent)


def _product(factors) -> BoundExpr:
    """Product of bound expressions, with nested products flattened and the
    exact factors folded into one leading coefficient."""
    ops = [op for f in factors for op in (f.operands if isinstance(f, Product) else (f,))]
    coefficient, symbolic = 1, [op for op in ops if not op.is_exact()]
    for x in (op.value for op in ops if op.is_exact()):
        bits = coefficient.bit_length() + x.bit_length() - 2
        coefficient = _formed(bits, lambda: coefficient * x)
    if coefficient != 1 or not symbolic:
        symbolic.insert(0, ExactInt(coefficient))
    return symbolic[0] if len(symbolic) == 1 else Product(tuple(symbolic))


def _scale(coefficient: int, expr: BoundExpr) -> BoundExpr:
    return expr if coefficient == 1 else _product((ExactInt(coefficient), expr))


def jordan_gl(n: int) -> BoundExpr:
    """Jordan constant of the n-dimensional complex general linear group.

    Exactly (n+1)! for n >= 71 and for n in {63, 65, 67, 69}; 1 for
    n = 0; a symbolic atom J(n) otherwise.
    """
    if n < 0:
        raise ValueError(f"dimension must be non-negative, got {n}")
    if n == 0:
        return ExactInt(1)
    if n >= _EXACT_FROM or n in _EXACT_SPORADIC:
        # (n+1)! > ((n+1)/e)^(n+1) >= ((n+1)//3)^(n+1)
        bits = (n + 1) * (((n + 1) // 3).bit_length() - 1)
        return ExactInt(_formed(bits, lambda: math.factorial(n + 1)))
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
        raise _refusal(f"2^{m}", limit)
    return m * (2 ** m + 10)


@dataclass(frozen=True)
class GroupDims:
    """Dimension n of the group and its number of components b."""

    n: int
    b: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"dimension must be a non-negative integer, got {self.n!r}")
        if not isinstance(self.b, int) or self.b < 1:
            raise ValueError(f"component count must be a positive integer, got {self.b!r}")


def bound(family: str, n: int, components: int | None = None) -> BoundExpr:
    """Jordan bound b * J(m(2^m + 10))^b for a group of the family with an
    identity component of dimension m = FAMILIES[family](n) (the hyperbolic
    stabilizer: J(n) itself) and b components; components (b, default 1)
    applies to the WITH_COMPONENTS families only."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family of groups {family!r}")
    if components is not None and family not in WITH_COMPONENTS:
        raise ValueError(f"a component count does not apply to {family}")
    b = GroupDims(n, 1 if components is None else components).b
    group_dim = FAMILIES[family]
    arg = n if group_dim is None else _linear_cap(group_dim(n))
    return _scale(b, _power(jordan_gl(arg), b))


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


def _field(data: dict, key: str, kind: type):
    value = data.get(key)
    if type(value) is not kind:
        raise ValueError(f"{data['kind']} nodes need a {kind.__name__} {key!r}, got {value!r}")
    return value


def expr_from_json(data: dict) -> BoundExpr:
    """Parse a dict produced by expr_to_json; inverse of it on valid input.

    Exact subtrees are collapsed, nested products flattened and powers of
    powers folded, so the result satisfies the constructor invariants.
    Malformed input, including a tree nested more than 100 levels deep,
    raises ValueError; an exact value past the digit limits,
    ResourceGuardError.
    """
    return _from_json(data, _MAX_JSON_DEPTH)


def _from_json(data: dict, depth: int) -> BoundExpr:
    if depth < 1:
        raise ValueError(f"bound expressions nest at most {_MAX_JSON_DEPTH} levels deep")
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"expected a bound-expression dict, got {data!r}")
    kind = data["kind"]
    if kind == "exact":
        digits = _field(data, "value", str).lstrip("0")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"exact values are positive decimal strings, got {data['value']!r}")
        if len(digits) > _digit_budget():
            raise _refusal(len(digits), _digit_budget())
        return ExactInt(int(digits))
    if kind == "symbolic_j":
        return SymbolicJ(_field(data, "arg", int))
    if kind not in ("power", "product"):
        raise ValueError(f"unknown bound-expression kind {kind!r}")
    operands = _field(data, "operands", list)
    if kind == "product":
        if len(operands) < 2:
            raise ValueError("product nodes need at least two operands")
        return _product([_from_json(op, depth - 1) for op in operands])
    exponent = _field(data, "exponent", int)
    if len(operands) != 1 or exponent < 2:
        raise ValueError(f"power nodes need one operand and an exponent >= 2, "
                         f"got {len(operands)} and {exponent}")
    return _power(_from_json(operands[0], depth - 1), exponent)
