"""Answers recomputed without liejordan, to check the program's outputs.

Each function reaches the expected value by a different route than the
library: the Weyl dimension from positive roots and the invariant form
(the library uses coroots), the center from the integer adjugate of the
Cartan matrix (the library uses Fraction Gauss-Jordan), and every bound
from the uniform formula b * J(m(2^m + 10))^b over a per-family group
dimension m (the library keeps one helper per family).
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

# --- root data -------------------------------------------------------------


def positive_roots(cartan) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates, by simple reflections.

    With C[i][j] = <alpha_i, alpha_j^vee>, the reflection s_j sends a root
    a to a - <a, alpha_j^vee> alpha_j, where <a, alpha_j^vee> = sum_i a_i C[i][j].
    """
    rank = len(cartan)
    roots = {tuple(int(i == j) for j in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        grown = []
        for a in frontier:
            for j in range(rank):
                b = list(a)
                b[j] -= sum(a[i] * cartan[i][j] for i in range(rank))
                b = tuple(b)
                if min(b) >= 0 and b not in roots:
                    roots.add(b)
                    grown.append(b)
        frontier = grown
    return sorted(roots)


def half_lengths(cartan) -> list[Fraction]:
    """e_j = (alpha_j, alpha_j) / 2 up to a common scale: C[i][j] e_j = C[j][i] e_i."""
    rank = len(cartan)
    e: list[Fraction | None] = [Fraction(1)] + [None] * (rank - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(rank):
            if cartan[i][j] and e[j] is None:
                e[j] = Fraction(cartan[j][i]) * e[i] / cartan[i][j]
                todo.append(j)
    return e


class WeylDims:
    """Weyl dimension formula over roots: prod (lambda+rho, a) / (rho, a)."""

    def __init__(self, cartan):
        e = half_lengths(cartan)
        self.roots = [[a_j * e_j for a_j, e_j in zip(a, e)] for a in positive_roots(cartan)]
        self.den = math.prod(sum(r) for r in self.roots)

    def dim(self, coords) -> int:
        shifted = [c + 1 for c in coords]
        num = math.prod(sum(x * s for x, s in zip(r, shifted)) for r in self.roots)
        value = num / self.den
        if value.denominator != 1:
            raise ArithmeticError(f"non-integral Weyl dimension for {coords}")
        return int(value)


def _det(m) -> int:
    """Determinant by cofactor expansion along the first row; fine for rank <= 9
    because Cartan matrices are sparse (tridiagonal plus one branch)."""
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for j, a in enumerate(m[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * a * _det(minor)
    return total


def center(cartan) -> tuple[int, list[tuple[int, ...]]]:
    """Order d of the center and its nonidentity classes as integer vectors
    x mod d, meaning the coroot-coordinate class x / d mod 1.

    The central elements are C^-1 Z^l mod Z^l, and d C^-1 is the adjugate,
    so the classes are the subgroup of (Z/d)^l spanned by its columns.
    """
    n = len(cartan)
    d = _det(cartan)

    def cofactor(i, j):
        minor = [row[:j] + row[j + 1:] for k, row in enumerate(cartan) if k != i]
        return (-1) ** (i + j) * _det(minor)

    # column j of the adjugate is the cofactor row j
    gens = [tuple(cofactor(j, i) % d for i in range(n)) for j in range(n)]
    zero = (0,) * n
    group = {zero}
    frontier = [zero]
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % d for a, b in zip(x, g))
                if y not in group:
                    group.add(y)
                    grown.append(y)
        frontier = grown
    if len(group) != d:
        raise ArithmeticError(f"center has {len(group)} classes, determinant {d}")
    group.discard(zero)
    return d, sorted(group)


def class_fractions(d: int, x) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, d) for c in x)


def pairing(d: int, x, coords) -> Fraction:
    return Fraction(sum(c * l for c, l in zip(x, coords)) % d, d)


def faithful(d: int, classes, weights) -> bool:
    return all(any(pairing(d, x, w) for w in weights) for x in classes)


# --- bounds ----------------------------------------------------------------

# Per-family group dimension m; the bound is b * J(m(2^m + 10))^b.  The
# hyperbolic stabilizer embeds linearly in dimension n and uses J(n) itself.
GROUP_DIM = {
    "lie": lambda n: n,
    "lie-connected": lambda n: n,
    "algebraic": lambda n: 2 * n,
    "compact-complex": lambda n: 2 * n * n + n,
    "hyperbolic": lambda n: n * n + 2 * n,
    "riemannian": lambda n: n * (n + 1) // 2,
}
FAMILIES = ("lie", "lie-connected", "algebraic", "compact-complex",
            "hyperbolic", "hyperbolic-stabilizer", "riemannian")
_J_EXACT = frozenset({63, 65, 67, 69})


def j_argument(family: str, n: int) -> int:
    if family == "hyperbolic-stabilizer":
        return n
    m = GROUP_DIM[family](n)
    return m * (2 ** m + 10)


def j_exact(m: int) -> bool:
    return m == 0 or m >= 71 or m in _J_EXACT


def log10_bound(family: str, n: int, b: int) -> float:
    """log10 of the exact bound, or -1 where it stays symbolic."""
    m = j_argument(family, n)
    if not j_exact(m):
        return -1.0
    return math.log10(b) + b * math.lgamma(m + 2) / math.log(10)


def expected_bound(family: str, n: int, b: int):
    """(exact value, None) or (None, symbolic rendering) of the bound."""
    m = j_argument(family, n)
    if j_exact(m):
        j = 1 if m == 0 else math.factorial(m + 1)
        return b * j ** b, None
    return None, (f"J({m})" if b == 1 else f"{b} * J({m})^{b}")


def digits(v: int) -> int:
    """Decimal digits of a positive integer, without str()."""
    d = max(1, int(v.bit_length() * 0.30102999566398120))
    while 10 ** d <= v:
        d += 1
    while d > 1 and 10 ** (d - 1) > v:
        d -= 1
    return d


def full_str(v: int) -> str:
    """str(v) past CPython's default int->str digit limit, restoring it after."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(v)
    finally:
        sys.set_int_max_str_digits(old)


def text_int(v: int) -> str:
    """The README's text format: past 40 digits, a digit count and magnitude."""
    s = full_str(v)
    if len(s) <= 40:
        return s
    return f"{s} ({len(s)} digits, ~{s[0]}.{s[1:6]}e{len(s) - 1})"


# --- finite groups ---------------------------------------------------------


def table_is_abelian(text: str) -> bool:
    rows = [[int(t) for t in ln.split()] for ln in text.splitlines()[1:] if ln.strip()]
    return all(rows[a][b] == rows[b][a] for a in range(len(rows)) for b in range(a))


def perm_generators_commute(text: str) -> bool:
    gens = [[int(t) - 1 for t in ln.split()] for ln in text.splitlines()[1:] if ln.strip()]
    return all([p[q[x]] for x in range(len(p))] == [q[p[x]] for x in range(len(p))]
               for p in gens for q in gens)


def is_subgroup(mult, elements) -> bool:
    inside = set(elements)
    return 0 in inside and all(mult[a][b] in inside for a in inside for b in inside)
