"""The first center and rdim code, kept as a test oracle for the current one.

Classes are Fraction vectors in [0, 1): the center order is a Bareiss
determinant, the classes the closure of the columns of the Fraction
inverse of the Cartan matrix, recomputed on every call; the rdim DP keeps
one slot per subset of the nonidentity classes.  Its answers, witnesses
and tie-breaks included, are the ones the current code must give.

bareiss_center is the integer center that followed it: one fraction-free
Gauss-Jordan elimination on the whole Cartan matrix, then the closure of
every column of the adjugate.

pair is the pairing that summed one Fraction product per coordinate.
"""
from fractions import Fraction

from liejordan.center import CenterClass, WeightSet
from liejordan.minfaithful import RdimResult
from liejordan.rootdata import (RootDatum, check_rank_budget,
                                enumerate_dominant_weights, weyl_dim)


def _det(matrix) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _inverse(matrix) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix via Gauss-Jordan over Fraction."""
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] +
           [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [x / factor for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def center_order(datum: RootDatum) -> int:
    """Order of the center: the determinant of the Cartan matrix."""
    return _det(datum.cartan)


def pair(weight, element) -> Fraction:
    """Value of a weight on a central element, as a fraction in [0, 1)."""
    coords = element.coords if isinstance(element, CenterClass) else tuple(element)
    if len(coords) != len(weight.coords):
        raise ValueError(
            f"element has {len(coords)} coordinates, weight has {len(weight.coords)}")
    return sum((Fraction(c) * l for l, c in zip(weight.coords, coords)),
               Fraction(0)) % 1


def _mod1(vec) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) % 1 for c in vec)


def center_classes(datum: RootDatum) -> list[CenterClass]:
    """All nonidentity central classes, sorted lexicographically.

    The columns of the inverse Cartan matrix generate the center mod 1;
    the closure under addition is tiny (at most the determinant), so a
    plain worklist suffices.  The count is checked against the
    determinant.
    """
    inv = _inverse(datum.cartan)
    rank = datum.rank
    generators = [_mod1(tuple(inv[i][j] for i in range(rank))) for j in range(rank)]
    zero = tuple(Fraction(0) for _ in range(rank))
    classes = {zero}
    frontier = [g for g in generators if g not in classes]
    classes.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for g in generators:
                s = _mod1(tuple(x + y for x, y in zip(a, g)))
                if s not in classes:
                    classes.add(s)
                    nxt.append(s)
        frontier = nxt
    if len(classes) != center_order(datum):
        raise AssertionError(
            f"{datum.type}: found {len(classes)} central classes, "
            f"determinant is {center_order(datum)}")
    classes.discard(zero)
    return [CenterClass(c) for c in sorted(classes)]


def is_faithful(datum: RootDatum, weight_set: WeightSet) -> bool:
    """Whether the direct sum over the weight set has trivial kernel.

    True exactly when every nonidentity central class is detected by at
    least one weight in the set.
    """
    for w in weight_set:
        if len(w.coords) != datum.rank:
            raise ValueError(
                f"weight {w.coords} does not match rank {datum.rank} of {datum.type}")
    return all(
        any(pair(w, cls) for w in weight_set)
        for cls in center_classes(datum))


def rdim(datum: RootDatum, override: bool = False) -> RdimResult:
    """Minimal faithful total dimension, with a deterministic witness.

    Ties are broken by fewest weights, then by the lexicographically
    smallest sorted list of weight coordinates.  Ranks over the budget
    are refused unless override is set.
    """
    check_rank_budget(datum.type, override)
    cap = 2 ** datum.rank + 10
    candidates = enumerate_dominant_weights(datum, cap, allow_large_cap=override)
    classes = center_classes(datum)

    if not classes:
        w, d = candidates[0]
        return RdimResult(d, WeightSet((w,)), (d,))

    # Coverage mask per weight; equal masks keep only the cheapest weight,
    # and candidates arrive ordered by (dim, coords) so the first one wins.
    items = []
    seen_masks = set()
    for w, d in candidates:
        mask = 0
        for bit, cls in enumerate(classes):
            if pair(w, cls):
                mask |= 1 << bit
        if mask and mask not in seen_masks:
            seen_masks.add(mask)
            items.append((mask, d, w))

    full = (1 << len(classes)) - 1
    # best[state] = (total dim, weight count, sorted coords tuple, weights)
    best: list = [None] * (full + 1)
    best[0] = (0, 0, (), ())
    for state in range(full + 1):
        if best[state] is None:
            continue
        total, count, key, weights = best[state]
        for mask, d, w in items:
            nxt = state | mask
            if nxt == state:
                continue
            cand = (total + d, count + 1,
                    tuple(sorted(key + (w.coords,))), weights + (w,))
            if best[nxt] is None or cand[:3] < best[nxt][:3]:
                best[nxt] = cand
    if best[full] is None:
        raise AssertionError(f"no faithful weight set under cap for {datum.type}")
    total, _, _, weights = best[full]
    witness = WeightSet(weights)
    dims = tuple(weyl_dim(datum, w) for w in witness)
    return RdimResult(total, witness, dims)


def bareiss_center(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, classes): the Cartan determinant and the nonidentity central
    classes as sorted integer vectors x mod d, x standing for x/d mod 1.

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
