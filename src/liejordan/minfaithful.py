"""Minimal total dimension of a faithful completely reducible representation.

For a simply connected simple group, a direct sum of irreducibles is
faithful exactly when the highest weights jointly detect every
nonidentity central class.  Minimising the total dimension is therefore
a weighted set-cover problem over the nonidentity classes, solved
exactly by dynamic programming over coverage bitmasks.  A weight covers
the classes outside the kernel of its central character, a subgroup of
the center, so every state the DP reaches is the complement of a
subgroup (an intersection of kernels); only those states are stored.
The center is cyclic or Z2 x Z2, so there are at most as many states as
divisors of its order, or 5.

The search for candidate weights is capped by the total dimension of the
cheapest faithful set of fundamental weights (the smallest fundamental
dimension when the center is trivial), found by the same DP.  The
fundamental weights together are faithful, so that total is at least the
optimum, and every weight of an optimal or tied set has dimension at most
the optimum: the cap changes neither the answer nor its witness.  The
total never passes 2**rank + 10, which only F4's 26 reaches, so the
enumeration's budget check on caps over 2**max_rank() + 10 is never what
refuses an rdim within the rank budget.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .center import WeightSet, _center
from .rootdata import (_EXCEPTIONAL_RANKS, _MIN_RANK, RootDatum, SimpleType,
                       _fundamental_weights, build_root_datum, check_rank_budget,
                       enumerate_dominant_weights)


@dataclass(frozen=True)
class RdimResult:
    """An optimal faithful weight set with its dimension bookkeeping.

    per_weight_dims is aligned with the (sorted) witness weights.
    """

    total_dim: int
    witness: WeightSet
    per_weight_dims: tuple[int, ...]


def _cheapest_cover(weighted, d: int, classes):
    """The cheapest set of the given weights that detects every class, as
    (total dim, weight count, sorted coords tuple, weights), or None.
    The (weight, dim) pairs come ordered by (dim, coords).

    Each weight covers the classes its central character does not kill;
    equal coverage masks keep only the first, cheapest weight.
    """
    items = []
    seen_masks = set()
    for w, dim in weighted:
        mask = 0
        for bit, x in enumerate(classes):
            if sum(l * c for l, c in zip(w.coords, x)) % d:
                mask |= 1 << bit
        if mask and mask not in seen_masks:
            seen_masks.add(mask)
            items.append((mask, dim, w))

    # best[state] is such a tuple for the classes in state.  Every move sets
    # a new bit, so a state is popped from the heap only after every smaller
    # reachable state: the relaxation order, and with it every tie-break, is
    # that of a scan over all states in ascending order.
    best = {0: (0, 0, (), ())}
    pending = [0]
    while pending:
        state = heapq.heappop(pending)
        total, count, key, weights = best[state]
        for mask, dim, w in items:
            nxt = state | mask
            if nxt == state:
                continue
            cand = (total + dim, count + 1,
                    tuple(sorted(key + (w.coords,))), weights + (w,))
            if nxt not in best:
                heapq.heappush(pending, nxt)
            elif cand[:3] >= best[nxt][:3]:
                continue
            best[nxt] = cand
    return best.get((1 << len(classes)) - 1)


def _fundamental_cap(datum: RootDatum) -> int:
    """Total dimension of the cheapest faithful set of fundamental weights,
    or the smallest fundamental dimension when the center is trivial."""
    d, classes = _center(datum.cartan)
    fundamentals = sorted(_fundamental_weights(datum),
                          key=lambda pair: (pair[1], pair[0].coords))
    if not classes:
        return fundamentals[0][1]
    return _cheapest_cover(fundamentals, d, classes)[0]


def rdim(datum: RootDatum, override: bool = False) -> RdimResult:
    """Minimal faithful total dimension, with a deterministic witness.

    Ties are broken by fewest weights, then by the lexicographically
    smallest sorted list of weight coordinates.  Ranks over the budget
    are refused unless override is set.
    """
    check_rank_budget(datum.type, override)
    cap = _fundamental_cap(datum)
    candidates = enumerate_dominant_weights(datum, cap, allow_large_cap=override)
    d, classes = _center(datum.cartan)
    if not classes:
        w, dim = candidates[0]
        return RdimResult(dim, WeightSet((w,)), (dim,))

    best = _cheapest_cover(candidates, d, classes)
    if best is None:
        raise AssertionError(f"no faithful weight set under cap for {datum.type}")
    total, _, _, weights = best
    witness = WeightSet(weights)
    dims = {w: dim for w, dim in candidates}
    return RdimResult(total, witness, tuple(dims[w] for w in witness))


def rdim_table(table_max_rank: int, override: bool = False):
    """Minimal faithful dimensions for every simple type up to a rank.

    Returns (SimpleType, RdimResult) pairs, ordered by family letter
    then rank.  Exceptional types appear when their rank fits.
    """
    if table_max_rank < 1:
        raise ValueError(f"max rank must be positive, got {table_max_rank}")
    check_rank_budget(SimpleType("A", table_max_rank), override)
    ranks = {fam: range(lo, table_max_rank + 1) for fam, lo in _MIN_RANK.items()}
    ranks.update(_EXCEPTIONAL_RANKS)
    types = [SimpleType(fam, rank) for fam, fam_ranks in ranks.items()
             for rank in fam_ranks if rank <= table_max_rank]
    return [(t, rdim(build_root_datum(t), override)) for t in types]
