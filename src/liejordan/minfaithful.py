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

The enumeration cap 2**rank + 10 is safe: every type admits a faithful
set of total dimension at most that value, each weight in an optimal
set has dimension at most the optimal total, and the cap is attained
only by the 26-dimensional rank-4 case.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .center import WeightSet, _center
from .rootdata import (_EXCEPTIONAL_RANKS, _MIN_RANK, RootDatum, SimpleType,
                       build_root_datum, check_rank_budget,
                       enumerate_dominant_weights)


@dataclass(frozen=True)
class RdimResult:
    """An optimal faithful weight set with its dimension bookkeeping.

    per_weight_dims is aligned with the (sorted) witness weights.
    """

    total_dim: int
    witness: WeightSet
    per_weight_dims: tuple[int, ...]


def rdim(datum: RootDatum, override: bool = False) -> RdimResult:
    """Minimal faithful total dimension, with a deterministic witness.

    Ties are broken by fewest weights, then by the lexicographically
    smallest sorted list of weight coordinates.  Ranks over the budget
    are refused unless override is set.
    """
    check_rank_budget(datum.type, override)
    cap = 2 ** datum.rank + 10
    candidates = enumerate_dominant_weights(datum, cap, allow_large_cap=override)
    d, classes = _center(datum.cartan)

    if not classes:
        w, dim = candidates[0]
        return RdimResult(dim, WeightSet((w,)), (dim,))

    # Coverage mask per weight; equal masks keep only the cheapest weight,
    # and candidates arrive ordered by (dim, coords) so the first one wins.
    items = []
    seen_masks = set()
    for w, dim in candidates:
        mask = 0
        for bit, x in enumerate(classes):
            if sum(l * c for l, c in zip(w.coords, x)) % d:
                mask |= 1 << bit
        if mask and mask not in seen_masks:
            seen_masks.add(mask)
            items.append((mask, dim, w))

    # best[state] = (total dim, weight count, sorted coords tuple, weights).
    # Every move sets a new bit, so a state is popped from the heap only
    # after every smaller reachable state: the relaxation order, and with it
    # every tie-break, is that of a scan over all states in ascending order.
    full = (1 << len(classes)) - 1
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
    if full not in best:
        raise AssertionError(f"no faithful weight set under cap for {datum.type}")
    total, _, _, weights = best[full]
    witness = WeightSet(weights)
    dims = {w: dim for _, dim, w in items}
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
