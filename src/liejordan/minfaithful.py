"""Minimal total dimension of a faithful completely reducible representation.

For a simply connected simple group, a direct sum of irreducibles is
faithful exactly when the highest weights jointly detect every
nonidentity central class.  Minimising the total dimension is therefore
a weighted set-cover problem over the nonidentity classes, solved
exactly by dynamic programming over coverage bitmasks.  A weight covers
the classes outside the kernel of its central character, a subgroup of
the center, and every weight sets one more bit, "the set is nonempty",
which is all a trivial center asks for.  Every state the DP reaches is
the empty set, or the nonempty bit with the complement of a subgroup (an
intersection of kernels); only those states are stored.  The center is
cyclic or Z2 x Z2, so there are at most 1 + (divisors of its order)
states, or 6.

The search for candidate weights is capped by the total dimension of the
cheapest faithful set of fundamental weights, found by the same DP; their
dimensions, probed once for the cap, are handed to the enumeration.  It
takes them for its first probe at each position, which would be those
weights again, and for its prune: no weight lambda + omega_i with
dim(lambda) + dim(omega_i) - 1 over the cap is probed, since
dim(lambda + mu) >= dim(lambda) + dim(mu) - 1 for dominant lambda, mu
(see enumerate_dominant_weights).  The fundamental weights together are
faithful, so that total is at least the optimum, and every weight of an
optimal or tied set has dimension at most the optimum: neither the cap
nor the prune changes the answer or its witness.  The total never passes
2**rank + 10, which only F4's 26 reaches, so the enumeration's budget
check on caps over 2**max_rank() + 10 is never what refuses an rdim
within the rank budget.
"""
from __future__ import annotations

import heapq

from .center import WeightSet
from .errors import FrozenValue, _echo
from .rootdata import (_FAMILIES, RootDatum, SimpleType, _fundamental_weights,
                       build_root_datum, check_rank_budget, enumerate_dominant_weights)


class RdimResult(FrozenValue):
    """An optimal faithful weight set with its dimension bookkeeping.

    per_weight_dims is aligned with the (sorted) witness weights.
    """

    __slots__ = ("total_dim", "witness", "per_weight_dims")

    def __init__(self, total_dim: int, witness: WeightSet, per_weight_dims: tuple[int, ...]):
        object.__setattr__(self, "total_dim", total_dim)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "per_weight_dims", per_weight_dims)


def _cheapest_cover(weighted, d: int, classes):
    """The cheapest nonempty set of the given weights that detects every
    class, as (total dim, weight count, sorted coords tuple, weights), or
    None.  The (weight, dim) pairs come ordered by (dim, coords).

    Each weight covers the classes its central character does not kill,
    and the top bit, which stands for the set being nonempty; equal
    coverage masks keep only the first, cheapest weight.  A character is
    a dot product over the weight's nonzero coordinates only, one for a
    fundamental weight.
    """
    nonempty = 1 << len(classes)
    items = []
    seen_masks = set()
    for w, dim in weighted:
        mask = nonempty
        support = [(i, l) for i, l in enumerate(w.coords) if l]
        for bit, x in enumerate(classes):
            if sum(l * x[i] for i, l in support) % d:
                mask |= 1 << bit
        if mask not in seen_masks:
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
    return best.get(2 * nonempty - 1)


def _fundamental_cap(datum: RootDatum, fundamentals=None) -> int:
    """Total dimension of the cheapest faithful set of fundamental weights,
    from their (weight, dim) pairs in node order, probed here if not given."""
    ordered = sorted(fundamentals or _fundamental_weights(datum),
                     key=lambda pair: (pair[1], pair[0].coords))
    return _cheapest_cover(ordered, *datum.center)[0]


def rdim(datum: RootDatum, override: bool = False) -> RdimResult:
    """Minimal faithful total dimension, with a deterministic witness.

    Ties are broken by fewest weights, then by the lexicographically
    smallest sorted list of weight coordinates.  Ranks over the budget
    are refused unless override is set.
    """
    check_rank_budget(datum.type, override)
    fundamentals = _fundamental_weights(datum)
    cap = _fundamental_cap(datum, fundamentals)
    candidates = enumerate_dominant_weights(datum, cap, allow_large_cap=override,
                                            fundamental_dims=[dim for _, dim in fundamentals])
    best = _cheapest_cover(candidates, *datum.center)
    if best is None:
        raise AssertionError(f"no faithful weight set under cap for {datum.type}")
    total, _, _, weights = best
    witness = WeightSet(weights)
    dims = dict(candidates)
    return RdimResult(total, witness, tuple(dims[w] for w in witness))


def rdim_table(table_max_rank: int):
    """Minimal faithful dimensions for every simple type up to a rank.

    Returns (SimpleType, RdimResult) pairs, ordered by family letter
    then rank.  Exceptional types appear when their rank fits.
    """
    if type(table_max_rank) is not int:
        raise ValueError(f"max rank must be an integer, got {_echo(table_max_rank)}")
    if table_max_rank < 1:
        raise ValueError(f"max rank must be positive, got {_echo(table_max_rank)}")
    check_rank_budget(SimpleType("A", table_max_rank))
    types = [SimpleType(fam, rank) for fam, (ranks, *_) in _FAMILIES.items()
             for rank in (range(ranks, table_max_rank + 1) if isinstance(ranks, int) else ranks)
             if rank <= table_max_rank]
    return [(t, rdim(build_root_datum(t))) for t in types]
