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
cheapest faithful set of fundamental weights, the family table's
cap: l + 1 for A_l, 2**l for B_l, 2l for C_l, 2**(l-1) for D_l of odd l
and 2l + 2**(l-1) of even l, and 27, 56, 248, 26, 7 for E6, E7, E8, F4,
G2.  The enumeration reads the fundamental dimensions for two lower
bounds on dim(lambda + omega_i) (see enumerate_dominant_weights): no such
weight is probed with dim(lambda) + dim(omega_i) - 1 over the cap, nor,
for A-D, with dim(lambda) * dim_L(omega_i) over it, L the Levi subsystem
past lambda's support.  The fundamental weights together are faithful,
so that total is at least the optimum, and every weight of an optimal or
tied set has dimension at most the optimum: neither the cap nor the
prunes change the answer or its witness.  The cap never passes
2**rank + 10: B's is 2**l, the others of A-D are at most that, E's are
far below it, and only F4's 26 reaches it.  So the enumeration's check
on caps over 2**max_rank() + 10 never refuses an rdim within the budget.
"""
from __future__ import annotations

from .center import WeightSet
from .errors import FrozenValue, _echo, _field_echo
from .rootdata import (_FAMILIES, RootDatum, SimpleType, _check_flag, build_root_datum,
                       check_rank_budget, enumerate_dominant_weights)


class RdimResult(FrozenValue):
    """An optimal faithful weight set with its dimension bookkeeping.

    per_weight_dims is a tuple of positive ints aligned with the (sorted)
    witness weights, and total_dim is its sum.
    """

    __slots__ = ("total_dim", "witness", "per_weight_dims")

    def __init__(self, total_dim: int, witness: WeightSet, per_weight_dims: tuple[int, ...]):
        if not isinstance(witness, WeightSet):
            raise ValueError(f"an rdim witness must be a WeightSet, got {_field_echo(witness)}")
        dims = per_weight_dims
        if (type(dims) is not tuple or len(dims) != len(witness) or type(total_dim) is not int
                or any(type(x) is not int or x < 1 for x in dims) or sum(dims) != total_dim):
            raise ValueError(f"per_weight_dims must be positive ints, one per witness weight, "
                             f"that sum to total_dim {_echo(total_dim)}, got {_field_echo(dims)}")
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

    # best[state] is such a tuple for the classes in state.  Every move sets a new bit, so
    # the least of the (at most 7) pending states is taken only after every smaller reachable
    # state: the relaxation order, and every tie-break, is that of an ascending scan of states.
    best = {0: (0, 0, (), ())}
    pending = [0]
    while pending:
        state = min(pending)
        pending.remove(state)
        total, count, key, weights = best[state]
        for mask, dim, w in items:
            nxt = state | mask
            if nxt == state:
                continue
            cand = (total + dim, count + 1,
                    tuple(sorted(key + (w.coords,))), weights + (w,))
            if nxt not in best:
                pending.append(nxt)
            elif cand[:3] >= best[nxt][:3]:
                continue
            best[nxt] = cand
    return best.get(2 * nonempty - 1)


def rdim(datum: RootDatum, override: bool = False) -> RdimResult:
    """Minimal faithful total dimension, with a deterministic witness.

    Ties are broken by fewest weights, then by the lexicographically
    smallest sorted list of weight coordinates.  Ranks over the budget
    are refused unless override is True.
    """
    _check_flag("override", override)
    check_rank_budget(datum.type, override)
    cap = _FAMILIES[datum.type.family].cap(datum.rank)
    candidates = enumerate_dominant_weights(datum, cap, override)
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
    types = [SimpleType(fam, rank) for fam, row in _FAMILIES.items()
             for rank in (range(row.ranks, table_max_rank + 1) if isinstance(row.ranks, int)
                          else row.ranks) if rank <= table_max_rank]
    return [(t, rdim(build_root_datum(t))) for t in types]
