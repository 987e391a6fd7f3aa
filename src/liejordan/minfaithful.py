"""Minimal total dimension of a faithful completely reducible representation.

For a simply connected simple group, a direct sum of irreducibles is
faithful exactly when the highest weights jointly detect every
nonidentity central class.  Minimising the total dimension is therefore
a weighted set-cover problem over the nonidentity classes.  A weight
covers the classes outside the kernel of its central character, and only
the cheapest weight of each coverage matters, so every set of distinct
coverages is tried.  That is few: even D's center is Z2 x Z2, whose
characters have kernels of index 1 or 2, so four coverages at most; the
other centers but A's are cyclic of order at most 4, so at most three;
and under A_l's cap below only omega_1 and omega_l, both faithful, are
candidates.  So at most 15 sets are tried.

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

import functools
import itertools
import operator

from .center import WeightSet
from .errors import FrozenValue, _check_flag, _echo, _field_echo, _instance
from .rootdata import (_FAMILIES, RootDatum, SimpleType, build_root_datum, check_rank_budget,
                       enumerate_dominant_weights)


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
    class, as (total dim, weight count, sorted coords tuple, weights, dims),
    the last two in coords order, or None.  The (weight, dim) pairs come
    ordered by (dim, coords).

    Each weight covers the classes its central character does not kill;
    equal coverage masks keep only the first, cheapest weight.  A character
    is a dot product over the weight's nonzero coordinates only, one for a
    fundamental weight.  A trivial center's full mask is 0, which any one
    weight covers.
    """
    items = {}
    for w, dim in weighted:
        mask = 0
        support = [(i, l) for i, l in enumerate(w.coords) if l]
        for bit, x in enumerate(classes):
            if sum(l * x[i] for i, l in support) % d:
                mask |= 1 << bit
        if mask not in items:
            items[mask] = (w.coords, dim, w)

    # Two sets never tie on (total, count, coords), so no comparison reaches the weights.
    full = (1 << len(classes)) - 1
    best = None
    for size in range(1, len(items) + 1):
        for masks in itertools.combinations(items, size):
            if functools.reduce(operator.or_, masks) == full:
                coords, dims, weights = zip(*sorted(map(items.get, masks)))
                cand = (sum(dims), size, coords, weights, dims)
                if best is None or cand < best:
                    best = cand
    return best


def rdim(datum: RootDatum, override: bool = False) -> RdimResult:
    """Minimal faithful total dimension, with a deterministic witness.

    Ties are broken by fewest weights, then by the lexicographically
    smallest sorted list of weight coordinates.  Ranks over the budget
    are refused unless override is True.
    """
    _instance(datum, RootDatum)
    _check_flag("override", override)
    check_rank_budget(datum.type, override)
    cap = _FAMILIES[datum.type.family].cap(datum.rank)
    best = _cheapest_cover(enumerate_dominant_weights(datum, cap, override), *datum.center)
    if best is None:
        raise AssertionError(f"no faithful weight set under cap for {datum.type}")
    total, _, _, weights, dims = best
    return RdimResult(total, WeightSet(weights), dims)


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
