"""The fundamental cap as rdim computed it before the family table declared
it, kept as a test oracle for that column.

The cap is the total dimension of the cheapest faithful set of fundamental
weights: the set-cover DP of minfaithful, run over the rank unit weights
with the fundamental dimensions the family table declares, and the center
the root datum carries.  Its totals are the ones the table's cap column
must give.
"""
import heapq

from liejordan.rootdata import _FAMILIES, DominantWeight, RootDatum


def _cheapest_cover(weighted, d: int, classes):
    """The cheapest nonempty set of the given weights that detects every
    class, as (total dim, weight count, sorted coords tuple, weights), or
    None.  The (weight, dim) pairs come ordered by (dim, coords)."""
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


def fundamental_cap(datum: RootDatum) -> int:
    """Total dimension of the cheapest faithful set of fundamental weights,
    whose dimensions the family table declares in node order."""
    rank = datum.rank
    units = [DominantWeight((0,) * i + (1,) + (0,) * (rank - i - 1)) for i in range(rank)]
    ordered = sorted(zip(units, _FAMILIES[datum.type.family][5](rank)),
                     key=lambda pair: (pair[1], pair[0].coords))
    return _cheapest_cover(ordered, *datum.center)[0]
