"""The class-union walk of finitegroup as it ran through a heap, kept as a
test oracle for the walk that releases its unions one order at a time.

Both the search for a largest normal abelian subgroup and the supplement
search walk the subgroups reached from a normal one by joining conjugacy
classes.  This walk releases them one by one in increasing (order, mask)
order, each as (mask, elements); the level walk's levels, flattened, must
be this sequence, elements lists included.
"""
from heapq import heappop, heappush


def class_unions(G, members, classes):
    """Each subgroup reached from the normal one with these elements by
    joining classes (mask, elements, mask of all that commute with them)
    one at a time, each to a subgroup its commuting mask holds, as (mask,
    elements) in increasing (order, mask) order: a join always grows the
    subgroup, so a heap on that key releases each order complete."""
    mult, cols = G.mult, G._cols
    bits = [1 << i for i in range(G.order)]
    start = sum(map(bits.__getitem__, members))
    seen, heap = {start}, [(len(members), start, members)]
    while heap:
        _, mask, base = heappop(heap)
        yield mask, base
        for omask, orbit, commuting in classes:
            if not omask & ~mask or mask & ~commuting:
                continue
            bigger, reps = mask, [0]
            for x in reps:
                row = mult[x]
                for c in orbit:
                    y = row[c]
                    if not bigger >> y & 1:
                        bigger |= sum(map(bits.__getitem__, map(cols[y].__getitem__, base)))
                        reps.append(y)
            if bigger not in seen:
                seen.add(bigger)
                grown = [z for y in reps for z in map(cols[y].__getitem__, base)]
                heappush(heap, (len(grown), bigger, grown))
