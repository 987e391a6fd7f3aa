"""The class-union walk of finitegroup against the heap walk it replaced.

finitegroup._class_unions releases its unions one level, one order, at a
time, each level sorted by mask; old_class_unions releases them one by one
from a heap on (order, mask).  At both call sites, the search for a largest
normal abelian subgroup and the supplement search over its classes, the
levels flattened must be the heap's sequence, elements lists included.
"""
import random
import sys

import pytest

import old_class_unions as old
from liejordan import finitegroup
from liejordan.finitegroup import _class_unions, jordan_constant_with_witness, parse_group
from test_finitegroup_engine import CORPUS, PERM_GROUPS, group_text, perm_text


def relabelled(degree, generators, seed):
    """The permutation group with its points renamed by a seeded shuffle."""
    names = list(range(1, degree + 1))
    random.Random(seed).shuffle(names)
    return perm_text(degree, [[tuple(names[p - 1] for p in c) for c in g] for g in generators])


GROUPS = {name: group_text(name) for name in CORPUS + ["s3", "s4", "a5"] + list(PERM_GROUPS)}
GROUPS.update((f"{name}-relabelled", relabelled(*PERM_GROUPS[name], seed=7))
              for name in PERM_GROUPS)


def recorded_walks(monkeypatch, G):
    """J of G, and each call of _class_unions its witness search made, as
    (calling function, its arguments)."""
    calls = []

    def recording(*args):
        calls.append((sys._getframe(1).f_code.co_name, args))
        return _class_unions(*args)

    monkeypatch.setattr(finitegroup, "_class_unions", recording)
    value, _ = jordan_constant_with_witness(G)
    return value, calls


@pytest.mark.parametrize("name", list(GROUPS))
def test_levels_flatten_to_the_heap_sequence(monkeypatch, name):
    G = parse_group(GROUPS[name])
    value, calls = recorded_walks(monkeypatch, G)
    expected = set() if value == 1 else {"_largest_normal_abelian"}
    if 1 < value < G.order:
        expected.add("_least_supplement")
    assert {caller for caller, _ in calls} == expected
    for _, args in calls:
        levels = list(_class_unions(*args))
        orders = [len(level[0][1]) for level in levels]
        assert orders == sorted(set(orders))
        assert all(len(members) == order for level, order in zip(levels, orders)
                   for _, members in level)
        assert [union for level in levels for union in level] == list(old.class_unions(*args))
