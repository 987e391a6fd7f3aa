"""The bound value against the expression tree it replaced (old_bounds.py).

Over every family at small, large (the first sporadic exact J among them),
huge and negative n, with every kind of component count (absent, refused,
one, several, past 40 digits, past the int->str digit limit, and given
where it does not apply), both give the same renderings, plain and with
the CLI's text formatter, the same JSON, the same exact value, and the
same refusals, type and message, at the same step.
"""
import pytest

import old_bounds as old
from liejordan import bounds
from liejordan.cli import _fmt_int
from liejordan.errors import ResourceGuardError, _echo

LONG = 10 ** 5000  # its echo in a message is cut short, and it never prints
NS = [*range(9), 12, 20, 63, 64, 100, 10 ** 6, -1, LONG, -LONG]


def _components(family):
    if family in bounds.WITH_COMPONENTS:
        return (None, 0, 1, 2, 3, 7, 10 ** 50, LONG, -LONG)
    return (None, 2)


def attempt(step, *args):
    """("ok", the result) or (the exception's type, its message)."""
    try:
        return "ok", step(*args)
    except (ValueError, ResourceGuardError) as exc:
        return type(exc), str(exc)


def steps(module, family, n, components):
    """Each step's outcome on the bound: building it, then each reading of it."""
    built = attempt(module.bound, family, n, components)
    if built[0] != "ok":
        return [built]
    expr = built[1]
    return [attempt(expr.render), attempt(expr.render, _fmt_int),
            attempt(module.expr_to_json, expr), getattr(expr, "value", None)]


@pytest.mark.parametrize("family", list(bounds.FAMILIES))
def test_same_bounds_as_the_expression_tree(family):
    assert old.FAMILIES.keys() == bounds.FAMILIES.keys()
    for n in NS:
        for components in _components(family):
            new = steps(bounds, family, n, components)
            assert new == steps(old, family, n, components), (_echo(n), _echo(components))
            assert all(len(step[1]) < 300 for step in new
                       if isinstance(step, tuple) and step[0] != "ok")
