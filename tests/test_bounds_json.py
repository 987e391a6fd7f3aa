"""Property tests for the JSON form of bound expressions."""
from hypothesis import given, settings
from hypothesis import strategies as st

from liejordan import ResourceGuardError
from liejordan.bounds import (ExactInt, Power, Product, SymbolicJ,
                              expr_from_json, expr_to_json)

SYMBOLIC_ARGS = [k for k in range(1, 71) if k not in (63, 65, 67, 69)]

trees = st.recursive(
    st.one_of(st.builds(SymbolicJ, st.sampled_from(SYMBOLIC_ARGS)),
              st.builds(ExactInt, st.integers(1, 10 ** 6))),
    lambda children: st.one_of(
        st.builds(Power, children, st.integers(2, 3)),
        st.builds(lambda ops: Product(tuple(ops)), st.lists(children, min_size=2, max_size=3)),
    ),
    max_leaves=8)


def evaluate(expr):
    """Value of a tree with every J(k) read as k + 1."""
    if isinstance(expr, ExactInt):
        return expr.value
    if isinstance(expr, SymbolicJ):
        return expr.arg + 1
    if isinstance(expr, Power):
        return evaluate(expr.base) ** expr.exponent
    out = 1
    for op in expr.operands:
        out *= evaluate(op)
    return out


def is_canonical(expr):
    if isinstance(expr, Power):
        return not expr.base.is_exact() and is_canonical(expr.base)
    if isinstance(expr, Product):
        ops = expr.operands
        return (not any(isinstance(op, Product) or op.is_exact() for op in ops[1:])
                and not isinstance(ops[0], Product)
                and ops[0] != ExactInt(1)
                and all(is_canonical(op) for op in ops))
    return True


@settings(max_examples=200, deadline=None)
@given(trees)
def test_json_round_trip_property(tree):
    parsed = expr_from_json(expr_to_json(tree))
    assert evaluate(parsed) == evaluate(tree)
    assert is_canonical(parsed)
    assert expr_from_json(expr_to_json(parsed)) == parsed


def has_nested_power(expr):
    if isinstance(expr, Power):
        return isinstance(expr.base, Power) or has_nested_power(expr.base)
    if isinstance(expr, Product):
        return any(has_nested_power(op) for op in expr.operands)
    return False


@settings(max_examples=200, deadline=None)
@given(trees)
def test_json_parse_folds_every_power_of_a_power(tree):
    parsed = expr_from_json(expr_to_json(tree))
    assert not has_nested_power(parsed)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10 ** 12),
              st.floats(allow_nan=False), st.text(max_size=5),
              st.sampled_from(["exact", "symbolic_j", "power", "product", "7"])),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "value", "arg", "operands", "exponent"]),
                        children, max_size=5)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_parse_fails_only_with_value_or_guard_errors(data):
    try:
        expr_from_json(data)
    except (ValueError, ResourceGuardError):
        pass
