"""Exact Jordan bounds and their JSON form."""
import functools
import sys

import pytest

from liejordan import ResourceGuardError
from liejordan.bounds import (FAMILIES, WITH_COMPONENTS, Bound, GroupDims, _factorial, bound,
                              bound_algebraic, bound_compact_complex, bound_hyperbolic,
                              bound_lie, bound_lie_connected, bound_riemannian,
                              expr_to_json, stabilizer_bound_hyperbolic)
from liejordan.errors import _digits_from_bits, _within
from paper_literals import consistency_check_bounds


def slow_factorial(n):
    """Independent factorial: iterative product, no library call."""
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def jordan_gl(n):
    """J(n) of the general linear group in dimension n: the hyperbolic
    stabilizer's bound."""
    return bound("hyperbolic-stabilizer", n)


def exact(value, k, b=1):
    return Bound(value, k, b)


def symbolic(k, b=1):
    return Bound(None, k, b)


def test_jordan_gl_exact_range():
    assert jordan_gl(0) == exact(1, 0)
    assert jordan_gl(71) == exact(slow_factorial(72), 71)
    assert jordan_gl(100) == exact(slow_factorial(101), 100)
    for n in (63, 65, 67, 69):
        assert jordan_gl(n) == exact(slow_factorial(n + 1), n)


def test_jordan_gl_symbolic_range():
    assert jordan_gl(10) == symbolic(10)
    assert jordan_gl(1) == symbolic(1)
    assert jordan_gl(62) == symbolic(62)
    assert jordan_gl(64) == symbolic(64)
    assert jordan_gl(70) == symbolic(70)
    with pytest.raises(ValueError):
        jordan_gl(-1)


def test_jordan_gl_exact_values_increase():
    previous = 0
    for n in (0, 63, 65, 67, 69, 71, 72, 73, 90):
        value = jordan_gl(n).value
        assert value > previous
        previous = value


def test_group_dims_validation():
    assert GroupDims(3).b == 1
    with pytest.raises(ValueError):
        GroupDims(-1)
    with pytest.raises(ValueError):
        GroupDims(2, 0)


def test_bound_lie():
    assert bound_lie(GroupDims(4)) == exact(slow_factorial(105), 104)
    assert bound_lie(GroupDims(0)) == exact(1, 0)
    assert bound_lie(GroupDims(3, 2)) == symbolic(54, 2)
    assert bound_lie(GroupDims(2)) == symbolic(28)
    assert bound_lie(GroupDims(1)) == symbolic(12)


def test_bound_lie_connected():
    assert bound_lie_connected(4) == exact(slow_factorial(105), 104)
    assert bound_lie_connected(0) == exact(1, 0)
    assert bound_lie_connected(5) == exact(slow_factorial(211), 210)
    assert bound_lie_connected(3) == symbolic(54)


def test_bound_algebraic():
    assert bound_algebraic(GroupDims(2)) == exact(slow_factorial(105), 104)
    assert bound_algebraic(GroupDims(1)) == symbolic(28)
    assert bound_algebraic(GroupDims(0, 3)) == exact(3, 0, 3)


def test_bound_compact_complex():
    assert bound_compact_complex(1) == symbolic(54)
    assert bound_compact_complex(2) == exact(slow_factorial(10341), 10340)
    assert bound_compact_complex(0) == exact(1, 0)
    with pytest.raises(ValueError):
        bound_compact_complex(-1)


def test_bound_hyperbolic():
    assert bound_hyperbolic(1) == symbolic(54)
    assert bound_hyperbolic(2) == exact(slow_factorial(2129), 2128)
    assert bound_hyperbolic(0) == exact(1, 0)
    with pytest.raises(ValueError):
        bound_hyperbolic(-1)


def test_stabilizer_bound_hyperbolic():
    assert stabilizer_bound_hyperbolic(71) == exact(slow_factorial(72), 71)
    assert stabilizer_bound_hyperbolic(5) == symbolic(5)
    assert stabilizer_bound_hyperbolic(0) == exact(1, 0)


def test_bound_riemannian():
    assert bound_riemannian(2) == symbolic(54)
    assert bound_riemannian(3) == exact(slow_factorial(445), 444)
    assert bound_riemannian(1) == symbolic(12)
    assert bound_riemannian(0) == exact(1, 0)
    with pytest.raises(ValueError):
        bound_riemannian(-1)


def test_consistency_identity():
    for n in range(1, 21):
        assert consistency_check_bounds(n)
    with pytest.raises(ValueError):
        consistency_check_bounds(0)


def test_collapse_soundness():
    # whenever the inner atom is exact, powers and scalar factors fold
    # into one integer
    assert bound_lie(GroupDims(4, 2)).value == 2 * slow_factorial(105) ** 2
    assert bound_algebraic(GroupDims(2, 3)).value == 3 * slow_factorial(105) ** 3


def test_render():
    assert symbolic(54).render() == "J(54)"
    assert exact(720, 5).render() == "720"
    assert bound_lie(GroupDims(3, 2)).render() == "2 * J(54)^2"
    assert bound_lie_connected(4).render() == str(slow_factorial(105))


def test_json_round_trip():
    """Each shape of bound serializes to the schema the README documents."""
    def integer(value):
        return {"kind": "exact", "value": str(value)}

    def j(arg):
        return {"kind": "symbolic_j", "arg": arg}

    def power(base, exponent):
        return {"kind": "power", "operands": [base], "exponent": exponent}

    battery = [
        (exact(1, 0), integer(1)),
        (exact(slow_factorial(105), 104), integer(slow_factorial(105))),
        (symbolic(54), j(54)),
        (symbolic(54, 2), {"kind": "product", "operands": [integer(2), power(j(54), 2)]}),
        (symbolic(28, 4), {"kind": "product", "operands": [integer(4), power(j(28), 4)]}),
        (bound_lie(GroupDims(6, 3)), integer(3 * slow_factorial(445) ** 3)),
        (bound_riemannian(3), integer(slow_factorial(445))),
    ]
    for expr, data in battery:
        assert expr_to_json(expr) == data


def test_json_exact_values_travel_as_strings():
    data = expr_to_json(exact(slow_factorial(105), 104))
    assert data == {"kind": "exact", "value": str(slow_factorial(105))}
    assert isinstance(data["value"], str)


def test_is_exact_flag():
    assert bound_lie_connected(4).value is not None
    assert jordan_gl(7).value is None
    assert bound_lie(GroupDims(3, 2)).value is None
    assert isinstance(bound_lie(GroupDims(3, 2)), Bound)


# --- the family table against the paper's literal formulas -------------------

# J arguments exactly as the paper writes them, one expression per family.
PAPER_ARGUMENTS = {
    "lie": lambda n: n * (2 ** n + 10),
    "lie-connected": lambda n: n * (2 ** n + 10),
    "algebraic": lambda n: n * (2 ** (2 * n + 1) + 20),
    "compact-complex": lambda n: (2 * n * n + n) * (2 ** (2 * n * n + n) + 10),
    "hyperbolic": lambda n: (n * n + 2 * n) * (2 ** (n * n + 2 * n) + 10),
    "hyperbolic-stabilizer": lambda n: n,
    # the manifold of dimension 0 is a point: argument 0, J(0) = 1
    "riemannian": lambda n: (n * n + n) * (2 ** ((n * n + n - 2) // 2) + 5) if n else 0,
}
# Past this factorial argument the oracle does not evaluate: 25001! has
# about 99000 digits, more than any bound that is formed at the default
# digit limit.
ORACLE_MAX_FACTORIAL = 25001


@functools.lru_cache(maxsize=None)
def cached_slow_factorial(n):
    return slow_factorial(n)


def digits(value):
    """Decimal digits of a positive integer, without str()."""
    d = 1
    while value >= 10 ** d:
        d *= 2
    lo, hi = d // 2, d
    while lo < hi:
        mid = (lo + hi) // 2
        if value >= 10 ** mid:
            lo = mid + 1
        else:
            hi = mid
    return max(lo, 1)


def paper_bound(family, n, b):
    """("exact", value), ("symbolic", expr) or ("too big", None) from the
    paper's literal formula b * J(arg)^b."""
    arg = PAPER_ARGUMENTS[family](n)
    if 1 <= arg < 71 and arg not in (63, 65, 67, 69):
        return "symbolic", symbolic(arg, b)
    if arg + 1 > ORACLE_MAX_FACTORIAL:
        return "too big", None
    return "exact", b * cached_slow_factorial(arg + 1) ** b


def test_family_table_matches_paper_formulas():
    budget = sys.get_int_max_str_digits()
    assert set(FAMILIES) == set(PAPER_ARGUMENTS)
    for family in FAMILIES:
        for n in range(7):
            for b in ((1, 2, 3) if family in WITH_COMPONENTS else (None,)):
                kind, expected = paper_bound(family, n, b or 1)
                if kind == "too big":
                    with pytest.raises(ResourceGuardError):
                        bound(family, n, b)
                    continue
                try:
                    got = bound(family, n, b)
                except ResourceGuardError:
                    # a refusal is allowed only past the digit limit
                    assert kind == "exact" and digits(expected) > budget, (family, n, b)
                    continue
                if kind == "symbolic":
                    assert got == expected, (family, n, b)
                else:
                    assert got.value == expected, (family, n, b)


def test_bound_validates_its_arguments():
    with pytest.raises(ValueError):
        bound("no-such-family", 1)
    with pytest.raises(ValueError, match=r"^unknown family of groups \[x\]$"):
        bound(["x"], 1)
    with pytest.raises(ValueError):
        bound("lie", -1)
    with pytest.raises(ValueError):
        bound("lie", 1.5)
    with pytest.raises(ValueError):
        bound("lie", 2, 0)
    for family in set(FAMILIES) - set(WITH_COMPONENTS):
        with pytest.raises(ValueError, match="does not apply"):
            bound(family, 2, 1)
    assert bound("lie", 3) == bound("lie", 3, 1) == symbolic(54)


def test_bounds_past_the_digit_limit_are_refused():
    budget = sys.get_int_max_str_digits()
    # 967! has 2469 digits and prints; twice its square has 4938
    assert len(bound_lie_connected(7).render()) == 2469
    with pytest.raises(ResourceGuardError, match="PYTHONINTMAXSTRDIGITS"):
        bound("lie", 7, 2).render()
    with pytest.raises(ResourceGuardError, match=f"{budget}"):
        expr_to_json(bound_lie_connected(8))
    for family in FAMILIES:
        with pytest.raises(ResourceGuardError):
            bound(family, 10 ** 6)
    with pytest.raises(ResourceGuardError):
        bound("lie", 7, 10 ** 6)
    with pytest.raises(ResourceGuardError):
        jordan_gl(10 ** 9)


def test_repr_of_a_value_past_the_int_str_limit_shows_its_leading_digits():
    value = bound("compact-complex", 2)
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        digits = str(value.value)
    finally:
        sys.set_int_max_str_digits(saved)
    assert len(digits) > saved
    assert repr(value) == f"Bound(value={digits[:40]}..., k={value.k}, b={value.b})"
    with pytest.raises(ValueError) as negative:
        exact(-10 ** saved, 0)
    assert str(negative.value).endswith(f"got -1{'0' * 38}...")
    assert repr(exact(10 ** saved - 1, 0)) == f"Bound(value={'9' * saved}, k=0, b=1)"


def test_render_formatter_applies_to_exact_integers_only():
    expr = symbolic(54, 12)
    assert expr.render(lambda v: f"<{v}>") == "<12> * J(54)^12"
    assert expr.render() == "12 * J(54)^12"


def test_digit_limit_is_exact_and_follows_the_int_str_limit():
    budget = sys.get_int_max_str_digits()
    assert exact(10 ** budget - 1, 0).render() == "9" * budget
    with pytest.raises(ResourceGuardError, match=f"has at least {budget + 1} decimal digits"):
        exact(10 ** budget, 0).render()
    try:
        sys.set_int_max_str_digits(5000)
        assert len(bound("lie", 7, 2).render()) == 4938
    finally:
        sys.set_int_max_str_digits(budget)


@pytest.mark.parametrize("limit", [*range(1, 61), 4300])
def test_digit_check_matches_the_power_of_ten(limit):
    # The check forms 10**limit only for a value of 3 * limit to 3.322 * limit
    # bits.  Around 10**limit and at both edges of that band it refuses
    # exactly the values of at least 10**limit, and names their digit count.
    edges = (3 * limit, -(-3322 * limit // 1000))
    values = [10 ** limit + e for e in (-1, 0, 1)]
    values += [2 ** (bits + s) + e for bits in edges for s in (-1, 0, 1) for e in (-1, 0, 1)]
    for value in values:
        if value >= 10 ** limit:
            with pytest.raises(ResourceGuardError) as refused:
                _within(value, limit)
            digits = max(limit + 1, _digits_from_bits(value.bit_length() - 1))
            assert f"has at least {digits} decimal digits" in str(refused.value)
        else:
            assert _within(value, limit) == value

@pytest.mark.parametrize("n", [71, 2128, 10340])
def test_jordan_gl_forms_each_factorial_once(n):
    expected = cached_slow_factorial(n + 1)
    assert jordan_gl(n).value == expected
    before = _factorial.cache_info()
    assert jordan_gl(n).value == expected
    after = _factorial.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _refusal_message(make):
    with pytest.raises(ResourceGuardError) as exc:
        make()
    return str(exc.value)


@pytest.mark.parametrize("make", [
    lambda: bound("compact-complex", 2).render(),       # formed, refused in print
    lambda: bound("hyperbolic-stabilizer", 12286),      # formed, then refused
    lambda: bound("hyperbolic-stabilizer", 14000),      # refused before it is formed
], ids=["render", "after-forming", "before-forming"])
def test_a_factorial_cached_under_a_raised_limit_is_refused_at_the_default(make):
    _factorial.cache_clear()
    uncached = _refusal_message(make)
    budget = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(40000)
        make()
    finally:
        sys.set_int_max_str_digits(budget)
    assert _factorial.cache_info().currsize == 1
    assert _refusal_message(make) == uncached


def test_the_factorial_cache_is_bounded():
    for n in range(71, 171):
        jordan_gl(n)
    assert _factorial.cache_info().currsize <= 32


def test_families_sharing_a_factorial_refuse_it_alike():
    for family, n in (("compact-complex", 2), ("riemannian", 4)):
        with pytest.raises(ResourceGuardError, match="at least 37025 decimal digits"):
            bound(family, n).render()
