"""Finite-group parsing and exact Jordan constants."""
import copy
import pickle
import random
import re
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import old_finitegroup as old
from liejordan import finitegroup
from liejordan.errors import OrderLimitError
from liejordan.finitegroup import (FiniteGroup, Subgroup, _largest_normal_abelian,
                                   jordan_constant, jordan_constant_with_witness, parse_group)

FIXTURES = Path(__file__).parent / "fixtures"
# How every order-limit refusal ends.
KNOB = "; raise it with --jordan-limit (max_order in the library)"

# Latin square with two-sided identity that is not associative:
# (1*1)*2 = 0*2 = 2 but 1*(1*2) = 1*3 = 4.
NONASSOCIATIVE_LOOP = """\
table 5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3
"""


def cyclic_table(n):
    """The Cayley table of the cyclic group of order n, as table input."""
    return f"table {n}\n" + "".join(
        " ".join(str((i + j) % n) for j in range(n)) + "\n" for i in range(n))


def load(name):
    return parse_group((FIXTURES / name).read_text())


def corpus(name):
    return load(f"corpus/{name}.grp")


def is_abelian_group(G):
    return all(G.mult[a][b] == G.mult[b][a]
               for a in range(G.order) for b in range(G.order))


def conjugate(G, g, a):
    """g * a * g^-1."""
    return G.mult[G.mult[g][a]][G.inverses[g]]


def subgroup_group(G, sub):
    """A subgroup re-indexed as a standalone group; element 0 stays at 0."""
    index = {g: i for i, g in enumerate(sub.elements)}
    mult = [[index[G.mult[a][b]] for b in sub.elements] for a in sub.elements]
    return FiniteGroup(mult)


def min_normal_abelian_index(F, G):
    """Smallest index of a normal abelian subgroup of F, by the search that
    jordan_constant_with_witness runs; an F given without generators is
    conjugated by all of its elements."""
    return F.order // _largest_normal_abelian(G, F.elements, F.generators or F.elements).bit_count()


def element_order(G, g):
    power, n = g, 1
    while power != 0:
        power = G.mult[power][g]
        n += 1
    return n


# -- independent subgroup/Jordan oracle: a different algorithm ----------
#
# Every subgroup is a join of cyclic subgroups, so closing the set of
# cyclic subgroups under pairwise join finds the whole lattice.  The
# Jordan computation below conjugates by every element (no generator
# shortcut) and scans subgroups in no particular order.

def _oracle_close(mult, seed):
    elems = {0} | set(seed)
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                p = mult[a][b]
                if p not in elems:
                    elems.add(p)
                    changed = True
    return tuple(sorted(elems))


def oracle_subgroups(G):
    subs = {_oracle_close(G.mult, (g,)) for g in range(G.order)}
    changed = True
    while changed:
        changed = False
        for s in list(subs):
            for t in list(subs):
                joined = _oracle_close(G.mult, s + t)
                if joined not in subs:
                    subs.add(joined)
                    changed = True
    return sorted(subs, key=lambda e: (len(e), e))


def oracle_jordan(G):
    subs = oracle_subgroups(G)
    best = 0
    for F in subs:
        fset = set(F)
        value = len(F)
        for A in subs:
            aset = set(A)
            if not aset <= fset:
                continue
            if not all(G.mult[a][b] == G.mult[b][a] for a in A for b in A):
                continue
            if all(conjugate(G, f, a) in aset for f in F for a in A):
                value = min(value, len(F) // len(A))
        best = max(best, value)
    return best


# -- parsing -------------------------------------------------------------

def test_parse_perm_s3():
    G = load("s3.grp")
    assert G.order == 6
    assert G.mult[0] == tuple(range(6))
    assert all(G.mult[i][0] == i for i in range(6))


def test_perm_product_applies_right_factor_first():
    G = parse_group("perm 3\n2 3 1\n")
    assert G.order == 3
    # elements in canonical order: identity, then sorted images
    # index 1 is x -> (2, 3, 1); composing it with itself sends 1 -> 3,
    # which is the tuple at index 2
    assert G.mult[1][1] == 2
    assert G.mult[1][2] == 0


def test_parse_table_round_trip():
    G = corpus("o06_s3")
    text = "table 6\n" + "\n".join(
        " ".join(str(x) for x in row) for row in G.mult)
    H = parse_group(text)
    assert H.mult == G.mult


def test_trivial_group():
    G = parse_group("table 1\n0\n")
    assert G.order == 1
    assert jordan_constant(G) == 1
    assert G.order == 1


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError, match="empty"):
        parse_group("   \n\n")
    with pytest.raises(ValueError, match="header"):
        parse_group("perm\n1 2\n")
    with pytest.raises(ValueError, match="header size"):
        parse_group("perm x\n")
    with pytest.raises(ValueError, match="positive"):
        parse_group("table 0\n")
    with pytest.raises(ValueError, match="unknown format"):
        parse_group("matrix 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="expected 3 images"):
        parse_group("perm 3\n2 1\n")
    with pytest.raises(ValueError, match="integers"):
        parse_group("perm 2\na b\n")
    with pytest.raises(ValueError, match="not a permutation"):
        parse_group("perm 3\n1 1 2\n")
    with pytest.raises(ValueError, match="table rows"):
        parse_group("table 3\n0 1 2\n")
    with pytest.raises(ValueError, match="non-integer"):
        parse_group("table 2\n0 1\n1 z\n")
    with pytest.raises(ValueError, match="outside"):
        parse_group("table 2\n0 1\n1 7\n")


def int_parse_table(text):
    """The table of a well-headed "table n" text as parse_group built it
    when every row went through int(): the same rows, range checks and
    messages, then FiniteGroup's validation."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    size = int(lines[0].split()[1])
    mult = []
    for i, ln in enumerate(lines[1:]):
        try:
            row = [int(t) for t in ln.split()]
        except ValueError:
            raise ValueError(f"table row {i} has non-integer entries") from None
        if any(not 0 <= x < size for x in row):
            raise ValueError(f"table row {i} has entries outside 0..{size - 1}")
        mult.append(row)
    return FiniteGroup(mult).mult


def table_outcome(parse, text):
    """The table parse builds from text, or the text of its ValueError."""
    try:
        return parse(text)
    except ValueError as err:
        return str(err)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# Ways to rewrite one table entry: spellings int() accepts, then
# corruptions (not an integer, out of range, a copy of the next entry).
ENTRY_EDITS = {
    "padded": lambda row, j, n: "0" + row[j],
    "signed": lambda row, j, n: "+" + row[j],
    "grouped": lambda row, j, n: row[j][0] + "_" + row[j][1:] if len(row[j]) > 1 else "0_" + row[j],
    "arabic-indic": lambda row, j, n: row[j].translate(ARABIC_INDIC),
    "non-integer": lambda row, j, n: row[j] + "x",
    "out-of-range": lambda row, j, n: str(n),
    "duplicate": lambda row, j, n: row[(j + 1) % n],
}


def edited_table(text, edits):
    """text with entry (i, j) of the table replaced by ENTRY_EDITS[name]
    for each (name, i, j) in edits."""
    header, *rows = text.split("\n")
    rows = [row.split() for row in rows if row.strip()]
    n = len(rows)
    for name, i, j in edits:
        rows[i][j] = ENTRY_EDITS[name](rows[i], j, n)
    return "\n".join([header] + [" ".join(row) for row in rows]) + "\n"


@pytest.mark.parametrize("name", sorted(p.stem for p in (FIXTURES / "corpus").glob("*.grp")))
def test_table_rows_decode_as_int_reads_them(name):
    text = (FIXTURES / "corpus" / f"{name}.grp").read_text()
    table = parse_group(text).mult
    rng = random.Random(name)
    for edit in ENTRY_EDITS:
        edited = edited_table(text, [(edit, rng.randrange(len(table)), rng.randrange(len(table)))])
        expected = table_outcome(int_parse_table, edited)
        assert table_outcome(lambda t: parse_group(t).mult, edited) == expected, edit
        if edit in ("padded", "signed", "grouped", "arabic-indic"):
            assert expected == table


def test_the_first_bad_row_is_named_first():
    text = (FIXTURES / "corpus" / "o08_d4.grp").read_text()
    header, *rows = text.split("\n")
    short = "\n".join([header] + rows[:2] + [rows[2].rsplit(" ", 1)[0]] + rows[3:])
    cases = {
        edited_table(short, [("out-of-range", 5, 2)]): "table row 5 has entries outside 0..7",
        edited_table(text, [("out-of-range", 7, 0), ("non-integer", 3, 4)]):
            "table row 3 has non-integer entries",
    }
    for table, message in cases.items():
        for parse in (parse_group, int_parse_table):
            with pytest.raises(ValueError) as err:
                parse(table)
            assert str(err.value) == message


def test_table_validation():
    with pytest.raises(ValueError, match="row 1 has 1 entries"):
        FiniteGroup([[0, 1], [1]])
    with pytest.raises(ValueError, match="row 1 is not a permutation"):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="column 0 is not a permutation"):
        FiniteGroup([[0, 1], [0, 1]])
    with pytest.raises(ValueError, match="row 0 is not the identity"):
        FiniteGroup([[1, 0], [0, 1]])
    # Row 0 is the identity and every row and column a permutation, but column 0 is not.
    with pytest.raises(ValueError, match="column 0 is not the identity"):
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(ValueError, match="column 0 is not the identity"):
        parse_group("table 3\n0 1 2\n2 0 1\n1 2 0\n")
    with pytest.raises(ValueError, match="at least the identity"):
        FiniteGroup([])
    # False and True pass every permutation check as 0 and 1, and sum to an
    # int, but are not indices.
    s3 = [[{0: False, 1: True}.get(x, x) for x in row] for row in load("s3.grp").mult]
    for table, i in ((s3, 0), ([[False]], 0), ([[0, 1], [1, False]], 1),
                     ([[0, 1, 2], [True, 2, 0], [2, 0, 1]], 1)):
        with pytest.raises(ValueError, match=f"^row {i} has non-integer entries$"):
            FiniteGroup(table)


def test_nonassociative_loop_rejected():
    with pytest.raises(ValueError, match="associativity fails"):
        parse_group(NONASSOCIATIVE_LOOP)


def first_nonassociative_triple(table):
    """The first (a, b, c) with (a*b)*c != a*(b*c), over all triples."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return a, b, c
    return None


@st.composite
def loops(draw):
    """A Latin square of order at most 6 with identity row and column 0,
    filled cell by cell in a drawn symbol order, backtracking at dead ends.
    Every one of order 4 or less is a group; most larger ones are not."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i][:j]) | {table[r][j] for r in range(i)}
        options = [x for x in range(n) if x not in used]
        rng.shuffle(options)
        for x in options:
            table[i][j] = x
            if fill(k + 1):
                return True
        table[i][j] = None
        return False

    fill(0)
    return table


@st.composite
def near_groups(draw):
    """A corpus group table of order at most 16, possibly with one 2x2
    Latin subsquare away from row and column 0 swapped: still a Latin
    square with identity, and associative on almost every triple."""
    name = draw(st.sampled_from(sorted(
        p.stem for p in (FIXTURES / "corpus").glob("*.grp") if int(p.stem[1:3]) <= 16)))
    table = [list(row) for row in corpus(name).mult]
    n = len(table)
    subsquares = [(r, s, c, d) for r in range(1, n) for s in range(r + 1, n)
                  for c in range(1, n) for d in range(c + 1, n)
                  if table[r][c] == table[s][d] and table[r][d] == table[s][c]]
    swap = draw(st.none() | st.sampled_from(subsquares)) if subsquares else None
    if swap is not None:
        r, s, c, d = swap
        table[r][c], table[r][d] = table[r][d], table[r][c]
        table[s][c], table[s][d] = table[s][d], table[s][c]
    return table


@settings(max_examples=150, deadline=None)
@given(loops() | near_groups())
def test_lights_test_agrees_with_the_full_scan(table):
    # A table is refused exactly when the full scan finds a failing triple,
    # and the triple the refusal names fails too.
    if first_nonassociative_triple(table) is None:
        assert FiniteGroup(table).mult == tuple(map(tuple, table))
    else:
        with pytest.raises(ValueError) as err:
            FiniteGroup(table)
        named = re.fullmatch(r"associativity fails at \((\d+), (\d+), (\d+)\)", str(err.value))
        a, b, c = map(int, named.groups())
        assert table[table[a][b]][c] != table[a][table[b][c]]


def test_closure_limit_guard():
    text = (FIXTURES / "a5.grp").read_text()
    with pytest.raises(OrderLimitError):
        parse_group(text, max_order=59)
    G = parse_group(text, max_order=60)
    assert G.order == 60


def test_a_table_over_the_limit_is_refused_by_its_header():
    with pytest.raises(OrderLimitError) as err:
        parse_group("table 500\n")
    assert str(err.value) == "group order 500 exceeds limit 200" + KNOB
    text = cyclic_table(300)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(OrderLimitError) as err:
            parse_group(text)
        times.append(time.perf_counter() - start)
        assert str(err.value) == "group order 300 exceeds limit 200" + KNOB
    assert min(times) < 0.02, f"refusing C300 took {min(times):.3f} s"
    assert parse_group(text, max_order=300).order == 300


def test_a_long_header_is_quoted_short():
    with pytest.raises(OrderLimitError) as err:
        parse_group("table " + "9" * 5000 + "\n")
    assert str(err.value) == f"group order {'9' * 40}... exceeds limit 200{KNOB}"
    with pytest.raises(ValueError) as err:
        parse_group("table -" + "9" * 4000 + "\n")
    assert str(err.value) == f"header size must be positive, got -{'9' * 39}..."
    with pytest.raises(OrderLimitError) as err:
        parse_group("table " + "9" * 4000 + "\n")
    assert str(err.value) == f"group order {'9' * 40}... exceeds limit 200{KNOB}"
    with pytest.raises(ValueError) as err:
        parse_group("table 2 " + "x" * 5000 + "\n")
    assert str(err.value) == (f"bad header 'table 2 {'x' * 32}'..., "
                              "expected 'perm <n>' or 'table <n>'")


@pytest.mark.parametrize("text", [
    "perm 6\n2 1 3 4 5 6\n2 3 4 5 6 1\n",      # order 720
    "perm 7\n2 3 1 4 5 6 7\n2 3 4 5 6 7 1\n",  # order 2520
], ids=["S6", "A7"])
def test_a_permutation_group_over_the_limit_gets_no_table(monkeypatch, text):
    def build(*_):
        raise AssertionError("built the table of a refused group")

    monkeypatch.setattr(finitegroup, "_perm_table", build)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(OrderLimitError) as err:
            parse_group(text)
        times.append(time.perf_counter() - start)
        assert str(err.value) == "permutation closure exceeded 200 elements" + KNOB
    assert min(times) < 0.01, f"refusing took {min(times):.3f} s"


def test_an_order_limit_below_one_is_malformed():
    text = (FIXTURES / "s4.grp").read_text()
    for limit in (0, -1, -10 ** 4000):
        with pytest.raises(ValueError, match="order limit must be positive") as err:
            parse_group(text, max_order=limit)
        assert len(str(err.value)) < 100
        with pytest.raises(ValueError, match="order limit must be positive"):
            jordan_constant(load("s4.grp"), max_order=limit)
    # an order limit is an int, not a bool or a float
    for limit in (True, 2.5, 1.5):
        message = f"^the order limit must be an integer, got {limit}$"
        with pytest.raises(ValueError, match=message):
            parse_group(text, max_order=limit)
        with pytest.raises(ValueError, match=message):
            jordan_constant(load("s4.grp"), max_order=limit)
    assert parse_group("perm 3\n2 1 3\n", max_order=2).order == 2


def test_a_permutation_header_with_no_generators_is_the_trivial_group():
    tracemalloc.start()
    try:
        G = parse_group("perm 1000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.mult == ((0,),)
    assert jordan_constant(G) == 1
    assert peak < 2 ** 20


def test_inverses_and_conjugation():
    G = load("s4.grp")
    for g in range(G.order):
        assert G.mult[g][G.inverses[g]] == 0
        assert G.mult[G.inverses[g]][g] == 0
        assert conjugate(G, g, 0) == 0
    for g in range(G.order):
        for a in range(G.order):
            assert element_order(G, conjugate(G, g, a)) == element_order(G, a)


# -- subgroups ----------------------------------------------------------
#
# The lattices below come from the frozen bitmask walk of old_finitegroup,
# which the tests of min_normal_abelian_index and of monotonicity read.

def test_subgroup_counts():
    assert len(old.bitmask_subgroups(corpus("o06_s3"))) == 6
    assert len(old.bitmask_subgroups(corpus("o04_c4"))) == 3
    assert len(old.bitmask_subgroups(corpus("o08_q8"))) == 6
    assert len(old.bitmask_subgroups(corpus("o08_d4"))) == 10
    assert len(old.bitmask_subgroups(corpus("o12_a4"))) == 10
    assert len(old.bitmask_subgroups(load("s4.grp"))) == 30
    # for a cyclic group the subgroups match the divisors
    assert len(old.bitmask_subgroups(corpus("o12_c12"))) == 6
    assert len(old.bitmask_subgroups(corpus("o16_c16"))) == 5


def test_subgroup_equality_ignores_generators():
    assert Subgroup((0, 1), (1,)) == Subgroup((0, 1))


def test_a_parsed_group_is_a_frozen_value_of_its_table():
    # Reassigning order once made J(S4) come out as 5, and reassigning
    # inverses made the witness search run past 60 s and 1 GB.
    G, twin = load("s4.grp"), load("s4.grp")
    for name, value in (("order", 5), ("mult", ((0,),)), ("inverses", (0,) * 24),
                        ("_cols", ()), ("_generators", ())):
        with pytest.raises(AttributeError):
            setattr(G, name, value)
        with pytest.raises(AttributeError):
            delattr(G, name)
    assert G == twin and hash(G) == hash(twin) and G is not twin
    assert G != parse_group(cyclic_table(24))
    assert copy.copy(G) == G and pickle.loads(pickle.dumps(G)) == G
    assert jordan_constant(G) == 6


def test_copies_validate_the_table_and_permutation_closures_skip_it(monkeypatch):
    validate, seen = finitegroup._validate, []

    def recorded(mult):
        seen.append(mult)
        validate(mult)

    monkeypatch.setattr(finitegroup, "_validate", recorded)
    G = load("s4.grp")  # written as permutations: a group by construction
    assert seen == []
    for twin in (copy.copy(G), copy.deepcopy(G), pickle.loads(pickle.dumps(G))):
        assert twin == G
    assert seen == [G.mult] * 3
    parse_group(cyclic_table(3))
    assert len(seen) == 4


# -- Jordan constants ----------------------------------------------------

def test_jordan_abelian_groups():
    for name in ("o01_c1", "o05_c5", "o04_c2xc2", "o16_c4xc4", "o24_c24"):
        assert jordan_constant(corpus(name)) == 1


def test_jordan_pins():
    assert jordan_constant(corpus("o06_s3")) == 2
    assert jordan_constant(corpus("o08_d4")) == 2
    assert jordan_constant(corpus("o08_q8")) == 2
    assert jordan_constant(corpus("o10_d5")) == 2
    assert jordan_constant(corpus("o12_dic3")) == 2
    assert jordan_constant(corpus("o12_d6")) == 2
    assert jordan_constant(corpus("o12_a4")) == 3
    assert jordan_constant(corpus("o20_f20")) == 4
    assert jordan_constant(corpus("o24_s4")) == 6
    assert jordan_constant(corpus("o24_sl23")) == 12


def test_jordan_one_iff_abelian_sample():
    for name in ("o01_c1", "o04_c2xc2", "o06_s3", "o08_q8", "o09_c3xc3",
                 "o12_a4", "o16_pauli16", "o18_s3xc3", "o24_sl23",
                 "o24_c12xc2"):
        G = corpus(name)
        assert (jordan_constant(G) == 1) == is_abelian_group(G)


def test_min_normal_abelian_index():
    G = load("s4.grp")
    lattice = old.bitmask_subgroups(G)
    whole = lattice[-1]
    assert whole.order == 24
    assert min_normal_abelian_index(whole, G) == 6
    for sub in lattice:
        if sub.order == 12:
            assert min_normal_abelian_index(sub, G) == 3
        if sub.order == 8:
            assert min_normal_abelian_index(sub, G) == 2
        if sub.order == 1:
            assert min_normal_abelian_index(sub, G) == 1


def test_witness():
    G = load("s4.grp")
    value, witness = jordan_constant_with_witness(G)
    assert value == 6
    assert witness.order == 24
    assert jordan_constant_with_witness(G) == (value, witness)
    value, witness = jordan_constant_with_witness(corpus("o08_q8"))
    assert value == 2
    assert witness.order == 8


def test_jordan_monotone_under_subgroups():
    G = load("s4.grp")
    top = jordan_constant(G)
    for sub in old.bitmask_subgroups(G):
        assert jordan_constant(subgroup_group(G, sub)) <= top


def test_boundedness_constant():
    assert corpus("o06_s3").order == 6
    assert load("s4.grp").order == 24


def test_lattice_matches_oracle():
    for name in ("o06_s3", "o04_c4", "o08_q8", "o08_d4", "o12_a4",
                 "o12_dic3", "o12_c12", "o16_sd16"):
        G = corpus(name)
        assert [s.elements for s in old.bitmask_subgroups(G)] == oracle_subgroups(G)


def test_jordan_matches_oracle():
    for name in ("o06_s3", "o08_q8", "o08_d4", "o12_a4", "o12_dic3",
                 "o16_q16", "o20_f20", "o24_s4", "o24_sl23", "o24_c3rd4"):
        G = corpus(name)
        assert jordan_constant(G) == oracle_jordan(G)
