"""End-to-end acceptance checks.

Each test covers one top-level requirement and prints a single
"[acceptance] <label>: PASS" line when it succeeds (visible with
pytest -s).  Expected values are restated here independently: closed
forms are written out in full, factorials are recomputed with a bare
loop, and group fixtures carry known constants.
"""
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from liejordan.bounds import bound, bound_lie_connected
from liejordan.center import WeightSet, center_classes, is_faithful, pair
from liejordan.cli import main as cli_main
from liejordan.finitegroup import jordan_constant, parse_group
from liejordan.minfaithful import rdim
from liejordan.rootdata import (DominantWeight, SimpleType, _center, build_root_datum,
                                enumerate_dominant_weights,
                                positive_root_count, weyl_dim)

from paper_literals import consistency_check_bounds

FIXTURES = Path(__file__).parent / "fixtures"

ALL_TYPES = (
    [("A", l) for l in range(1, 10)]
    + [("B", l) for l in range(2, 10)]
    + [("C", l) for l in range(2, 10)]
    + [("D", l) for l in range(3, 10)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

EXPECTED_RDIM = {}
for l in range(1, 10):
    EXPECTED_RDIM[("A", l)] = l + 1
for l in range(2, 10):
    EXPECTED_RDIM[("B", l)] = 2 ** l
    EXPECTED_RDIM[("C", l)] = 2 * l
for l in (3, 5, 7, 9):
    EXPECTED_RDIM[("D", l)] = 2 ** (l - 1)
for l in (4, 6, 8):
    EXPECTED_RDIM[("D", l)] = 2 * l + 2 ** (l - 1)
EXPECTED_RDIM.update({("E", 6): 27, ("E", 7): 56, ("E", 8): 248,
                      ("F", 4): 26, ("G", 2): 7})


def _datum(fam, rank):
    return build_root_datum(SimpleType(fam, rank))


def slow_factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_minimal_dimension_table(capsys):
    start = time.monotonic()
    code = cli_main(["table", "--max-rank", "9", "--format", "json"])
    out = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert code == 0
    rows = {(r["family"], r["rank"]): r["rdim"] for r in json.loads(out)}
    assert rows == EXPECTED_RDIM
    assert elapsed < 300
    print("[acceptance] minimal faithful dimension table, all 37 types: PASS")


def test_dimension_cap():
    for fam, rank in ALL_TYPES:
        datum = _datum(fam, rank)
        assert rdim(datum).total_dim <= 2 ** rank + 10
        tight = rdim(datum).total_dim == 2 ** rank + 10
        assert tight == (fam == "F"), f"cap tightness wrong for {fam}{rank}"
    print("[acceptance] dimension cap 2^rank + 10, tight only at F4: PASS")


def test_center_and_pairing():
    expected_orders = {("E", 8): 1, ("F", 4): 1, ("G", 2): 1, ("E", 7): 2,
                       ("E", 6): 3}
    for l in range(2, 10):
        expected_orders[("B", l)] = 2
        expected_orders[("C", l)] = 2
    for l in range(3, 10):
        expected_orders[("D", l)] = 4
    for l in range(1, 10):
        expected_orders[("A", l)] = l + 1
    for (fam, rank), order in expected_orders.items():
        datum = _datum(fam, rank)
        assert _center(datum.type)[0] == order, f"center order wrong for {fam}{rank}"
        assert len(center_classes(datum)) == order - 1

    e7 = _datum("E", 7)
    (cls,) = center_classes(e7)
    w1 = DominantWeight((1, 0, 0, 0, 0, 0, 0))
    assert pair(w1, cls) == Fraction(1, 2)

    e6 = _datum("E", 6)
    w1 = DominantWeight((1, 0, 0, 0, 0, 0))
    values = sorted(pair(w1, cls) for cls in center_classes(e6))
    assert values == [Fraction(1, 3), Fraction(2, 3)]
    print("[acceptance] center orders and pairing values: PASS")


def _random_weight_set(rng, rank):
    while True:
        weights = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            coords = tuple(rng.randint(0, 5) for _ in range(rank))
            if any(coords) and coords not in seen:
                seen.add(coords)
                weights.append(DominantWeight(coords))
        if weights:
            return WeightSet(tuple(weights))


def test_faithfulness_closed_forms():
    rng = random.Random(2026)
    for l in range(2, 10):
        datum = _datum("B", l)
        for _ in range(1000):
            ws = _random_weight_set(rng, l)
            closed = any(w.coords[-1] % 2 == 1 for w in ws)
            assert is_faithful(datum, ws) == closed, f"B{l} mismatch on {ws}"
    for l in (3, 5, 7, 9):
        datum = _datum("D", l)
        for _ in range(1000):
            ws = _random_weight_set(rng, l)
            closed = any((w.coords[-2] + w.coords[-1]) % 2 == 1 for w in ws)
            assert is_faithful(datum, ws) == closed, f"D{l} mismatch on {ws}"
    for l in (4, 6, 8):
        datum = _datum("D", l)
        for w, _ in enumerate_dominant_weights(datum, 2 ** l + 10):
            assert not is_faithful(datum, WeightSet((w,)))
    print("[acceptance] faithfulness closed forms (B, D odd, D even): PASS")


def test_bound_formulas():
    start = time.monotonic()
    assert bound_lie_connected(4).value == slow_factorial(105)
    assert str(bound_lie_connected(4).value) == str(slow_factorial(105))
    assert bound("hyperbolic-stabilizer", 71).value == slow_factorial(72)
    assert bound("hyperbolic-stabilizer", 63).value == slow_factorial(64)
    for n in range(1, 21):
        assert consistency_check_bounds(n)
    assert time.monotonic() - start < 1.0
    print("[acceptance] bound formulas and consistency identities: PASS")


def test_finite_group_oracle():
    corpus = sorted((FIXTURES / "corpus").glob("*.grp"))
    assert len(corpus) == 74
    pins = {"o06_s3.grp": 2, "o08_q8.grp": 2, "o24_s4.grp": 6}
    for path in corpus:
        start = time.monotonic()
        G = parse_group(path.read_text())
        value = jordan_constant(G)
        abelian = all(G.mult[a][b] == G.mult[b][a]
                      for a in range(G.order) for b in range(G.order))
        assert (value == 1) == abelian, f"{path.name}: J={value}, abelian={abelian}"
        if path.name in pins:
            assert value == pins[path.name], f"{path.name}: J={value}"
        assert time.monotonic() - start < 30
    start = time.monotonic()
    a5 = parse_group((FIXTURES / "a5.grp").read_text())
    assert a5.order == 60
    assert jordan_constant(a5) == 60
    assert time.monotonic() - start < 30
    print("[acceptance] finite-group Jordan constants on the full corpus: PASS")


def test_property_suites():
    rng = random.Random(31415)

    # positive-root counts against independently stated closed forms
    for fam, rank in ALL_TYPES:
        datum = _datum(fam, rank)
        if fam == "A":
            count = rank * (rank + 1) // 2
        elif fam in ("B", "C"):
            count = rank * rank
        elif fam == "D":
            count = rank * (rank - 1)
        else:
            count = {("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
                     ("F", 4): 24, ("G", 2): 6}[(fam, rank)]
        assert positive_root_count(datum.type) == count
        assert len(datum.positive_coroots) == count

    # integrality and strict monotonicity on 10000 random weights
    per_type = 10000 // len(ALL_TYPES) + 1
    for fam, rank in ALL_TYPES:
        datum = _datum(fam, rank)
        for _ in range(per_type):
            coords = tuple(rng.randint(0, 6) for _ in range(rank))
            value = weyl_dim(datum, DominantWeight(coords))
            assert isinstance(value, int) and value >= 1
            bump = rng.randrange(rank)
            bumped = tuple(c + 1 if i == bump else c
                           for i, c in enumerate(coords))
            assert weyl_dim(datum, DominantWeight(bumped)) > value

    # enumeration equals a plain box search on small types
    for fam, rank in (("A", 1), ("A", 2), ("B", 2)):
        datum = _datum(fam, rank)
        cap = 30
        box = set()
        for coords in itertools.product(range(cap + 1), repeat=rank):
            if any(coords):
                w = DominantWeight(coords)
                d = weyl_dim(datum, w)
                if d <= cap:
                    box.add((w, d))
        assert set(enumerate_dominant_weights(datum, cap, allow_large_cap=True)) == box

    # minimal faithful search equals exhaustive subset search
    for fam, rank in (("A", 1), ("A", 2), ("B", 2)):
        datum = _datum(fam, rank)
        candidates = [w for w, _ in
                      enumerate_dominant_weights(datum, 2 ** rank + 10)]
        best = None
        for size in (1, 2, 3):
            for combo in itertools.combinations(candidates, size):
                if is_faithful(datum, WeightSet(combo)):
                    total = sum(weyl_dim(datum, w) for w in combo)
                    if best is None or total < best:
                        best = total
            if best is not None:
                break
        assert rdim(datum).total_dim == best
    print("[acceptance] dimension, enumeration, and search property suites: PASS")
