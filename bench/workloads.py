"""The four benchmark workloads.

Each workload makes one pass's operation list from a seeded `random.Random`
(`inputs`), runs one operation against liejordan (`run`, which may raise:
a refusal is an outcome too), and checks the outcome (`check`, returning
None when correct, DEFECT for the known 4300-digit defect, or a message).

Outcome kinds: "ok" (returned a value), "guard" (ResourceGuardError),
"input" (ValueError, the CLI's exit 2), "crash" (anything else).
"""
from __future__ import annotations

import importlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle

HERE = Path(__file__).resolve().parent
DEFECT = "defect"
# CPython's int->str limit message; liejordan surfaces it for bounds past
# 4300 digits instead of answering or refusing with a resource guard.
DIGIT_DEFECT = "for integer string conversion"

LIE_TYPES = ([("A", r) for r in range(1, 17)] + [("B", r) for r in range(2, 17)]
             + [("C", r) for r in range(2, 17)] + [("D", r) for r in range(3, 17)]
             + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

# Cycles over points 1..degree, one list of cycles per generator.
PERM_GROUPS = {
    "c2^5": (10, [[(1, 2)], [(3, 4)], [(5, 6)], [(7, 8)], [(9, 10)]]),
    "s4xc2": (6, [[(1, 2)], [(1, 2, 3, 4)], [(5, 6)]]),
    "d4xc2xc2": (8, [[(1, 3)], [(1, 2, 3, 4)], [(5, 6)], [(7, 8)]]),
    "s3xs3": (6, [[(1, 2)], [(1, 2, 3)], [(4, 5)], [(4, 5, 6)]]),
    "s6": (6, [[(1, 2)], [(1, 2, 3, 4, 5, 6)]]),
    "s7": (7, [[(1, 2)], [(1, 2, 3, 4, 5, 6, 7)]]),
}
FIXTURES = ("s3", "s4", "a5")
PINNED_J = {"fixtures/s4": 6, "fixtures/a5": 60, "corpus/o24_s4": 6}

BOUND_CALLS = {
    "lie": lambda lj, n, b: lj.bound_lie(lj.GroupDims(n, b)),
    "lie-connected": lambda lj, n, b: lj.bound_lie_connected(n),
    "algebraic": lambda lj, n, b: lj.bound_algebraic(lj.GroupDims(n, b)),
    "compact-complex": lambda lj, n, b: lj.bound_compact_complex(n),
    "hyperbolic": lambda lj, n, b: lj.bound_hyperbolic(n),
    "hyperbolic-stabilizer": lambda lj, n, b: lj.stabilizer_bound_hyperbolic(n),
    "riemannian": lambda lj, n, b: lj.bound_riemannian(n),
}
# The two README-style commands whose bound passes the digit limit.
DIGIT_LIMIT_COMMANDS = [("lie-connected", 8), ("algebraic", 4)]


# Calls liejordan makes from one of its modules into another.  A traced
# worker wraps them, so their time shows as child spans of the public call
# the benchmark made: (module, attribute, span name, count of the result).
INNER_CALLS = (
    ("minfaithful", "enumerate_dominant_weights", "rootdata.enumerate_dominant_weights",
     "rootdata.candidates"),
    ("minfaithful", "center_classes", "center.center_classes", "center.classes"),
    ("center", "center_classes", "center.center_classes", "center.classes"),
    ("finitegroup", "all_subgroups", "finitegroup.all_subgroups", "finitegroup.subgroups"),
)


def trace_inner_calls(tr):
    """Wrap INNER_CALLS in spans; a name a later version no longer has is skipped."""
    for module_name, attr, span_name, count_key in INNER_CALLS:
        module = importlib.import_module(f"liejordan.{module_name}")
        original = getattr(module, attr, None)
        if original is not None:
            setattr(module, attr, _spanned(original, tr, span_name, count_key))


def _spanned(fn, tr, span_name, count_key):
    def call(*args, **kwargs):
        with tr.span(span_name) as sp:
            result = fn(*args, **kwargs)
        sp.count(count_key, len(result))
        return result
    return call


def load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


def _short(value, limit=120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def perm_text(degree: int, generators) -> str:
    lines = [f"perm {degree}"]
    for cycles in generators:
        images = list(range(1, degree + 1))
        for cycle in cycles:
            for i, point in enumerate(cycle):
                images[point - 1] = cycle[(i + 1) % len(cycle)]
        lines.append(" ".join(map(str, images)))
    return "\n".join(lines) + "\n"


def relabelled(degree: int, generators, rng) -> str:
    """The same group with its points renamed and its generators reordered."""
    names = list(range(1, degree + 1))
    rng.shuffle(names)
    gens = [[tuple(names[p - 1] for p in cycle) for cycle in cycles] for cycles in generators]
    rng.shuffle(gens)
    return perm_text(degree, gens)


def bound_outcome(expected_value: int, kind: str, got) -> str | None:
    """Check a bound that is an exact integer past CPython's digit limit."""
    if kind == "input" and DIGIT_DEFECT in got:
        return DEFECT
    if kind == "guard" or (kind == "ok" and got == oracle.full_str(expected_value)):
        return None
    return f"bound past the digit limit: {kind} {_short(got)}"


class LieSearch:
    name = "lie-search"
    refusals = "none"
    runs_in_children = False
    min_rounds = 3

    def __init__(self, golden, root):
        self.golden = golden["rdim"]

    def inputs(self, lj, rng):
        types = [lj.SimpleType(f, r) for f, r in LIE_TYPES]
        rng.shuffle(types)
        return types

    def kind(self, op):
        return "rdim"

    def run(self, lj, t, tr):
        with tr.span("rootdata.build_root_datum") as sp:
            d = lj.build_root_datum(t)
        sp.count("rootdata.coroots", len(d.positive_coroots))
        with tr.span("minfaithful.rdim"):
            return lj.rdim(d, override=True)

    def check(self, t, kind, r):
        if kind != "ok":
            return f"{t}: {kind} {_short(r)}"
        got = [r.total_dim, [list(w.coords) for w in r.witness], list(r.per_weight_dims)]
        if got != self.golden[str(t)]:
            return f"{t}: got {got}, golden {self.golden[str(t)]}"
        if r.total_dim > 2 ** t.rank + 10:
            return f"{t}: rdim {r.total_dim} is over the 2**rank + 10 cap"
        return None


class PointQueries:
    name = "point-queries"
    refusals = ("bounds whose exact value passes 4300 digits: the known int->str "
                "defect (ValueError) at the seed; later a guard refusal or the full answer")
    runs_in_children = False
    min_rounds = 2
    # Operations per simple type and pass; about 45% weyl_dim, 30% is_faithful,
    # 10% center_classes, 5% pair, and 10% bounds (two per type).
    PER_TYPE = (("weyl", 9), ("faithful", 6), ("center", 2), ("pair", 1))

    def __init__(self, golden, root):
        self.center = golden["center"]
        self._weyl: dict[str, oracle.WeylDims] = {}
        self._bounds: dict = {}

    def inputs(self, lj, rng):
        ops = []
        for fam, rank in LIE_TYPES:
            if rank > 9:
                continue
            name = f"{fam}{rank}"
            d = lj.build_root_datum(lj.SimpleType(fam, rank))
            order, classes = self.center[name]

            def coords(nonzero=False):
                while True:
                    c = tuple(rng.randint(0, 3) for _ in range(rank))
                    if any(c) or not nonzero:
                        return c

            for kind, count in self.PER_TYPE:
                for _ in range(count):
                    if kind == "weyl" or (kind == "pair" and not classes):
                        ops.append(("weyl", name, d, lj.DominantWeight(coords())))
                    elif kind == "faithful":
                        size = rng.randint(1, 3)
                        picked = {coords(nonzero=True) for _ in range(size)}
                        ws = lj.WeightSet(tuple(lj.DominantWeight(c) for c in picked))
                        ops.append(("faithful", name, d, ws))
                    elif kind == "center":
                        ops.append(("center", name, d))
                    else:
                        x = tuple(rng.choice(classes))
                        ops.append(("pair", name, lj.DominantWeight(coords()), x,
                                    oracle.class_fractions(order, x)))
        families = oracle.FAMILIES
        for i in range(2 * len(self.center)):
            family = families[i % len(families)]
            b = rng.choice((1, 2)) if family in ("lie", "algebraic") else 1
            ops.append(("bound", family, rng.randint(0, first_defect_n(family, b)), b))
        rng.shuffle(ops)
        return ops

    def kind(self, op):
        return op[0]

    def run(self, lj, op, tr):
        kind = op[0]
        if kind == "weyl":
            with tr.span("rootdata.weyl_dim"):
                return lj.weyl_dim(op[2], op[3])
        if kind == "faithful":
            with tr.span("center.is_faithful"):
                return lj.is_faithful(op[2], op[3])
        if kind == "center":
            with tr.span("center.center_classes") as sp:
                classes = lj.center_classes(op[2])
            sp.count("center.classes", len(classes))
            return classes
        if kind == "pair":
            with tr.span("center.pair"):
                return lj.pair(op[2], op[4])
        _, family, n, b = op
        with tr.span("bounds.formula") as sp:
            expr = BOUND_CALLS[family](lj, n, b)
        if tr.on and isinstance(getattr(expr, "value", None), int):
            sp.count("bounds.digits", oracle.digits(expr.value))
        with tr.span("bounds.render"):
            return expr.render()

    def _bound(self, op):
        """(exact value, whether it passes the digit limit, expected rendering),
        kept per input because the factorials run to tens of thousands of digits."""
        if op not in self._bounds:
            value, symbolic = oracle.expected_bound(*op[1:])
            over = value is not None and oracle.digits(value) > sys.get_int_max_str_digits()
            self._bounds[op] = (value, over, symbolic if value is None
                                else None if over else str(value))
        return self._bounds[op]

    def check(self, op, kind, got):
        what, name = op[0], op[1]
        if what == "bound":
            value, over, expected = self._bound(op)
            if over:
                return bound_outcome(value, kind, got)
        elif what == "weyl":
            if name not in self._weyl:
                self._weyl[name] = oracle.WeylDims(op[2].cartan)
            expected = self._weyl[name].dim(op[3].coords)
        elif what == "pair":
            expected = oracle.pairing(self.center[name][0], op[3], op[2].coords)
        else:
            order, classes = self.center[name]
            if what == "faithful":
                expected = oracle.faithful(order, classes, [w.coords for w in op[3]])
            else:
                expected = [oracle.class_fractions(order, x) for x in classes]
                if kind == "ok":
                    got = [tuple(c.coords) for c in got]
        if kind == "ok" and got == expected:
            return None
        return f"{what} {name}: {kind} {_short(got)}, expected {_short(expected)}"


def first_defect_n(family: str, b: int) -> int:
    """Smallest n whose exact bound has more digits than str() allows."""
    n = 0
    while oracle.log10_bound(family, n, b) < sys.get_int_max_str_digits():
        n += 1
    return n


class FiniteJordan:
    name = "finite-jordan"
    refusals = ("s6 (order 720 over the Jordan order limit 200) and s7 (permutation "
                "closure over 5000 elements): ResourceGuardError")
    runs_in_children = False
    min_rounds = 3

    def __init__(self, golden, root):
        self.golden = golden["finite"]
        self.root = root

    def inputs(self, lj, rng):
        fixtures = self.root / "tests" / "fixtures"
        ops = []
        for path in sorted((fixtures / "corpus").glob("*.grp")):
            ops.append((f"corpus/{path.stem}", path.read_text(), "table"))
        for name in FIXTURES:
            text = (fixtures / f"{name}.grp").read_text()
            ops.append((f"fixtures/{name}", text, text.split()[0]))
        for name, (degree, gens) in PERM_GROUPS.items():
            ops.append((name, relabelled(degree, gens, rng), "perm"))
        rng.shuffle(ops)
        return ops

    def kind(self, op):
        return "jordan"

    def run(self, lj, op, tr):
        _, text, fmt = op
        with tr.span("finitegroup.perm_closure" if fmt == "perm"
                     else "finitegroup.table_validate") as sp:
            G = lj.parse_group(text)
        sp.count("finitegroup.order", G.order)
        with tr.span("finitegroup.jordan_constant_with_witness"):
            J, witness = lj.jordan_constant_with_witness(G)
        return G, J, witness

    def check(self, op, kind, value):
        label, text, fmt = op
        expect = self.golden.get(label)
        if expect is None:
            return f"{label}: no golden answer"
        if expect == "refused":
            return None if kind == "guard" else f"{label}: expected a refusal, got {kind}"
        if kind != "ok":
            return f"{label}: {kind} {_short(value)}"
        G, J, witness = value
        abelian = (oracle.table_is_abelian(text) if fmt == "table"
                   else oracle.perm_generators_commute(text))
        problems = []
        if G.order != expect["order"] or J != expect["J"]:
            problems.append(f"order {G.order} J {J}, golden {expect['order']} {expect['J']}")
        if J != PINNED_J.get(label, J):
            problems.append(f"J {J}, pinned {PINNED_J[label]}")
        if (J == 1) != abelian:
            problems.append(f"J {J} but abelian is {abelian}")
        if "witness" in expect:
            if list(witness.elements) != expect["witness"]:
                problems.append(f"witness {_short(witness.elements)}")
        elif (witness.order != expect["witness_order"]
              or not oracle.is_subgroup(G.mult, witness.elements)):
            problems.append(f"witness of order {witness.order} is not a golden-order subgroup")
        return f"{label}: " + "; ".join(problems) if problems else None


class Cli:
    name = "cli"
    refusals = ("rdim A10 (rank budget, exit 3); bound lie-connected --n 8 and algebraic "
                "--n 4 (known digit-limit defect, exit 2 at the seed)")
    # its operations are python -m liejordan processes, so peak RSS is theirs
    runs_in_children = True
    min_rounds = 8

    def __init__(self, golden, root):
        self.commands = list(golden["cli"])
        for family, n in DIGIT_LIMIT_COMMANDS:
            self.commands.append({
                "argv": ["bound", "--family-of-groups", family, "--n", str(n)],
                "env": {}, "bound": [family, n, 1]})
        self.root = root

    def inputs(self, lj, rng):
        self.cli = importlib.import_module("liejordan.cli")
        ops = list(self.commands)
        rng.shuffle(ops)
        return ops

    def kind(self, op):
        return "command"

    def run(self, lj, op, tr):
        with tr.span("cli.process"):
            proc = subprocess.run(
                [sys.executable, "-m", "liejordan", *op["argv"]], cwd=self.root,
                env={**os.environ, **op["env"]}, capture_output=True, text=True,
                timeout=120)
        if tr.on:
            with tr.span("cli.main"):
                self._main_in_process(op)
        return proc.returncode, proc.stdout, proc.stderr

    def _main_in_process(self, op):
        saved = {k: os.environ.get(k) for k in op["env"]}
        os.environ.update(op["env"])
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                return self.cli.main(op["argv"])
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v

    def probes(self, count=7) -> dict:
        """Wall ms of bare interpreter starts, and ms of `import liejordan`
        timed inside fresh interpreters; interleaved so drift hits both."""
        timer = ("import time; t = time.perf_counter(); import liejordan; "
                 "print((time.perf_counter() - t) * 1000)")
        out = {"interpreter_ms": [], "import_ms": []}
        for _ in range(count):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=self.root, check=True,
                           timeout=60)
            out["interpreter_ms"].append((perf_counter() - t0) * 1000)
            proc = subprocess.run([sys.executable, "-c", timer], cwd=self.root, check=True,
                                  capture_output=True, text=True, timeout=60)
            out["import_ms"].append(float(proc.stdout))
        return out

    def check(self, op, kind, value):
        label = " ".join(op["argv"])
        if kind != "ok":
            return f"{label}: {kind} {_short(value)}"
        code, out, err = value
        if "bound" in op:
            v = oracle.expected_bound(*op["bound"])[0]
            if code == 2:
                return bound_outcome(v, "input", err)
            if code == 3 and not out:
                return None
            if code == 0 and out == oracle.text_int(v) + "\n":
                return None
            return f"{label}: exit {code}, stdout {_short(out)}"
        if code != op["exit"] or out != op["stdout"]:
            return (f"{label}: exit {code} stdout {_short(out)}, expected exit "
                    f"{op['exit']} stdout {_short(op['stdout'])}")
        return None


WORKLOADS = {w.name: w for w in (LieSearch, PointQueries, FiniteJordan, Cli)}
# The traced run makes one pass of each of these, to cover every layer.
TRACED = ("lie-search", "point-queries", "finite-jordan", "cli")
