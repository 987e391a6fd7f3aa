"""Each CLI subcommand loads only the strands it runs, and no command loads
dataclasses; the package's public names resolve on first use, the CLI
reaches the strands through their public names only, the package reads
the family table's rows by field name only, and every name it binds at
top level has a reader or is public."""
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liejordan

ROOT = Path(__file__).parent.parent
STRANDS = {"liejordan.rootdata", "liejordan.center", "liejordan.minfaithful",
           "liejordan.finitegroup"}
COMMANDS = {
    "bound": ["bound", "--family-of-groups", "lie", "--n", "3"],
    "rdim": ["rdim", "--family", "E", "--rank", "7"],
    "center": ["center", "--family", "D", "--rank", "5"],
    "jordan-finite": ["jordan-finite", "--input", "tests/fixtures/a5.grp"],
    "bound-json": ["bound", "--family-of-groups", "lie", "--n", "3", "--format", "json"],
}
# Runs the command, then prints the loaded modules as the last stdout line.
RUN = ("import sys\nfrom liejordan.cli import main\ncode = main(sys.argv[1:])\n"
       "print(sorted(sys.modules))\nsys.exit(code)")


def loaded_modules(argv) -> set:
    """Modules loaded by one command in a fresh interpreter without site."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", RUN, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def modules():
    return {name: loaded_modules(argv) for name, argv in COMMANDS.items()}


def test_bound_loads_no_other_strand(modules):
    for name in ("bound", "bound-json"):
        assert "liejordan.bounds" in modules[name]
        assert not modules[name] & STRANDS


def test_each_command_loads_its_strand(modules):
    assert {"liejordan.rootdata", "liejordan.minfaithful"} <= modules["rdim"]
    assert {"liejordan.rootdata", "liejordan.center"} <= modules["center"]
    assert "liejordan.finitegroup" in modules["jordan-finite"]
    assert "liejordan.minfaithful" not in modules["center"]
    assert not modules["jordan-finite"] & (STRANDS - {"liejordan.finitegroup"})


def test_no_command_loads_dataclasses(modules):
    assert [name for name, loaded in modules.items() if "dataclasses" in loaded] == []


def test_only_center_loads_fractions(modules):
    assert [name for name, loaded in modules.items() if "fractions" in loaded] == ["center"]


def test_json_and_csv_load_only_for_their_format(modules):
    for name, loaded in modules.items():
        assert "csv" not in loaded
        assert ("json" in loaded) == (name == "bound-json"), name


def test_public_names_resolve_and_are_listed():
    listed = dir(liejordan)
    for name in liejordan.__all__:
        assert getattr(liejordan, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        liejordan.no_such_name


def test_no_command_loads_heapq(modules):
    # rdim's cover scans the sets of its coverages, and
    # finitegroup._class_unions keeps one list per order.
    assert [name for name, loaded in modules.items() if "heapq" in loaded] == []


def test_cli_reads_only_public_names_of_the_strands():
    # errors' shared helpers (_echo, _within, ...) are the one private import.
    strands = {"rootdata", "center", "minfaithful", "bounds", "finitegroup"}
    tree = ast.parse((ROOT / "src" / "liejordan" / "cli.py").read_text())
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in strands and node.attr.startswith("_")]
    private += [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in strands
                for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_every_public_value_is_frozen_and_groups_take_one_table():
    from liejordan.errors import FrozenValue
    from liejordan.finitegroup import FiniteGroup
    public = [getattr(liejordan, name) for name in liejordan.__all__]
    classes = [cls for cls in public if isinstance(cls, type) and not issubclass(cls, Exception)]
    assert FiniteGroup in classes
    assert [cls.__name__ for cls in classes if not issubclass(cls, FrozenValue)] == []
    assert list(inspect.signature(FiniteGroup).parameters) == ["mult"]


def _is_family_table(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) == "_FAMILIES"


def _family_row_targets(node):
    """The targets an assignment or loop binds a _FAMILIES row to."""
    if isinstance(node, ast.Assign):
        for target in node.targets:
            pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(node.value, ast.Tuple) else [(target, node.value)])
            yield from (t for t, v in pairs
                        if isinstance(v, ast.Subscript) and _is_family_table(v.value))
    elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.iter, ast.Call):
        func = node.iter.func
        if isinstance(func, ast.Attribute) and _is_family_table(func.value):
            if func.attr == "values":
                yield node.target
            elif func.attr == "items" and isinstance(node.target, ast.Tuple):
                yield node.target.elts[1]


def test_family_rows_are_read_by_field_name_only():
    # A subscript, slice or unpack of a _FAMILIES row, or of a name bound to
    # one, would tie its reader to the field order.  The rows bound to names
    # are counted, so that the walk cannot pass by finding none.
    found, named = [], 0
    for path in sorted((ROOT / "src" / "liejordan").glob("*.py")):
        tree = ast.parse(path.read_text())
        targets = [t for node in ast.walk(tree) for t in _family_row_targets(node)]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        named += len(names)

        def is_row(node):
            return (isinstance(node, ast.Subscript) and _is_family_table(node.value)
                    or isinstance(node, ast.Name) and node.id in names)

        found += [f"{path.name}:{t.lineno}" for t in targets if not isinstance(t, ast.Name)]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Subscript, ast.Starred)) and is_row(node.value)]
    assert found == []
    assert named


def _top_level_names(statement):
    """The names a top-level statement of a module binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = {ast.Assign: lambda s: s.targets, ast.AnnAssign: lambda s: [s.target]}
    return [node.id for target in targets.get(type(statement), lambda s: [])(statement)
            for node in ast.walk(target) if isinstance(node, ast.Name)]


def _names_read(statement):
    """The names a statement reads: bare names, attributes and imported names."""
    read = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_every_top_level_name_is_read_or_public():
    # A helper, constant or class left behind when its last reader goes is
    # flagged: each name a module of the package binds at top level must be
    # read by another top-level statement of the package, be public in
    # _EXPORTS, or be a module dunder.
    statements = [(path.name, statement)
                  for path in sorted((ROOT / "src" / "liejordan").glob("*.py"))
                  for statement in ast.parse(path.read_text()).body]
    reads = [_names_read(statement) for _, statement in statements]
    unread = [f"{module}:{name}" for i, (module, statement) in enumerate(statements)
              for name in _top_level_names(statement)
              if name not in liejordan._EXPORTS and not name.startswith("__")
              and not any(name in read for j, read in enumerate(reads) if j != i)]
    assert unread == []
