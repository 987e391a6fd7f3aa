"""Each CLI subcommand loads only the strands it runs, and no command loads
dataclasses; the package's public names resolve on first use."""
import ast
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
