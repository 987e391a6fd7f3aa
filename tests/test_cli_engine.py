"""The command-line interface against its previous form, kept as an oracle.

The oracle (old_cli.py) writes every subcommand's output three times, once
per format; the interface under test builds one answer per subcommand and
renders it through one renderer.  Exit codes, stdout and stderr must agree
on every subcommand in every format, refusals included.  The old interface
reads its bounds from the expression tree they were once built from
(old_bounds.py), so the grid pins the bound value that replaced it.  Inputs
whose outcome changed on purpose (weight coordinates past the int->str digit
limit, Weyl products refused before they are formed, permutation groups
over --jordan-limit refused during their closure, unreadable input paths
of more than 40 characters, cut in the message) are tested in test_cli.py
instead.  The old interface parses groups and computes Jordan constants
with the library under test, so the grid does not pin the wording of the
order-limit refusals; test_cli.py does.
"""
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import pytest

import old_bounds
import old_center
import old_cli as old
import old_rootdata
from liejordan import center, cli, rootdata

FIXTURES = Path(__file__).parent / "fixtures"
DIGITS = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
BAD_TABLE = "table 3\n0 1 2\n1 0 0\n2 2 1\n"

CASES = {
    "rdim": [
        ["--family", "G", "--rank", "2"], ["--family", "d", "--rank", "4"],
        ["--family", "A", "--rank", "1"], ["--family", "E", "--rank", "6"],
        ["--family", "A", "--rank", "10"], ["--family", "H", "--rank", "2"],
        ["--family", "B", "--rank", "1"], ["--family", "E", "--rank", "5"],
    ],
    "table": [["--max-rank", "1"], ["--max-rank", "4"], ["--max-rank", "0"],
              ["--max-rank", "10"]],
    "dim": [
        ["--family", "B", "--rank", "3", "--weight", "0,0,1"],
        ["--family", "F", "--rank", "4", "--weight", "0, 0,0,1"],
        ["--family", "A", "--rank", "1", "--weight", "9" * (DIGITS - 1)],
        ["--family", "A", "--rank", "1", "--weight", "9" * DIGITS],
        ["--family", "E", "--rank", "8", "--weight", "1" + "0" * 99 + ",0,0,0,0,0,0,0"],
        ["--family", "A", "--rank", "2", "--weight", "1,x"],
        ["--family", "A", "--rank", "2", "--weight", "1"],
        ["--family", "A", "--rank", "2", "--weight=-1,0"],
        ["--family", "A", "--rank", "2", "--weight", "1,,0"],
    ],
    "center": [["--family", "A", "--rank", "2"], ["--family", "E", "--rank", "8"],
               ["--family", "D", "--rank", "5"], ["--family", "D", "--rank", "4"],
               ["--family", "A", "--rank", "10"], ["--family", "C", "--rank", "1"]],
    "faithful": [
        ["--family", "B", "--rank", "3", "--weights", "1,0,0"],
        ["--family", "D", "--rank", "4", "--weights", "1,0,0,0;0,0,0,1"],
        ["--family", "D", "--rank", "4", "--weights", " 0,0,1,0 ; 0,0,0,1; "],
        ["--family", "A", "--rank", "1", "--weights", ";"],
        ["--family", "A", "--rank", "2", "--weights", "1,0;1,0"],
        ["--family", "A", "--rank", "2", "--weights", "0,0"],
        ["--family", "A", "--rank", "2", "--weights", "1,0;x"],
        ["--family", "A", "--rank", "2", "--weights", "1,0,0"],
    ],
    "bound": [
        *(["--family-of-groups", fam, "--n", "3"]
          for fam in ("lie", "lie-connected", "algebraic", "compact-complex",
                      "hyperbolic", "hyperbolic-stabilizer", "riemannian")),
        ["--family-of-groups", "lie", "--n", "3", "--components", "2"],
        ["--family-of-groups", "algebraic", "--n", "2", "--components", "3"],
        ["--family-of-groups", "algebraic", "--n", "2"],
        ["--family-of-groups", "compact-complex", "--n", "0"],
        ["--family-of-groups", "lie-connected", "--n", "7"],
        ["--family-of-groups", "lie-connected", "--n", "8"],
        ["--family-of-groups", "lie", "--n", "7", "--components", "2"],
        ["--family-of-groups", "riemannian", "--n", "1000000"],
        ["--family-of-groups", "riemannian", "--n", "2", "--components", "2"],
        ["--family-of-groups", "lie", "--n", "2", "--components", "0"],
        ["--family-of-groups", "lie", "--n", "-1"],
    ],
    "jordan-finite": [
        ["--input", str(FIXTURES / "s4.grp")],
        ["--input", str(FIXTURES / "s3.grp")],
        ["--input", str(FIXTURES / "corpus" / "o08_q8.grp")],
        ["--input", str(FIXTURES / "corpus" / "o01_c1.grp")],
        ["--input", "no-such-group.grp"],  # short, so its path is written in full
        ["--input", BAD_TABLE],
        ["--input", str(FIXTURES / "corpus" / "o24_s4.grp"), "--jordan-limit", "20"],
        ["--input", str(FIXTURES / "corpus" / "o24_s4.grp"), "--jordan-limit", "24"],
    ],
}
GRID = [(name, argv) for name, cases in CASES.items() for argv in cases]


@pytest.fixture(autouse=True)
def frozen_strands(monkeypatch):
    """The old interface on the frozen bound expressions, and on the center
    order as the Fraction oracle computes it."""
    monkeypatch.setattr(old, "bounds", old_bounds)
    monkeypatch.setattr(old, "center", SimpleNamespace(
        **{**vars(center), "center_order": old_center.center_order}))


def outcome(capsys, main, argv):
    """(exit code, stdout, stderr) of one call of main, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same(capsys, argv):
    new = outcome(capsys, cli.main, argv)
    assert new == outcome(capsys, old.main, argv)
    return new


@pytest.fixture(scope="module")
def bad_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("groups") / "bad.grp"
    path.write_text(BAD_TABLE)
    return str(path)


@pytest.mark.parametrize("command,argv", GRID, ids=[f"{c}-{i}" for i, (c, _) in enumerate(GRID)])
def test_same_outcome_as_old_cli(capsys, bad_table, command, argv):
    argv = [bad_table if a == BAD_TABLE else a for a in argv]
    for fmt in ("text", "json", "csv"):
        assert_same(capsys, [command, *argv, "--format", fmt])


@pytest.mark.parametrize("argv", [
    ["rdim", "--family", "A", "--rank", "2", "--format", "yaml"],
    ["no-such-command"],
    ["bound", "--family-of-groups", "unknown", "--n", "1"],
    ["dim", "--family", "A", "--rank", "2"],
    ["rdim", "--family", "A", "--rank", "2", "x", "y"],
])
def test_same_usage_errors_as_old_cli(capsys, argv):
    assert assert_same(capsys, argv)[0] == 2


@pytest.mark.parametrize("value", ["many", "0", "12"])
def test_same_rank_budget_outcome_as_old_cli(capsys, monkeypatch, value):
    monkeypatch.setenv("LIEJORDAN_MAX_RANK", value)
    for fmt in ("text", "json", "csv"):
        assert_same(capsys, ["rdim", "--family", "C", "--rank", "10", "--format", fmt])


# Every type up to rank 12, against the old interface reading the center
# from the Fraction oracle and dimensions from the first weyl_dim, so that
# center, dim and faithful print what they printed before the center was
# solved on the Dynkin tree and the cell budget was checked.
SMALL_TYPES = ([("A", l) for l in range(1, 13)] + [("B", l) for l in range(2, 13)] +
               [("C", l) for l in range(2, 13)] + [("D", l) for l in range(3, 13)] +
               [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _unit(rank, pos):
    return ",".join("1" if i == pos else "0" for i in range(rank))


def _root_argv(fam, rank):
    head = ["--family", fam, "--rank", str(rank)]
    ones = ",".join(["1"] * rank)
    first, last = _unit(rank, 0), _unit(rank, rank - 1)
    pair = f"{first};{last}" if rank > 1 else first
    doubled = ";".join(dict.fromkeys(w.replace("1", "2") for w in (first, last)))
    return ([["center", *head]] +
            [["dim", *head, "--weight", w] for w in dict.fromkeys((first, last, ones))] +
            [["faithful", *head, "--weights", ws]
             for ws in dict.fromkeys((first, last, pair, doubled, ones))])


@pytest.fixture
def first_engines(monkeypatch):
    # The oracle recomputes the classes on every call; once per test will do.
    monkeypatch.setattr(old_center, "center_classes", lru_cache(old_center.center_classes))
    monkeypatch.setattr(old, "center", SimpleNamespace(**{
        **vars(center), "center_order": old_center.center_order,
        "center_classes": old_center.center_classes,
        "is_faithful": old_center.is_faithful}))
    monkeypatch.setattr(old, "rootdata", SimpleNamespace(
        **{**vars(rootdata), "weyl_dim": old_rootdata.weyl_dim}))


@pytest.mark.parametrize("fam,rank", SMALL_TYPES, ids=[f"{f}{r}" for f, r in SMALL_TYPES])
def test_root_commands_match_the_first_engines(capsys, first_engines, fam, rank):
    for argv in _root_argv(fam, rank):
        for fmt in ("text", "json", "csv"):
            assert assert_same(capsys, [*argv, "--format", fmt])[0] == 0

