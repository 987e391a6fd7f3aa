"""Command-line interface: formats, exit codes, guards."""
import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from liejordan.bounds import bound
from liejordan.cli import main
from test_finitegroup import KNOB, cyclic_table

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rdim_text(capsys):
    code, out, err = run_cli(capsys, "rdim", "--family", "G", "--rank", "2")
    assert (code, out, err) == (0, "7\n", "")


def test_rdim_accepts_lowercase_family(capsys):
    code, out, _ = run_cli(capsys, "rdim", "--family", "g", "--rank", "2")
    assert (code, out) == (0, "7\n")


def test_rdim_json(capsys):
    code, out, _ = run_cli(
        capsys, "rdim", "--family", "E", "--rank", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "family": "E", "rank": 6, "rdim": 27,
        "witness": [[0, 0, 0, 0, 1, 0]], "per_weight_dims": [27],
    }


def test_rdim_csv(capsys):
    code, out, _ = run_cli(
        capsys, "rdim", "--family", "D", "--rank", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,rank,rdim,witness"
    assert lines[1] == 'D,4,16,"0,0,0,1;0,0,1,0"'


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-rank", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("type")
    assert "rdim" in lines[0]
    assert len(lines) == 15  # header + 14 types of rank <= 4
    g2 = next(ln for ln in lines if ln.startswith("G2"))
    assert " 7 " in g2 or g2.rstrip().endswith(" 7") or "7" in g2.split()


def test_table_deterministic(capsys):
    first = run_cli(capsys, "table", "--max-rank", "5", "--format", "csv")
    second = run_cli(capsys, "table", "--max-rank", "5", "--format", "csv")
    assert first == second
    assert first[0] == 0


def test_table_csv_quotes_witness(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--max-rank", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,rank,rdim,witness"
    assert 'B,2,4,"0,1"' in lines


def test_table_json_matches_rdim_json(capsys):
    code, table_out, _ = run_cli(
        capsys, "table", "--max-rank", "3", "--format", "json")
    assert code == 0
    rows = {(r["family"], r["rank"]): r for r in json.loads(table_out)}
    code, rdim_out, _ = run_cli(
        capsys, "rdim", "--family", "B", "--rank", "3", "--format", "json")
    assert code == 0
    single = json.loads(rdim_out)
    assert rows[("B", 3)] == single


def test_dim(capsys):
    code, out, _ = run_cli(
        capsys, "dim", "--family", "A", "--rank", "1", "--weight", "1")
    assert (code, out) == (0, "2\n")
    code, out, _ = run_cli(
        capsys, "dim", "--family", "B", "--rank", "3", "--weight", "0,0,1",
        "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "family": "B", "rank": 3, "weight": [0, 0, 1], "dim": 8}


def test_dim_rejects_malformed_weight(capsys):
    code, _, err = run_cli(
        capsys, "dim", "--family", "A", "--rank", "2", "--weight", "1,x")
    assert code == 2
    assert "comma-separated integers" in err
    code, _, err = run_cli(
        capsys, "dim", "--family", "A", "--rank", "2", "--weight", "1")
    assert code == 2
    assert "rank" in err


def test_center(capsys):
    code, out, _ = run_cli(capsys, "center", "--family", "E", "--rank", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 2"
    assert len(lines) == 2
    code, out, _ = run_cli(
        capsys, "center", "--family", "E", "--rank", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "family,rank,center_order,class", "E,8,1,"]
    code, out, _ = run_cli(
        capsys, "center", "--family", "A", "--rank", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["order"] == 3
    assert len(payload["classes"]) == 2


def test_faithful(capsys):
    code, out, _ = run_cli(
        capsys, "faithful", "--family", "B", "--rank", "3",
        "--weights", "1,0,0")
    assert (code, out) == (0, "false\n")
    code, out, _ = run_cli(
        capsys, "faithful", "--family", "B", "--rank", "3",
        "--weights", "0,0,1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run_cli(
        capsys, "faithful", "--family", "D", "--rank", "4",
        "--weights", "1,0,0,0;0,0,0,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["faithful"] is True


def test_faithful_rejects_empty_weights(capsys):
    code, _, err = run_cli(
        capsys, "faithful", "--family", "A", "--rank", "1", "--weights", ";")
    assert code == 2
    assert "no weights" in err


def test_bound_text_symbolic(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "lie-connected", "--n", "3")
    assert (code, out) == (0, "J(54)\n")
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "lie", "--n", "3",
        "--components", "2")
    assert (code, out) == (0, "2 * J(54)^2\n")


def test_bound_text_big_integer_gets_magnitude_tag(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "algebraic", "--n", "2")
    assert code == 0
    value = str(math.factorial(105))
    assert out == f"{value} ({len(value)} digits, ~1.08139e168)\n"


def test_bound_text_small_integer_plain(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "lie", "--n", "0")
    assert (code, out) == (0, "1\n")


def test_bound_json(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "lie", "--n", "3",
        "--components", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family_of_groups"] == "lie"
    assert payload["n"] == 3
    assert payload["components"] == 2
    assert payload["rendered"] == "2 * J(54)^2"
    assert payload["conventions"] == []
    assert payload["bound"] == {
        "kind": "product",
        "operands": [
            {"kind": "exact", "value": "2"},
            {"kind": "power",
             "operands": [{"kind": "symbolic_j", "arg": 54}],
             "exponent": 2},
        ]}


def test_bound_json_full_precision(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "algebraic", "--n", "2",
        "--format", "json")
    payload = json.loads(out)
    assert payload["bound"] == {
        "kind": "exact", "value": str(math.factorial(105))}
    assert payload["rendered"] == str(math.factorial(105))


def test_bound_zero_convention_flagged(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "compact-complex", "--n", "0",
        "--format", "json")
    payload = json.loads(out)
    assert payload["conventions"] == ["J(0)=1"]
    assert payload["bound"] == {"kind": "exact", "value": "1"}


def test_bound_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "riemannian", "--n", "2",
        "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "family_of_groups,n,components,bound", "riemannian,2,,J(54)"]


def test_bound_rejects_bad_usage(capsys):
    code, _, err = run_cli(
        capsys, "bound", "--family-of-groups", "riemannian", "--n", "2",
        "--components", "2")
    assert code == 2
    assert "does not apply" in err
    code, _, err = run_cli(
        capsys, "bound", "--family-of-groups", "lie", "--n", "2",
        "--components", "0")
    assert code == 2
    code, _, err = run_cli(
        capsys, "bound", "--family-of-groups", "lie", "--n", "-1")
    assert code == 2


def test_bad_family_exits_2(capsys):
    code, _, err = run_cli(capsys, "rdim", "--family", "H", "--rank", "2")
    assert code == 2
    assert "error:" in err


def test_rank_budget_exits_3(capsys):
    code, _, err = run_cli(capsys, "rdim", "--family", "A", "--rank", "10")
    assert code == 3
    assert "error:" in err
    code, _, _ = run_cli(capsys, "table", "--max-rank", "10")
    assert code == 3


def test_rank_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("LIEJORDAN_MAX_RANK", "12")
    code, out, _ = run_cli(capsys, "rdim", "--family", "C", "--rank", "12")
    assert (code, out) == (0, "24\n")


def test_bad_env_value_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LIEJORDAN_MAX_RANK", "many")
    code, _, err = run_cli(capsys, "rdim", "--family", "A", "--rank", "2")
    assert code == 2


def test_argparse_rejects_unknown_input():
    with pytest.raises(SystemExit) as exc:
        main(["rdim", "--family", "A", "--rank", "2", "--format", "yaml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--family-of-groups", "unknown", "--n", "1"])
    assert exc.value.code == 2


def test_jordan_finite_text(capsys):
    code, out, _ = run_cli(
        capsys, "jordan-finite", "--input", str(FIXTURES / "s4.grp"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order 24"
    assert lines[1] == "jordan_constant 6"
    assert lines[2].startswith("witness_subgroup ")
    assert lines[3] == "b 24"


def test_jordan_finite_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "jordan-finite", "--input", str(FIXTURES / "s4.grp"),
        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["order", "jordan_constant", "witness_subgroup", "b"]
    assert payload["order"] == 24
    assert payload["jordan_constant"] == 6
    assert payload["b"] == 24
    assert payload["witness_subgroup"] == list(range(24))


def test_jordan_finite_table_input(capsys):
    code, out, _ = run_cli(
        capsys, "jordan-finite",
        "--input", str(FIXTURES / "corpus" / "o08_q8.grp"),
        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "order,jordan_constant,witness_subgroup,b"
    assert lines[1] == "8,2,0;1;2;3;4;5;6;7,8"


def test_jordan_finite_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "jordan-finite", "--input", str(tmp_path / "nope.grp"))
    assert code == 2
    assert "cannot read" in err


def test_jordan_finite_bad_table_exits_2(capsys, tmp_path):
    bad = tmp_path / "loop.grp"
    bad.write_text(
        "table 5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n")
    code, _, err = run_cli(capsys, "jordan-finite", "--input", str(bad))
    assert code == 2
    assert "associativity" in err


def test_jordan_finite_guards_exit_3(capsys):
    a5 = str(FIXTURES / "a5.grp")
    code, _, err = run_cli(
        capsys, "jordan-finite", "--input", a5, "--jordan-limit", "59")
    assert code == 3
    code, _, err = run_cli(
        capsys, "jordan-finite", "--input", a5, "--jordan-limit", "50")
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_jordan_finite_refuses_a_permutation_group_during_its_closure(capsys, fmt):
    code, out, err = run_cli(
        capsys, "jordan-finite", "--input", str(FIXTURES / "a5.grp"),
        "--jordan-limit", "50", "--format", fmt)
    assert (code, out, err) == (
        3, "", f"error: permutation closure exceeded 50 elements{KNOB}\n")


def test_jordan_finite_refuses_a_table_by_its_header(capsys, tmp_path):
    empty = tmp_path / "empty.grp"
    empty.write_text("table 500\n")
    code, out, err = run_cli(capsys, "jordan-finite", "--input", str(empty))
    assert (code, out, err) == (3, "", f"error: group order 500 exceeds limit 200{KNOB}\n")
    cyclic = tmp_path / "c500.grp"
    cyclic.write_text(cyclic_table(500))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "jordan-finite", "--input", str(cyclic))
        times.append(time.perf_counter() - start)
        assert (code, out, err) == (3, "", f"error: group order 500 exceeds limit 200{KNOB}\n")
    assert min(times) < 0.02, f"refusing C500 took {min(times):.3f} s"


def test_rdim_checks_the_rank_budget_before_building(capsys, monkeypatch):
    from liejordan import rootdata

    def refuse(stype):
        raise AssertionError(f"built the root datum of {stype}")

    monkeypatch.delenv("LIEJORDAN_MAX_RANK", raising=False)
    monkeypatch.setattr(rootdata, "build_root_datum", refuse)
    code, out, err = run_cli(capsys, "rdim", "--family", "A", "--rank", "10")
    assert (code, out) == (3, "")
    assert err == ("error: rank 10 exceeds budget 9; "
                   "set LIEJORDAN_MAX_RANK or pass override=True\n")


def test_a_long_rank_is_quoted_short(capsys):
    code, out, err = run_cli(capsys, "rdim", "--family", "E", "--rank", "9" * 4000)
    assert (code, out) == (2, "")
    assert err == f"error: family E exists only in rank 6, 7, 8, got {'9' * 40}...\n"


_NINES = "9" * 4000


@pytest.mark.parametrize("argv,expected", [
    (["lie", "--n", "-" + _NINES], 2),
    (["lie", "--n", _NINES], 3),
    (["lie", "--n", "4", "--components", _NINES], 3),
    (["lie", "--n", "4", "--components", "-" + _NINES], 2),
    (["compact-complex", "--n", _NINES], 3),
], ids=["negative-n", "long-n", "long-components", "negative-components",
        "compact-complex-long-n"])
def test_long_bound_arguments_are_quoted_short(capsys, argv, expected):
    code, out, err = run_cli(capsys, "bound", "--family-of-groups", *argv)
    assert (code, out) == (expected, "")
    assert len(err.encode()) < 300


@pytest.mark.parametrize("argv", [
    ["rdim", "--family", "A", "--rank"],
    ["table", "--max-rank"],
    ["bound", "--family-of-groups", "lie", "--n"],
    ["bound", "--family-of-groups", "lie", "--n", "3", "--components"],
    ["jordan-finite", "--input", str(FIXTURES / "s4.grp"), "--jordan-limit"],
], ids=["rank", "max-rank", "n", "components", "jordan-limit"])
@pytest.mark.parametrize("value", ["9" * 5000, "x" * 5000], ids=["past-int-limit", "non-integer"])
def test_long_integer_flags_are_quoted_short(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"invalid int value: {value[:40]!r}...\n" in err
    assert len(err) < 400


@pytest.mark.parametrize("argv", [
    ["rdim", "--family", "A", "--rank", "2", "--format"], [],
], ids=["format", "subcommand"])
def test_long_invalid_choices_are_quoted_short(capsys, argv):
    value = "x" * 5000
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"invalid choice: {value[:40]!r}... (choose from " in err
    assert len(err.encode()) < 300


def test_long_unrecognized_arguments_are_cut_short(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rdim", "--family", "A", "--rank", "2", *["x"] * 5000])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.endswith(f"error: unrecognized arguments: {'x ' * 20}...\n")
    assert len(err.encode()) < 300


def _refusal(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    return err


def _group_with_kind(capsys, kind):
    Path("kind.grp").write_text(f"{kind} 2\n")
    return _refusal(capsys, "jordan-finite", "--input", "kind.grp")


# How each name reaches its message, and the message for the short name 'qq'.
_UNKNOWN_NAMES = {
    "family": (lambda capsys, name: _refusal(capsys, "rdim", "--family", name, "--rank", "2"),
               "error: unknown family 'QQ', expected one of A..G\n"),
    "group-format": (_group_with_kind,
                     "error: unknown format 'qq', expected 'perm' or 'table'\n"),
    "input-path": (lambda capsys, name: _refusal(capsys, "jordan-finite", "--input", name),
                   "error: cannot read qq: [Errno 2] No such file or directory: 'qq'\n"),
    "family-of-groups": (lambda capsys, name: str(pytest.raises(ValueError, bound, name, 1).value),
                         "unknown family of groups 'qq'"),
}


@pytest.mark.parametrize("case", list(_UNKNOWN_NAMES))
def test_unknown_names_are_quoted_short(capsys, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    message, short = _UNKNOWN_NAMES[case]
    assert len(message(capsys, "x" * 5000).encode()) < 300
    assert message(capsys, "qq") == short


def test_an_unreadable_long_path_is_cut_in_both_places(capsys, tmp_path):
    path = str(tmp_path / ("x" * 60))
    assert _refusal(capsys, "jordan-finite", "--input", path) == (
        f"error: cannot read {path[:40]!r}...: [Errno 2] No such file or directory: "
        f"{path[:40]!r}...\n")


def test_an_order_limit_below_one_exits_2(capsys):
    code, out, err = run_cli(capsys, "jordan-finite", "--input", str(FIXTURES / "s4.grp"),
                             "--jordan-limit", "-" + _NINES)
    assert (code, out) == (2, "")
    assert err == f"error: the order limit must be positive, got -{'9' * 39}...\n"


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "liejordan", "rdim", "--family", "A",
         "--rank", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def test_rdim_a40_end_to_end_under_a_second():
    env = {**os.environ, "LIEJORDAN_MAX_RANK": "40"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "liejordan", "rdim", "--family", "A", "--rank", "40"],
        capture_output=True, text=True, timeout=60, env=env)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (0, "41\n")
    assert elapsed < 1.0


def test_bound_choices_are_the_bounds_table():
    from liejordan import bounds
    from liejordan.cli import build_parser
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in subparsers.choices["bound"]._actions
                  if a.dest == "family_of_groups")
    assert tuple(action.choices) == tuple(bounds.FAMILIES)


@pytest.mark.parametrize("argv", [
    ["lie-connected", "--n", "8"],
    ["algebraic", "--n", "4"],
    ["compact-complex", "--n", "2"],
    ["riemannian", "--n", "4"],
    ["lie", "--n", "7", "--components", "2"],
])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_bound_past_digit_limit_exits_3(capsys, argv, fmt):
    code, out, err = run_cli(
        capsys, "bound", "--family-of-groups", *argv, "--format", fmt)
    assert (code, out) == (3, "")
    budget = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    assert "PYTHONINTMAXSTRDIGITS" in err and str(budget) in err


@pytest.mark.parametrize("argv", [
    *(["--family-of-groups", family, "--n", "1000000"]
      for family in ("lie", "lie-connected", "algebraic", "compact-complex",
                     "hyperbolic", "hyperbolic-stabilizer", "riemannian")),
    ["--family-of-groups", "lie", "--n", "7", "--components", "1000000"],
])
def test_huge_bound_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bound", *argv)
    assert (code, out) == (3, "")
    assert time.perf_counter() - start < 1.0


def test_bound_just_under_digit_limit_prints(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--family-of-groups", "lie-connected", "--n", "7")
    assert code == 0
    value = out.split(" ", 1)[0]
    assert len(value) == 2469
    assert out.endswith(" (2469 digits, ~" + value[0] + "." + value[1:6]
                        + "e2468)\n")


_DIGIT_BUDGET = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


@pytest.mark.parametrize("stype,weight", [
    (("E", "8"), "1" + "0" * 99 + ",0,0,0,0,0,0,0"),
    # the A1 representation of highest weight m has dimension m + 1
    (("A", "1"), "9" * _DIGIT_BUDGET),
], ids=["E8", "A1"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_dim_past_digit_limit_exits_3(capsys, stype, weight, fmt):
    code, out, err = run_cli(
        capsys, "dim", "--family", stype[0], "--rank", stype[1],
        "--weight", weight, "--format", fmt)
    assert (code, out) == (3, "")
    assert "PYTHONINTMAXSTRDIGITS" in err and str(_DIGIT_BUDGET) in err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_dim_just_under_digit_limit_prints(capsys, fmt):
    code, out, _ = run_cli(
        capsys, "dim", "--family", "A", "--rank", "1",
        "--weight", "9" * (_DIGIT_BUDGET - 1), "--format", fmt)
    assert code == 0
    assert "1" + "0" * (_DIGIT_BUDGET - 1) in out


_INT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("command,flag", [("dim", "--weight"), ("faithful", "--weights")])
@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_weight_coordinate_past_int_limit_exits_3(capsys, command, flag, fmt):
    code, out, err = run_cli(
        capsys, command, "--family", "A", "--rank", "1",
        flag, "9" * (_INT_LIMIT + 1), "--format", fmt)
    assert (code, out) == (3, "")
    assert f"{_INT_LIMIT + 1} decimal digits" in err
    assert str(_INT_LIMIT) in err and "PYTHONINTMAXSTRDIGITS" in err
    assert len(err) < 300


@pytest.mark.parametrize("weight", [
    "x" * 5000,                   # not an integer
    "1__2" * 2000,                # digits, but not an integer literal
    ",".join(["1"] * 2500),       # integers, but too many of them
], ids=["non-integer", "bad-literal", "too-many"])
def test_long_malformed_weight_exits_2_with_short_message(capsys, weight):
    code, out, err = run_cli(
        capsys, "dim", "--family", "A", "--rank", "2", "--weight", weight)
    assert (code, out) == (2, "")
    assert len(err) < 200


def test_huge_weyl_product_refused_before_it_is_formed(capsys):
    weight = ",".join(["9" * _DIGIT_BUDGET] * 8)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "dim", "--family", "E", "--rank", "8", "--weight", weight)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert "PYTHONINTMAXSTRDIGITS" in err
    assert elapsed < 0.1


@pytest.mark.parametrize("argv", [
    ["faithful", "--family", "A", "--rank", "1", "--weights", ";".join(["9" * 4000] * 2)],
    ["dim", "--family", "A", "--rank", "2", "--weight=-1," + "9" * 4000],
], ids=["duplicate-weight", "negative-coordinate"])
def test_long_invalid_weight_exits_2_with_short_message(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err) < 200


def _cells(fam, rank):
    """Cartan, center-class and coroot cells of a type, counted from what
    the library builds for it."""
    from liejordan.rootdata import SimpleType, _center, build_root_datum
    datum = build_root_datum(SimpleType(fam, rank))
    return rank * (len(datum.cartan) + _center(datum.type)[0] + len(datum.positive_coroots))


SIZED_COMMANDS = {
    "center": [],
    "dim": ["--weight", "0,0,0,0,1"],
    "faithful": ["--weights", "0,0,0,0,1;1,0,0,0,0"],
}


@pytest.mark.parametrize("command", SIZED_COMMANDS)
def test_cell_budget_at_its_limit_and_one_past_it(capsys, monkeypatch, command):
    argv = [command, "--family", "D", "--rank", "5", *SIZED_COMMANDS[command]]
    cells = _cells("D", 5)
    assert cells == 5 * 5 + 4 * 5 + 20 * 5
    monkeypatch.delenv("LIEJORDAN_MAX_CELLS", raising=False)
    answer = run_cli(capsys, *argv)
    assert answer[0] == 0
    monkeypatch.setenv("LIEJORDAN_MAX_CELLS", str(cells))
    assert run_cli(capsys, *argv) == answer
    monkeypatch.setenv("LIEJORDAN_MAX_CELLS", str(cells - 1))
    assert run_cli(capsys, *argv) == (
        3, "", f"error: type D5 takes {cells} cells (Cartan matrix, center classes and "
        f"coroots), more than the budget of {cells - 1}; set LIEJORDAN_MAX_CELLS to raise it\n")


@pytest.mark.parametrize("fam", ["A", "B", "C", "D"])
def test_cell_budget_default_admits_rank_200(fam):
    from liejordan.rootdata import SimpleType, check_cell_budget
    check_cell_budget(SimpleType(fam, 200))


@pytest.mark.parametrize("value", ["0", "many", "9" * 5000])
def test_bad_cell_budget_is_malformed_input(capsys, monkeypatch, value):
    monkeypatch.setenv("LIEJORDAN_MAX_CELLS", value)
    code, out, err = run_cli(capsys, "center", "--family", "A", "--rank", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: LIEJORDAN_MAX_CELLS must be a positive integer")
    assert len(err) < 200


@pytest.mark.parametrize("command", SIZED_COMMANDS)
def test_huge_rank_is_refused_before_anything_is_built(capsys, monkeypatch, command):
    import tracemalloc

    from liejordan import rootdata

    def refuse(rank):
        raise AssertionError(f"built data for A{rank}")

    monkeypatch.delenv("LIEJORDAN_MAX_CELLS", raising=False)
    # cartan_matrix, where every type's data starts, reads the bonds, and
    # the center reads the generators.
    ranks, _, roots, order, _ = rootdata._FAMILIES["A"]
    monkeypatch.setitem(rootdata._FAMILIES, "A", (ranks, refuse, roots, order, refuse))
    argv = [command, "--family", "A", "--rank", "100000", *SIZED_COMMANDS[command]]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    l = 100000
    assert f"{l * (l + (l + 1) + l * (l + 1) // 2)} cells" in err
    assert "LIEJORDAN_MAX_CELLS" in err
    assert elapsed < 0.1 and peak < 2 ** 20


def test_cell_budget_message_quotes_a_long_rank_short(capsys):
    code, out, err = run_cli(capsys, "center", "--family", "B", "--rank", "9" * 4000)
    assert (code, out) == (3, "")
    assert len(err) < 300


@pytest.mark.parametrize("argv,limit", [
    (["center"], 0.6),  # about 0.12 s on a 2-vCPU Xeon, 90 ms of it building Fractions
    (["faithful", "--weights", ",".join(["1"] + ["0"] * 199)], 0.1),
], ids=["center", "faithful"])
def test_a200_center_and_faithful_read_only_the_cartan_matrix(capsys, argv, limit):
    # With the 20100 coroots built first, each took 0.7-0.8 s on a 2-vCPU Xeon.
    times = []
    for _ in range(3):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv[0], "--family", "A", "--rank", "200", *argv[1:])
        times.append(time.perf_counter() - start)
        assert (code, err) == (0, "")
    assert min(times) < limit, f"{argv[0]} A200 took {min(times):.3f} s"
