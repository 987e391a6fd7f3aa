"""The input contract, as a property over the argv of every subcommand.

Every command line ends in an answer (exit 0, nothing on stderr), a refusal
of malformed input (exit 2) or a refusal by a resource guard (exit 3, and
exactly when a ResourceGuardError was raised).  A refusal writes nothing to
stdout; stderr stays under a fixed number of bytes whatever the length of
the input; each call stays under fixed bounds of wall time and traced
memory.  Each example runs cli.main in process; the library keeps no
root datum or center between calls, so each runs as in a fresh process.

Some branches of the strategy also know their exit code: a `table N`
header past the order limit and a weight coordinate past the int->str
digit limit are refused by a guard (3), and a corpus table with one
corrupted entry is malformed (2).
"""
import contextlib
import io
import operator
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liejordan import cli
from liejordan.bounds import FAMILIES
from liejordan.errors import ResourceGuardError

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = [p.read_text() for p in sorted((FIXTURES / "corpus").glob("*.grp"))]
GROUPS = CORPUS + [(FIXTURES / name).read_text() for name in ("s3.grp", "s4.grp", "a5.grp")]

# Bounds over every example, from the worst cases measured in process with
# tracemalloc on (2-vCPU Xeon).  An echo is at most 40 characters, each
# written in at most 10 bytes (a \U escape in a repr): 869 bytes of stderr
# for the two echoes of an unreadable --input, 839 for an invalid
# --family-of-groups below bound's usage block.  dim at B215 with weight
# 1,0,...,0, the largest classical dim the cell budget admits, took
# 0.13-0.26 s and a traced peak of 3.3 MiB; center at A268 0.5-0.9 s
# (Python 3.11, shared host).  Drawn examples take under 0.1 s.
STDERR_BYTES = 1024
SECONDS = 10.0
PEAK_BYTES = 192 * 2 ** 20

INPUT = "<group file>"  # stands for the path of the drawn group file
DIGIT_LIMIT = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits

# Long values of one repeated piece: plain, digits, non-ASCII, quotes,
# backslashes, blanks, characters a repr writes as escapes.
LONG = st.builds(operator.mul, st.sampled_from(["x", "9", "é", "€", "'", '"', "\\", " ", "\n",
                                                "\0", "x'y\"", "\U0001d7d7", "\U000e0001"]),
                 st.integers(41, 5000))
# Decimal literals of up to 5000 digits, past the int->str limit from 4301.
DIGITS = st.builds(operator.add, st.sampled_from("19"),
                   st.integers(0, 4999).map(lambda n: "0" * n))
JUNK = st.sampled_from(["", " ", "x", "1.5", "0x10", "1e3", "١٢", "1_000", " 7 ",
                        "+3", "²", "-", "--", "-x", "--x"])
INT = st.one_of(st.integers(-3, 12).map(str), st.integers(13, 400).map(str), DIGITS,
                DIGITS.map("-".__add__), JUNK, LONG)
FAMILY = st.one_of(st.sampled_from("ABCDEFGabcdefg"), JUNK, LONG)
GROUP_FAMILY = st.one_of(st.sampled_from(sorted(FAMILIES)), JUNK, LONG)
FORMAT = st.one_of(st.sampled_from(["text", "json", "csv"]), JUNK, LONG)
COORD = st.one_of(st.integers(0, 4).map(str), st.integers(-3, -1).map(str), DIGITS,
                  st.sampled_from(["", " ", "x", "١", "1.0", "½", "²"]), LONG)
WEIGHT = st.lists(COORD, max_size=10).map(",".join)
WEIGHTS = st.one_of(WEIGHT, st.lists(WEIGHT, max_size=4).map(";".join), LONG)


def _value(token):
    try:
        return int(token)
    except ValueError:
        return None


@st.composite
def corrupted_table(draw):
    """A corpus table with one entry replaced by a token of another value."""
    lines = draw(st.sampled_from(CORPUS)).splitlines()
    n = int(lines[0].split()[1])
    i, j = draw(st.integers(1, n)), draw(st.integers(0, n - 1))
    row = lines[i].split()
    entry = int(row[j])
    row[j] = draw(st.one_of(st.integers(-5, 10 ** 6).map(str), DIGITS, JUNK, LONG)
                  .filter(lambda token: token.strip() and _value(token) != entry))
    lines[i] = " ".join(row)
    return "\n".join(lines) + "\n"


# A header past the default order limit, of up to 5000 digits, past the
# int->str limit from 4301, with or without the rows it names.
HUGE_TABLE = st.builds(lambda n, rows: f"table {n}\n" + "0 1\n1 0\n" * rows,
                       st.one_of(st.integers(201, 999).map(str),
                                 st.builds(operator.add, st.sampled_from("19"),
                                           st.integers(3, 4999).map(lambda n: "0" * n))),
                       st.integers(0, 2))
GROUP_TEXT = st.one_of(
    st.sampled_from(GROUPS), corrupted_table(), HUGE_TABLE,
    st.builds(lambda kind, n, body: f"{kind} {n}\n{body}",
              st.sampled_from(["table", "perm", "TABLE", "group"]), INT, st.text(max_size=60)),
    st.text(max_size=200))

FLAGS = {
    "rdim": {"--family": FAMILY, "--rank": INT},
    "table": {"--max-rank": INT},
    "dim": {"--family": FAMILY, "--rank": INT, "--weight": WEIGHTS},
    "center": {"--family": FAMILY, "--rank": INT},
    "faithful": {"--family": FAMILY, "--rank": INT, "--weights": WEIGHTS},
    "bound": {"--family-of-groups": GROUP_FAMILY, "--n": INT, "--components": INT},
    "jordan-finite": {"--input": st.one_of(st.just(INPUT), JUNK, LONG),
                      "--jordan-limit": INT},
}


@st.composite
def command_line(draw):
    """A command line of any subcommand: each flag kept or dropped, written
    whole, abbreviated or as --flag=value, plus stray arguments; None for
    the exit code, which this branch does not predict."""
    command = draw(st.sampled_from(sorted(FLAGS) + ["no such command"]))
    if command not in FLAGS:
        command = draw(st.one_of(JUNK, LONG))
    argv = [command]
    for flag, values in {**FLAGS.get(command, {}), "--format": FORMAT}.items():
        if draw(st.integers(0, 5)) == 0:
            continue
        name = flag[:draw(st.integers(3, len(flag)))]
        value = draw(values)
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    argv += draw(st.lists(st.one_of(st.sampled_from(["x", "-h", "--help=x", "--f=x"]), JUNK,
                                    LONG, LONG.map("--help=".__add__),
                                    LONG.map("--f=".__add__)), max_size=3))
    text = draw(GROUP_TEXT) if INPUT in argv else None
    return argv, text, None


SMALL_TYPES = ([(f, r) for f, least in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                for r in range(least, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@st.composite
def well_formed(draw):
    """A command line of any subcommand, every flag of which parses, on a
    type of rank at most 8: mostly answers, with refusals by the guards and
    by the checks that need more than one flag (a zero weight set, the
    components of a family that has none)."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    family, rank = draw(st.sampled_from(SMALL_TYPES))

    def weight():
        return ",".join(str(draw(st.integers(0, 2))) for _ in range(rank))

    values = {
        "--family": draw(st.sampled_from([family, family.lower()])),
        "--rank": str(rank),
        "--weight": weight(),
        "--weights": ";".join(weight() for _ in range(draw(st.integers(1, 3)))),
        "--max-rank": str(draw(st.integers(0, 12))),
        "--family-of-groups": draw(st.sampled_from(sorted(FAMILIES))),
        "--n": str(draw(st.integers(0, 10 ** 6))),
        "--components": str(draw(st.integers(1, 10 ** 6))),
        "--input": INPUT,
        "--jordan-limit": str(draw(st.integers(1, 300))),
    }
    argv = [command, "--format", draw(st.sampled_from(["text", "json", "csv"]))]
    for flag in FLAGS[command]:
        if flag not in ("--components", "--jordan-limit") or draw(st.booleans()):
            argv += [flag, values[flag]]
    return argv, draw(st.sampled_from(GROUPS)), None


@st.composite
def huge_coordinate(draw):
    """dim or faithful on a small type, one weight coordinate a well-formed
    literal past the int->str digit limit: the digit guard's refusal."""
    family, rank = draw(st.sampled_from([("A", 3), ("B", 2), ("G", 2), ("E", 6)]))
    coords = [str(draw(st.integers(0, 3))) for _ in range(rank)]
    digits = draw(st.integers(DIGIT_LIMIT + 1, DIGIT_LIMIT + 700))
    coords[draw(st.integers(0, rank - 1))] = draw(st.sampled_from(["", "+", "-"])) + "7" * digits
    command, flag = draw(st.sampled_from([("dim", "--weight"), ("faithful", "--weights")]))
    weight = f"{flag}={','.join(coords)}"  # a leading '-' would read as an option
    return [command, "--family", family, "--rank", str(rank), weight], None, 3


CASES = st.one_of(
    command_line(), well_formed(), huge_coordinate(),
    st.builds(lambda text: (["jordan-finite", "--input", INPUT], text, 3), HUGE_TABLE),
    st.builds(lambda text: (["jordan-finite", "--input", INPUT], text, 2), corrupted_table()))

X = "x" * 5000


@contextlib.contextmanager
def guards_raised():
    """The ResourceGuardErrors made inside the block."""
    made = []

    def init(self, *args):
        made.append(self)
        Exception.__init__(self, *args)

    ResourceGuardError.__init__ = init
    try:
        yield made
    finally:
        del ResourceGuardError.__init__


@pytest.fixture(scope="module")
def group_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "group.grp"


def run(argv, group_file, text=None):
    """exit code, stdout, stderr, guards raised, seconds and traced peak of
    one in-process call, the group text written where argv names INPUT."""
    if text is not None:
        group_file.write_text(text, encoding="utf-8")
    argv = [str(group_file) if a == INPUT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                guards_raised() as guards:
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out.getvalue(), err.getvalue(), guards, seconds, peak


@settings(max_examples=100, deadline=None, derandomize=True)
@given(CASES)
# The argparse echoes, each once past 5000 bytes of stderr.
@example((["rdim", f"--help={X}"], None, 2))
@example((["rdim", f"--f={X}"], None, 2))
@example((["rdim", "--family", "A", "--rank", X], None, 2))
@example((["rdim", "--family", "A", "--rank", "2", "--format", X], None, 2))
@example((["rdim", "--family", "A", "--rank", "2", *["x"] * 5000], None, 2))
@example((["jordan-finite", "--input", INPUT], "table " + "9" * 5000 + "\n", 3))
@example((["jordan-finite", "--input", INPUT], "perm 1" + "0" * 4000 + "\n1 2\n", 2))
def test_every_command_line_ends_in_an_answer_or_a_bounded_refusal(group_file, case):
    argv, text, expected = case
    code, out, err, guards, seconds, peak = run(argv, group_file, text)
    assert code in (0, 2, 3)
    assert (code == 3) == bool(guards), f"exit {code} with guards {guards}"
    if expected is not None:
        assert code == expected, err
    if code:
        # One error line, after argparse's usage block on a usage error.
        *usage, error = err.splitlines()
        assert out == "" and err.endswith("\n")
        assert all(line.startswith(("usage: ", " ")) for line in usage)
        assert re.match(r"liejordan( [a-z-]+)?: error: " if usage else "error: ", error)
    else:
        assert err == ""
    assert len(err.encode()) <= STDERR_BYTES, err[:300]
    assert seconds < SECONDS
    assert peak < PEAK_BYTES


def test_the_parser_overrides_only_public_hooks():
    # Private argparse methods such as _check_value change between Python
    # versions; error() and print_help() are the only places the CLI changes
    # argparse's behaviour.
    assert [name for name in vars(cli._Parser) if not name.startswith("__")] == [
        "error", "print_help"]
