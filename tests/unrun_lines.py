"""List the package lines that no tier-1 test runs.

Run from the repository root:

    PYTHONPATH=src python tests/unrun_lines.py [pytest arguments]

It runs the tier-1 suite in this process under sys.settrace, tracing only
frames whose code lives in src/liejordan/, and prints each executable line
of the package that no test ran, as path:line: source, on stdout; the test
run's own output and a count go to stderr.  Arguments go to pytest, so a
subset of the tests can be traced; the default is the whole suite.  It
needs nothing beyond the standard library and the pytest that runs the
tests; pytest does not collect this file.

A line counts as executable when the compiled module has an instruction
on it, in any of its code objects.  Only this process is traced, so a
line reached only in a `python -m liejordan` subprocess shows as unrun:
all of `__main__`, and the paths of `cli.main` that handle a closed
stdout.  Tracing makes the suite about three times slower, so a test with a
timing gate may fail here; the exit status of the traced run is printed
on stderr and returned.
"""
import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liejordan"


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that some compiled instruction lies on."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """The pytest exit status and the lines run, per package file."""
    import pytest

    ran: dict[str, set[int]] = {}
    lines_of: dict[str, set[int] | None] = {}  # co_filename -> its set in ran, None outside

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in lines_of:
            path = Path(filename).resolve()
            inside = path.parent == PACKAGE
            lines_of[filename] = ran.setdefault(str(path), set()) if inside else None
        return local if lines_of[filename] is not None else None

    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds the unrun lines alone
            status = pytest.main(["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    return int(status), ran


def main(args: list[str]) -> int:
    status, ran = traced_run(args)
    unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            unrun += 1
    print(f"{unrun} unrun lines; pytest exit status {status}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
