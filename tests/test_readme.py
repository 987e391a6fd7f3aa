"""Every `$ liejordan ...` example in README.md prints what the README shows,
and every `# ...` comment of its Library block is the repr of its line.

A shown output containing '...' matches as a prefix plus a suffix, and an
abbreviated JSON block matches as parsed JSON.
"""
import argparse
import ast
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from liejordan.cli import build_parser, main

ROOT = Path(__file__).parent.parent


def readme_examples():
    """(argv, shown output lines) for each '$ liejordan' line of a sh block."""
    examples, in_sh, shown = [], False, None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh, shown = line.strip() == "```sh", None
        elif in_sh and line.startswith("$ liejordan "):
            shown = []
            examples.append((shlex.split(line[2:])[1:], shown))
        elif in_sh and shown is not None:
            shown.append(line)
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8
    assert all(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(capsys, monkeypatch, argv, shown):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("LIEJORDAN_MAX_RANK", raising=False)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0 and out.endswith("\n")
    out, text = out[:-1], "\n".join(shown)
    if "..." in text:
        prefix, suffix = text.split("...", 1)
        assert out.startswith(prefix) and out.endswith(suffix)
    elif text.startswith("{"):
        assert json.loads(out) == json.loads(text)
    else:
        assert out == text


def test_readme_flags_are_the_parser_options():
    """The flags the "Command line" section names are the subcommand options."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values() for action in sub._actions
               for opt in action.option_strings if opt.startswith("--")} - {"--help"}
    assert sorted(named - options) == [], "named in the README, not an option"
    assert sorted(options - named) == [], "an option the README does not name"


def library_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_comments_are_reprs():
    """Each statement of the Library block runs, and a '# ...' comment on its
    last line is the repr of its value (an assignment's: the assigned name),
    or a prefix of it when the comment holds '...'."""
    block = library_block()
    lines = block.splitlines()
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        _, marked, comment = lines[node.end_lineno - 1].partition("  # ")
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        if not marked:
            continue
        shown, checked = repr(value), checked + 1
        if "..." in comment:
            assert shown.startswith(comment.split("...", 1)[0]), (comment, shown)
        else:
            assert shown == comment, (comment, shown)
    assert checked >= 4


def test_readme_library_names_exist():
    """Every dotted liejordan name in the README, and every name its Library
    block imports, is an attribute of the package."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    dotted = set(re.findall(r"\bliejordan(?:\.\w+)+", text))
    block = library_block()
    imported = re.search(r"from liejordan import \(([^)]*)\)", block).group(1)
    names = {f"liejordan.{name.strip()}" for name in imported.split(",")}
    assert dotted and len(names) >= 8
    for name in sorted(dotted | names):
        module, _, attr = name.rpartition(".")
        assert hasattr(importlib.import_module(module), attr), name
