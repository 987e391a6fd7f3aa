"""Every `$ liejordan ...` example in README.md prints what the README shows.

A shown output containing '...' matches as a prefix plus a suffix, and an
abbreviated JSON block matches as parsed JSON.
"""
import json
import shlex
from pathlib import Path

import pytest

from liejordan.cli import main

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
