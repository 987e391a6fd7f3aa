"""Record bench/golden.json from the liejordan in this checkout.

    python3 bench/record_golden.py

Run it only at a commit whose answers are trusted: the benchmark then holds
every later commit to them.  It records rdim results for the 65 lie-search
types, center classes for the types of rank <= 9 (computed by oracle.center
and cross-checked against liejordan), Jordan constants and witnesses for the
finite groups, and the stdout of every README command, after checking that
the README shows that output (lines with "..." match as prefix/suffix, and
JSON blocks, which the README abbreviates, match as parsed JSON).
"""
from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import liejordan as lj  # noqa: E402

import oracle  # noqa: E402
from workloads import FIXTURES, LIE_TYPES, PERM_GROUPS, perm_text  # noqa: E402

RANK_REFUSAL = ["rdim", "--family", "A", "--rank", "10"]


def record_rdim() -> dict:
    out = {}
    for fam, rank in LIE_TYPES:
        r = lj.rdim(lj.build_root_datum(lj.SimpleType(fam, rank)), override=True)
        out[f"{fam}{rank}"] = [r.total_dim, [list(w.coords) for w in r.witness],
                               list(r.per_weight_dims)]
    return out


def record_center() -> dict:
    out = {}
    for fam, rank in LIE_TYPES:
        if rank > 9:
            continue
        d = lj.build_root_datum(lj.SimpleType(fam, rank))
        order, classes = oracle.center(d.cartan)
        library = [tuple(c.coords) for c in lj.center_classes(d)]
        if library != [oracle.class_fractions(order, x) for x in classes]:
            raise SystemExit(f"{fam}{rank}: oracle and liejordan disagree on the center")
        out[f"{fam}{rank}"] = [order, [list(x) for x in classes]]
    return out


def record_finite() -> dict:
    fixtures = ROOT / "tests" / "fixtures"
    out = {}
    texts = {f"corpus/{p.stem}": p.read_text()
             for p in sorted((fixtures / "corpus").glob("*.grp"))}
    texts.update({f"fixtures/{n}": (fixtures / f"{n}.grp").read_text() for n in FIXTURES})
    for label, text in texts.items():
        G = lj.parse_group(text)
        J, w = lj.jordan_constant_with_witness(G)
        out[label] = {"order": G.order, "J": J, "witness": list(w.elements)}
    for name, (degree, gens) in PERM_GROUPS.items():
        try:
            G = lj.parse_group(perm_text(degree, gens))
            J, w = lj.jordan_constant_with_witness(G)
        except lj.ResourceGuardError:
            out[name] = "refused"
            continue
        out[name] = {"order": G.order, "J": J, "witness_order": w.order}
    return out


def readme_examples():
    """(argv, env, shown output or None) for every liejordan command in README.md."""
    examples = []
    in_sh = False
    current = None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
            current = None
            continue
        if not in_sh:
            continue
        prompt = line.startswith("$ ")
        words = shlex.split(line[2:] if prompt else line)
        env = {}
        while words and "=" in words[0]:
            key, value = words.pop(0).split("=", 1)
            env[key] = value
        if words and words[0] == "liejordan":
            current = [words[1:], env, [] if prompt else None]
            examples.append(current)
        elif current is not None and current[2] is not None:
            current[2].append(line)
    return examples


def shown_matches(shown: list[str], stdout: str) -> bool:
    text = "\n".join(shown)
    if "..." in text:
        prefix, suffix = text.split("...", 1)
        return stdout.rstrip("\n").startswith(prefix) and stdout.rstrip("\n").endswith(suffix)
    if text.startswith("{"):
        return json.loads(text) == json.loads(stdout)
    return text == stdout.rstrip("\n")


def record_cli() -> list:
    env = {k: v for k, v in os.environ.items() if k != "LIEJORDAN_MAX_RANK"}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = []
    for argv, extra, shown in readme_examples() + [[RANK_REFUSAL, {}, None]]:
        proc = subprocess.run([sys.executable, "-m", "liejordan", *argv], cwd=ROOT,
                              env={**env, **extra}, capture_output=True, text=True,
                              timeout=120)
        if shown is not None and not shown_matches(shown, proc.stdout):
            raise SystemExit(f"README output differs for {argv}:\n{proc.stdout}")
        out.append({"argv": argv, "env": extra, "exit": proc.returncode,
                    "stdout": proc.stdout})
    return out


def main():
    golden = {"rdim": record_rdim(), "center": record_center(),
              "finite": record_finite(), "cli": record_cli()}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {HERE / 'golden.json'}: {len(golden['rdim'])} types, "
          f"{len(golden['finite'])} groups, {len(golden['cli'])} commands")


if __name__ == "__main__":
    main()
