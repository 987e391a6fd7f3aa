"""Command-line interface.

Subcommands map one-to-one onto library operations: rdim, table, dim,
center and faithful cover the root-system side; bound evaluates the
Jordan bound formulas; jordan-finite brute-forces an explicit finite
group.  Every subcommand takes --format text|json|csv.

Each subcommand computes its answer once and returns its text output, its
JSON document, its CSV columns and, where they are not the document's
values under those columns, its CSV rows.  _render is the only code that
reads the format: JSON goes through json.dumps, with weights and weight
sets as coordinate lists, and CSV through one cell rule (booleans in
lowercase, tuples joined with ';').

Each subcommand imports the strands it runs when it runs; the parser
loads only bounds, for the family names it offers, and json and csv load
only for their format.

Exit codes: 0 success, 1 stdout closed before the answer or help was
written, 2 malformed input, 3 a resource guard refused the computation.  A
refusal writes one error line (after argparse's usage block on a usage
error), each echo of input in it cut to 40 characters by _echo or, in
argparse's messages, by _Parser.error.
Integers are printed in full, except in bound's text output, where a
value past 40 digits carries a digit count and a rounded magnitude.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

from .errors import (_ECHO_CHARS, DEFAULT_JORDAN_LIMIT, ResourceGuardError, _digit_budget, _echo,
                     _within)

_BIG_DIGITS = 40


def _fmt_int(value: int) -> str:
    """Text rendering of an integer; large values get a magnitude tag."""
    s = str(value)
    if len(s) <= _BIG_DIGITS:
        return s
    lead = s[0] + "." + s[1:6]
    return f"{s} ({len(s)} digits, ~{lead}e{len(s) - 1})"


def _json_default(obj):
    """A weight set becomes a list of weights, a weight its coordinate list."""
    return list(getattr(obj, "coords", obj))


def _cell(value) -> str:
    """One CSV cell: booleans in lowercase, tuples joined with ';'."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    return str(value)


def _render(fmt: str, text: str, doc, columns, rows=None) -> str:
    """One answer in the requested format.  doc is the JSON document, a dict
    or a list of dicts; the CSV rows default to its values under the columns."""
    if fmt == "json":
        import json
        return json.dumps(doc, indent=2, default=_json_default)
    if fmt == "csv":
        import csv
        import io
        if rows is None:
            rows = [[d[c] for c in columns] for d in (doc if isinstance(doc, list) else [doc])]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(v) for v in row] for row in rows)
        return buf.getvalue().rstrip("\n")
    return text


# A repr of more than 40 characters in an argparse message: the quote, the
# first 40 characters (an escape such as \n or \x00 is one) and the rest.
_LONG_REPR = r"""(['"])((?:(?!\1)[^\\]|\\(?:x..|u....|U........|.)){40})(?:(?!\1)[^\\]|\\.)+\1"""


def _cut(text: str) -> str:
    """Input argparse echoes raw, cut as _echo cuts it and escaped as in its
    repr, so on one line, without the quotes."""
    return repr(text[:_ECHO_CHARS])[1:-1] + ("..." if len(text) > _ECHO_CHARS else "")


class _Parser(argparse.ArgumentParser):
    """argparse, with every echo of input in its messages cut to 40
    characters.  argparse echoes input raw in "unrecognized arguments: ..."
    and "ambiguous option: ... could match ...", and as a repr elsewhere;
    every message passes through error(), the public hook overridden here,
    as is print_help, so that a closed stdout is not swallowed but raised."""

    def error(self, message):
        head, sep, rest = message.partition(": ")
        if head == "unrecognized arguments":
            message = head + sep + _cut(rest)
        elif head == "ambiguous option":
            option, could, matches = rest.rpartition(" could match ")
            message = head + sep + _cut(option) + could + matches
        else:
            message = re.sub(_LONG_REPR, r"\1\2\1...", message)
        super().error(message)

    def print_help(self, file=None):
        file = file or sys.stdout or sys.stderr  # argparse's fallback when fd 1 was closed
        file.write(self.format_help())
        file.flush()


def _parse_type(args):
    from .rootdata import SimpleType
    return SimpleType(args.family.upper(), args.rank)


def _parse_coordinate(token: str, text: str) -> int:
    try:
        return int(token)
    except ValueError:
        # A well-formed literal fails only on CPython's int->str digit limit.
        body = token[1:] if token[:1] in ("+", "-") else token
        limit = sys.get_int_max_str_digits()
        if limit and all(part.isdecimal() for part in body.split("_")):
            raise ResourceGuardError(
                f"a coordinate of weight {_echo(text)} has {len(body) - body.count('_')} "
                f"decimal digits, more than the {limit} allowed by the int->str digit "
                f"limit (raise it with PYTHONINTMAXSTRDIGITS)") from None
        raise ValueError(f"weight {_echo(text)} must be comma-separated integers") from None


def _parse_weight(text: str, rank: int):
    from .rootdata import DominantWeight
    coords = tuple(_parse_coordinate(t.strip(), text) for t in text.split(","))
    if len(coords) != rank:
        raise ValueError(f"weight {_echo(text)} has {len(coords)} coordinates, rank is {rank}")
    return DominantWeight(coords)


def _parse_weights(text: str, rank: int):
    from .center import WeightSet
    parts = [p for p in (chunk.strip() for chunk in text.split(";")) if p]
    if not parts:
        raise ValueError("no weights given")
    return WeightSet(tuple(_parse_weight(p, rank) for p in parts))


_RDIM_COLUMNS = ("family", "rank", "rdim", "witness")


def _rdim_doc(stype, result) -> dict:
    return {"family": stype.family, "rank": stype.rank, "rdim": result.total_dim,
            "witness": result.witness, "per_weight_dims": result.per_weight_dims}


def _cmd_rdim(args):
    from . import minfaithful, rootdata
    stype = _parse_type(args)
    rootdata.check_rank_budget(stype)
    result = minfaithful.rdim(rootdata.build_root_datum(stype))
    return str(result.total_dim), _rdim_doc(stype, result), _RDIM_COLUMNS


def _cmd_table(args):
    from . import minfaithful
    rows = minfaithful.rdim_table(args.max_rank)
    cells = [("type", "rank", "rdim", "witness")]
    cells += [(str(t), str(t.rank), str(r.total_dim), str(r.witness))
              for t, r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    text = "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells)
    return text, [_rdim_doc(t, r) for t, r in rows], _RDIM_COLUMNS


def _cmd_dim(args):
    from . import rootdata
    stype = _parse_type(args)
    datum = rootdata.build_root_datum(stype)  # the cell budget, before the weight is parsed
    weight = _parse_weight(args.weight, stype.rank)
    value = _within(rootdata.weyl_dim(datum, weight), _digit_budget())
    doc = {"family": stype.family, "rank": stype.rank, "weight": weight, "dim": value}
    return str(value), doc, ("family", "rank", "weight", "dim")


def _cmd_center(args):
    from . import center, rootdata
    stype = _parse_type(args)
    datum = rootdata.build_root_datum(stype)
    order, classes = datum.center[0], center.center_classes(datum)
    doc = {"family": stype.family, "rank": stype.rank, "order": order,
           "classes": [[str(c) for c in cls.coords] for cls in classes]}
    rows = [[stype.family, stype.rank, order, cls] for cls in classes]
    return ("\n".join([f"order {order}", *map(str, classes)]), doc,
            ("family", "rank", "center_order", "class"),
            rows or [[stype.family, stype.rank, order, ""]])


def _cmd_faithful(args):
    from . import center, rootdata
    stype = _parse_type(args)
    datum = rootdata.build_root_datum(stype)
    weights = _parse_weights(args.weights, stype.rank)
    verdict = center.is_faithful(datum, weights)
    doc = {"family": stype.family, "rank": stype.rank,
           "weights": weights, "faithful": verdict}
    return _cell(verdict), doc, ("family", "rank", "weights", "faithful")


def _cmd_bound(args):
    from . import bounds
    fam, n = args.family_of_groups, args.n
    expr = bounds.bound(fam, n, args.components)
    components = (args.components or 1) if fam in bounds.WITH_COMPONENTS else ""
    rendered = expr.render()
    doc = {"family_of_groups": fam, "n": n,
           **({"components": components} if components else {}),
           "bound": bounds.expr_to_json(expr), "rendered": rendered,
           "conventions": ["J(0)=1"] if n == 0 else []}
    return (expr.render(_fmt_int), doc,
            ("family_of_groups", "n", "components", "bound"),
            [[fam, n, components, rendered]])


def _cmd_jordan_finite(args):
    from . import finitegroup
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # written as OSError writes it, the path cut like any echo
        path = _echo(args.input)
        bare = args.input if len(args.input) <= _ECHO_CHARS else path
        raise ValueError(
            f"cannot read {bare}: [Errno {exc.errno}] {exc.strerror}: {path}") from None
    G = finitegroup.parse_group(text, max_order=args.jordan_limit)
    value, witness = finitegroup.jordan_constant_with_witness(G, max_order=args.jordan_limit)
    doc = {"order": G.order, "jordan_constant": value,
           "witness_subgroup": witness.elements, "b": G.order}
    lines = [f"order {G.order}", f"jordan_constant {value}",
             "witness_subgroup " + ",".join(map(str, witness.elements)), f"b {G.order}"]
    return "\n".join(lines), doc, tuple(doc)


def _add_type_flags(sub):
    sub.add_argument("--family", required=True,
                     help="family letter A..G")
    sub.add_argument("--rank", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    from .bounds import FAMILIES  # the --family-of-groups choices
    parser = _Parser(
        prog="liejordan",
        description="Minimal faithful representation dimensions and Jordan constant bounds")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, handler, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.set_defaults(handler=handler)
        return p

    p = sub("rdim", _cmd_rdim,
            help="minimal faithful representation dimension of a simple type")
    _add_type_flags(p)

    p = sub("table", _cmd_table,
            help="rdim for every simple type up to a rank")
    p.add_argument("--max-rank", required=True, type=int)

    p = sub("dim", _cmd_dim, help="dimension of one irreducible representation")
    _add_type_flags(p)
    p.add_argument("--weight", required=True,
                   help="comma-separated fundamental-weight coordinates")

    p = sub("center", _cmd_center, help="center order and nonidentity classes")
    _add_type_flags(p)

    p = sub("faithful", _cmd_faithful, help="does a weight set act faithfully")
    _add_type_flags(p)
    p.add_argument("--weights", required=True,
                   help="semicolon-separated weights, e.g. '1,0,0;0,0,1'")

    p = sub("bound", _cmd_bound, help="Jordan constant bound formulas")
    p.add_argument("--family-of-groups", required=True, choices=tuple(FAMILIES))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--components", type=int, default=None,
                   help="component count b (lie and algebraic only)")

    p = sub("jordan-finite", _cmd_jordan_finite,
            help="brute-force the Jordan constant of an explicit finite group")
    p.add_argument("--input", required=True, help="group description file")
    p.add_argument("--jordan-limit", type=int, default=DEFAULT_JORDAN_LIMIT,
                   help="largest group order to accept (default %(default)s)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            output = _render(args.format, *args.handler(args))
        except ResourceGuardError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if sys.stdout is None:  # fd 1 was closed at start: the answer has nowhere to go
            return 1
        print(output, flush=True)
    except BrokenPipeError:  # the reader is gone: the Python docs' note on SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)  # so the flush at exit raises nothing
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
