"""The command-line interface before its one renderer, kept as a test oracle.

Each subcommand branches on the output format and writes its text, JSON
and CSV output itself.  Its exit codes, stdout and stderr are the ones the
current interface must reproduce.  The module below is that code as it
was, with absolute imports.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from liejordan import bounds, center, finitegroup, minfaithful, rootdata
from liejordan.errors import ResourceGuardError

_BIG_DIGITS = 40


def _fmt_int(value: int) -> str:
    """Text rendering of an integer; large values get a magnitude tag."""
    s = str(value)
    if len(s) <= _BIG_DIGITS:
        return s
    lead = s[0] + "." + s[1:6]
    return f"{s} ({len(s)} digits, ~{lead}e{len(s) - 1})"


def _csv_rows(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _parse_type(args) -> rootdata.SimpleType:
    return rootdata.SimpleType(args.family.upper(), args.rank)


def _parse_weight(text: str, rank: int) -> rootdata.DominantWeight:
    tokens = [t.strip() for t in text.split(",")]
    try:
        coords = tuple(int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"weight {text!r} must be comma-separated integers") from None
    if len(coords) != rank:
        raise ValueError(f"weight {text!r} has {len(coords)} coordinates, rank is {rank}")
    return rootdata.DominantWeight(coords)


def _parse_weights(text: str, rank: int) -> center.WeightSet:
    parts = [p for p in (chunk.strip() for chunk in text.split(";")) if p]
    if not parts:
        raise ValueError("no weights given")
    return center.WeightSet(tuple(_parse_weight(p, rank) for p in parts))


def _cmd_rdim(args) -> str:
    stype = _parse_type(args)
    result = minfaithful.rdim(rootdata.build_root_datum(stype))
    if args.format == "json":
        return json.dumps({
            "family": stype.family, "rank": stype.rank,
            "rdim": result.total_dim,
            "witness": [list(w.coords) for w in result.witness],
            "per_weight_dims": list(result.per_weight_dims),
        }, indent=2)
    if args.format == "csv":
        return _csv_rows(
            ["family", "rank", "rdim", "witness"],
            [[stype.family, stype.rank, result.total_dim, str(result.witness)]])
    return str(result.total_dim)


def _cmd_table(args) -> str:
    rows = minfaithful.rdim_table(args.max_rank)
    if args.format == "json":
        return json.dumps([{
            "family": t.family, "rank": t.rank, "rdim": r.total_dim,
            "witness": [list(w.coords) for w in r.witness],
            "per_weight_dims": list(r.per_weight_dims),
        } for t, r in rows], indent=2)
    if args.format == "csv":
        return _csv_rows(
            ["family", "rank", "rdim", "witness"],
            [[t.family, t.rank, r.total_dim, str(r.witness)] for t, r in rows])
    cells = [("type", "rank", "rdim", "witness")]
    cells += [(str(t), str(t.rank), str(r.total_dim), str(r.witness))
              for t, r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells)


def _cmd_dim(args) -> str:
    stype = _parse_type(args)
    datum = rootdata.build_root_datum(stype)
    weight = _parse_weight(args.weight, stype.rank)
    value = bounds._within(rootdata.weyl_dim(datum, weight), bounds._digit_budget())
    if args.format == "json":
        return json.dumps({
            "family": stype.family, "rank": stype.rank,
            "weight": list(weight.coords), "dim": value,
        }, indent=2)
    if args.format == "csv":
        return _csv_rows(["family", "rank", "weight", "dim"],
                         [[stype.family, stype.rank, str(weight), value]])
    return str(value)


def _cmd_center(args) -> str:
    stype = _parse_type(args)
    datum = rootdata.build_root_datum(stype)
    order = center.center_order(datum)
    classes = center.center_classes(datum)
    if args.format == "json":
        return json.dumps({
            "family": stype.family, "rank": stype.rank, "order": order,
            "classes": [[str(c) for c in cls.coords] for cls in classes],
        }, indent=2)
    if args.format == "csv":
        rows = [[stype.family, stype.rank, order, str(cls)] for cls in classes]
        if not rows:
            rows = [[stype.family, stype.rank, order, ""]]
        return _csv_rows(["family", "rank", "center_order", "class"], rows)
    lines = [f"order {order}"]
    lines += [str(cls) for cls in classes]
    return "\n".join(lines)


def _cmd_faithful(args) -> str:
    stype = _parse_type(args)
    datum = rootdata.build_root_datum(stype)
    weights = _parse_weights(args.weights, stype.rank)
    verdict = center.is_faithful(datum, weights)
    if args.format == "json":
        return json.dumps({
            "family": stype.family, "rank": stype.rank,
            "weights": [list(w.coords) for w in weights],
            "faithful": verdict,
        }, indent=2)
    if args.format == "csv":
        return _csv_rows(
            ["family", "rank", "weights", "faithful"],
            [[stype.family, stype.rank, str(weights), str(verdict).lower()]])
    return str(verdict).lower()


def _cmd_bound(args) -> str:
    fam, n = args.family_of_groups, args.n
    expr = bounds.bound(fam, n, args.components)
    components = (args.components or 1) if fam in bounds.WITH_COMPONENTS else ""
    if args.format == "json":
        return json.dumps({
            "family_of_groups": fam, "n": n,
            **({"components": components} if components else {}),
            "bound": bounds.expr_to_json(expr), "rendered": expr.render(),
            "conventions": ["J(0)=1"] if n == 0 else [],
        }, indent=2)
    if args.format == "csv":
        return _csv_rows(["family_of_groups", "n", "components", "bound"],
                         [[fam, n, components, expr.render()]])
    return expr.render(_fmt_int)


def _cmd_jordan_finite(args) -> str:
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from None
    G = finitegroup.parse_group(text, max_order=args.closure_limit)
    value, witness = finitegroup.jordan_constant_with_witness(
        G, max_order=args.jordan_limit)
    if args.format == "json":
        return json.dumps({
            "order": G.order, "jordan_constant": value,
            "witness_subgroup": list(witness.elements), "b": G.order,
        }, indent=2)
    if args.format == "csv":
        return _csv_rows(
            ["order", "jordan_constant", "witness_subgroup", "b"],
            [[G.order, value, ";".join(str(i) for i in witness.elements), G.order]])
    return "\n".join([
        f"order {G.order}",
        f"jordan_constant {value}",
        "witness_subgroup " + ",".join(str(i) for i in witness.elements),
        f"b {G.order}"])


def _add_type_flags(sub):
    sub.add_argument("--family", required=True,
                     help="family letter A..G")
    sub.add_argument("--rank", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liejordan",
        description="Minimal faithful representation dimensions and Jordan constant bounds")
    subs = parser.add_subparsers(dest="command", required=True)

    handlers = {}

    def sub(name, handler, **kwargs):
        p = subs.add_parser(name, **kwargs)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        handlers[name] = handler
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
    p.add_argument("--family-of-groups", required=True, choices=tuple(bounds.FAMILIES))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--components", type=int, default=None,
                   help="component count b (lie and algebraic only)")

    p = sub("jordan-finite", _cmd_jordan_finite,
            help="brute-force the Jordan constant of an explicit finite group")
    p.add_argument("--input", required=True, help="group description file")
    p.add_argument("--closure-limit", type=int, default=5000)
    p.add_argument("--jordan-limit", type=int,
                   default=finitegroup.DEFAULT_JORDAN_LIMIT)

    parser.set_defaults(_handlers=handlers)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = args._handlers[args.command]
    try:
        output = handler(args)
    except ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
