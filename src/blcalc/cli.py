"""Command-line interface.

Exit codes: 0 success, 1 negative domain answers (no amalgam, no
amalgamation property, consequence fails, no interpolant), 2 input errors,
141 (128 + SIGPIPE) when the reader of stdout closes it early.
All JSON output is versioned with "schema": "blcalc/1" and sorted keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .amalgam import (
    UnsupportedShapeError,
    amalgamate_constructive,
    find_amalgam_bruteforce,
    make_span,
    one_sided_amalgam,
)
from .classes import ClassExpr, generated_by
from .classify import (
    classify_ap_bh,
    classify_ap_bl,
    classify_ap_mv,
    classify_ap_wh,
    emit_poset,
    interval_by_name,
)
from .core import RawChain, chain_op, check_axioms
from .decompose import decompose, flatten
from .dsl import (
    parse_chain,
    parse_chain_list,
    parse_class_expr,
    parse_element,
    pretty_chain,
    pretty_element,
)
from .formulas import (
    ClosureLimitError,
    consequence,
    dip_report,
    find_interpolant,
    parse_formula,
    pretty_formula,
)

SCHEMA = "blcalc/1"


def _emit(payload: dict) -> None:
    payload["schema"] = SCHEMA
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_table(path: str) -> RawChain:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    return RawChain.from_json(data)


def _variety_input(args) -> ClassExpr:
    if args.gens is not None and args.cls is not None:
        raise ValueError("give --gens or --class, not both")
    if args.gens is not None:
        return generated_by(*parse_chain_list(args.gens))
    if args.cls is not None:
        return parse_class_expr(args.cls)
    raise ValueError("provide --gens or --class")


def cmd_chain(args) -> int:
    if args.subcommand == "check":
        report = check_axioms(_read_table(args.table))
        _emit({"report": report.to_json()})
        return 0
    if args.subcommand == "decompose":
        table = _read_table(args.table)
        dec = decompose(table)
        _emit({"decomposition": dec.to_json(), "chain": pretty_chain(dec.chain)})
        return 0
    if args.subcommand == "flatten":
        c = parse_chain(args.chain)
        _emit({"table": flatten(c).to_json()})
        return 0
    # the parser admits no other subcommand than eval
    c = parse_chain(args.chain)
    x = parse_element(c, args.x)
    y = parse_element(c, args.y)
    result = chain_op(c, args.op, x, y)
    _emit({"result": pretty_element(result)})
    return 0


def cmd_amalgam(args) -> int:
    bounds = {flag: getattr(args, flag) for flag in ("max_index", "max_k", "scale_cap")}
    # A bound below 1 is an input error, not an empty search.
    for flag, value in bounds.items():
        if value < 1:
            raise ValueError(f"--{flag.replace('_', '-')} must be at least 1")
    apex = parse_chain(args.apex)
    left = parse_chain(args.left)
    right = parse_chain(args.right)
    universe = parse_class_expr(args.universe)
    span = make_span(
        apex,
        left,
        right,
        left_index=args.left_embedding,
        right_index=args.right_embedding,
        scale_cap=args.scale_cap,
    )
    if args.mode == "search":
        am = find_amalgam_bruteforce(span, universe, **bounds)
        if am is None:
            _emit({"result": "none-within-bounds", "bounds": bounds})
            return 1
        _emit({"amalgam": am.to_json()})
        return 0
    if args.mode == "construct":
        try:
            am = amalgamate_constructive(span, universe)
        except UnsupportedShapeError as exc:
            _emit({"result": "unsupported", "reason": str(exc)})
            return 1
        _emit({"amalgam": am.to_json()})
        return 0
    # the parser admits no other mode than one-sided
    try:
        am = one_sided_amalgam(span, universe, **bounds)
        reason = "essential span has no amalgam within bounds"
    except UnsupportedShapeError as exc:
        am, reason = None, str(exc)
    if am is None:
        _emit({"result": "none-within-bounds", "reason": reason, "bounds": bounds})
        return 1
    _emit({"amalgam": am.to_json()})
    return 0


def cmd_classify(args) -> int:
    v = _variety_input(args)
    dispatch = {
        "mv": classify_ap_mv,
        "wh": classify_ap_wh,
        "bh": classify_ap_bh,
        "bl": classify_ap_bl,
    }
    verdict = dispatch[args.mode](v)
    _emit({"verdict": verdict.to_json()})
    return 0 if verdict.ap else 1


def cmd_poset(args) -> int:
    p = interval_by_name(args.interval)
    print(emit_poset(p, args.format), end="")
    return 0


def cmd_logic(args) -> int:
    if args.subcommand == "dip":
        report = dip_report(_variety_input(args))
        _emit({"report": report})
        return 0 if report["deductive_interpolation"] else 1
    # A closure limit below 1 is an input error, not an exhausted search.
    if args.subcommand == "interpolate" and args.limit < 1:
        raise ValueError("--limit must be at least 1")
    premise = parse_formula(args.premise)
    conclusion = parse_formula(args.conclusion)
    gens = parse_chain_list(args.gens)
    if args.subcommand == "consequence":
        res = consequence(premise, conclusion, gens)
        payload = {"holds": res.holds}
        if res.countermodel is not None:
            gi, val = res.countermodel
            payload["countermodel"] = {
                "generator": pretty_chain(gens[gi]),
                "valuation": {k: pretty_element(v) for k, v in sorted(val.items())},
            }
        _emit(payload)
        return 0 if res.holds else 1
    # the parser admits no other subcommand than interpolate
    chi = find_interpolant(premise, conclusion, gens, limit=args.limit)
    if chi is None:
        _emit({"interpolant": None, "certified": True})
        return 1
    _emit({"interpolant": pretty_formula(chi)})
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors, so that
    ``main`` reports them on one line; its subcommand parsers share the
    class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="blcalc",
        description="Exact algebra of totally ordered basic hoops and "
        "BL-algebras: decomposition, amalgamation, classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chain = sub.add_parser("chain", help="chain evaluation and table tools")
    chain_sub = p_chain.add_subparsers(dest="subcommand", required=True)
    p = chain_sub.add_parser("eval", help="apply an operation in a chain")
    p.add_argument("chain")
    p.add_argument("--op", required=True, choices=["mul", "imp", "meet", "join"])
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p = chain_sub.add_parser("check", help="axiom report for a table")
    p.add_argument("--table", required=True, help="RawChain JSON file or -")
    p = chain_sub.add_parser("decompose", help="ordinal-sum decomposition")
    p.add_argument("--table", required=True, help="RawChain JSON file or -")
    p = chain_sub.add_parser("flatten", help="tabulate a fully finite chain")
    p.add_argument("chain")

    p_am = sub.add_parser("amalgam", help="amalgam search and construction")
    p_am.add_argument("mode", choices=["search", "construct", "one-sided"])
    p_am.add_argument("--apex", required=True)
    p_am.add_argument("--left", required=True)
    p_am.add_argument("--right", required=True)
    p_am.add_argument("--universe", required=True)
    p_am.add_argument("--left-embedding", type=int, default=0)
    p_am.add_argument("--right-embedding", type=int, default=0)
    p_am.add_argument("--max-index", type=int, default=3)
    p_am.add_argument("--max-k", type=int, default=7)
    p_am.add_argument("--scale-cap", type=int, default=4)

    p_cl = sub.add_parser("classify", help="amalgamation-property verdicts")
    p_cl.add_argument("mode", choices=["mv", "wh", "bh", "bl"])
    p_cl.add_argument("--gens", help="comma-separated chain expressions")
    p_cl.add_argument("--class", dest="cls", help="class expression")

    p_po = sub.add_parser("poset", help="interval posets")
    p_po.add_argument("--interval", required=True, help="e.g. I(W1,Z)")
    p_po.add_argument("--format", required=True, choices=["dot", "json"])

    p_lo = sub.add_parser("logic", help="consequence and interpolation")
    logic_sub = p_lo.add_subparsers(dest="subcommand", required=True)
    p = logic_sub.add_parser("consequence")
    p.add_argument("--premise", required=True)
    p.add_argument("--conclusion", required=True)
    p.add_argument("--gens", required=True)
    p = logic_sub.add_parser("interpolate")
    p.add_argument("--premise", required=True)
    p.add_argument("--conclusion", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--limit", type=int, default=100_000)
    p = logic_sub.add_parser("dip")
    p.add_argument("--gens")
    p.add_argument("--class", dest="cls")

    return parser


def main(argv=None) -> int:
    dispatch = {
        "chain": cmd_chain,
        "amalgam": cmd_amalgam,
        "classify": cmd_classify,
        "poset": cmd_poset,
        "logic": cmd_logic,
    }
    try:
        args = build_parser().parse_args(argv)
        return dispatch[args.command](args)
    except (ValueError, ClosureLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at the null device so
        # that the interpreter's final flush of what is left cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
