"""Command line entry points.

Commands:

    abelcheck check-stability curve.json
    abelcheck semistabilize chain.json
    abelcheck collection order col.json
    abelcheck enumerate --d 3 --q 2 [--json] [--count-only]
    abelcheck verify --d 2 --q 2 --L 0,0 --pol 1/2,-1/2
              [--order default|schedule.json] [--mode brute|separable]
              [--shards N] [--json]
    abelcheck oracle twist-search curve.json

Exit codes: 0 the check passed, 1 it failed, 2 the input was unusable.
All file arguments are UTF-8 JSON; rationals are written "3/4", never
as floats.
"""

from __future__ import annotations

import argparse
import sys

from .blowups import NotSmoothError, collection_order
from .chains import NotAdmissibleError, semistabilize
from .curves import (
    DegreeMismatchError,
    TwistSearchExhaustedError,
    is_quasistable,
    quasistable_twist_search,
    twist_action,
)
from .extension import verify_extension
from .fileio import (
    InputError,
    format_json,
    load_chain,
    load_collection,
    load_curve,
    load_schedule,
    parse_fraction,
    write_json_array,
)
from .special_points import InvalidOrderError, enumerate_special_points


def _emit(data: dict, as_json: bool, lines) -> None:
    if as_json:
        print(format_json(data))
    else:
        for line in lines:
            print(line)


def cmd_check_stability(args) -> int:
    g, pol, md = load_curve(args.curve)
    verdict = is_quasistable(g, pol, md)
    witness = None if verdict.ok else list(verdict.witness.sorted_members())
    _emit(
        {"verdict": "pass" if verdict.ok else "fail", "witness": witness},
        args.json,
        ["quasistable"]
        if verdict.ok
        else [f"not quasistable: subcurve {witness} violates its interval"],
    )
    return 0 if verdict.ok else 1


def cmd_semistabilize(args) -> int:
    curve = load_chain(args.chain)
    result = semistabilize(curve)
    final = result.curve
    data = {
        "base_degs": list(final.base_degs),
        "chain_degs": {
            str(t): list(row) for t, row in enumerate(final.chain_degs)
        },
        "multiplicities": {
            str(t): list(row)
            for t, row in enumerate(result.twister.multiplicities)
        },
    }
    lines = [f"base degrees: {list(final.base_degs)}"]
    for t, row in enumerate(final.chain_degs):
        mult = result.twister.multiplicities[t]
        lines.append(f"node {t}: degrees {list(row)}, twists {list(mult)}")
    _emit(data, args.json, lines)
    return 0


def cmd_collection_order(args) -> int:
    col = load_collection(args.collection)
    try:
        order = collection_order(col)
    except NotSmoothError as exc:
        print(f"not smooth: {exc}")
        return 1
    _emit(
        {"order": list(order)},
        args.json,
        ["order: " + " ".join(str(i) for i in order)],
    )
    return 0


def cmd_enumerate(args) -> int:
    if args.d < 1 or args.q < 1:
        print("error: --d and --q must be at least 1", file=sys.stderr)
        return 2
    points = enumerate_special_points(args.d, args.q)
    if args.count_only:
        print(len(points))
        return 0
    if args.json:
        records = (
            {
                "section_nodes": list(p.section_nodes),
                "branch_words": list(p.branch_words),
            }
            for p in points
        )
        write_json_array(sys.stdout, records)
        sys.stdout.write("\n")
    else:
        for p in points:
            nodes = ",".join(str(n) for n in p.section_nodes)
            words = " ".join(p.branch_words)
            print(f"nodes=({nodes}) words: {words}")
    return 0


def cmd_verify(args) -> int:
    try:
        degrees = tuple(int(x) for x in args.L.split(","))
        weights = tuple(parse_fraction(x) for x in args.pol.split(","))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(degrees) != 2 or len(weights) != 2:
        print("error: --L and --pol take two comma-separated entries", file=sys.stderr)
        return 2
    schedule = None
    if args.order != "default":
        schedule = load_schedule(args.order)
    try:
        report = verify_extension(
            args.d,
            args.q,
            degrees,
            weights,
            order=schedule,
            mode=args.mode,
            shards=args.shards,
        )
    except InvalidOrderError:
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        report.write_json(sys.stdout)
        sys.stdout.write("\n")
    else:
        how = " by the rotation theorem" if report.path == "theorem" else ""
        print(
            f"checked {report.points} stratum records at depth {report.depth}, "
            f"{report.node_count} node(s){how}: {report.verdict}"
        )
        for f in report.failures:
            nodes = ",".join(str(n) for n in f.point.section_nodes)
            words = " ".join(f.point.branch_words)
            print(
                f"  condition {f.condition} fails at nodes=({nodes}) "
                f"words: {words}  witness: {f.witness}"
            )
    return 0 if report.verdict == "pass" else 1


def cmd_oracle_twist_search(args) -> int:
    g, pol, md = load_curve(args.curve)
    try:
        twist = quasistable_twist_search(g, pol, md)
    except TwistSearchExhaustedError as exc:
        print(f"no balancing twist found: {exc}")
        return 1
    balanced = twist_action(g, md, twist)
    _emit(
        {"twist": list(twist.coeffs), "balanced": list(balanced.degs)},
        args.json,
        [
            "twist: " + " ".join(str(z) for z in twist.coeffs),
            "balanced multidegree: " + " ".join(str(x) for x in balanced.degs),
        ],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelcheck",
        description="Stability and degeneration checks for line bundles on nodal curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-stability", help="test a multidegree against a polarization"
    )
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_stability)

    p = sub.add_parser(
        "semistabilize", help="clear degree-1 windows off the inserted chains"
    )
    p.add_argument("chain", help="chain configuration JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_semistabilize)

    p = sub.add_parser("collection", help="subset collection utilities")
    col_sub = p.add_subparsers(dest="subcommand", required=True)
    p = col_sub.add_parser("order", help="index order induced by a collection")
    p.add_argument("collection", help="collection JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_collection_order)

    p = sub.add_parser("enumerate", help="list deepest-stratum records")
    p.add_argument("--d", type=int, required=True, help="number of sections")
    p.add_argument("--q", type=int, required=True, help="number of nodes")
    p.add_argument("--json", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "verify", help="run both extension conditions over all records"
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--L", required=True, help="multidegree, e.g. 0,0")
    p.add_argument("--pol", required=True, help="polarization, e.g. 1/2,-1/2")
    p.add_argument(
        "--order",
        default="default",
        help='"default" or a schedule JSON file',
    )
    p.add_argument("--mode", choices=("brute", "separable"), default="separable")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive reference computations")
    oracle_sub = p.add_subparsers(dest="subcommand", required=True)
    p = oracle_sub.add_parser(
        "twist-search", help="canonical balancing twist of a multidegree"
    )
    p.add_argument("curve", help="curve JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle_twist_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidOrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotAdmissibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegreeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
