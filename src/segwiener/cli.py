"""Command-line interface.

Exit codes: 0 all checks confirmed, 1 a verification reported a violation,
2 usage or input errors, including a verify run that checks nothing.

`main` parses with one parser per process, built on its first call: a
parse leaves the parser as it found it, and every default is immutable.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import enumeration, generators, io, moves, verify
from .exact import CountOverflowError
from .steiner import sw_k, sw_profile
from .trees import Tree


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}") from exc


def _write_tree(t: Tree, fmt: str, out: str | None, header: str | None = None) -> None:
    if fmt == "dot":
        text = io.to_dot(t)
        if header:
            text = f"// {header}\n" + text
    else:
        text = io.format_edge_list(t)
        if header:
            text = f"# {header}\n" + text
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_tree(path: str) -> Tree:
    return io.parse_edge_list(Path(path).read_text())


def _cmd_gen(args: argparse.Namespace) -> int:
    header = None
    if args.family == "starlike":
        tree = generators.starlike(args.segments)
    elif args.family == "balanced":
        tree = generators.balanced_starlike(args.n, args.m)
    else:
        build = generators.caterpillar_family(args.n, args.m, args.which)
        tree = build.tree
        header = build.note
    _write_tree(tree, args.format, args.out, header)
    return 0


def _cmd_sw(args: argparse.Namespace) -> int:
    tree = _read_tree(args.infile)
    if args.profile:
        for k, value in enumerate(sw_profile(tree), start=1):
            print(f"{k} {value}")
    else:
        if args.k is None:
            print("sw: --k is required unless --profile is given", file=sys.stderr)
            return 2
        print(sw_k(tree, args.k))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.segments is not None and args.num_segments is not None:
        print("enumerate: --segments and --num-segments are mutually exclusive", file=sys.stderr)
        return 2
    if args.segments is not None and args.n != 1 + sum(args.segments):
        print(
            f"enumerate: --segments sums to {sum(args.segments)} edges, "
            f"which needs --n {1 + sum(args.segments)}",
            file=sys.stderr,
        )
        return 2
    if args.count_only:
        print(enumeration.count_trees(args.n, args.segments, args.num_segments))
        return 0
    sys.stdout.write(enumeration._listing(enumeration._levels(args.n, args.segments, args.num_segments)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.target == "lemma31":
        reports = [verify.verify_lemma31(args.samples, args.seed, args.k)]
    else:
        runner = {
            "theorem1": verify.verify_min_starlike,
            "theorem2": verify.verify_max_quasi_caterpillar,
            "structure": verify.verify_structure,
            "theorem5min": verify.verify_min_balanced,
            "theorem5max": verify.verify_max_caterpillar_family,
        }[args.target]
        reports = runner(args.max_n, args.k)
    if args.report:
        Path(args.report).write_text(verify.reports_to_json(reports))
    tallies = {verify.CONFIRMED: 0, verify.CONFIRMED_WITH_NOTES: 0, verify.VIOLATED: 0}
    for r in reports:
        tallies[r.verdict] += 1
        if r.verdict == verify.VIOLATED:
            print(f"VIOLATED {r.theorem} {r.instance}: {r.notes}")
    print(
        f"{args.target}: {len(reports)} instances — "
        f"{tallies[verify.CONFIRMED]} confirmed, "
        f"{tallies[verify.CONFIRMED_WITH_NOTES]} confirmed-with-notes, "
        f"{tallies[verify.VIOLATED]} violated"
    )
    return 1 if tallies[verify.VIOLATED] else 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    tree = _read_tree(args.infile)
    direction = "maximize" if args.direction == "max" else "minimize"
    result = moves.hill_climb(tree, args.k, direction)
    if args.trace:
        for step, outcome in enumerate(result.steps, start=1):
            kind = type(outcome.move).__name__.lower()
            print(f"# step {step}: {kind} delta {outcome.delta:+d}")
    print(f"# local optimum, SW_{args.k} = {sw_k(result.tree, args.k)} after {len(result.steps)} moves")
    sys.stdout.write(io.format_edge_list(result.tree))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segwiener",
        description="Steiner k-Wiener indices of trees with segment constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct an extremal tree")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    g_star = gen_sub.add_parser("starlike", help="starlike tree from a segment sequence")
    g_star.add_argument("--segments", type=_parse_int_list, required=True, metavar="L1,L2,...")
    g_bal = gen_sub.add_parser("balanced", help="balanced starlike tree")
    g_bal.add_argument("--n", type=int, required=True)
    g_bal.add_argument("--m", type=int, required=True)
    g_fam = gen_sub.add_parser("family", help="extremal caterpillar family")
    g_fam.add_argument("--n", type=int, required=True)
    g_fam.add_argument("--m", type=int, required=True)
    g_fam.add_argument("--which", choices=list(generators.FAMILY_LABELS), required=True)
    for g in (g_star, g_bal, g_fam):
        g.add_argument("--out", metavar="FILE")
        g.add_argument("--format", choices=["edgelist", "dot"], default="edgelist")
        g.set_defaults(func=_cmd_gen)

    swp = sub.add_parser("sw", help="Steiner k-Wiener index of a tree file")
    swp.add_argument("--k", type=int)
    swp.add_argument("--profile", action="store_true", help="print SW_k for every k")
    swp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    swp.set_defaults(func=_cmd_sw)

    enu = sub.add_parser("enumerate", help="enumerate trees up to isomorphism")
    enu.add_argument("--n", type=int, required=True)
    enu.add_argument("--segments", type=_parse_int_list, metavar="L1,L2,...")
    enu.add_argument("--num-segments", type=int, metavar="M")
    enu.add_argument("--count-only", action="store_true")
    enu.set_defaults(func=_cmd_enumerate)

    ver = sub.add_parser("verify", help="exhaustively verify an extremal claim")
    ver.add_argument(
        "target",
        choices=["theorem1", "theorem2", "structure", "theorem5min", "theorem5max", "lemma31"],
    )
    ver.add_argument("--max-n", type=int, default=10)
    ver.add_argument("--k", type=_parse_int_list, default=(2, 3, 4), metavar="K1,K2,...")
    ver.add_argument("--samples", type=int, default=200)
    ver.add_argument("--seed", type=int, default=42)
    ver.add_argument("--report", metavar="FILE.json")
    ver.set_defaults(func=_cmd_verify)

    opt = sub.add_parser("optimize", help="hill-climb within a segment-sequence class")
    opt.add_argument("--in", dest="infile", required=True, metavar="FILE")
    opt.add_argument("--k", type=int, required=True)
    opt.add_argument("--direction", choices=["max", "min"], required=True)
    opt.add_argument("--trace", action="store_true")
    opt.set_defaults(func=_cmd_optimize)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CountOverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
