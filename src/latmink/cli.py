"""Command-line front end.

Every subcommand prints a deterministic JSON run report to stdout; --pretty
switches to a human-readable rendering. The global flags (--pretty, --cap,
--seed, --timing) go before or after the subcommand; without --cap each
command keeps its library's default cap. The cap bounds the bounding box of
nP or n*Omega for points, minkowski and check-equality, checked before any
work, and the ball for word-ball, boundary and check-boundary, checked once
per layer. The other six subcommands reject --cap, yet classify, lemma1,
validate-triangulation, search-primitive and decompose still stop at
DEFAULT_BOX_CAP (exit 3): it bounds their box scans, and decompose's n too;
only verify-paper reads no cap. The bounds
--cap, --budget and --point-cap take positive integers only. Exit codes:
0 success, 1 verification failure (verify-paper), 2 input error (including a
ValueError raised by the library on an out-of-range argument), 3 resource cap
exceeded, 141 (128 + SIGPIPE) stdout closed early, as by `| head -c 100`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from itertools import chain
from pathlib import Path

from . import serialize
from .geometry import ResourceLimitError, quoted_prefix
from .groups import ball_boundary, check_boundary_equality_range, word_ball
from .minkowski import check_equality_range, decompose, decomposition_target, minkowski_power
from .triangulation import (
    DEFAULT_POINT_CAP,
    DEFAULT_SEARCH_BUDGET,
    LatticeSimplex,
    classify_simplex,
    search_primitive_triangulation,
    unimodular_criteria,
    validate_triangulation,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a tool ended by a closed pipe

CAP_COMMANDS = ("points", "minkowski", "check-equality", "word-ball", "boundary", "check-boundary")


class InputError(Exception):
    pass


def _read_document(name: str):
    """Load a JSON document from a path, or from the bundled data file of a bare name that is not a file."""
    path = Path(name)
    try:
        exists = path.exists()
    except OSError as exc:  # a name too long for the file system
        raise InputError(f"{quoted_prefix(name)}: {exc.strerror or exc}") from exc
    if exists:
        try:
            text = path.read_text()
        except OSError as exc:  # a directory, a file without read permission
            raise InputError(f"{name}: {exc.strerror or exc}") from exc
    else:
        from importlib import resources  # here, not at the top: only a bundled name reads it
        resource = resources.files("latmink.data").joinpath(path.name + ("" if name.endswith(".json") else ".json"))
        if path.name != name or not resource.is_file():
            raise InputError(f"no such file or bundled dataset: {quoted_prefix(name)}")
        text = resource.read_text()
    return serialize.loads_strict(text)


def _parse_range(text: str) -> range:
    """Parse 'a..b' (inclusive) or a single integer."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError as exc:
        raise InputError(f"bad range {quoted_prefix(text)}") from exc
    if lo > hi:
        raise InputError(f"empty range {quoted_prefix(text)}")
    return range(lo, hi + 1)


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise InputError(f"bad point {quoted_prefix(text)}") from exc


def _int(text: str) -> int:
    """The argparse type of an integer argument: argparse's message, the literal cut by quoted_prefix."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {quoted_prefix(text)}") from None


def _positive_int(text: str) -> int:
    """The argparse type of a bound (--cap, --budget, --point-cap)."""
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _load(name: str, parse):
    """parse(document) for the file or bundled dataset `name`; a ValueError
    becomes an InputError prefixed with the name."""
    try:
        return parse(_read_document(name))
    except ValueError as exc:
        raise InputError(f"{name}: {exc}") from exc


def _load_group(name: str):
    group, warnings = _load(name, serialize.parse_group)
    for w in warnings:
        print(f"warning: {name}: {w}", file=sys.stderr)
    return group


def _emit(args, inputs: dict, result, pretty_lines) -> int:
    """Print the report of args.command: serialize.dumps writes the inputs and
    the result, library objects and plain data, in one pass; pretty_lines is
    read only under --pretty."""
    if args.pretty:
        for line in pretty_lines:
            print(line)
        return EXIT_OK
    report = {"command": args.command, "inputs": inputs, "result": result}
    if args.timing:
        report["elapsed_ms"] = int((time.monotonic() - args._start) * 1000)
    print(serialize.dumps(report))
    return EXIT_OK


def _cmd_points(args) -> int:
    """points and minkowski: the integer points of nP, or the n-fold sum of those of P."""
    poly = _load(args.polytope, serialize.parse_polytope)
    if args.command == "points":
        points = poly.integer_points(args.n, cap=args.cap)
        what = f"integer points in the {args.n}-fold dilation"
    else:
        if args.n < 0:  # before the scan of Omega, which minkowski_power gets already built
            raise InputError("n must be >= 0")
        points = minkowski_power(poly.integer_points(1, cap=args.cap), args.n, cap=args.cap)
        what = f"points in the {args.n}-fold Minkowski sum"
    return _emit(
        args,
        {"polytope": poly, "n": args.n},
        {"count": len(points), "points": points},
        chain([f"{len(points)} {what}:"], (" ".join(map(str, p)) for p in points)),
    )


def _cmd_check_equality(args) -> int:
    poly = _load(args.polytope, serialize.parse_polytope)
    reports = check_equality_range(poly, _parse_range(args.range), cap=args.cap)
    return _emit(
        args,
        {"polytope": poly, "range": args.range},
        reports,
        [f"n={r.n}: {'holds' if r.holds else f'FAILS, witness {r.witness}'}" for r in reports],
    )


def _cmd_decompose(args) -> int:
    poly = _load(args.polytope, serialize.parse_polytope)
    if args.triangulation:
        tri = _load(args.triangulation, serialize.parse_triangulation)
        if tri.polytope != poly:
            raise InputError("triangulation file describes a different polytope")
    point = _parse_point(" ".join(args.point))
    if not args.triangulation:
        decomposition_target(poly, args.n, point)  # n and the point first: the search may run long
        search = search_primitive_triangulation(poly, budget=args.budget, point_cap=args.point_cap)
        if search.triangulation is None:
            raise InputError(
                "no primitive triangulation "
                + ("exists" if search.exhausted else "found within budget")
                + "; provide one with --triangulation"
            )
        tri = search.triangulation
    dec = decompose(poly, tri, args.n, point)
    return _emit(
        args,
        {"polytope": poly, "n": args.n, "point": point},
        dec,
        [f"{point} = " + " + ".join(str(s) for s in dec.summands)],
    )


def _cmd_classify(args) -> int:
    simplex = _load(args.simplex, lambda doc: LatticeSimplex(serialize.parse_polytope(doc).vertices))
    cls = classify_simplex(simplex)
    return _emit(
        args,
        {"simplex": simplex},
        cls,
        [
            f"normalized volume {cls.normalized_volume}; "
            f"elementary: {cls.is_elementary}; primitive: {cls.is_primitive}; "
            f"non-vertex points: {[list(p) for p in cls.non_vertex_points]}"
        ],
    )


def _cmd_lemma1(args) -> int:
    def parse(doc):
        matrix = serialize.parse_matrix(doc)
        return matrix, unimodular_criteria(matrix)

    matrix, criteria = _load(args.matrix, parse)
    return _emit(args, {"matrix": matrix}, criteria, [f"{key}: {value}" for key, value in vars(criteria).items()])


def _cmd_validate_triangulation(args) -> int:
    tri = _load(args.triangulation, serialize.parse_triangulation)
    report = validate_triangulation(tri)
    pretty = [
        f"valid: {report.valid}; elementary: {report.is_elementary}; primitive: {report.is_primitive}"
    ] + [f"problem: {p}" for p in report.problems]
    return _emit(args, {"simplices": len(tri.simplices)}, report, pretty)


def _cmd_search_primitive(args) -> int:
    poly = _load(args.polytope, serialize.parse_polytope)
    result = search_primitive_triangulation(poly, budget=args.budget, point_cap=args.point_cap)
    if result.triangulation is not None:
        pretty = [f"found a primitive triangulation with {len(result.triangulation.simplices)} simplices"]
        pretty += [
            " / ".join(" ".join(map(str, v)) for v in s.vertices)
            for s in result.triangulation.simplices
        ]
    elif result.exhausted:
        pretty = ["no primitive triangulation exists (candidate space exhausted)"]
    else:
        pretty = [f"no primitive triangulation found within budget ({result.nodes} nodes)"]
    doc = {"found": result.triangulation is not None, **vars(result)}
    return _emit(args, {"polytope": poly}, doc, pretty)


def _cmd_word_ball(args) -> int:
    """word-ball and boundary: the radius-n ball, or its boundary."""
    group = _load_group(args.group)
    if args.command == "boundary":
        ball, what = ball_boundary(group, args.n, cap=args.cap), "boundary elements of"
    else:
        ball, what = word_ball(group, args.n, cap=args.cap), "elements in"
    return _emit(
        args,
        {"group": group, "n": args.n},
        {"count": len(ball), "elements": ball},
        chain([f"{len(ball)} {what} the radius-{args.n} ball:"], map(json.dumps, ball)),
    )


def _cmd_check_boundary(args) -> int:
    group = _load_group(args.group)
    reports = check_boundary_equality_range(group, _parse_range(args.range), cap=args.cap)
    return _emit(
        args,
        {"group": group, "range": args.range},
        reports,
        [
            f"n={r.n}: "
            + ("holds" if r.holds else f"FAILS, fresh layer has {len(r.rhs_minus_lhs)} non-boundary elements")
            for r in reports
        ],
    )


def _cmd_verify_paper(args) -> int:
    from . import verify  # here, not at the top: no other command reads the claims
    results = verify.run_all(seed=args.seed, quick=args.quick)
    failed = [r for r in results if not r.ok]
    summary = {"rows": results, "passed": len(results) - len(failed), "failed": len(failed)}
    pretty = [
        f"{'PASS' if r.ok else 'FAIL'}  {r.claim}: {r.detail}" for r in results
    ] + [f"{len(results) - len(failed)} passed, {len(failed)} failed"]
    _emit(args, {"seed": args.seed}, summary, pretty)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    def _check_value(self, action, value):
        """argparse's choices check (only the subcommand has choices), the value cut by quoted_prefix."""
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {quoted_prefix(value)} (choose from {choices})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # One set of global flag actions serves the main parser and every
    # subparser. They default to SUPPRESS, so a subparser never resets a flag
    # given before the subcommand; main parses into a namespace that holds
    # their defaults. set_defaults on any parser would rewrite the shared
    # defaults, so none is called for these flags.
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--pretty", action="store_true", help="human-readable output instead of JSON")
    flags.add_argument(
        "--cap",
        type=_positive_int,
        help=f"size cap, read by {', '.join(CAP_COMMANDS)} only "
        "(default: DEFAULT_BOX_CAP, or DEFAULT_BALL_CAP for group commands)",
    )
    flags.add_argument("--seed", type=_int, help="seed for randomized verification rows")
    flags.add_argument("--timing", action="store_true", help="include elapsed_ms in JSON reports")
    parser = _Parser(
        prog="latmink",
        description="Exact lattice-polytope dilations, Minkowski powers, primitive triangulations and word-ball boundaries.",
        parents=[flags],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, fn, *parents) -> argparse.ArgumentParser:
        """The subcommand name with handler fn: the global flags, then the
        arguments of parents."""
        p = sub.add_parser(name, help=help, parents=[flags, *parents])
        p.set_defaults(fn=fn)
        return p

    def pair(first: str, second: str, **kwargs) -> argparse.ArgumentParser:
        """A parent parser holding the positionals first and second."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(first)
        parent.add_argument(second, **kwargs)
        return parent

    def search_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", type=_positive_int, default=DEFAULT_SEARCH_BUDGET)
        p.add_argument("--point-cap", type=_positive_int, default=DEFAULT_POINT_CAP)

    dilation, ball = pair("polytope", "n", type=_int), pair("group", "n", type=_int)
    command("points", "integer points of the n-fold dilation", _cmd_points, dilation)
    command("minkowski", "n-fold Minkowski sum of the polytope's integer points", _cmd_points, dilation)
    command(
        "check-equality",
        "dilation vs Minkowski power over a range of n",
        _cmd_check_equality,
        pair("polytope", "range", help="single n or a..b"),
    )
    p = command("decompose", "write a dilation point as n summands", _cmd_decompose, dilation)
    # a point such as -1,2 (or a malformed -1,x) is a positional, not an
    # option: any token that starts with a minus and a digit is
    p._negative_number_matcher = re.compile(r"^-\d")
    p.add_argument(
        "point",
        nargs="+",
        help="integer coordinates, space- or comma-separated (e.g. '-1 2' or 1,2)",
    )
    p.add_argument("--triangulation", help="triangulation file (searched for if omitted)")
    search_options(p)
    p = command("classify", "elementary/primitive classification of a simplex", _cmd_classify)
    p.add_argument("simplex", help="polytope file with d+1 vertices")
    p = command("lemma1", "unimodularity criteria of a square integer matrix", _cmd_lemma1)
    p.add_argument("matrix", help="JSON file with a square integer matrix")
    p = command("validate-triangulation", "exact validation of a triangulation file", _cmd_validate_triangulation)
    p.add_argument("triangulation")
    p = command("search-primitive", "search for a primitive triangulation", _cmd_search_primitive)
    p.add_argument("polytope")
    search_options(p)
    command("word-ball", "radius-n ball of a group presentation", _cmd_word_ball, ball)
    command("boundary", "boundary of the radius-n ball", _cmd_word_ball, ball)
    command(
        "check-boundary",
        "ball boundary vs fresh layer over a range of n",
        _cmd_check_boundary,
        pair("group", "range", help="single n or a..b"),
    )
    p = command("verify-paper", "run the bundled reproduction suite", _cmd_verify_paper)
    p.add_argument("--quick", action="store_true", help="a smaller run: fewer seeded random polygons and matrices")
    return parser


def main(argv=None) -> int:
    defaults = argparse.Namespace(pretty=False, cap=None, seed=0, timing=False)
    args = build_parser().parse_args(argv, defaults)
    if args.cap is not None and args.command not in CAP_COMMANDS:
        build_parser().error(f"--cap does not apply to {args.command}")
    args._start = time.monotonic()
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's flush at exit
        return code
    except BrokenPipeError:  # stdout's reader is gone: devnull takes the rest, so the flush at exit passes
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
