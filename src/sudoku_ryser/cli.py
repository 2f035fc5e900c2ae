"""Command-line interface.

Exit codes: 0 completable / holds / valid, 1 incompletable / fails /
invalid, 2 usage or format error, 3 gave up (gate or node limit), 4
internal error (a construction bug, such as a completed square that fails
validation, or exhausted recursion or memory; never a verdict).  Grid output
goes to stdout in the grid file format; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from typing import Optional

from . import completion, fixtures, hall
from .grid import (
    FLAVORS,
    MAX_ORDER,
    GridFormatError,
    PartialGrid,
    embed_in_square,
    parse_grid,
    serialize_grid,
    validate_partial,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GAVE_UP = 3
EXIT_INTERNAL = 4


def _load(path: str) -> PartialGrid:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_grid(handle.read())


def _is_corner_rectangle(grid: PartialGrid) -> Optional[PartialGrid]:
    """Extract the fully filled top-left rectangle if the rest is empty.

    Its width is row 1's filled prefix and its height the run of rows with
    cell 1 filled; each row is read whole, by a slice and a count of None.
    """
    if grid.is_fully_filled():
        return grid
    cells = grid.cells  # at least one row and one column, or it is fully filled
    first = cells[0]
    cols = first.index(None) if None in first else len(first)
    rows = next((i for i, row in enumerate(cells) if row[0] is None), len(cells))
    for i, row in enumerate(cells):
        filled = cols if i < rows else 0
        if None in row[:filled] or row.count(None) != len(row) - filled:
            return None
    return PartialGrid(grid.geometry, rows, cols, tuple(row[:cols] for row in cells[:rows]),
                       grid.flavor, None)


def _invalid(grid: PartialGrid) -> bool:
    """Whether the grid fails validation; its first violation goes to stderr."""
    for v in validate_partial(grid).violations[:1]:
        print(f"invalid: {v.kind} {v.coordinates} symbol {v.symbol}", file=sys.stderr)
        return True
    return False


def _brute_force(grid: PartialGrid, node_limit: int) -> int:
    """Complete the grid by exhaustive search and report the outcome."""
    if _invalid(grid):
        return EXIT_FAIL
    result = fixtures.brute_force_complete(grid, node_limit=node_limit)
    if result.outcome == "found":
        sys.stdout.write(serialize_grid(result.square))
        return EXIT_OK
    if result.outcome == "gaveUp":
        print("gave up: node limit exhausted", file=sys.stderr)
        return EXIT_GAVE_UP
    print("incompletable (exhaustive search)", file=sys.stderr)
    return EXIT_FAIL


def _cmd_complete(args) -> int:
    grid = _load(args.file)
    method = args.method
    if method == "brute":
        return _brute_force(grid, args.node_limit)

    # The pipeline reads no partition, so a gerechte grid never takes the corner path.
    rectangle = None if grid.partition is not None else _is_corner_rectangle(grid)
    if rectangle is None:
        if method in ("thm2", "thm3"):
            print("not a partition-free corner rectangle; use --method brute", file=sys.stderr)
            return EXIT_USAGE
        print("not a partition-free corner rectangle; falling back to exhaustive search",
              file=sys.stderr)
        return _brute_force(grid, args.node_limit)

    geom = rectangle.geometry
    if method == "thm2" and (rectangle.rows % geom.p or rectangle.cols % geom.q):
        print("box sides do not divide the rectangle sides", file=sys.stderr)
        return EXIT_USAGE
    verdict = completion.complete(rectangle)
    if verdict.completable:
        sys.stdout.write(serialize_grid(verdict.certificate))
        return EXIT_OK
    ob = verdict.certificate
    print(f"incompletable at stage {ob.stage} ({ob.kind})", file=sys.stderr)
    return EXIT_FAIL


def _cmd_check(args) -> int:
    grid = _load(args.file)
    if args.ryser:
        rectangle = _is_corner_rectangle(grid)
        if rectangle is None:
            print("ryser check needs a corner rectangle", file=sys.stderr)
            return EXIT_USAGE
        if _invalid(replace(rectangle, flavor="latin", partition=None)):
            return EXIT_FAIL
        report = hall.ryser_counts(rectangle, grid.n)
        for k in sorted(report.counts):
            mark = "" if report.counts[k] >= report.bound else f" < {report.bound}"
            if mark or args.verbose:
                print(f"symbol {k}: N={report.counts[k]}{mark}")
        return EXIT_OK if report.ok else EXIT_FAIL
    if args.matchings:
        rectangle = None if grid.partition is not None else _is_corner_rectangle(grid)
        if rectangle is None:
            print("matchings check needs a partition-free corner rectangle", file=sys.stderr)
            return EXIT_USAGE
        verdict = completion.complete(rectangle)
        if verdict.completable:
            print("completable: all stages passed")
            return EXIT_OK
        ob = verdict.certificate
        print(f"incompletable at stage {ob.stage} ({ob.kind})")
        return EXIT_FAIL
    if grid.rows < grid.n or grid.cols < grid.n:
        if (args.flavor or grid.flavor) == "gerechte":
            # The file format gives parts only to the grid's own cells.
            print("check --hall needs a gerechte grid to be the full n x n square",
                  file=sys.stderr)
            return EXIT_USAGE
        grid = embed_in_square(grid)
    if _invalid(replace(grid, flavor=hall._flavor_of(grid, args.flavor))):
        return EXIT_FAIL
    report = hall.hall_condition(grid, flavor=args.flavor, gate=args.gate)
    if report.gave_up:
        print(f"gave up: more than {args.gate} empty cells", file=sys.stderr)
        return EXIT_GAVE_UP
    if report.holds:
        print(f"holds ({report.subsets_checked} subsets checked)")
        return EXIT_OK
    cells, lhs, size = report.witness
    names = " ".join(f"({r},{c})" for r, c in cells)
    print(f"fails: subset {names} has lhs {lhs} < {size}")
    return EXIT_FAIL


def _cmd_gen(args) -> int:
    # Checked before anything is built: a grid above the cap would be
    # written, but parse_grid refuses to read it back.
    gen = args.generator
    order = args.k * args.k if gen == "evans-big" else args.n if gen == "fig6" else args.p * args.q
    if order > MAX_ORDER:
        raise ValueError(f"order {order}: a grid file may declare at most {MAX_ORDER}")
    if gen == "evans-small":
        grid = fixtures.gen_evans_small(args.p, args.q)
    elif gen == "evans-big":
        grid = fixtures.gen_evans_big(args.k, args.i)
    elif gen == "fig6":
        grid = fixtures.gen_fig6(args.n, args.x, args.variant)
    else:
        grid = fixtures.gen_random_rectangle(args.p, args.q, args.r, args.s, args.seed)
    sys.stdout.write(serialize_grid(grid))
    return EXIT_OK


def _cmd_verify(args) -> int:
    grid = _load(args.file)
    report = validate_partial(grid)
    if report.ok:
        print("valid")
        return EXIT_OK
    for violation in report.violations:
        print(f"{violation.kind}: {violation.coordinates} symbol {violation.symbol}")
    return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sudoku-ryser",
                                     description="Partial Sudoku rectangle tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_complete = sub.add_parser("complete", help="complete a rectangle to a full square")
    p_complete.add_argument("file")
    p_complete.add_argument("--method", choices=("auto", "thm2", "thm3", "brute"),
                            default="auto")
    p_complete.add_argument("--node-limit", type=int, default=10_000_000)
    p_complete.set_defaults(func=_cmd_complete)

    p_check = sub.add_parser("check", help="check a condition without completing")
    p_check.add_argument("file")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--ryser", action="store_true")
    group.add_argument("--hall", action="store_true",
                       help="Hall's Condition for the grid embedded in the top left "
                            "of an empty n x n square (a gerechte grid must be the "
                            "full square)")
    group.add_argument("--matchings", action="store_true")
    p_check.add_argument("--flavor", choices=FLAVORS, default=None)
    p_check.add_argument("--gate", type=int, default=18)
    p_check.add_argument("--verbose", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate a fixture grid")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    g_small = gen_sub.add_parser("evans-small")
    g_small.add_argument("--p", type=int, required=True)
    g_small.add_argument("--q", type=int, required=True)
    g_big = gen_sub.add_parser("evans-big")
    g_big.add_argument("--k", type=int, required=True)
    g_big.add_argument("--i", type=int, required=True)
    g_fig6 = gen_sub.add_parser("fig6")
    g_fig6.add_argument("--n", type=int, required=True)
    g_fig6.add_argument("--x", type=int, required=True)
    g_fig6.add_argument("--variant", choices=("column", "diagonal"), required=True)
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--p", type=int, required=True)
    g_rand.add_argument("--q", type=int, required=True)
    g_rand.add_argument("--r", type=int, required=True)
    g_rand.add_argument("--s", type=int, required=True)
    g_rand.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="validate a grid file")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call.

    Parsing leaves the parser unchanged, so one serves every call.
    """
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (GridFormatError, OSError, ValueError) as exc:  # an unreadable file is OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, MemoryError) as exc:  # RecursionError included
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
