"""The four benchmark workloads: their inputs, one operation, and its check.

Every workload is a closed loop with one caller: an operation starts when
the previous one returns.  Inputs come from generators.py and depend only on
the seed; the library modules arrive as `mods` so that the harness can
re-import them when it times set-up and rebind them when it traces.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

from generators import (
    corner,
    grid_text,
    is_completion,
    parse_square_text,
    pattern_square,
    random_valid_rectangle,
)


@dataclass
class Instance:
    label: str
    p: int
    q: int
    rect: list[list[int]]
    grid: object = None  # the library's PartialGrid of rect
    square: object = None  # rect embedded in an empty n x n square (hall)
    path: Optional[str] = None  # grid file read by the CLI (construct)


@dataclass
class Workload:
    name: str
    build: Callable[[SimpleNamespace, random.Random, Path], list[Instance]]
    op: Callable[[SimpleNamespace, Instance], object]
    # check returns (passed, verdict) where verdict is "completable" or the
    # obstruction kind; it runs outside the timed region.
    check: Callable[[Instance, object], tuple[bool, str]]
    # the square an operation produced, for the staged-pipeline comparison
    output_square: Callable[[object], Optional[list[list[int]]]]
    largest: str  # label part that marks the instances reported as largest_s
    min_passes: int
    # every instance is a corner of a full square, so every verdict must be
    # "completable" whatever the seed; otherwise expected.json holds the counts
    all_completable: bool = False


def _non_aligned(x: int, box: int, n: int) -> int:
    """x, moved up past multiples of box (when box > 1), kept below n."""
    while box > 1 and x % box == 0 and x < n - 1:
        x += 1
    return x


def _corner_instances(mods, rng: random.Random, sizes) -> list[Instance]:
    out = []
    for p, q, k in sizes:
        n = p * q
        r = _non_aligned(n // 2 + k, p, n)
        s = _non_aligned(n // 3 + k, q, n)
        rect = corner(pattern_square(p, q, rng), r, s)
        out.append(Instance(f"{p}x{q}:{r}x{s}", p, q, rect,
                            grid=mods.grid.grid_from_rows(p, q, rect)))
    return out


def _certificate_rows(verdict) -> Optional[list[list[int]]]:
    if not getattr(verdict, "completable", False):
        return None
    return [list(row) for row in verdict.certificate.cells]


# construct: the success path of `sudoku-ryser complete` at p = q for
# n = 16..144 and at p != q for n = 96; outline expansion does most of the work.
CONSTRUCT_SIZES = ([(4, 4, k) for k in range(4)] + [(6, 6, k) for k in range(4)]
                   + [(8, 8, k) for k in range(2)]
                   + [(8, 12, 0), (12, 8, 0), (10, 10, 0), (12, 12, 0)])


def _build_construct(mods, rng, workdir: Path) -> list[Instance]:
    out = _corner_instances(mods, rng, CONSTRUCT_SIZES)
    workdir.mkdir(parents=True, exist_ok=True)
    for idx, inst in enumerate(out):
        path = workdir / f"construct-{idx}.grid"
        path.write_text(grid_text(inst.p, inst.q, inst.rect), encoding="utf-8")
        inst.path = str(path)
    return out


def _op_construct(mods, inst: Instance):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = mods.cli.main(["complete", inst.path])
    return code, buffer.getvalue()


def _check_construct(inst: Instance, result) -> tuple[bool, str]:
    code, text = result
    if code != 0:
        return False, f"exit-{code}"
    try:
        p, q, rows = parse_square_text(text)
    except ValueError:
        return False, "unparsable"
    ok = (p, q) == (inst.p, inst.q) and is_completion(rows, inst.rect, p, q)
    return ok, "completable"


# latin: p = 1, so complete() takes the latin-rectangle path, which skips the
# outline and colouring and loads the matching code with large dense graphs.
LATIN_SIZES = ([(1, 36, k) for k in range(5)] + [(1, 64, k) for k in range(2)]
               + [(1, 100, 0), (1, 121, 0)])


def _build_latin(mods, rng, workdir: Path) -> list[Instance]:
    return _corner_instances(mods, rng, LATIN_SIZES)


def _op_complete(mods, inst: Instance):
    return mods.completion.complete(inst.grid)


def _check_completion(inst: Instance, verdict) -> tuple[bool, str]:
    rows = _certificate_rows(verdict)
    return rows is not None and is_completion(rows, inst.rect, inst.p, inst.q), "completable"


# decide: many small random rectangles, about a seventh of them incompletable,
# so the failure path (violator extraction, verify_obstruction) and per-call
# overhead weigh as much as the matchings.  The rectangle sides are one fixed
# draw shared by every seed; the seed picks only the contents, which keeps the
# mix of sizes, and so the run time, the same from seed to seed.
DECIDE_SHAPES = ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))
DECIDE_PER_SHAPE = 100


def fixed_sides(tag: str, count: int, sides: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """`count` rectangle sides drawn from `sides` by a seed-independent RNG."""
    draw = random.Random(f"sides:{tag}")
    return [draw.choice(sides) for _ in range(count)]


def _build_decide(mods, rng, workdir: Path) -> list[Instance]:
    out = []
    for p, q in DECIDE_SHAPES:
        n = p * q
        every = [(r, s) for r in range(1, n + 1) for s in range(1, n + 1)]
        for r, s in fixed_sides(f"{p}x{q}", DECIDE_PER_SHAPE, every):
            rect = random_valid_rectangle(p, q, r, s, rng)
            out.append(Instance(f"{p}x{q}:{r}x{s}", p, q, rect,
                                grid=mods.grid.grid_from_rows(p, q, rect)))
    return out


def _op_decide(mods, inst: Instance):
    verdict = mods.completion.complete(inst.grid)
    if verdict.completable:
        return verdict, True
    return verdict, mods.completion.verify_obstruction(inst.grid, verdict.certificate)


def _check_decide(inst: Instance, result) -> tuple[bool, str]:
    verdict, verified = result
    if verdict.completable:
        return _check_completion(inst, verdict)
    return bool(verified), verdict.certificate.kind


# hall: embedded (2,2) and (2,3) rectangles with at most 18 empty cells,
# checked by hall_condition and the brute-force oracle against complete().
# Pattern corners always satisfy Hall's Condition, so every subset of their
# 12 to 18 empty cells is enumerated; their cost does not depend on the seed.
# The random rectangles bring the failing cases: about 60% of random (2,3)
# 5x5 and 15% of (2,2) 3x3 rectangles are incompletable, while other sides
# rarely are.  The pattern corners outnumber the random ones, so the median
# latency falls on a pattern corner whatever the random verdicts.
HALL_PATTERN = ([(2, 3, r, s) for r, s in ((3, 6), (6, 3), (4, 5), (5, 4), (4, 6), (6, 4))]
                + [(2, 2, r, s) for r in range(1, 5) for s in range(1, 5) if r * s <= 4])
HALL_RANDOM = ((2, 3, 5, 5, 8), (2, 2, 3, 3, 4))


def _build_hall(mods, rng, workdir: Path) -> list[Instance]:
    shapes = [(p, q, r, s, corner(pattern_square(p, q, rng), r, s))
              for p, q, r, s in HALL_PATTERN]
    for p, q, r, s, count in HALL_RANDOM:
        shapes.extend((p, q, r, s, random_valid_rectangle(p, q, r, s, rng))
                      for _ in range(count))
    out = []
    for p, q, r, s, rect in shapes:
        grid = mods.grid.grid_from_rows(p, q, rect)
        empty = (p * q) ** 2 - r * s
        out.append(Instance(f"{p}x{q}:{r}x{s}:e{empty}", p, q, rect, grid=grid,
                            square=mods.grid.embed_in_square(grid)))
    return out


def _op_hall(mods, inst: Instance):
    report = mods.hall.hall_condition(inst.square, flavor="sudoku", gate=18)
    oracle = mods.fixtures.brute_force_complete(inst.square)
    verdict = mods.completion.complete(inst.grid)
    return report, oracle, verdict


def _check_hall(inst: Instance, result) -> tuple[bool, str]:
    report, oracle, verdict = result
    kind = "completable" if verdict.completable else verdict.certificate.kind
    if report.gave_up or oracle.outcome not in ("found", "incompletable"):
        return False, kind
    found = oracle.outcome == "found"
    if not report.holds == found == verdict.completable:
        return False, kind
    if found:
        oracle_rows = [list(row) for row in oracle.square.cells]
        if not (is_completion(oracle_rows, inst.rect, inst.p, inst.q)
                and _check_completion(inst, verdict)[0]):
            return False, kind
    return True, kind


def _construct_square(result):
    try:
        return parse_square_text(result[1])[2]
    except ValueError:
        return None


WORKLOADS = {
    "construct": Workload("construct", _build_construct, _op_construct, _check_construct,
                          _construct_square, largest="12x12:", min_passes=4,
                          all_completable=True),
    "latin": Workload("latin", _build_latin, _op_complete, _check_completion,
                      _certificate_rows, largest="1x121:", min_passes=6,
                      all_completable=True),
    "decide": Workload("decide", _build_decide, _op_decide, _check_decide,
                       lambda result: _certificate_rows(result[0]),
                       largest="4x4:", min_passes=6),
    "hall": Workload("hall", _build_hall, _op_hall, _check_hall,
                     lambda result: _certificate_rows(result[2]),
                     largest=":e18", min_passes=4),
}


def staged_square(mods, inst: Instance) -> Optional[list[list[int]]]:
    """Run complete()'s stages one by one; the square they build, or None."""
    completion = mods.completion
    plan = completion.plan_medium_cells(inst.grid)
    if isinstance(plan, completion.Obstruction):
        return None
    dist = completion.distribute_free(inst.grid, plan)
    outline = completion.assemble_outline(inst.grid, plan, dist)
    if isinstance(outline, completion.Obstruction):
        return None
    return [list(row) for row in mods.outline.expand_outline(outline).cells]
