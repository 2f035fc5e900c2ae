"""Brute-force completion oracle, incompletable constructions, random instances.

The oracle and the random rectangle generator share one backtracking search,
_backtrack, which keeps its path on an explicit stack: a deep grid costs
memory, never Python recursion.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from .grid import (
    PartialGrid,
    SudokuGeometry,
    _constraint_keys,
    empty_grid,
    validate_partial,
)


@dataclass(frozen=True)
class OracleResult:
    outcome: str  # found | incompletable | gaveUp
    square: Optional[PartialGrid]
    nodes_expanded: int


def _backtrack(keys_of: list, used: dict, n: int, fewest_first: bool,
               arrange: Optional[Callable[[list[int]], None]],
               budget: int) -> tuple[str, Optional[list[int]], int]:
    """Give cells 0..len(keys_of)-1 symbols 1..n by depth-first search.

    keys_of[cell] are the constraint keys of a cell and used[key] is the bit
    mask of the symbols taken in that group (bit v for symbol v); the search
    updates used in place.  Each step fills the next cell in index order or,
    with fewest_first, the first cell with the fewest symbols left, so a cell
    with none backtracks at once.  A cell's symbols are tried in ascending
    order, after arrange (such as rng.shuffle) has reordered them in place.
    Each assignment is one node.

    Returns (outcome, values, nodes): "found" with values[cell] the symbol of
    each cell, "incompletable" when no fill exists, or "gaveUp" once more
    than budget nodes are needed.
    """
    full = (1 << (n + 1)) - 2  # bits 1..n
    values = [0] * len(keys_of)  # 0: not filled
    path: list[list] = []  # [cell, options, index of the next option to try]
    nodes = 0
    while True:
        depth = len(path)  # in index order, cells 0..depth-1 are the filled ones
        pool = (range(len(keys_of)) if fewest_first
                else range(depth, min(depth + 1, len(keys_of))))
        cell, free, fewest = None, 0, n + 1
        for c in pool:
            if values[c]:
                continue
            mask = full
            for key in keys_of[c]:
                mask &= ~used[key]
            count = mask.bit_count()
            if count < fewest:
                cell, free, fewest = c, mask, count
                if not count:
                    break
        if cell is None:
            return "found", values, nodes
        options = [v for v in range(1, n + 1) if free >> v & 1]
        if arrange:
            arrange(options)
        path.append([cell, options, 0])

        while path:  # withdraw the deepest assignment and find its next option
            frame = path[-1]
            cell, options, i = frame
            if values[cell]:
                bit = 1 << values[cell]
                for key in keys_of[cell]:
                    used[key] ^= bit
                values[cell] = 0
            if i < len(options):
                break
            path.pop()
        else:
            return "incompletable", None, nodes
        nodes += 1
        if nodes > budget:
            return "gaveUp", None, nodes
        frame[2] = i + 1
        values[cell] = options[i]
        bit = 1 << options[i]
        for key in keys_of[cell]:
            used[key] |= bit


def brute_force_complete(grid: PartialGrid, node_limit: int = 10_000_000) -> OracleResult:
    """Exhaustive backtracking search for a completion of the grid.

    Cells are chosen most-constrained first, ties broken by coordinate, and
    symbols are tried in ascending order; a cell with no candidates prunes
    immediately.  The search is deterministic, so identical inputs give
    identical outcomes and node counts.
    """
    if not validate_partial(grid).ok:
        raise ValueError("oracle input is invalid")
    empties = grid.empty_cells()
    keys_of = [_constraint_keys(grid, r, c) for r, c in empties]
    used = {key: 0 for keys in keys_of for key in keys}
    for r, c, v in grid.filled():
        for key in _constraint_keys(grid, r, c):
            used[key] = used.get(key, 0) | 1 << v
    outcome, values, nodes = _backtrack(keys_of, used, grid.n, True, None, node_limit)
    if outcome != "found":
        return OracleResult(outcome, None, nodes)
    cells = [list(row) for row in grid.cells]
    for (r, c), v in zip(empties, values):
        cells[r - 1][c - 1] = v
    square = PartialGrid(grid.geometry, grid.rows, grid.cols,
                         tuple(tuple(row) for row in cells),
                         grid.flavor, grid.partition)
    return OracleResult("found", square, nodes)


@dataclass(frozen=True)
class RotatedBlockMatrix:
    """A k x k matrix on 1..k*k together with its cyclic row rotations."""

    k: int
    rows: tuple[tuple[int, ...], ...]

    def rotation(self, i: int) -> tuple[tuple[int, ...], ...]:
        """Rows starting at row i, wrapping around; rotation(1) is the matrix."""
        order = list(range(i - 1, self.k)) + list(range(0, i - 1))
        return tuple(self.rows[t] for t in order)


def base_block_matrix(k: int) -> RotatedBlockMatrix:
    rows = tuple(tuple((t * k) + j + 1 for j in range(k)) for t in range(k))
    return RotatedBlockMatrix(k, rows)


def _square_with(p: int, q: int, placed: Iterable[tuple[int, int, int]],
                 flavor: Optional[str] = None) -> PartialGrid:
    """The empty square of empty_grid(p, q, flavor=flavor) with each
    (row, col, symbol) of placed written in, in order, built once."""
    grid = empty_grid(p, q, flavor=flavor)
    rows = [list(row) for row in grid.cells]
    for r, c, v in placed:
        rows[r - 1][c - 1] = v
    return replace(grid, cells=tuple(map(tuple, rows)))


def gen_evans_small(p: int, q: int) -> PartialGrid:
    """Minimal incompletable partial square with p+q-1 preassigned small cells.

    Symbols 1..q fill row 1 of the first big cell; symbol q+1 is placed once
    in each remaining big cell of the first band, at row m and the big
    cell's first column, blocking q+1 from all of row 1.
    """
    if p < 2 or q < 2:
        raise ValueError("construction needs p >= 2 and q >= 2")
    return _square_with(p, q, [(1, j, j) for j in range(1, q + 1)]
                        + [(m, (m - 1) * q + 1, q + 1) for m in range(2, p + 1)])


def gen_evans_big(k: int, i: int) -> PartialGrid:
    """Incompletable partial square whose preassigned cells are whole big cells.

    Big cells (1,1)..(1,i-1) carry the rotations M_1..M_{i-1}; big cells
    (2,i)..(k-i+2,i) carry the transposes of M_i..M_k.  No symbol is then
    placeable in row 1 of big column i.
    """
    if k < 2 or not (2 <= i <= k):
        raise ValueError("need k >= 2 and 2 <= i <= k")
    m = base_block_matrix(k)
    placed = []
    for t in range(1, k + 1):
        block = m.rotation(t)
        if t < i:
            top, left = 0, (t - 1) * k
        else:
            top, left = (1 + t - i) * k, (i - 1) * k
            block = tuple(zip(*block))
        placed += [(top + dr + 1, left + dc + 1, block[dr][dc])
                   for dr in range(k) for dc in range(k)]
    return _square_with(k, k, placed)


def gen_fig6(n: int, x: int, variant: str) -> PartialGrid:
    """Classic n-cell incompletable partial latin squares.

    column variant: row 1 starts 1..x, then column x+1 holds x+1..n in rows
    2..n-x+1, so cell (1, x+1) has an empty list.  diagonal variant: row 1
    starts 1..x-1 and symbol x sits on the diagonal from (2, x) on, so x
    cannot be placed anywhere in row 1.
    """
    if variant == "column":
        if not (1 <= x <= n - 1):
            raise ValueError("column variant needs 1 <= x <= n-1")
        return _square_with(1, n, [(1, j, j) for j in range(1, x + 1)]
                            + [(2 + t, x + 1, v) for t, v in enumerate(range(x + 1, n + 1))],
                            "latin")
    if variant == "diagonal":
        if not (2 <= x <= n):
            raise ValueError("diagonal variant needs 2 <= x <= n")
        return _square_with(1, n, [(1, j, j) for j in range(1, x)]
                            + [(2 + t, x + t, x) for t in range(n - x + 1)], "latin")
    raise ValueError(f"unknown variant {variant!r}")


def gen_random_rectangle(p: int, q: int, r: int, s: int, seed: int) -> PartialGrid:
    """A valid fully filled r x s rectangle: a random square truncated."""
    geom = SudokuGeometry(p, q)
    if r > geom.n or s > geom.n:
        raise ValueError("rectangle larger than the order")
    square = gen_random_valid_rectangle(p, q, geom.n, geom.n, seed)
    cells = tuple(tuple(square.cells[i][j] for j in range(s)) for i in range(r))
    return PartialGrid(geom, r, s, cells, square.flavor, None)


# Assignments gen_random_valid_rectangle's first attempt may make (every
# seeded draw of the test suite finishes within it; the costliest, (3,4)
# 5 x 10 with seed 8, makes 12,204), and per cell and attempt number, those
# each later attempt may make.
FIRST_BUDGET = 1 << 14
NODES_PER_CELL = 8
# Cell visits the later attempts may make in all: each of their assignments
# visits every cell of the rectangle to pick the next one.  The most any
# seeded draw of the test suite makes is 1,424,662, a (4,4) 13 x 13
# rectangle after four restarts; a 36 x 36 square's first restart alone
# may make 13,436,928.
RESTART_VISITS = 2_000_000


def gen_random_valid_rectangle(p: int, q: int, r: int, s: int, seed: int) -> PartialGrid:
    """A random valid r x s rectangle, not necessarily completable.

    Unlike gen_random_rectangle this fills the region directly, so it can
    produce rectangles that no full square extends.  Each attempt is a
    backtracking search that tries each cell's symbols in a shuffled order.
    The first fills the cells in row-major order, so a draw it finishes
    within FIRST_BUDGET assignments is the one plain row-major backtracking
    makes.  That order can wander for minutes on some n = 12 shapes, so
    attempt k >= 1 fills the most constrained cell first, within
    k * NODES_PER_CELL assignments per cell.  All attempts draw from one
    random stream, and the budget grows until one finishes or the later
    attempts have made RESTART_VISITS cell visits; the draw is then the
    corner of a pattern square shuffled by the same stream.
    """
    rng = random.Random(seed)
    geom = SudokuGeometry(p, q)
    n = geom.n
    if r > n or s > n:
        raise ValueError("rectangle larger than the order")
    base = empty_grid(p, q, rows=r, cols=s)
    cells = r * s
    keys_of = [_constraint_keys(base, i, j) for i in range(1, r + 1) for j in range(1, s + 1)]
    visits = 0
    for attempt in itertools.count():
        if attempt:
            budget = min(NODES_PER_CELL * cells * attempt, (RESTART_VISITS - visits) // cells)
        else:
            budget = FIRST_BUDGET
        used = {key: 0 for keys in keys_of for key in keys}
        outcome, values, nodes = _backtrack(keys_of, used, n, attempt > 0, rng.shuffle, budget)
        if outcome == "found":
            rows = tuple(tuple(values[i * s:(i + 1) * s]) for i in range(r))
            break
        if outcome == "incompletable":
            raise RuntimeError("random rectangle generation failed")
        if attempt:
            visits += nodes * cells
        if visits >= RESTART_VISITS:
            rows = tuple(tuple(row[:s]) for row in _pattern_square(p, q, rng)[:r])
            break
    return PartialGrid(geom, r, s, rows, base.flavor, None)


def _pattern_square(p: int, q: int, rng: random.Random) -> list[list[int]]:
    """A full (p,q)-Sudoku square shuffled by rng.

    The pattern puts (q (i mod p) + i div p + j) mod n + 1 at 0-based
    (i, j); relabelling the symbols and permuting the rows within a band,
    the bands, the columns within a stack and the stacks keep it valid.
    """
    n = p * q
    symbols = rng.sample(range(1, n + 1), n)
    orders = []
    for blocks, size in ((q, p), (p, q)):  # q bands of p rows, then p stacks of q columns
        order: list[int] = []
        for block in rng.sample(range(blocks), blocks):
            order += [block * size + x for x in rng.sample(range(size), size)]
        orders.append(order)
    rows, cols = orders
    return [[symbols[(q * (i % p) + i // p + j) % n] for j in cols] for i in rows]


def random_latin_square(n: int, seed: int) -> PartialGrid:
    """A random latin square of order n (latin flavor, 1 x n boxes)."""
    return gen_random_valid_rectangle(1, n, n, n, seed)
