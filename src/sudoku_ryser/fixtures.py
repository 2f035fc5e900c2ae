"""Brute-force completion oracle, incompletable constructions, random instances."""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

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


def brute_force_complete(grid: PartialGrid, node_limit: int = 10_000_000,
                         tie_break: str = "coordinate") -> OracleResult:
    """Exhaustive backtracking search for a completion of the grid.

    Cells are chosen most-constrained first, ties broken by coordinate (or
    reversed coordinate with tie_break="reverse"); a cell with no candidates
    prunes immediately.  The search is deterministic, so identical inputs
    give identical outcomes and node counts.
    """
    if not validate_partial(grid).ok:
        raise ValueError("oracle input is invalid")
    n = grid.n
    full = (1 << (n + 1)) - 2  # bits 1..n

    used: dict = {}
    for r, c, v in grid.filled():
        for key in _constraint_keys(grid, r, c):
            used[key] = used.get(key, 0) | (1 << v)
    empties = grid.empty_cells()
    for r, c in empties:
        for key in _constraint_keys(grid, r, c):
            used.setdefault(key, 0)

    keys_of = {(r, c): _constraint_keys(grid, r, c) for r, c in empties}
    assignment: dict[tuple[int, int], int] = {}
    solution: dict[tuple[int, int], int] = {}
    nodes = 0
    reverse = tie_break == "reverse"

    def candidates(cell: tuple[int, int]) -> int:
        mask = full
        for key in keys_of[cell]:
            mask &= ~used[key]
        return mask

    def pick_cell() -> Optional[tuple[tuple[int, int], int]]:
        best = None
        best_count = n + 1
        pool = empties if not reverse else list(reversed(empties))
        for cell in pool:
            if cell in assignment:
                continue
            mask = candidates(cell)
            count = bin(mask).count("1")
            if count < best_count:
                best, best_count = (cell, mask), count
                if count == 0:
                    break
        return best

    def search() -> Optional[str]:
        nonlocal nodes
        if len(assignment) == len(empties):
            solution.update(assignment)
            return "found"
        chosen = pick_cell()
        if chosen is None:
            solution.update(assignment)
            return "found"
        cell, mask = chosen
        if mask == 0:
            return None
        v = 1
        while mask:
            if mask & (1 << v):
                mask &= ~(1 << v)
                nodes += 1
                if nodes > node_limit:
                    return "gaveUp"
                assignment[cell] = v
                for key in keys_of[cell]:
                    used[key] |= 1 << v
                result = search()
                for key in keys_of[cell]:
                    used[key] &= ~(1 << v)
                del assignment[cell]
                if result is not None:
                    return result
            v += 1
        return None

    outcome = search()
    if outcome == "found":
        cells = [list(row) for row in grid.cells]
        for (r, c), v in solution.items():
            cells[r - 1][c - 1] = v
        square = PartialGrid(grid.geometry, grid.rows, grid.cols,
                             tuple(tuple(row) for row in cells),
                             grid.flavor, grid.partition)
        return OracleResult("found", square, nodes)
    if outcome == "gaveUp":
        return OracleResult("gaveUp", None, nodes)
    return OracleResult("incompletable", None, nodes)


def extends(base: PartialGrid, square: PartialGrid) -> bool:
    """True when every filled cell of base appears unchanged in square."""
    if square.rows < base.rows or square.cols < base.cols:
        return False
    return all(square.at(r, c) == v for r, c, v in base.filled())


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


def gen_evans_small(p: int, q: int) -> PartialGrid:
    """Minimal incompletable partial square with p+q-1 preassigned small cells.

    Symbols 1..q fill row 1 of the first big cell; symbol q+1 is placed once
    in each remaining big cell of the first band, at row m and the big
    cell's first column, blocking q+1 from all of row 1.
    """
    if p < 2 or q < 2:
        raise ValueError("construction needs p >= 2 and q >= 2")
    grid = empty_grid(p, q)
    for j in range(1, q + 1):
        grid = grid.with_cell(1, j, j)
    for m in range(2, p + 1):
        grid = grid.with_cell(m, (m - 1) * q + 1, q + 1)
    return grid


def gen_evans_big(k: int, i: int) -> PartialGrid:
    """Incompletable partial square whose preassigned cells are whole big cells.

    Big cells (1,1)..(1,i-1) carry the rotations M_1..M_{i-1}; big cells
    (2,i)..(k-i+2,i) carry the transposes of M_i..M_k.  No symbol is then
    placeable in row 1 of big column i.
    """
    if k < 2 or not (2 <= i <= k):
        raise ValueError("need k >= 2 and 2 <= i <= k")
    m = base_block_matrix(k)
    grid = empty_grid(k, k)

    def put_block(big_row: int, big_col: int, block: tuple[tuple[int, ...], ...]) -> None:
        nonlocal grid
        for dr in range(k):
            for dc in range(k):
                grid = grid.with_cell((big_row - 1) * k + dr + 1,
                                      (big_col - 1) * k + dc + 1,
                                      block[dr][dc])

    for t in range(1, i):
        put_block(1, t, m.rotation(t))
    for t in range(i, k + 1):
        block = m.rotation(t)
        transposed = tuple(tuple(block[dc][dr] for dc in range(k)) for dr in range(k))
        put_block(2 + (t - i), i, transposed)
    return grid


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
        grid = empty_grid(1, n, flavor="latin")
        for j in range(1, x + 1):
            grid = grid.with_cell(1, j, j)
        for t, symbol in enumerate(range(x + 1, n + 1)):
            grid = grid.with_cell(2 + t, x + 1, symbol)
        return grid
    if variant == "diagonal":
        if not (2 <= x <= n):
            raise ValueError("diagonal variant needs 2 <= x <= n")
        grid = empty_grid(1, n, flavor="latin")
        for j in range(1, x):
            grid = grid.with_cell(1, j, j)
        for t in range(n - x + 1):
            grid = grid.with_cell(2 + t, x + t, x)
        return grid
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


def gen_random_valid_rectangle(p: int, q: int, r: int, s: int, seed: int) -> PartialGrid:
    """A random valid r x s rectangle, not necessarily completable.

    Unlike gen_random_rectangle this fills the region directly, so it can
    produce rectangles that no full square extends.  Each attempt is a
    backtracking search that tries each cell's allowed symbols in a
    shuffled order.  The first fills the cells in row-major order and is cut
    off after FIRST_BUDGET assignments; so a draw it finishes is the one
    plain row-major backtracking makes.  That order can wander for minutes
    on some n = 12 shapes, so attempt k >= 1 fills the most constrained cell
    first and is cut off after k * NODES_PER_CELL assignments per cell.
    Every attempt continues the same random stream, and the budget grows
    until one finishes, so a rectangle is always returned.
    """
    rng = random.Random(seed)
    geom = SudokuGeometry(p, q)
    n = geom.n
    if r > n or s > n:
        raise ValueError("rectangle larger than the order")
    flavor = "latin" if p == 1 or q == 1 else "sudoku"
    base = empty_grid(p, q, rows=r, cols=s, flavor=flavor)
    keys_of = [_constraint_keys(base, i, j) for i in range(1, r + 1) for j in range(1, s + 1)]

    for attempt in itertools.count():
        budget = NODES_PER_CELL * len(keys_of) * attempt if attempt else FIRST_BUDGET
        used = {key: 0 for keys in keys_of for key in keys}  # bit v: symbol v taken
        values = [0] * len(keys_of)
        order = list(range(len(keys_of)))  # order[k:] are the cells left to fill
        nodes = 0

        def taken(cell: int) -> int:
            mask = 0
            for key in keys_of[cell]:
                mask |= used[key]
            return mask

        def fill(k: int) -> Optional[bool]:
            """True when filled, False when no option fits, None when cut off."""
            nonlocal nodes
            if k == len(order):
                return True
            if attempt:
                pick = max(range(k, len(order)), key=lambda t: taken(order[t]).bit_count())
                order[k], order[pick] = order[pick], order[k]
            cell = order[k]
            mask = taken(cell)
            options = [v for v in range(1, n + 1) if not mask >> v & 1]
            rng.shuffle(options)
            for v in options:
                nodes += 1
                if nodes > budget:
                    return None
                values[cell] = v
                bit = 1 << v
                for key in keys_of[cell]:
                    used[key] |= bit
                result = fill(k + 1)
                if result is not False:
                    return result
                for key in keys_of[cell]:
                    used[key] ^= bit
            return False

        result = fill(0)
        if result:
            break
        if result is False:
            raise RuntimeError("random rectangle generation failed")
    rows = tuple(tuple(values[i * s:(i + 1) * s]) for i in range(r))
    return PartialGrid(geom, r, s, rows, flavor, None)


def random_latin_square(n: int, seed: int) -> PartialGrid:
    """A random latin square of order n (latin flavor, 1 x n boxes)."""
    return gen_random_valid_rectangle(1, n, n, n, seed)
