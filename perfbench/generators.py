"""Seeded instance generators and independent square checks for the benchmark.

Nothing here imports the library under test, so the inputs depend only on
the seed and the checks cannot share a defect with the code they judge.
Grids are lists of rows of symbols in 1..n, with n = p*q; a big cell spans
p rows and q columns, as in the library.
"""
from __future__ import annotations

import random

Rows = list[list[int]]

# random_valid_rectangle: restarts before the pattern-corner fallback, and the
# assignments one attempt may make per cell of the rectangle.
ATTEMPTS = 50
NODES_PER_CELL = 8


def pattern_square(p: int, q: int, rng: random.Random) -> Rows:
    """A full (p,q)-Sudoku square, valid at any order, shuffled by rng.

    The pattern puts (q*(i mod p) + i div p + j) mod n at 0-based (i, j).
    Relabelling symbols, permuting rows within a band, bands, columns within
    a stack and stacks all keep rows, columns and big cells duplicate-free.
    """
    n = p * q
    symbols = list(range(1, n + 1))
    rng.shuffle(symbols)
    bands = list(range(q))
    rng.shuffle(bands)
    row_order: list[int] = []
    for band in bands:
        within = list(range(p))
        rng.shuffle(within)
        row_order.extend(band * p + a for a in within)
    stacks = list(range(p))
    rng.shuffle(stacks)
    col_order: list[int] = []
    for stack in stacks:
        within = list(range(q))
        rng.shuffle(within)
        col_order.extend(stack * q + d for d in within)
    return [[symbols[(q * (i % p) + i // p + j) % n] for j in col_order]
            for i in row_order]


def corner(square: Rows, r: int, s: int) -> Rows:
    """The top-left r x s rectangle of a square."""
    return [list(row[:s]) for row in square[:r]]


def random_valid_rectangle(p: int, q: int, r: int, s: int, rng: random.Random) -> Rows:
    """A random fully filled r x s rectangle obeying the Sudoku rules.

    It need not extend to a full square.  Each attempt is a randomised
    most-constrained-cell backtracking search cut off after
    NODES_PER_CELL * r * s assignments; restarts break the heavy tail that
    stalls plain backtracking.  After ATTEMPTS cut-offs the corner of a
    shuffled pattern square is returned, so the run time is bounded.
    """
    n = p * q
    if not (0 <= r <= n and 0 <= s <= n):
        raise ValueError(f"rectangle {r} x {s} does not fit order {n}")
    full = (1 << n) - 1
    cells = [(i, j) for i in range(r) for j in range(s)]
    for _ in range(ATTEMPTS):
        row_used = [0] * r
        col_used = [0] * s
        box_used: dict[tuple[int, int], int] = {}
        values: dict[tuple[int, int], int] = {}
        budget = NODES_PER_CELL * len(cells)

        def search(left: list[tuple[int, int]]) -> bool:
            nonlocal budget
            if not left:
                return True
            best, best_count, best_mask = 0, n + 1, 0
            for idx, (i, j) in enumerate(left):
                mask = full & ~(row_used[i] | col_used[j] | box_used.get((i // p, j // q), 0))
                count = bin(mask).count("1")
                if count < best_count:
                    best, best_count, best_mask = idx, count, mask
                    if count <= 1:
                        break
            if best_count == 0:
                return False
            i, j = left[best]
            rest = left[:best] + left[best + 1:]
            box = (i // p, j // q)
            options = [k for k in range(n) if best_mask >> k & 1]
            rng.shuffle(options)
            for k in options:
                budget -= 1
                if budget < 0:
                    return False
                bit = 1 << k
                row_used[i] |= bit
                col_used[j] |= bit
                box_used[box] = box_used.get(box, 0) | bit
                values[(i, j)] = k + 1
                if search(rest):
                    return True
                row_used[i] &= ~bit
                col_used[j] &= ~bit
                box_used[box] &= ~bit
            return False

        if search(cells):
            return [[values[(i, j)] for j in range(s)] for i in range(r)]
    return corner(pattern_square(p, q, rng), r, s)


def sudoku_violations(rows: Rows, p: int, q: int) -> int:
    """Count duplicated or out-of-range entries in a fully filled grid.

    Rows, columns and p x q big cells are checked; a grid that is not
    rectangular or holds a non-integer counts as one violation.
    """
    n = p * q
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        return 1
    bad = 0
    groups: dict[tuple, set[int]] = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not isinstance(v, int) or not 1 <= v <= n:
                bad += 1
                continue
            for key in (("r", i), ("c", j), ("b", i // p, j // q)):
                seen = groups.setdefault(key, set())
                if v in seen:
                    bad += 1
                seen.add(v)
    return bad


def is_completion(square: Rows, rectangle: Rows, p: int, q: int) -> bool:
    """True when square is a full (p,q)-Sudoku square extending rectangle."""
    n = p * q
    if len(square) != n or any(len(row) != n for row in square):
        return False
    if sudoku_violations(square, p, q):
        return False
    return all(square[i][j] == v for i, row in enumerate(rectangle) for j, v in enumerate(row))


def grid_text(p: int, q: int, rows: Rows) -> str:
    """A fully filled rectangle in the library's grid file format."""
    width = len(rows[0]) if rows else 0
    lines = ["sudoku v1", f"{p} {q} {len(rows)} {width}"]
    lines.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def parse_square_text(text: str) -> tuple[int, int, Rows]:
    """Read back a fully filled grid file: (p, q, rows); raises ValueError."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or lines[0] != ["sudoku", "v1"] or len(lines[1]) != 4:
        raise ValueError("not a grid file")
    p, q, r, s = (int(tok) for tok in lines[1])
    body = lines[2:2 + r]
    if len(body) != r or any(len(row) != s for row in body):
        raise ValueError("grid body does not match its header")
    return p, q, [[int(tok) for tok in row] for row in body]
