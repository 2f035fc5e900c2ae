"""Grid data model: box geometry, partial grids, validation, and text I/O.

Coordinates and symbols are 1-based at the API surface.  All values are
immutable after construction; every operation here is a pure function, so
shared grids are safe to use concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

EMPTY_TOKEN = "."
FLAVORS = ("latin", "sudoku", "gerechte")


class GridFormatError(ValueError):
    """A grid file could not be parsed."""


@dataclass(frozen=True)
class SudokuGeometry:
    """Box structure of an order-n grid: each big cell spans p rows by q columns.

    The order is n = p*q; big cells tile the full n x n square in q big rows
    (bands of p small rows) and p big columns (stacks of q small columns).
    """

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise ValueError(f"box sides must be positive, got p={self.p}, q={self.q}")

    @property
    def n(self) -> int:
        return self.p * self.q


@dataclass(frozen=True)
class Anchors:
    """Largest box-aligned sub-rectangle of an r x s region.

    r_star is the largest multiple of p that is <= r, and s_star the largest
    multiple of q that is <= s.
    """

    r: int
    s: int
    r_star: int
    s_star: int


def anchors(r: int, s: int, geom: SudokuGeometry) -> Anchors:
    """Anchor points of an r x s rectangle inside the box structure."""
    if r < 0 or s < 0:
        raise ValueError(f"rectangle sides must be nonnegative, got {r} x {s}")
    return Anchors(r, s, (r // geom.p) * geom.p, (s // geom.q) * geom.q)


def big_cell_of(geom: SudokuGeometry, row: int, col: int) -> tuple[int, int]:
    """Big-cell coordinates (1-based) containing small cell (row, col)."""
    n = geom.n
    if not (1 <= row <= n and 1 <= col <= n):
        raise ValueError(f"cell ({row}, {col}) outside order-{n} square")
    return (row + geom.p - 1) // geom.p, (col + geom.q - 1) // geom.q


def _constraint_keys(grid: "PartialGrid", row: int, col: int,
                     flavor: Optional[str] = None) -> list:
    """The constraint groups of a cell: its row, its column and the flavor's unit.

    Two cells must hold distinct symbols exactly when they share a key.  The
    flavor defaults to the grid's own.
    """
    flavor = grid.flavor if flavor is None else flavor
    keys: list = [("r", row), ("c", col)]
    if flavor == "sudoku":
        keys.append(("b", big_cell_of(grid.geometry, row, col)))
    elif flavor == "gerechte":
        keys.append(("p", grid.part_id(row, col)))
    return keys


@dataclass(frozen=True)
class Violation:
    """One constraint breach: where it happened and which symbol clashed."""

    kind: str  # row | column | bigcell | part | range
    coordinates: tuple[tuple[int, int], ...]
    symbol: Optional[int]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class PartialGrid:
    """An immutable rows x cols array of optional symbols in 1..n.

    The flavor selects which uniqueness constraints apply on top of the
    latin row/column rules: "sudoku" adds big cells, "gerechte" adds an
    explicit partition (one part id per cell).
    """

    geometry: SudokuGeometry
    rows: int
    cols: int
    cells: tuple[tuple[Optional[int], ...], ...]
    flavor: str = "sudoku"
    partition: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative grid dimensions")
        if len(self.cells) != self.rows or any(len(row) != self.cols for row in self.cells):
            raise ValueError("cells do not match the declared dimensions")
        if self.partition is not None:
            if len(self.partition) != self.rows or any(
                len(row) != self.cols for row in self.partition
            ):
                raise ValueError("partition does not match the declared dimensions")

    @property
    def n(self) -> int:
        return self.geometry.n

    def at(self, row: int, col: int) -> Optional[int]:
        return self.cells[row - 1][col - 1]

    def with_cell(self, row: int, col: int, symbol: Optional[int]) -> "PartialGrid":
        """A copy of this grid with one cell replaced."""
        new_cells = tuple(
            tuple(symbol if (i, j) == (row - 1, col - 1) else v for j, v in enumerate(r))
            for i, r in enumerate(self.cells)
        )
        return PartialGrid(self.geometry, self.rows, self.cols, new_cells,
                           self.flavor, self.partition)

    def filled(self) -> Iterator[tuple[int, int, int]]:
        """Yield (row, col, symbol) for every filled cell, in row-major order."""
        for i, row in enumerate(self.cells):
            for j, v in enumerate(row):
                if v is not None:
                    yield i + 1, j + 1, v

    def empty_cells(self) -> list[tuple[int, int]]:
        return [(i + 1, j + 1)
                for i, row in enumerate(self.cells)
                for j, v in enumerate(row) if v is None]

    def is_fully_filled(self) -> bool:
        return all(v is not None for row in self.cells for v in row)

    def row_symbols(self, row: int) -> set[int]:
        return {v for v in self.cells[row - 1] if v is not None}

    def col_symbols(self, col: int) -> set[int]:
        return {row[col - 1] for row in self.cells if row[col - 1] is not None}

    def big_cell_symbols(self, big_row: int, big_col: int) -> set[int]:
        """Symbols present in the stored region of a big cell."""
        p, q = self.geometry.p, self.geometry.q
        out: set[int] = set()
        for r in range((big_row - 1) * p + 1, min(big_row * p, self.rows) + 1):
            for c in range((big_col - 1) * q + 1, min(big_col * q, self.cols) + 1):
                v = self.cells[r - 1][c - 1]
                if v is not None:
                    out.add(v)
        return out

    def part_id(self, row: int, col: int) -> int:
        if self.partition is None:
            raise ValueError("grid has no partition")
        return self.partition[row - 1][col - 1]

    def part_symbols(self, pid: int) -> set[int]:
        if self.partition is None:
            raise ValueError("grid has no partition")
        out: set[int] = set()
        for i in range(self.rows):
            for j in range(self.cols):
                if self.partition[i][j] == pid and self.cells[i][j] is not None:
                    out.add(self.cells[i][j])
        return out


def _default_flavor(p: int, q: int, partition: object = None) -> str:
    """The flavor a grid gets when none is named: gerechte with a partition,
    latin when a box is a single row or column, sudoku otherwise."""
    if partition is not None:
        return "gerechte"
    return "latin" if p == 1 or q == 1 else "sudoku"


def grid_from_rows(p: int, q: int, rows: list[list[Optional[int]]], *,
                   flavor: Optional[str] = None,
                   partition: Optional[list[list[int]]] = None) -> PartialGrid:
    """Build a grid from nested lists; 0 and None both mean empty."""
    geom = SudokuGeometry(p, q)
    cells = tuple(tuple(v if v else None for v in row) for row in rows)
    n_rows = len(cells)
    n_cols = len(cells[0]) if cells else 0
    if flavor is None:
        flavor = _default_flavor(p, q, partition)
    part = tuple(tuple(row) for row in partition) if partition is not None else None
    return PartialGrid(geom, n_rows, n_cols, cells, flavor, part)


def empty_grid(p: int, q: int, rows: Optional[int] = None, cols: Optional[int] = None,
               *, flavor: Optional[str] = None) -> PartialGrid:
    geom = SudokuGeometry(p, q)
    rows = geom.n if rows is None else rows
    cols = geom.n if cols is None else cols
    if flavor is None:
        flavor = _default_flavor(p, q)
    cells = tuple((None,) * cols for _ in range(rows))
    return PartialGrid(geom, rows, cols, cells, flavor, None)


def extends(base: PartialGrid, square: PartialGrid) -> bool:
    """True when every filled cell of base appears unchanged in square."""
    if square.rows < base.rows or square.cols < base.cols:
        return False
    return all(square.at(r, c) == v for r, c, v in base.filled())


def embed_in_square(grid: PartialGrid) -> PartialGrid:
    """Embed an r x s grid in the top left corner of an empty n x n square."""
    n = grid.n
    if grid.rows > n or grid.cols > n:
        raise ValueError("grid larger than its order")
    cells = tuple(
        tuple(grid.cells[i][j] if i < grid.rows and j < grid.cols else None
              for j in range(n))
        for i in range(n)
    )
    return PartialGrid(grid.geometry, n, n, cells, grid.flavor, None)


def validate_partial(grid: PartialGrid) -> ValidationReport:
    """Check every uniqueness constraint the grid's flavor implies.

    The report lists every symbol outside 1..n, then every duplicate by
    row, column, big cell or part (groups and symbols in ascending order,
    coordinates in row-major order); ok is True exactly when there are none.

    One pass keeps the symbols of each row, column and unit (big cell or
    part) as a bit mask, symbol v being bit v, and notes every (group,
    symbol) that repeats; the coordinates of the repeats are gathered by a
    second walk only when there are any.  The big cell of 0-based (i, j) is
    numbered (i // p) * p + j // q.
    """
    n, p, q = grid.n, grid.geometry.p, grid.geometry.q
    violations: list[Violation] = []
    units: Optional[list] = None  # per row, each cell's unit id
    if grid.flavor == "sudoku":
        if grid.rows > n or grid.cols > n:
            for r, c, v in grid.filled():
                if 1 <= v <= n:
                    big_cell_of(grid.geometry, r, c)  # raises outside the square
        bands = [[b * p + j // q for j in range(grid.cols)]
                 for b in range(-(-grid.rows // p))]
        units = [bands[i // p] for i in range(grid.rows)]
    elif grid.flavor == "gerechte":
        units = grid.partition

    clashes: set[tuple] = set()  # (0 row | 1 column | 2 unit, group, symbol)
    col_seen = [0] * grid.cols
    unit_seen: dict = {}
    for i, row in enumerate(grid.cells):
        seen = 0
        unit_row = units[i] if units is not None else None
        for j, v in enumerate(row):
            if v is None:
                continue
            if not 1 <= v <= n:
                violations.append(Violation("range", ((i + 1, j + 1),), v))
                continue
            bit = 1 << v
            if seen & bit:
                clashes.add((0, i, v))
            if col_seen[j] & bit:
                clashes.add((1, j, v))
            seen |= bit
            col_seen[j] |= bit
            if unit_row is not None:
                u = unit_row[j]
                mask = unit_seen.get(u, 0)
                if mask & bit:
                    clashes.add((2, u, v))
                unit_seen[u] = mask | bit

    if clashes:
        coords: dict[tuple, list[tuple[int, int]]] = {key: [] for key in clashes}
        for i, row in enumerate(grid.cells):
            for j, v in enumerate(row):
                if v is None or not 1 <= v <= n:
                    continue
                keys = [(0, i, v), (1, j, v)]
                if units is not None:
                    keys.append((2, units[i][j], v))
                for key in keys:
                    if key in coords:
                        coords[key].append((i + 1, j + 1))
        kinds = ("row", "column", "bigcell" if grid.flavor == "sudoku" else "part")
        for key in sorted(coords):
            violations.append(Violation(kinds[key[0]], tuple(coords[key]), key[2]))

    if grid.flavor == "gerechte":
        if grid.partition is None:
            violations.append(Violation("part", (), None))
        elif grid.rows == n and grid.cols == n:
            sizes: dict[int, int] = {}
            for part_row in grid.partition:
                for pid in part_row:
                    sizes[pid] = sizes.get(pid, 0) + 1
            for pid in sorted(sizes):
                if sizes[pid] != n:
                    violations.append(Violation("part", ((pid, sizes[pid]),), None))

    return ValidationReport(not violations, tuple(violations))


def parse_grid(text: str | bytes) -> PartialGrid:
    """Parse the grid file format; validation is the caller's business.

    Format: line 1 is ``sudoku v1``; line 2 is ``p q rows cols``; then
    ``rows`` lines of ``cols`` whitespace-separated tokens, each an integer
    in 1..pq or ``.``.  An optional section starting with a ``partition``
    line carries part ids for the gerechte flavor.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "sudoku v1":
        raise GridFormatError("missing 'sudoku v1' header")
    if len(lines) < 2:
        raise GridFormatError("missing geometry line")
    head = lines[1].split()
    if len(head) != 4:
        raise GridFormatError(f"geometry line needs 4 fields, got {len(head)}")
    try:
        p, q, rows, cols = (int(tok) for tok in head)
    except ValueError as exc:
        raise GridFormatError(f"bad geometry line: {lines[1]!r}") from exc
    if p < 1 or q < 1 or rows < 0 or cols < 0:
        raise GridFormatError("geometry values out of range")
    n = p * q

    if cols == 0:
        # Zero-width rows have no tokens, so they are not serialized at all.
        return PartialGrid(SudokuGeometry(p, q), rows, 0, ((),) * rows,
                           _default_flavor(p, q), None)
    body = lines[2:]
    if len(body) < rows:
        raise GridFormatError(f"expected {rows} grid lines, found {len(body)}")
    cells: list[tuple[Optional[int], ...]] = []
    for i in range(rows):
        tokens = body[i].split()
        if len(tokens) != cols:
            raise GridFormatError(f"line {i + 3}: expected {cols} tokens, got {len(tokens)}")
        row: list[Optional[int]] = []
        for tok in tokens:
            if tok == EMPTY_TOKEN:
                row.append(None)
                continue
            try:
                v = int(tok)
            except ValueError as exc:
                raise GridFormatError(f"line {i + 3}: bad token {tok!r}") from exc
            if not (1 <= v <= n):
                raise GridFormatError(f"line {i + 3}: symbol {v} outside 1..{n}")
            row.append(v)
        cells.append(tuple(row))

    rest = body[rows:]
    partition: Optional[tuple[tuple[int, ...], ...]] = None
    if rest:
        if rest[0] != "partition":
            raise GridFormatError(f"unexpected trailing line {rest[0]!r}")
        part_lines = rest[1:]
        if len(part_lines) != rows:
            raise GridFormatError(f"partition needs {rows} lines, got {len(part_lines)}")
        part_rows: list[tuple[int, ...]] = []
        for i, ln in enumerate(part_lines):
            tokens = ln.split()
            if len(tokens) != cols:
                raise GridFormatError(f"partition line {i + 1}: expected {cols} tokens")
            try:
                ids = tuple(int(tok) for tok in tokens)
            except ValueError as exc:
                raise GridFormatError(f"partition line {i + 1}: bad token") from exc
            if any(not (1 <= pid <= n) for pid in ids):
                raise GridFormatError(f"partition line {i + 1}: part id outside 1..{n}")
            part_rows.append(ids)
        partition = tuple(part_rows)

    return PartialGrid(SudokuGeometry(p, q), rows, cols, tuple(cells),
                       _default_flavor(p, q, partition), partition)


def serialize_grid(grid: PartialGrid) -> str:
    """Canonical text form of a grid; parse_grid inverts it."""
    geom = grid.geometry
    out = ["sudoku v1", f"{geom.p} {geom.q} {grid.rows} {grid.cols}"]
    if grid.cols > 0:
        for row in grid.cells:
            out.append(" ".join(EMPTY_TOKEN if v is None else str(v) for v in row))
    if grid.partition is not None:
        out.append("partition")
        for row in grid.partition:
            out.append(" ".join(str(pid) for pid in row))
    return "\n".join(out) + "\n"
