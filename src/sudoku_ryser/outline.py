"""Amalgamation of latin squares into outline squares and its constructive inverse.

An outline square merges blocks of rows, columns and symbols of a latin
square into an array of symbol multisets.  Expansion reverses this one
axis at a time: one equitable edge-coloring of each merged block divides
its content into unit slices, one per color; the counting conditions hold
for every slice, so the fully split array is again a latin square.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

from .bipartite import (
    _color_cells,
    equitable_edge_coloring,  # unused here; the benchmark's tracer rebinds this name
)
from .grid import (
    PartialGrid,
    SudokuGeometry,
    ValidationReport,
    Violation,
    validate_partial,
)

Composition = tuple[int, ...]


class OutlineError(ValueError):
    """An outline square failed a structural requirement."""


def _check_composition(comp: Composition, n: int, name: str) -> None:
    if any(part < 1 for part in comp):
        raise OutlineError(f"{name} has a nonpositive part: {comp}")
    if sum(comp) != n:
        raise OutlineError(f"{name} sums to {sum(comp)}, expected {n}")


@dataclass(frozen=True)
class OutlineLatinSquare:
    """An s x t array of symbol multisets with row/column/symbol compositions.

    Cell multisets are tuples, kept in the order given.  Every outline the
    library builds stores them sorted, and expansion relies on that only for
    its output: it reads each cell in stored order, so an outline with
    sorted cells splits into sorted slices and always expands to the same
    square, while unsorted cells still expand to a valid one, possibly a
    different one.  Validity against the three counting conditions is
    checked by validate_outline, not on construction.
    """

    row_comp: Composition
    col_comp: Composition
    sym_comp: Composition
    cells: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        n = sum(self.row_comp)
        _check_composition(self.row_comp, n, "row composition")
        _check_composition(self.col_comp, n, "column composition")
        _check_composition(self.sym_comp, n, "symbol composition")
        if len(self.cells) != len(self.row_comp):
            raise OutlineError("cell array height does not match the row composition")
        for row in self.cells:
            if len(row) != len(self.col_comp):
                raise OutlineError("cell array width does not match the column composition")

    @property
    def n(self) -> int:
        return sum(self.row_comp)


def _block_index(comp: Composition) -> list[int]:
    """Map 0-based fine index -> 0-based block index for a composition."""
    out = []
    for b, size in enumerate(comp):
        out.extend([b] * size)
    return out


def amalgamate(square: PartialGrid, row_comp: Composition, col_comp: Composition,
               sym_comp: Composition) -> OutlineLatinSquare:
    """Merge row, column and symbol blocks of a full latin square."""
    n = square.n
    if square.rows != n or square.cols != n or not square.is_fully_filled():
        raise ValueError("amalgamation needs a fully filled n x n square")
    report = validate_partial(
        PartialGrid(square.geometry, n, n, square.cells, "latin", None))
    if not report.ok:
        raise ValueError("amalgamation input is not a latin square")
    for comp, name in ((row_comp, "row"), (col_comp, "column"), (sym_comp, "symbol")):
        _check_composition(tuple(comp), n, f"{name} composition")

    row_of = _block_index(tuple(row_comp))
    col_of = _block_index(tuple(col_comp))
    sym_of = _block_index(tuple(sym_comp))
    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        for j in range(n):
            key = (row_of[i], col_of[j])
            buckets.setdefault(key, []).append(sym_of[square.cells[i][j] - 1] + 1)
    cells = tuple(
        tuple(tuple(sorted(buckets.get((bi, bj), ()))) for bj in range(len(col_comp)))
        for bi in range(len(row_comp))
    )
    return OutlineLatinSquare(tuple(row_comp), tuple(col_comp), tuple(sym_comp), cells)


def validate_outline(o: OutlineLatinSquare) -> ValidationReport:
    """Check the three counting conditions of an outline square.

    (i) row i holds symbol k exactly p_i * r_k times, (ii) column j holds it
    q_j * r_k times, (iii) cell (i, j) holds p_i * q_j symbols in total.
    The report lists row violations, then column violations, then each
    cell's size and range violations; symbols outside 1..u are not counted.
    One pass counts into plain lists: row[k] for the current row and
    cols[j][k] for column j, index 0 unused.
    """
    u = len(o.sym_comp)
    sym = (0,) + o.sym_comp
    violations: list[Violation] = []
    cell_violations: list[Violation] = []
    cols = [[0] * (u + 1) for _ in o.col_comp]
    for i, (p_i, line) in enumerate(zip(o.row_comp, o.cells)):
        row = [0] * (u + 1)
        for j, (q_j, cell, col) in enumerate(zip(o.col_comp, line, cols)):
            if len(cell) != p_i * q_j:
                cell_violations.append(
                    Violation("cell", ((i + 1, j + 1), (len(cell), p_i * q_j)), None))
            if cell and (min(cell) < 1 or max(cell) > u):
                cell_violations.append(Violation("range", ((i + 1, j + 1),), None))
                cell = [k for k in cell if 1 <= k <= u]
            for k in cell:
                row[k] += 1
                col[k] += 1
        expected = [p_i * r_k for r_k in sym]
        if row != expected:
            violations.extend(Violation("row", ((i + 1, row[k]),), k)
                              for k in range(1, u + 1) if row[k] != expected[k])
    for j, (q_j, col) in enumerate(zip(o.col_comp, cols)):
        expected = [q_j * r_k for r_k in sym]
        if col != expected:
            violations.extend(Violation("column", ((j + 1, col[k]),), k)
                              for k in range(1, u + 1) if col[k] != expected[k])
    violations.extend(cell_violations)
    return ValidationReport(not violations, tuple(violations))


def _lines(o: OutlineLatinSquare, axis: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The outline's rows, or its columns, each as a tuple of cells."""
    return o.cells if axis == "row" else tuple(zip(*o.cells))


def _block_colors(block: tuple[tuple[int, ...], ...], m: int,
                  symbols: int) -> list[list[int]]:
    """The m colour classes of one merged part of size m, as the symbol of
    each colour at each copy of m cell instances.

    One equitable m-edge-colouring of the graph joining the cells
    (cross-axis blocks) to the symbols 1..symbols, one edge per symbol
    instance, as the kernel's colour classes (bipartite._color_cells).
    Class c - 1 is unit line c of the part: a cell of m*t instances whose
    copies are u..u+t-1 gives it the slice [u:u + t] of that class.  When
    every degree in that graph is a multiple of m, each class takes an
    exact 1/m share at every vertex and the counting conditions hold for
    every line.  Degrees of at most m are allowed too: each class takes such
    a vertex at most once, so a symbol of degree at most m lands at most
    once in any line, and a cell of degree m gets exactly one symbol of
    each colour.

    The kernel takes the cells as they are, so symbol k is right vertex k
    and no graph object is built; the first fit of the i-th copy of m cell
    instances starts at colour (i mod m) + 1.  A symbol of degree above m
    makes the kernel split the symbols into copies of m instances and
    colour again; no block of complete() or expand_outline has one, only
    split_front's with non-unit symbol parts.  Symbols are not range-checked:
    every caller passes cells of symbols in 1..symbols.
    """
    return _color_cells(block, m, symbols + 1)


def _block_slices(block: tuple[tuple[int, ...], ...], m: int,
                  symbols: int) -> list[tuple[tuple[int, ...], ...]]:
    """Split one merged part of size m into m unit slices, in colour order.

    Slice c holds colour class c of _block_colors, cut at the block's cell
    copies, in the block's cell order, so sorted cells give sorted slices.
    split_front is its only caller in the library; the tests split through
    it as their reference for distribution and _write_square.
    """
    ends = list(accumulate((-(-len(cell) // m) for cell in block), initial=0))
    return [tuple(tuple(k for k in cls[u0:u1] if k >= 0) for u0, u1 in zip(ends, ends[1:]))
            for cls in _block_colors(block, m, symbols)]


def split_front(o: OutlineLatinSquare, axis: str) -> OutlineLatinSquare:
    """Split the first merged part on the given axis into a unit slice and the rest.

    The unit slice is colour class 1 of the part's equitable m-coloring,
    whose first fits start at staggered colours (see _block_colors and
    _block_slices); the other m - 1 slices stay merged.  Both come
    out with sorted cells, whatever the order of the outline's cells.
    """
    if axis not in ("row", "column"):
        raise ValueError(f"axis must be 'row' or 'column', got {axis!r}")
    comp = o.row_comp if axis == "row" else o.col_comp
    target = next((idx for idx, part in enumerate(comp) if part >= 2), None)
    if target is None:
        raise OutlineError(f"no composite part on the {axis} axis")
    m = comp[target]
    lines = list(_lines(o, axis))
    unit, *rest = _block_slices(lines[target], m, len(o.sym_comp))
    unit = tuple(tuple(sorted(cell)) for cell in unit)
    merged = tuple(tuple(sorted(chain(*cells))) for cells in zip(*rest))
    lines[target:target + 1] = [unit, merged]
    comp = comp[:target] + (1, m - 1) + comp[target + 1:]
    if axis == "row":
        return OutlineLatinSquare(comp, o.col_comp, o.sym_comp, tuple(lines))
    return OutlineLatinSquare(o.row_comp, comp, o.sym_comp, tuple(zip(*lines)))


def _write_square(row_comp: Composition, col_comp: Composition, cells, n: int) -> tuple:
    """The n x n square of an outline layout with unit symbol parts.

    One _block_colors call splits each merged row part of size m: colour
    class c is unit row c, its entry at a unit column's cell (one copy) goes
    straight into the square, and its slice at a column part's cell of
    width q (q copies) is that row's new cell of the part.  A unit row part
    needs no colouring and no copy: its unit cells are written straight into
    its row, and its column-part cells are handed on as they are.  Each
    column part of width q >= 2 is then split the same way: each of its
    cells is one copy, whose colours are the row's q columns, so the
    classes' transpose gives each row's slice.  Cells are read in stored
    order, as splitting off unit slices in turn reads them.  A column
    part's cell of the wrong size raises RuntimeError; an unwritten cell
    stays 0.
    """
    starts = tuple(accumulate(col_comp, initial=0))
    parts: list[list] = [[] for _ in col_comp]  # unit-row cells; none for a unit column
    square: list[list[int]] = []
    for m, line in zip(row_comp, cells):
        if m == 1:
            row = [0] * n
            for start, width, cell, part in zip(starts, col_comp, line, parts):
                if width == 1:
                    for k in cell:
                        row[start] = k
                else:
                    part.append(cell)
            square.append(row)
            continue
        classes = _block_colors(line, m, n)
        rows = [[0] * n for _ in range(m)]
        u = 0
        for start, width, cell, part in zip(starts, col_comp, line, parts):
            end = u + -(-len(cell) // m)
            if width == 1:
                if end > u:
                    for row, cls in zip(rows, classes):
                        row[start] = cls[u]
            else:
                part += [cls[u:end] for cls in classes]
            u = end
        square += rows
    for start, width, part in zip(starts, col_comp, parts):
        if width == 1:
            continue
        for row, cell, copy in zip(square, part, zip(*_block_colors(part, width, n))):
            if len(cell) != width:
                raise RuntimeError("a cell holds the wrong number of symbols; construction bug")
            row[start:start + width] = copy
    return tuple(map(tuple, square))


def expand_outline(o: OutlineLatinSquare) -> PartialGrid:
    """Recover a full latin square whose amalgamation is the given outline.

    Requires a unit symbol composition and a valid outline, then writes the
    square as complete() does (_write_square).  A cell of the wrong size, or
    a square that is not latin, is a construction bug and raises
    RuntimeError.  The result is a latin-flavor grid with 1 x n boxes;
    callers that need a box structure re-wrap its cells.
    """
    if any(part != 1 for part in o.sym_comp):
        raise OutlineError("expansion requires a unit symbol composition")
    report = validate_outline(o)
    if not report.ok:
        raise OutlineError(f"outline is invalid: {report.violations[:3]}")
    n = o.n
    square = PartialGrid(SudokuGeometry(1, n), n, n,
                         _write_square(o.row_comp, o.col_comp, o.cells, n), "latin", None)
    if not validate_partial(square).ok:
        raise RuntimeError("expanded square is not latin; construction bug")
    return square
