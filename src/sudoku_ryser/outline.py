"""Amalgamation of latin squares into outline squares and its constructive inverse.

An outline square merges blocks of rows, columns and symbols of a latin
square into an array of symbol multisets.  Expansion reverses this one
axis at a time: one equitable edge-coloring of each merged block divides
its content into unit slices, one per color; the counting conditions hold
for every slice, so the fully split array is again a latin square.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from .bipartite import BipartiteMultigraph, equitable_edge_coloring
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

    Cell multisets are stored as sorted tuples.  Validity against the three
    counting conditions is checked by validate_outline, not on construction;
    since the outline cannot change, validate_outline keeps its report in
    _report and returns that on later calls.
    """

    row_comp: Composition
    col_comp: Composition
    sym_comp: Composition
    cells: tuple[tuple[tuple[int, ...], ...], ...]
    _report: Optional[ValidationReport] = field(default=None, init=False, repr=False,
                                                compare=False)

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
    cols[j][k] for column j, index 0 unused.  The report is computed once
    per outline and kept on it.
    """
    if o._report is not None:
        return o._report
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
    report = ValidationReport(not violations, tuple(violations))
    object.__setattr__(o, "_report", report)
    return report


def _lines(o: OutlineLatinSquare, axis: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The outline's rows, or its columns, each as a tuple of cells."""
    return o.cells if axis == "row" else tuple(zip(*o.cells))


def _from_lines(o: OutlineLatinSquare, axis: str, comp: Composition,
                lines: list) -> OutlineLatinSquare:
    """The outline with the given lines and composition on one axis."""
    if axis == "row":
        return OutlineLatinSquare(comp, o.col_comp, o.sym_comp, tuple(lines))
    return OutlineLatinSquare(o.row_comp, comp, o.sym_comp, tuple(zip(*lines)))


def _block_slices(block: tuple[tuple[int, ...], ...], m: int,
                  symbols: int) -> list[tuple[tuple[int, ...], ...]]:
    """Split one merged part of size m into m unit slices, in color order.

    The slices come from one equitable m-edge-coloring of the graph joining
    the cross-axis blocks to the symbols, one edge per symbol instance in
    the block; color class c becomes slice c.  Every degree in that graph
    is a multiple of m, so each class takes an exact 1/m share at every
    vertex and the counting conditions hold for every slice.
    """
    edges = [(b, k - 1) for b, cell in enumerate(block) for k in cell]
    graph = BipartiteMultigraph(tuple(range(len(block))), tuple(range(1, symbols + 1)),
                                tuple(edges))
    coloring = equitable_edge_coloring(graph, m)
    slices: list[list[list[int]]] = [[[] for _ in block] for _ in range(m)]
    for (b, k0), c in zip(edges, coloring.color_of):
        slices[c - 1][b].append(k0 + 1)
    return [tuple(tuple(sorted(cell)) for cell in slice_) for slice_ in slices]


def split_front(o: OutlineLatinSquare, axis: str) -> OutlineLatinSquare:
    """Split the first merged part on the given axis into a unit slice and the rest.

    The unit slice is the first slice of the part's equitable m-coloring
    (see _block_slices); the other m - 1 slices stay merged.
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
    merged = tuple(tuple(sorted(chain(*cells))) for cells in zip(*rest))
    lines[target:target + 1] = [unit, merged]
    return _from_lines(o, axis, comp[:target] + (1, m - 1) + comp[target + 1:], lines)


def parse_outline(text: str) -> OutlineLatinSquare:
    """Parse the outline text format (testing convenience).

    Line 1 is ``outline v1``; lines 2-4 give the three compositions as
    ``S: a b c``, ``T: ...``, ``U: ...``; then one line per outline row with
    cells separated by ``|`` and symbols within a cell separated by ``,``.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "outline v1":
        raise OutlineError("missing 'outline v1' header")
    if len(lines) < 4:
        raise OutlineError("missing composition lines")
    comps = []
    for expect, ln in zip(("S:", "T:", "U:"), lines[1:4]):
        if not ln.startswith(expect):
            raise OutlineError(f"expected line starting with {expect!r}, got {ln!r}")
        try:
            comps.append(tuple(int(tok) for tok in ln[2:].split()))
        except ValueError as exc:
            raise OutlineError(f"bad composition line {ln!r}") from exc
    row_comp, col_comp, sym_comp = comps
    body = lines[4:]
    if len(body) != len(row_comp):
        raise OutlineError(f"expected {len(row_comp)} cell rows, got {len(body)}")
    cells = []
    for ln in body:
        parts = [chunk.strip() for chunk in ln.split("|")]
        if len(parts) != len(col_comp):
            raise OutlineError(f"expected {len(col_comp)} cells per row in {ln!r}")
        row = []
        for chunk in parts:
            if not chunk:
                row.append(())
                continue
            try:
                row.append(tuple(sorted(int(tok) for tok in chunk.split(","))))
            except ValueError as exc:
                raise OutlineError(f"bad cell {chunk!r}") from exc
        cells.append(tuple(row))
    return OutlineLatinSquare(row_comp, col_comp, sym_comp, tuple(cells))


def serialize_outline(o: OutlineLatinSquare) -> str:
    """Canonical text form for parse_outline."""
    out = ["outline v1",
           "S: " + " ".join(str(part) for part in o.row_comp),
           "T: " + " ".join(str(part) for part in o.col_comp),
           "U: " + " ".join(str(part) for part in o.sym_comp)]
    for row in o.cells:
        out.append(" | ".join(",".join(str(k) for k in cell) for cell in row))
    return "\n".join(out) + "\n"


def expand_outline(o: OutlineLatinSquare) -> PartialGrid:
    """Recover a full latin square whose amalgamation is the given outline.

    Requires a unit symbol composition.  Every merged row block is split
    into unit rows with one equitable coloring (see _block_slices), then
    every merged column block; each split preserves validity, so the result
    is read off directly from the all-unit array.  It is a latin-flavor grid
    with 1 x n boxes; callers that need a box structure re-wrap its cells.
    """
    if any(part != 1 for part in o.sym_comp):
        raise OutlineError("expansion requires a unit symbol composition")
    report = validate_outline(o)
    if not report.ok:
        raise OutlineError(f"outline is invalid: {report.violations[:3]}")

    n = o.n
    current = o
    for axis in ("row", "column"):
        comp = current.row_comp if axis == "row" else current.col_comp
        lines: list = []
        for m, line in zip(comp, _lines(current, axis)):
            lines.extend(_block_slices(line, m, n) if m >= 2 else (line,))
        current = _from_lines(current, axis, (1,) * n, lines)

    cells = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = current.cells[i][j]
            if len(cell) != 1:
                raise OutlineError("expansion did not reach singleton cells")
            row.append(cell[0])
        cells.append(tuple(row))
    return PartialGrid(SudokuGeometry(1, n), n, n, tuple(cells), "latin", None)
