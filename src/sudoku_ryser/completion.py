"""Completion of fully filled Sudoku rectangles to full Sudoku squares.

The pipeline fills the partially covered big cells first: in each full band
(stack) every row (column) takes its share of the partially covered big
column (row) from one capacitated matching, in which a row takes b symbols
it lacks and a symbol serves one row per band, and the two directions of the
doubly covered corner big cell are solved jointly.  It then distributes each
remaining row's and column's missing symbols over the empty big columns and
rows, and writes the square straight from the outline square's cells
(_layout, then outline._write_square, expand_outline's writer).
Distribution colours each band once, as the writer colours a merged block
(outline._block_colors): the band's rows, with the leftover block as one
more cell, get one colour per empty big column, and each symbol goes by
its colour straight into its row's fill for that column.
Every stage that can fail on honest input returns a checkable Obstruction;
when all stages pass, the layout is a valid outline and the written square
is valid, so the staged pipeline doubles as the completability decision.

Latin rectangles (p = 1 or q = 1) skip the pipeline and the outline and
follow Ryser's proof (_ryser_complete): the rows are extended to full
width, then the missing rows are added, each step one colouring
(outline._block_colors) whose colour classes are the new columns or rows,
so each empty cell is coloured once and its symbol written straight in.
Ryser's bound N(k) >= r + s - n enters only there, as what keeps each
symbol's degree in the first step within the colour count.

Axis convention: every construction that has a row and a column version is
written once, for rows.  Transposing a (p,q) r x s rectangle gives a (q,p)
s x r rectangle whose rows, bands and partially covered big column are the
original's columns, stacks and partially covered big row, so the column
side (bottom graphs, column coverage, column distribution) is the row side
applied to the transpose.  Only the doubly covered corner big cell is
solved jointly, on the rectangle itself.  One complete() builds each axis
once: plan_medium_cells builds both, and its plan hands them on to
distribute_free.  _layout needs no axis: it reads each outline cell from
its one source.  verify_obstruction builds its own, since it is
the independent recheck.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from .bipartite import (
    BipartiteMultigraph,
    HallViolator,
    _violator_from_matching,
    capacitated_matching,
    equitable_edge_coloring,  # unused here; the benchmark's tracer rebinds this name
    extend_matching,
    saturating_matching,
    verify_violator,
)
from .grid import (
    PartialGrid,
    SudokuGeometry,
    anchors,
    extends,
    validate_partial,
)
from .hall import ryser_counts
from .outline import (
    OutlineLatinSquare,
    _block_colors,
    _write_square,
    expand_outline,  # unused here; the benchmark's tracer rebinds this name
    validate_outline,
)


@dataclass
class MediumCellPlan:
    """Planned symbols for the horizontal and vertical medium cells.

    horizontal maps (big row index, small row offset) to the symbols placed
    in that row's slice of the partially covered big column; vertical is the
    column mirror for the partially covered big row.  A plan made by
    plan_medium_cells also keeps the grid's row and column axes in
    _axis_pair, so distribute_free on that same grid object reuses them
    instead of building them again.
    """

    horizontal: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    vertical: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    _axis_pair: Optional[tuple[_Axis, _Axis]] = field(default=None, init=False, repr=False,
                                                      compare=False)


@dataclass
class Obstruction:
    """Why a pipeline stage failed, with enough context to recheck it."""

    stage: str
    detail: object
    kind: str = ""
    index: Optional[int] = None
    symbol: Optional[int] = None


@dataclass
class Verdict:
    completable: bool
    certificate: Union[PartialGrid, Obstruction]


@dataclass
class Distribution:
    """Free-symbol placements beyond the medium cells.

    row_fills[(row, J)] holds the symbols row gets in empty big column J;
    block_row_fills[J] is the multiset assigned to the merged leftover rows
    there.  col_fills and block_col_fills mirror this vertically.
    """

    row_fills: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    block_row_fills: dict[int, tuple[int, ...]] = field(default_factory=dict)
    col_fills: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    block_col_fills: dict[int, tuple[int, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class _Shape:
    """Derived geometry of one rectangle instance."""

    p: int
    q: int
    n: int
    r: int
    s: int
    r_star: int
    s_star: int
    p_divides: bool
    q_divides: bool
    a: int  # leftover row block height, p - (r - r*)
    b: int  # leftover column block width, q - (s - s*)
    full_bands: int  # r* / p
    empty_big_cols: tuple[int, ...]
    empty_big_rows: tuple[int, ...]


def _shape(grid: PartialGrid) -> _Shape:
    geom = grid.geometry
    p, q, n = geom.p, geom.q, geom.n
    r, s = grid.rows, grid.cols
    anc = anchors(r, s, geom)
    # Big lines the rectangle does not reach: past the last full or partial one.
    first_empty_col = (s + q - 1) // q + 1
    first_empty_row = (r + p - 1) // p + 1
    return _Shape(
        p=p, q=q, n=n, r=r, s=s, r_star=anc.r_star, s_star=anc.s_star,
        p_divides=r % p == 0, q_divides=s % q == 0,
        a=p - (r - anc.r_star), b=q - (s - anc.s_star),
        full_bands=anc.r_star // p,
        empty_big_cols=tuple(range(first_empty_col, p + 1)),
        empty_big_rows=tuple(range(first_empty_row, q + 1)),
    )


@dataclass(frozen=True)
class _Axis:
    """The rectangle along one axis, with the names callers see for it.

    For the row axis grid is the rectangle itself.  For the column axis it
    is the transpose, so its rows, bands and partially covered big column
    are the rectangle's columns, stacks and partially covered big row.
    """

    grid: PartialGrid
    shape: _Shape
    lines: tuple[frozenset[int], ...]  # symbols of each row of grid, 1-based (0 is empty)
    corner: frozenset[int]  # preassigned symbols of the doubly covered corner big cell
    line: str  # left label of replica and coverage graphs
    cross: str  # right label of the empty big lines in coverage graphs
    stage: str  # Obstruction stage of this axis' matchings
    band_kind: str  # Obstruction kind when a side (bottom) graph does not saturate
    coverage_kind: str  # Obstruction kind when a coverage graph does not saturate


_ROW_NAMES = ("row", "bigcol", "side-matching", "side-alpha", "row-coverage")
_COL_NAMES = ("col", "bigrow", "bottom-matching", "bottom-beta", "col-coverage")


def _transpose(grid: PartialGrid) -> PartialGrid:
    """The (q,p) cols x rows grid whose cell (j, i) is grid's cell (i, j).

    Only the cells are carried over; the pipeline never reads a partition.
    """
    geom = grid.geometry
    cells = tuple(tuple(row[j] for row in grid.cells) for j in range(grid.cols))
    return PartialGrid(SudokuGeometry(geom.q, geom.p), grid.cols, grid.rows, cells, grid.flavor)


def _axis(grid: PartialGrid, names: tuple[str, ...]) -> _Axis:
    """The axis with each row's symbol set built once, for every graph of it."""
    shape = _shape(grid)
    lines = (frozenset(),) + tuple(frozenset(grid.row_symbols(i))
                                   for i in range(1, grid.rows + 1))
    corner = frozenset(grid.big_cell_symbols(shape.full_bands + 1, shape.s_star // shape.q + 1))
    return _Axis(grid, shape, lines, corner, *names)


def _axes(grid: PartialGrid) -> tuple[_Axis, _Axis]:
    """Row axis, then column axis: the order in which every stage checks them."""
    return _axis(grid, _ROW_NAMES), _axis(_transpose(grid), _COL_NAMES)


def _band_rows(shape: _Shape, alpha: int) -> range:
    """Rows of band alpha that lie inside the rectangle."""
    return range((alpha - 1) * shape.p + 1, min(alpha * shape.p, shape.r) + 1)


def _band_allowed(ax: _Axis, alpha: int, strengthen: bool) -> list[list[int]]:
    """The 0-based symbols each row of band alpha may take in the partial big
    column, ascending: those absent from the row and, with the strengthened
    rule, from the band's partially covered big cell."""
    shape = ax.shape
    if shape.q_divides:
        raise ValueError(f"{ax.line} replica graphs need a partially covered big line")
    corner = shape.full_bands + 1
    if not (1 <= alpha <= shape.full_bands or (alpha == corner and not shape.p_divides)):
        raise ValueError(f"{ax.line} group index {alpha} out of range")
    cell_content = (ax.grid.big_cell_symbols(alpha, shape.s_star // shape.q + 1)
                    if strengthen else set())
    allowed = []
    for i in _band_rows(shape, alpha):
        present = ax.lines[i] | cell_content
        allowed.append([k - 1 for k in range(1, shape.n + 1) if k not in present])
    return allowed


def _side_graph(ax: _Axis, alpha: int, strengthen: bool) -> BipartiteMultigraph:
    """Band alpha's rows, b copies each, against the symbols they may take."""
    b = ax.shape.b
    allowed = _band_allowed(ax, alpha, strengthen)
    left = tuple((ax.line, i, c) for i in _band_rows(ax.shape, alpha) for c in range(1, b + 1))
    edges = tuple((pos * b + c, w) for pos, hood in enumerate(allowed)
                  for c in range(b) for w in hood)
    return BipartiteMultigraph(left, tuple(range(1, ax.shape.n + 1)), edges)


def _match_band(ax: _Axis, alpha: int,
                strengthen: bool) -> Union[dict[int, list[int]], HallViolator]:
    """Band alpha's share of the partial big column: b symbols per row, each
    symbol at most once in the band, keyed by row.

    The capacitated matcher works on one vertex per row; its violator is
    stated on _side_graph, whose replica pos * b + c is copy c of the
    band's row at position pos.
    """
    res = capacitated_matching(_band_allowed(ax, alpha, strengthen), ax.shape.b, ax.shape.n)
    if isinstance(res, HallViolator):
        return res
    return {i: [w + 1 for w in got] for i, got in zip(_band_rows(ax.shape, alpha), res)}


def side_graph(grid: PartialGrid, alpha: int, *, strengthen: bool = True) -> BipartiteMultigraph:
    """Replicated row-versus-symbol graph for one band of the partial big column.

    Each row of the band appears q - (s - s*) times; a replica is joined to
    symbol j when j is absent from that row and (with the strengthened rule)
    absent from the band's partially covered big cell.
    """
    return _side_graph(_axis(grid, _ROW_NAMES), alpha, strengthen)


def bottom_graph(grid: PartialGrid, beta: int, *, strengthen: bool = True) -> BipartiteMultigraph:
    """Column mirror of side_graph for one stack of the partial big row.

    It is side_graph of the transpose, with ("col", j, c) replica labels.
    """
    return _side_graph(_axis(_transpose(grid), _COL_NAMES), beta, strengthen)


def _coverage_sides(ax: _Axis, symbol: int) -> tuple[list[int], int]:
    """The two sides of the symbol's coverage graph: the leftover rows that
    miss it, and how many slots can take it (the empty big columns, plus the
    corner big cell when it exists without the symbol).  Every slot is open
    to every row, so these sizes alone decide whether the graph saturates."""
    shape = ax.shape
    rows = [i for i in range(shape.r_star + 1, shape.r + 1) if symbol not in ax.lines[i]]
    corner_ok = not shape.q_divides and symbol not in ax.corner
    return rows, len(shape.empty_big_cols) + corner_ok


def _coverage_graph(ax: _Axis, symbol: int) -> BipartiteMultigraph:
    """Placement options for one symbol across the leftover rows.

    Left vertices are the rows below the box-aligned part that miss the
    symbol; right vertices are the empty big columns plus, when the corner
    big cell exists and does not already hold the symbol, one corner slot.
    A saturating matching is necessary for completability because the
    symbol must appear in each such row exactly once, at most once per big
    cell of the leftover band.
    """
    rows, slots = _coverage_sides(ax, symbol)
    right: list = [(ax.cross, J) for J in ax.shape.empty_big_cols]
    if slots > len(right):
        right.append(("corner",))
    left = tuple((ax.line, i) for i in rows)
    edges = [(li, ri) for li in range(len(left)) for ri in range(len(right))]
    return BipartiteMultigraph(left, tuple(right), tuple(edges))


def _is_must(ax: _Axis, rows: list[int], slots: int) -> bool:
    """The symbol's leftover rows need every empty big column and the corner.

    rows and slots are the symbol's _coverage_sides.
    """
    return len(rows) == slots > len(ax.shape.empty_big_cols)


def _musts(axes: tuple[_Axis, _Axis]) -> list[list[int]]:
    """Per axis, the symbols the corner big cell must take on that axis' side."""
    return [[k for k in range(1, ax.shape.n + 1) if _is_must(ax, *_coverage_sides(ax, k))]
            for ax in axes]


def _record(share: dict, shape: _Shape, alpha: int, fills: dict[int, list[int]]) -> None:
    """Store band alpha's planned symbols under (alpha, row offset in the band)."""
    for i, syms in fills.items():
        share[(alpha, i - (alpha - 1) * shape.p)] = tuple(syms)


def plan_medium_cells(grid: PartialGrid) -> Union[MediumCellPlan, Obstruction]:
    """Fill every partially covered big cell, or certify that none can work.

    Each full band (stack) is filled on its own by the capacitated matcher:
    every row (column) of it takes b (a) symbols it lacks, each symbol at
    most once per band.  The doubly covered corner big cell takes both a
    horizontal and a vertical share; those are found together as one
    replica matching so a symbol is never claimed twice, and symbols that
    every placement count forces into the corner are matched first.  The
    placement counts come from the sizes of each symbol's coverage graph,
    which is built only to certify a failure.  Each row's and column's
    symbol set is built once, with its axis, and read by every graph; the
    plan hands both axes on to distribute_free.
    """
    axes = _axes(grid)
    shape = axes[0].shape
    if shape.p == 1 or shape.q == 1:
        raise ValueError("medium-cell planning needs p >= 2 and q >= 2")
    plan = MediumCellPlan()
    plan._axis_pair = axes
    shares = (plan.horizontal, plan.vertical)

    for ax, share in zip(axes, shares):
        if ax.shape.q_divides:
            continue
        for alpha in range(1, ax.shape.full_bands + 1):
            res = _match_band(ax, alpha, True)
            if isinstance(res, HallViolator):
                return Obstruction(ax.stage, res, kind=ax.band_kind, index=alpha)
            _record(share, ax.shape, alpha, res)

    # Per-symbol placement counts across the leftover rows and columns.
    musts: list[list[int]] = []
    for ax in axes:
        must: list[int] = []
        if not ax.shape.p_divides:
            for k in range(1, shape.n + 1):
                rows, slots = _coverage_sides(ax, k)
                if len(rows) > slots:
                    res = saturating_matching(_coverage_graph(ax, k))
                    return Obstruction(ax.stage, res, kind=ax.coverage_kind, symbol=k)
                if _is_must(ax, rows, slots):
                    must.append(k)
        musts.append(must)

    if not shape.p_divides and not shape.q_divides:
        must_h, must_v = musts
        clash = sorted(set(must_h) & set(must_v))
        if clash:
            return Obstruction("corner-conflict", clash[0], kind="corner-double-must",
                               symbol=clash[0])
        corner = _solve_corner(axes, must_h, must_v)
        if isinstance(corner, Obstruction):
            return corner
        for ax, share, fills in zip(axes, shares, corner):
            _record(share, ax.shape, ax.shape.full_bands + 1, fills)

    return plan


def _corner_slot_graph(axes: tuple[_Axis, _Axis], must_h: Iterable[int] = (),
                       must_v: Iterable[int] = ()) -> BipartiteMultigraph:
    """Corner big cell slots (row and column replicas) versus symbols.

    A symbol whose placement counts force it into the row (column) share
    keeps only its row-slot (column-slot) edges: any completion places it
    on that side, so dropping the other side never loses a solution, and it
    stops augmenting paths from rerouting the symbol across sides.  Each
    leftover row (column) of the rectangle has b (a) slots; on the
    transpose a is b, so both sides are the rows of their axis.
    """
    left: list = []
    edges: list = []
    for tag, ax, banned in (("h", axes[0], frozenset(must_v)), ("v", axes[1], frozenset(must_h))):
        shape = ax.shape
        for i in range(shape.r_star + 1, shape.r + 1):
            present = ax.lines[i] | ax.corner | banned
            allowed = [k - 1 for k in range(1, shape.n + 1) if k not in present]
            for c in range(1, shape.b + 1):
                edges.extend((len(left), k0) for k0 in allowed)
                left.append((tag, i, c))
    return BipartiteMultigraph(tuple(left), tuple(range(1, axes[0].shape.n + 1)), tuple(edges))


def _corner_must_graph(axes: tuple[_Axis, _Axis], must_h: list[int],
                       must_v: list[int]) -> BipartiteMultigraph:
    """Forced corner symbols versus the slots that can host them."""
    slots = _corner_slot_graph(axes, must_h, must_v)
    lines = {"h": axes[0].lines, "v": axes[1].lines}
    pre = axes[0].corner
    left = tuple([("must-h", k) for k in sorted(must_h)]
                 + [("must-v", k) for k in sorted(must_v)])
    edges = []
    for li, (tag, k) in enumerate(left):
        want = "h" if tag == "must-h" else "v"
        for si, (side, index, _) in enumerate(slots.left_labels):
            if side == want and k not in lines[side][index] and k not in pre:
                edges.append((li, si))
    return BipartiteMultigraph(left, slots.left_labels, tuple(edges))


def _solve_corner(axes: tuple[_Axis, _Axis], must_h: list[int], must_v: list[int]):
    """One matching for both corner directions; returns (h_fills, v_fills)."""
    slot_graph = _corner_slot_graph(axes, must_h, must_v)

    seed: list[tuple[int, int]] = []
    if must_h or must_v:
        must_graph = _corner_must_graph(axes, must_h, must_v)
        res = saturating_matching(must_graph)
        if isinstance(res, HallViolator):
            return Obstruction("corner-conflict", res, kind="corner-must")
        for mi, si in res.pairs:
            _, k = must_graph.left_labels[mi]
            seed.append((si, k - 1))

    full = extend_matching(slot_graph, seed)
    if len(full.pairs) < slot_graph.left_count:
        violator = _violator_from_matching(slot_graph, full)
        return Obstruction("corner-conflict", violator, kind="corner-flow")

    h_fills: dict[int, list[int]] = {}
    v_fills: dict[int, list[int]] = {}
    for si, ri in full.pairs:
        tag, index, _ = slot_graph.left_labels[si]
        (h_fills if tag == "h" else v_fills).setdefault(index, []).append(ri + 1)
    return ({i: sorted(v) for i, v in h_fills.items()},
            {j: sorted(v) for j, v in v_fills.items()})


def _distribute_rows(ax: _Axis, share: dict) -> tuple[dict, dict]:
    """Row fills and leftover-block fills of one axis, as ascending tuples.

    Each band is coloured once (outline._block_colors), one colour per empty
    big column: its cells are the rows' missing symbols once the plan's share
    is placed and, for the leftover band, the leftover block, which holds
    symbol k T - (rows missing k) times for T empty big columns.  Colour c
    fills the c-th empty big column.
    """
    shape = ax.shape
    n, targets = shape.n, shape.empty_big_cols
    contents = [set(line) for line in ax.lines]
    for (alpha, x), syms in share.items():
        contents[(alpha - 1) * shape.p + x].update(syms)
    row_fills: dict[tuple[int, int], tuple[int, ...]] = {}
    block_fills: dict[int, tuple[int, ...]] = {}
    for alpha in range(1, shape.full_bands + (not shape.p_divides) + 1):
        rows = _band_rows(shape, alpha)
        cells = [tuple(k for k in range(1, n + 1) if k not in contents[i]) for i in rows]
        leftover = alpha > shape.full_bands
        if leftover:
            block: list[int] = []
            for k in range(1, n + 1):
                m_hat = len(targets) - sum(1 for i in rows if k not in contents[i])
                if m_hat < 0:
                    raise RuntimeError(f"symbol {k} misses more {ax.line}s than there are "
                                       f"empty big lines across them")
                block += [k] * m_hat
            cells.append(tuple(block))
        if not targets:
            if any(len(contents[i]) != n for i in rows):
                raise RuntimeError("no room left but symbols remain unplaced")
            continue
        colors = iter(_block_colors(tuple(cells), len(targets), n))
        split = [[[] for _ in targets] for _ in cells]  # per cell, its symbols by colour
        for cell, parts in zip(cells, split):
            for k, c in zip(cell, colors):
                parts[c - 1].append(k)
        for c, J in enumerate(targets):
            for i, parts in zip(rows, split):
                if len(parts[c]) != shape.q:
                    raise RuntimeError(f"member {i} got {len(parts[c])} symbols for line {J}")
                row_fills[(i, J)] = tuple(parts[c])
            if leftover:
                block_fills[J] = tuple(split[-1][c])
    return row_fills, block_fills


def distribute_free(grid: PartialGrid, plan: MediumCellPlan) -> Distribution:
    """Assign every remaining missing symbol to an empty big column and row.

    Failures here indicate a bug: plan_medium_cells has already certified
    the per-symbol placement counts that make these colorings work out.
    It reuses the axes plan_medium_cells built, if it built them for this
    grid object.
    """
    pair = plan._axis_pair
    row, col = pair if pair is not None and pair[0].grid is grid else _axes(grid)
    row_fills, block_row_fills = _distribute_rows(row, plan.horizontal)
    col_fills, block_col_fills = _distribute_rows(col, plan.vertical)
    return Distribution(row_fills=row_fills, block_row_fills=block_row_fills,
                        col_fills=col_fills, block_col_fills=block_col_fills)


def _layout(grid: PartialGrid, plan: MediumCellPlan, dist: Distribution) -> tuple:
    """assemble_outline's row composition, column composition and cells."""
    shape = _shape(grid)
    p, q, n, r, s = shape.p, shape.q, shape.n, shape.r, shape.s
    big_cols = shape.empty_big_cols
    col_block = not shape.q_divides
    cells = []
    for i, given in enumerate(grid.cells, 1):
        row = [() if v is None else (v,) for v in given]
        if col_block:
            row.append(plan.horizontal.get(((i - 1) // p + 1, (i - 1) % p + 1), ()))
        row.extend(dist.row_fills.get((i, J), ()) for J in big_cols)
        cells.append(tuple(row))
    if not shape.p_divides:
        row = [plan.vertical.get(((j - 1) // q + 1, (j - 1) % q + 1), ())
               for j in range(1, s + 1)]
        if col_block:
            alpha, beta = shape.full_bands + 1, shape.s_star // q + 1
            corner = grid.big_cell_symbols(alpha, beta)
            for x in range(1, r - shape.r_star + 1):
                corner.update(plan.horizontal.get((alpha, x), ()))
            for y in range(1, s - shape.s_star + 1):
                corner.update(plan.vertical.get((beta, y), ()))
            row.append(tuple(k for k in range(1, n + 1) if k not in corner))
        row.extend(dist.block_row_fills.get(J, ()) for J in big_cols)
        cells.append(tuple(row))
    every = tuple(range(1, n + 1))
    for I in shape.empty_big_rows:
        row = [dist.col_fills.get((j, I), ()) for j in range(1, s + 1)]
        if col_block:
            row.append(dist.block_col_fills.get(I, ()))
        row.extend(every for _ in big_cols)
        cells.append(tuple(row))

    row_block = () if shape.p_divides else (shape.a,)
    row_comp = (1,) * r + row_block + (p,) * len(shape.empty_big_rows)
    col_comp = (1,) * s + ((shape.b,) if col_block else ()) + (q,) * len(big_cols)
    return row_comp, col_comp, tuple(cells)


def assemble_outline(grid: PartialGrid, plan: MediumCellPlan,
                     dist: Distribution) -> OutlineLatinSquare:
    """Lay the rectangle, medium cells and distributions out as an outline square.

    Built row by row (_layout), each cell read from its one source, already
    ascending: unit rows and columns keep the original cells or take their
    medium-cell share or distributed fill, leftover blocks absorb their
    complements, and fully empty big cells take every symbol once.  A
    missing entry leaves its cell short.  A plan and distribution built from
    the grid always give a valid outline, so an invalid one is a
    construction bug and raises RuntimeError.
    """
    row_comp, col_comp, cells = _layout(grid, plan, dist)
    outline = OutlineLatinSquare(row_comp, col_comp, (1,) * grid.n, cells)
    if not validate_outline(outline).ok:
        raise RuntimeError("assembled outline fails validation; construction bug")
    return outline


def _as_built(grid: PartialGrid) -> PartialGrid:
    """The grid under the rules of the square complete() builds from it.

    That square is latin when a box is one row or column and Sudoku
    otherwise, whatever the grid's flavor; the pipeline reads no partition,
    so a gerechte grid is judged as its (p,q) rectangle.
    """
    geom = grid.geometry
    flavor = "latin" if geom.p == 1 or geom.q == 1 else "sudoku"
    return replace(grid, flavor=flavor, partition=None)


def complete(grid: PartialGrid) -> Verdict:
    """Extend a fully filled rectangle to a full square, or explain why not.

    Orders with p = 1 or q = 1 reduce to plain latin rectangle completion.
    When p divides r and q divides s no matchings are needed and the
    pipeline always succeeds.  The input is validated under the rules of
    the square built from it (_as_built), not under its own flavor.
    """
    geom = grid.geometry
    if grid.rows > geom.n or grid.cols > geom.n:
        return Verdict(False, Obstruction("input-invalid", "rectangle larger than order",
                                          kind="oversized"))
    checked = _as_built(grid)
    report = validate_partial(checked)
    if not report.ok:
        return Verdict(False, Obstruction("input-invalid", report, kind="invalid"))
    if not grid.is_fully_filled():
        return Verdict(False, Obstruction("input-invalid", "rectangle is not fully filled",
                                          kind="not-filled"))

    if checked.flavor == "latin":
        res = _ryser_complete(grid, geom.n)
        if isinstance(res, Obstruction):
            return Verdict(False, res)
        return Verdict(True, PartialGrid(geom, geom.n, geom.n, res.cells, "latin", None))

    plan = plan_medium_cells(grid)
    if isinstance(plan, Obstruction):
        return Verdict(False, plan)
    dist = distribute_free(grid, plan)
    cells = _write_square(*_layout(grid, plan, dist), geom.n)
    square = PartialGrid(geom, geom.n, geom.n, cells, "sudoku", None)

    if not validate_partial(square).ok or not extends(grid, square):
        raise RuntimeError("expanded square is not a completion of the input; construction bug")
    return Verdict(True, square)


def matchings_exist(grid: PartialGrid, *, strengthen: bool = True) -> bool:
    """Bare matching criterion: every defined side and bottom graph saturates.

    This is the unstaged test (no corner coordination, no placement counts);
    it is exposed for comparing the plain and strengthened edge rules.
    """
    for ax in _axes(grid):
        shape = ax.shape
        if shape.q_divides:
            continue
        last = shape.full_bands + (0 if shape.p_divides else 1)
        for alpha in range(1, last + 1):
            if isinstance(_match_band(ax, alpha, strengthen), HallViolator):
                return False
    return True


def _missing(line: Iterable[int], symbols: set[int]) -> tuple[int, ...]:
    """The symbols a line lacks, ascending."""
    return tuple(sorted(symbols.difference(line)))


def complete_latin_rectangle(grid: PartialGrid, n: int) -> Union[PartialGrid, Obstruction]:
    """Complete an r x s latin rectangle to an n x n latin square, as in Ryser's proof.

    Raises ValueError unless the rectangle is fully filled and latin, then
    runs _ryser_complete, which complete() calls on its own checked input.
    """
    work = PartialGrid(SudokuGeometry(1, n), grid.rows, grid.cols, grid.cells, "latin", None)
    if not validate_partial(work).ok or not work.is_fully_filled():
        raise ValueError("input is not a fully filled latin rectangle")
    return _ryser_complete(work, n)


def _ryser_complete(grid: PartialGrid, n: int) -> Union[PartialGrid, Obstruction]:
    """Ryser's two steps on an r x s rectangle already checked to be latin and full.

    Step 1 extends the rows to full width.  Joining each row to the n - s
    symbols it misses gives a graph in which every row has degree n - s and
    symbol k has degree r - N(k), N(k) being its count in the rectangle;
    that is at most n - s exactly when Ryser's bound N(k) >= r + s - n
    holds.  One (n - s)-colouring of it (outline._block_colors) then gives
    each row one symbol per colour and each symbol at most one row, so the
    symbol of colour c is written into new column s + c.  Step 2 adds the
    missing rows the same way: in the r x n result every column misses
    n - r symbols and every symbol is missing from n - r columns, and the
    symbol of colour c goes into new row r + c.  Each empty cell is
    coloured once; new cells start at 0, so one left unwritten fails the
    final validation.  When the bound fails the first failing symbol is the
    obstruction.  A square that is not latin or does not extend the
    rectangle is a construction bug: RuntimeError.
    """
    r, s = grid.rows, grid.cols
    ryser = ryser_counts(grid, n)
    if not ryser.ok:
        k = ryser.failing[0]
        return Obstruction("ryser", k, kind="ryser", symbol=k)

    symbols = set(range(1, n + 1))
    rows = [list(row) for row in grid.cells]
    if s < n:
        block = tuple(_missing(row, symbols) for row in rows)
        colors = iter(_block_colors(block, n - s, n))
        for row, cell in zip(rows, block):
            row += [0] * (n - s)
            for k, c in zip(cell, colors):
                row[s + c - 1] = k
    if r < n:
        block = tuple(_missing(column, symbols) for column in (zip(*rows) if rows else [()] * n))
        colors = iter(_block_colors(block, n - r, n))
        rows += [[0] * n for _ in range(n - r)]
        for j, cell in enumerate(block):
            for k, c in zip(cell, colors):
                rows[r + c - 1][j] = k

    square = PartialGrid(SudokuGeometry(1, n), n, n, tuple(map(tuple, rows)), "latin", None)
    if not validate_partial(square).ok or not extends(grid, square):
        raise RuntimeError("completed latin square fails validation; construction bug")
    return square


def verify_obstruction(grid: PartialGrid, ob: Obstruction) -> bool:
    """Independently recheck an obstruction against the grid it came from.

    An input-invalid obstruction holds only when the grid has the fault its
    kind names: oversized, a side longer than the order; not-filled, an
    empty cell; invalid, a grid within the order whose validation under
    complete()'s rules (_as_built) fails with the report given as detail.
    """
    if ob.stage == "input-invalid":
        oversized = grid.rows > grid.n or grid.cols > grid.n
        if ob.kind == "oversized":
            return oversized
        if ob.kind == "not-filled":
            return not grid.is_fully_filled()
        if ob.kind == "invalid" and not oversized:
            report = validate_partial(_as_built(grid))
            return not report.ok and ob.detail == report
        return False
    axes = _axes(grid)
    for ax in axes:
        if ob.kind == ax.band_kind:
            return verify_violator(_side_graph(ax, ob.index, True), ob.detail)
        if ob.kind == ax.coverage_kind:
            return verify_violator(_coverage_graph(ax, ob.symbol), ob.detail)
    if ob.kind == "corner-double-must":
        return all(_is_must(ax, *_coverage_sides(ax, ob.symbol)) for ax in axes)
    if ob.kind in ("corner-must", "corner-flow"):
        must_h, must_v = _musts(axes)
        build = _corner_must_graph if ob.kind == "corner-must" else _corner_slot_graph
        return verify_violator(build(axes, must_h, must_v), ob.detail)
    if ob.kind == "ryser":
        ryser = ryser_counts(grid, grid.n)
        return ryser.counts[ob.symbol] < ryser.bound
    return False
