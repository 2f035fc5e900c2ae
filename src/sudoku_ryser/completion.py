"""Completion of fully filled Sudoku rectangles to full Sudoku squares.

The pipeline fills the partially covered big cells first: in each full band
(stack) every row (column) takes its share of the partially covered big
column (row) from one capacitated matching, in which a row takes b symbols
it lacks and a symbol serves one row per band, and the two directions of the
doubly covered corner big cell are solved jointly.  It then distributes each
remaining row's and column's missing symbols over the empty big columns and
rows, assembles the whole picture into an outline square, and expands it.
Distribution is the outline's block split (outline._block_slices): a band's
rows, with the leftover block as one more cell, are split into one slice per
empty big column, as expansion splits a merged block into unit lines.
Every stage that can fail on honest input returns a checkable Obstruction;
when all stages pass, the expansion is guaranteed to produce a valid square,
so the staged pipeline doubles as the completability decision.

Latin rectangles (p = 1 or q = 1) skip the stages before the outline:
complete_latin_rectangle lays the rectangle and its rows' and columns'
missing symbols out as an outline square directly, and the same expansion
completes it.  Ryser's bound N(k) >= r + s - n enters only there, as what
keeps the symbol multiplicities of that outline's corner non-negative.

Axis convention: every construction that has a row and a column version is
written once, for rows.  Transposing a (p,q) r x s rectangle gives a (q,p)
s x r rectangle whose rows, bands and partially covered big column are the
original's columns, stacks and partially covered big row, so the column
side (bottom graphs, column coverage, column distribution) is the row side
applied to the transpose.  Only the doubly covered corner big cell is
solved jointly, on the rectangle itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    ValidationReport,
    anchors,
    extends,
    validate_partial,
)
from .hall import ryser_counts
from .outline import (
    Composition,
    OutlineLatinSquare,
    _block_slices,
    expand_outline,
    validate_outline,
)


@dataclass
class MediumCellPlan:
    """Planned symbols for the horizontal and vertical medium cells.

    horizontal maps (big row index, small row offset) to the symbols placed
    in that row's slice of the partially covered big column; vertical is the
    column mirror for the partially covered big row.
    """

    horizontal: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    vertical: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)


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
    symbol set is built once, with its axis, and read by every graph.
    """
    axes = _axes(grid)
    shape = axes[0].shape
    if shape.p == 1 or shape.q == 1:
        raise ValueError("medium-cell planning needs p >= 2 and q >= 2")
    plan = MediumCellPlan()
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


def _line_contents(ax: _Axis, share: dict) -> list[set[int]]:
    """Symbol set of every row (1-based) once the axis' medium-cell share is placed."""
    contents = [set(line) for line in ax.lines]
    for (alpha, x), syms in share.items():
        contents[(alpha - 1) * ax.shape.p + x].update(syms)
    return contents


def _distribute_group(members: range, contents: list[set[int]],
                      block_mult: dict[int, int], targets: tuple[int, ...], n: int,
                      per_member: int) -> tuple[dict, dict]:
    """Spread missing symbols of a group of rows over the empty big columns.

    members are row indices with their current symbol sets in contents;
    block_mult gives the leftover block's per-symbol multiplicity.  Each
    member's missing symbols, and the block's multiset as one more cell,
    are split like a merged outline block with one slice per target (see
    outline._block_slices), so each member gets per_member symbols per
    target and each symbol lands exactly once per target across the group.
    """
    if not targets:
        for m in members:
            if len(contents[m]) != n:
                raise RuntimeError("no room left but symbols remain unplaced")
        if any(block_mult.values()):
            raise RuntimeError("leftover block multiplicity with no empty lines")
        return {}, {}
    cells = [tuple(k for k in range(1, n + 1) if k not in contents[m]) for m in members]
    if block_mult:
        cells.append(tuple(k for k in range(1, n + 1) for _ in range(block_mult[k])))
    fills: dict[tuple[int, int], tuple[int, ...]] = {}
    block: dict[int, tuple[int, ...]] = {}
    for target, slice_ in zip(targets, _block_slices(tuple(cells), len(targets), n)):
        for m, syms in zip(members, slice_):
            if len(syms) != per_member:
                raise RuntimeError(f"member {m} got {len(syms)} symbols for line {target}")
            fills[(m, target)] = syms
        if block_mult:
            block[target] = slice_[-1]
    return fills, block


def _distribute_rows(ax: _Axis, share: dict) -> tuple[dict, dict]:
    """Row fills and leftover-block fills of one axis, as sorted tuples."""
    shape = ax.shape
    contents = _line_contents(ax, share)
    targets = shape.empty_big_cols
    row_fills: dict[tuple[int, int], tuple[int, ...]] = {}
    block_fills: dict[int, tuple[int, ...]] = {}
    for alpha in range(1, shape.full_bands + 1):
        fills, _ = _distribute_group(_band_rows(shape, alpha), contents, {}, targets,
                                     shape.n, shape.q)
        row_fills.update(fills)
    if not shape.p_divides:
        rows = _band_rows(shape, shape.full_bands + 1)
        mult: dict[int, int] = {}
        for k in range(1, shape.n + 1):
            missing = sum(1 for i in rows if k not in contents[i])
            m_hat = len(targets) - missing
            if m_hat < 0:
                raise RuntimeError(f"symbol {k} misses more {ax.line}s than there are "
                                   f"empty big lines across them")
            mult[k] = m_hat
        fills, block_fills = _distribute_group(rows, contents, mult, targets, shape.n, shape.q)
        row_fills.update(fills)
    return row_fills, block_fills


def distribute_free(grid: PartialGrid, plan: MediumCellPlan) -> Distribution:
    """Assign every remaining missing symbol to an empty big column and row.

    Failures here indicate a bug: plan_medium_cells has already certified
    the per-symbol placement counts that make these colorings work out.
    """
    row, col = _axes(grid)
    row_fills, block_row_fills = _distribute_rows(row, plan.horizontal)
    col_fills, block_col_fills = _distribute_rows(col, plan.vertical)
    return Distribution(row_fills=row_fills, block_row_fills=block_row_fills,
                        col_fills=col_fills, block_col_fills=block_col_fills)


def _outline_axis(shape: _Shape) -> tuple[Composition, Optional[int], dict[int, int]]:
    """Row composition of the outline plus outline indices of its merged lines.

    The parts are the r unit rows, the leftover block (when p does not
    divide r) and one part per empty big row.  Also returns the block's
    outline index (None without one) and each empty big row's index.
    """
    parts = [1] * shape.r
    block = None
    if not shape.p_divides:
        parts.append(shape.a)
        block = len(parts)
    big: dict[int, int] = {}
    for I in shape.empty_big_rows:
        parts.append(shape.p)
        big[I] = len(parts)
    return tuple(parts), block, big


def _axis_cells(ax: _Axis, share: dict, fills: dict, block_fills: dict, own: tuple,
                cross: tuple) -> Iterable[tuple[int, int, Iterable[int]]]:
    """Outline cells one axis fills, as (own index, cross index, symbols).

    own and cross are the _outline_axis results of this axis and the other.
    """
    _, own_block, _ = own
    _, cross_block, cross_big = cross
    for (alpha, x), syms in share.items():
        yield (alpha - 1) * ax.shape.p + x, cross_block, syms
    for (i, target), syms in fills.items():
        yield i, cross_big[target], syms
    for target, syms in block_fills.items():
        yield own_block, cross_big[target], syms


def assemble_outline(grid: PartialGrid, plan: MediumCellPlan,
                     dist: Distribution) -> Union[OutlineLatinSquare, Obstruction]:
    """Lay the rectangle, medium cells and distributions out as an outline square.

    Unit rows and columns keep the original cells; leftover blocks absorb
    their complements; fully empty big cells take every symbol once.  The
    outline is validated before it is returned.
    """
    row, col = _axes(grid)
    shape = row.shape
    row_out, col_out = _outline_axis(row.shape), _outline_axis(col.shape)
    (row_parts, row_block, row_big), (col_parts, col_block, col_big) = row_out, col_out
    cells: dict[tuple[int, int], list[int]] = {}

    def add(oi: int, oj: int, symbols) -> None:
        cells.setdefault((oi, oj), []).extend(symbols)

    for i, j, v in grid.filled():
        add(i, j, (v,))
    for oi, oj, syms in _axis_cells(row, plan.horizontal, dist.row_fills,
                                    dist.block_row_fills, row_out, col_out):
        add(oi, oj, syms)
    for oj, oi, syms in _axis_cells(col, plan.vertical, dist.col_fills,
                                    dist.block_col_fills, col_out, row_out):
        add(oi, oj, syms)

    if not shape.p_divides and not shape.q_divides:
        corner_content = set(row.corner)
        for ax, share in ((row, plan.horizontal), (col, plan.vertical)):
            for (alpha, _), syms in share.items():
                if alpha == ax.shape.full_bands + 1:
                    corner_content.update(syms)
        complement = [k for k in range(1, shape.n + 1) if k not in corner_content]
        add(row_block, col_block, complement)

    for oi in row_big.values():
        for oj in col_big.values():
            add(oi, oj, range(1, shape.n + 1))

    grid_cells = tuple(
        tuple(tuple(sorted(cells.get((oi, oj), ()))) for oj in range(1, len(col_parts) + 1))
        for oi in range(1, len(row_parts) + 1)
    )
    outline = OutlineLatinSquare(row_parts, col_parts, (1,) * shape.n, grid_cells)
    report = validate_outline(outline)
    if not report.ok:
        return Obstruction("outline-invalid", report, kind="outline")
    return outline


def complete(grid: PartialGrid) -> Verdict:
    """Extend a fully filled rectangle to a full square, or explain why not.

    Orders with p = 1 or q = 1 reduce to plain latin rectangle completion.
    When p divides r and q divides s no matchings are needed and the
    pipeline always succeeds.
    """
    report = validate_partial(grid)
    if not report.ok:
        return Verdict(False, Obstruction("input-invalid", report, kind="invalid"))
    if not grid.is_fully_filled():
        return Verdict(False, Obstruction("input-invalid", "rectangle is not fully filled",
                                          kind="not-filled"))
    geom = grid.geometry
    if grid.rows > geom.n or grid.cols > geom.n:
        return Verdict(False, Obstruction("input-invalid", "rectangle larger than order",
                                          kind="oversized"))

    if geom.p == 1 or geom.q == 1:
        res = complete_latin_rectangle(grid, geom.n)
        if isinstance(res, Obstruction):
            return Verdict(False, res)
        square = PartialGrid(geom, geom.n, geom.n, res.cells, grid.flavor, None)
        return Verdict(True, square)

    plan = plan_medium_cells(grid)
    if isinstance(plan, Obstruction):
        return Verdict(False, plan)
    dist = distribute_free(grid, plan)
    outline = assemble_outline(grid, plan, dist)
    if isinstance(outline, Obstruction):
        return Verdict(False, outline)
    latin = expand_outline(outline)
    square = PartialGrid(geom, geom.n, geom.n, latin.cells, "sudoku", None)

    final = validate_partial(square)
    if not final.ok:
        raise RuntimeError("expanded square fails validation; construction bug")
    if not extends(grid, square):
        raise RuntimeError("expanded square does not extend the input; construction bug")
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


def complete_latin_rectangle(grid: PartialGrid, n: int) -> Union[PartialGrid, Obstruction]:
    """Complete an r x s latin rectangle to an n x n latin square.

    The rectangle becomes an outline square with unit symbols: its r rows
    and s columns stay unit lines, the other n - r rows merge into one block
    and the other n - s columns into another.  Row i's block cell holds the
    n - s symbols row i misses, column j's holds the n - r symbols column j
    misses, and the corner where the two blocks cross holds each symbol k
    N(k) + n - r - s times, N(k) being its count in the rectangle.  That
    multiplicity is N(k) minus Ryser's bound r + s - n, so it is
    non-negative exactly when the bound holds; the three counting
    conditions then hold by construction and expand_outline recovers a
    square.  When the bound fails the first failing symbol is the
    obstruction.
    """
    r, s = grid.rows, grid.cols
    work = PartialGrid(SudokuGeometry(1, n), r, s, grid.cells, "latin", None)
    report = validate_partial(work)
    if not report.ok or not work.is_fully_filled():
        raise ValueError("input is not a fully filled latin rectangle")

    ryser = ryser_counts(work, n)
    if not ryser.ok:
        k = ryser.failing[0]
        return Obstruction("ryser", k, kind="ryser", symbol=k)

    symbols = range(1, n + 1)

    def missing(present: set[int]) -> tuple[int, ...]:
        return tuple(k for k in symbols if k not in present)

    def parts(units: int) -> Composition:
        return (1,) * units + ((n - units,) if units < n else ())

    cells = []
    for i in range(1, r + 1):
        row = tuple((v,) for v in work.cells[i - 1])
        cells.append(row + ((missing(work.row_symbols(i)),) if s < n else ()))
    if r < n:
        block = tuple(missing(work.col_symbols(j)) for j in range(1, s + 1))
        corner = tuple(k for k in symbols for _ in range(ryser.counts[k] - ryser.bound))
        cells.append(block + ((corner,) if s < n else ()))
    return expand_outline(OutlineLatinSquare(parts(r), parts(s), (1,) * n, tuple(cells)))


def verify_obstruction(grid: PartialGrid, ob: Obstruction) -> bool:
    """Independently recheck an obstruction against the grid it came from."""
    if ob.stage == "input-invalid":
        return not validate_partial(grid).ok or not grid.is_fully_filled()
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
    if ob.stage == "outline-invalid":
        return isinstance(ob.detail, ValidationReport) and not ob.detail.ok
    return False
