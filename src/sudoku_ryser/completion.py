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
written once, for rows, on an _Axis.  The column axis' lines, bands and
partially covered big column are the rectangle's columns, stacks and
partially covered big row, read from the same cells, so the column side
(bottom graphs, column coverage and distribution) is the row side run on
it.  Only the corner big cell is solved jointly, on both axes.  An axis
holds every line set as an int bit mask (bit k is symbol k).  One
complete() builds both axes once, in one pass over the cells (_shape):
the plan hands them on to distribute_free, and the distribution to
_layout.  verify_obstruction builds its own, as the independent recheck.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Union

from .bipartite import (
    BipartiteMultigraph,
    HallViolator,
    _augment_each_free,
    _greedy,
    _violator_from_matching,
    capacitated_matching,
    equitable_edge_coloring,  # unused here; the benchmark's tracer rebinds this name
    extend_matching,  # unused here; the benchmark's tracer rebinds this name
    saturating_matching,
    verify_violator,
)
from .grid import (
    PartialGrid,
    SudokuGeometry,
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
    plan_medium_cells also keeps the grid's axes in _shape, which
    distribute_free on that same grid object reuses.
    """

    horizontal: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    vertical: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    _shape: Optional[_Shape] = field(default=None, init=False, repr=False, compare=False)


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
    distribute_free keeps the axes it used in _shape, for _layout.
    """

    row_fills: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    block_row_fills: dict[int, tuple[int, ...]] = field(default_factory=dict)
    col_fills: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    block_col_fills: dict[int, tuple[int, ...]] = field(default_factory=dict)
    _shape: Optional[_Shape] = field(default=None, init=False, repr=False, compare=False)


@dataclass
class _Axis:
    """The rectangle along one axis, named as if its lines were rows.

    Line sets are int bit masks, bit k standing for symbol k.  On the column
    axis the lines are the rectangle's columns, so p and q, r and s, and a
    and b trade places there.
    """

    n: int
    p: int  # lines per band
    q: int  # cells of a line in one big cell
    r: int  # lines of the rectangle
    r_star: int  # lines of its full bands
    full_bands: int  # r* / p
    b: int  # leftover block width across the lines, q - (s - s*)
    p_divides: bool  # no leftover lines
    q_divides: bool  # no partially covered big column
    targets: tuple[int, ...]  # the empty big columns
    lines: list[int]  # each line's symbols, 1-based (lines[0] is 0)
    band_cells: list[int]  # each band's partially covered big cell, 1-based
    corner: int  # the doubly covered corner big cell, 0 when there is none
    line: str  # left label of replica and coverage graphs
    cross: str  # right label of the empty big lines in coverage graphs
    stage: str  # Obstruction stage of this axis' matchings
    band_kind: str  # Obstruction kind when a side (bottom) graph does not saturate
    coverage_kind: str  # Obstruction kind when a coverage graph does not saturate


@dataclass
class _Shape:
    """One rectangle's set-up: its grid and its two axes."""

    grid: PartialGrid
    axes: tuple[_Axis, _Axis]  # row axis, then column axis: the order every stage checks


_ROW_NAMES = ("row", "bigcol", "side-matching", "side-alpha", "row-coverage")
_COL_NAMES = ("col", "bigrow", "bottom-matching", "bottom-beta", "col-coverage")


def _mask(symbols: Iterable[Optional[int]]) -> int:
    """The bit mask of the symbols given; an empty cell (None) adds nothing."""
    mask = 0
    for v in symbols:
        if v is not None:
            mask |= 1 << v
    return mask


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending: the symbols of a line set."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _shape(grid: PartialGrid) -> _Shape:
    """Both axes of the rectangle, from one pass over its cells."""
    p, q, r, s = grid.geometry.p, grid.geometry.q, grid.rows, grid.cols
    r_star, s_star = r - r % p, s - s % q
    rows, cols = [0] * (r + 1), [0] * (s + 1)
    # Each band's (stack's) cells in the partially covered big column (row).
    bands, stacks = [0] * (-(-r // p) + 1), [0] * (-(-s // q) + 1)
    for i, line in enumerate(grid.cells, 1):
        mask = 0
        for j, v in enumerate(line, 1):
            if v is not None:
                bit = 1 << v
                mask |= bit
                cols[j] |= bit
        rows[i] = mask
        if s > s_star:
            bands[(i - 1) // p + 1] |= _mask(line[s_star:])
        if i > r_star:
            for beta, left in enumerate(range(0, s, q), 1):
                stacks[beta] |= _mask(line[left:left + q])
    return _Shape(grid, tuple(
        _Axis(p * q, p, q, r, r - r % p, r // p, q - s % q, r % p == 0, s % q == 0,
              tuple(range(-(-s // q) + 1, p + 1)), lines, cells, cells[-1] if r % p else 0, *names)
        for p, q, r, s, lines, cells, names in ((p, q, r, s, rows, bands, _ROW_NAMES),
                                                (q, p, s, r, cols, stacks, _COL_NAMES))))


def _made_for(grid: PartialGrid, shape: Optional[_Shape]) -> _Shape:
    """shape when it was built for this grid object, else a new one."""
    return shape if shape is not None and shape.grid is grid else _shape(grid)


def _graph(left, right, adj: list[list[int]]) -> BipartiteMultigraph:
    """The graph joining left vertex u to each right vertex in adj[u]."""
    return BipartiteMultigraph(tuple(left), tuple(right),
                               tuple((u, w) for u, hood in enumerate(adj) for w in hood))


def _band_rows(ax: _Axis, alpha: int) -> range:
    """Rows of band alpha that lie inside the rectangle."""
    return range((alpha - 1) * ax.p + 1, min(alpha * ax.p, ax.r) + 1)


def _band_allowed(ax: _Axis, alpha: int, strengthen: bool) -> list[list[int]]:
    """The 0-based symbols each row of band alpha may take in the partial big
    column, ascending: those absent from the row and, with the strengthened
    rule, from the band's partially covered big cell."""
    if ax.q_divides:
        raise ValueError(f"{ax.line} replica graphs need a partially covered big line")
    if not (1 <= alpha <= ax.full_bands or (alpha == ax.full_bands + 1 and not ax.p_divides)):
        raise ValueError(f"{ax.line} group index {alpha} out of range")
    free = (2 << ax.n) - 2 & ~(ax.band_cells[alpha] if strengthen else 0)
    return [_bits((free & ~ax.lines[i]) >> 1) for i in _band_rows(ax, alpha)]


def _side_graph(ax: _Axis, alpha: int, strengthen: bool) -> BipartiteMultigraph:
    """Band alpha's rows, b copies each, against the symbols they may take."""
    b = ax.b
    left = ((ax.line, i, c) for i in _band_rows(ax, alpha) for c in range(1, b + 1))
    adj = [hood for hood in _band_allowed(ax, alpha, strengthen) for _ in range(b)]
    return _graph(left, range(1, ax.n + 1), adj)


def _match_band(ax: _Axis, alpha: int,
                strengthen: bool) -> Union[dict[int, list[int]], HallViolator]:
    """Band alpha's share of the partial big column: b symbols per row, each
    symbol at most once in the band, keyed by row.

    The capacitated matcher works on one vertex per row; its violator is
    stated on _side_graph, whose replica pos * b + c is copy c of the
    band's row at position pos.
    """
    res = capacitated_matching(_band_allowed(ax, alpha, strengthen), ax.b, ax.n)
    if isinstance(res, HallViolator):
        return res
    return {i: [w + 1 for w in got] for i, got in zip(_band_rows(ax, alpha), res)}


def side_graph(grid: PartialGrid, alpha: int, *, strengthen: bool = True) -> BipartiteMultigraph:
    """Replicated row-versus-symbol graph for one band of the partial big column.

    Each row of the band appears q - (s - s*) times; a replica is joined to
    symbol j when j is absent from that row and (with the strengthened rule)
    absent from the band's partially covered big cell.
    """
    return _side_graph(_shape(grid).axes[0], alpha, strengthen)


def bottom_graph(grid: PartialGrid, beta: int, *, strengthen: bool = True) -> BipartiteMultigraph:
    """Column mirror of side_graph for one stack of the partial big row.

    It is side_graph on the column axis, with ("col", j, c) replica labels.
    """
    return _side_graph(_shape(grid).axes[1], beta, strengthen)


def _coverage_graph(ax: _Axis, symbol: int) -> BipartiteMultigraph:
    """Placement options for one symbol across the leftover rows.

    Left vertices are the rows below the box-aligned part that miss the
    symbol; right vertices are the empty big columns plus, when the corner
    big cell exists and does not already hold the symbol, one corner slot.
    Every slot is open to every row, so the graph saturates exactly when
    there are no more rows than slots (see _placements).  A saturating
    matching is necessary for completability because the symbol must appear
    in each such row exactly once, at most once per big cell of the
    leftover band.
    """
    right: list = [(ax.cross, J) for J in ax.targets]
    if not ax.q_divides and not ax.corner >> symbol & 1:
        right.append(("corner",))
    left = [(ax.line, i) for i in range(ax.r_star + 1, ax.r + 1) if not ax.lines[i] >> symbol & 1]
    return _graph(left, right, [range(len(right))] * len(left))


def _placements(ax: _Axis) -> tuple[int, int]:
    """Masks of the symbols whose leftover rows outnumber their slots in the
    coverage graph, and of the others whose leftover rows need every slot,
    the corner included: the symbols the corner must take on this side."""
    every, t = (2 << ax.n) - 2, len(ax.targets)
    least = [every] + [0] * (t + 2)  # least[c]: symbols at least c leftover rows miss
    for line in ax.lines[ax.r_star + 1:]:
        for c in range(t + 2, 0, -1):
            least[c] |= least[c - 1] & ~line
    corner_ok = 0 if ax.q_divides else every & ~ax.corner
    over = least[t + 1] & ~corner_ok | least[t + 2]
    return over, least[t + 1] & corner_ok & ~over


def plan_medium_cells(grid: PartialGrid) -> Union[MediumCellPlan, Obstruction]:
    """Fill every partially covered big cell, or certify that none can work.

    Each full band (stack) is filled on its own by the capacitated matcher:
    every row (column) of it takes b (a) symbols it lacks, each symbol at
    most once per band.  The doubly covered corner big cell takes both a
    horizontal and a vertical share; those are found together as one
    replica matching so a symbol is never claimed twice, and symbols that
    every placement count forces into the corner are matched first.  The
    placement counts come from the sizes of each symbol's coverage graph,
    which is built only to certify a failure.  Both axes are built once,
    with their line sets, and read by every graph; the plan hands them on
    to distribute_free.
    """
    if grid.geometry.p == 1 or grid.geometry.q == 1:
        raise ValueError("medium-cell planning needs p >= 2 and q >= 2")
    plan = MediumCellPlan()
    plan._shape = _shape(grid)
    axes = plan._shape.axes
    shares = (plan.horizontal, plan.vertical)

    for ax, share in zip(axes, shares):
        if ax.q_divides:
            continue
        for alpha in range(1, ax.full_bands + 1):
            res = _match_band(ax, alpha, True)
            if isinstance(res, HallViolator):
                return Obstruction(ax.stage, res, kind=ax.band_kind, index=alpha)
            share.update(((alpha, i - (alpha - 1) * ax.p), tuple(syms)) for i, syms in res.items())

    # Per-symbol placement counts across the leftover rows and columns.
    musts = []
    for ax in axes:
        over, must = _placements(ax)
        if over:
            k = (over & -over).bit_length() - 1
            res = saturating_matching(_coverage_graph(ax, k))
            return Obstruction(ax.stage, res, kind=ax.coverage_kind, symbol=k)
        musts.append(must)

    if not axes[0].p_divides and not axes[0].q_divides:
        must_h, must_v = musts
        clash = must_h & must_v
        if clash:
            k = (clash & -clash).bit_length() - 1
            return Obstruction("corner-conflict", k, kind="corner-double-must", symbol=k)
        corner = _solve_corner(axes, must_h, must_v)
        if isinstance(corner, Obstruction):
            return corner
        for ax, share, fills in zip(axes, shares, corner):
            share.update(((ax.full_bands + 1, i - ax.r_star), tuple(syms))
                         for i, syms in fills.items())

    return plan


def _corner_slots(axes: tuple[_Axis, _Axis], must_h: int, must_v: int) -> tuple[list, ...]:
    """The corner big cell's slots and forced symbols, with their adjacency.

    A slot is labelled (side, line, copy), b (a) per leftover row (column),
    and may take the 0-based symbols absent from its line and the corner,
    less the other side's musts.  A forced symbol is labelled ("must-h" |
    "must-v", k) and may take the slots of its side whose line lacks it.
    """
    slots: list = []
    allowed: list[list[int]] = []
    musts: list = []
    hosts: list[list[int]] = []
    for tag, ax, own, banned in (("h", axes[0], must_h, must_v), ("v", axes[1], must_v, must_h)):
        free = (2 << ax.n) - 2 & ~(ax.corner | banned)
        first = len(slots)
        for i in range(ax.r_star + 1, ax.r + 1):
            hood = _bits((free & ~ax.lines[i]) >> 1)
            for c in range(1, ax.b + 1):
                slots.append((tag, i, c))
                allowed.append(hood)
        for k in _bits(own):
            musts.append(("must-" + tag, k))
            hosts.append([si for si in range(first, len(slots))
                          if not (ax.lines[slots[si][1]] | ax.corner) >> k & 1])
    return slots, allowed, musts, hosts


def _corner_slot_graph(axes: tuple[_Axis, _Axis], must_h: int = 0,
                       must_v: int = 0) -> BipartiteMultigraph:
    """Corner big cell slots (row and column replicas) versus symbols.

    must_h and must_v are the masks of the symbols forced into the row and
    the column share (_placements).

    A symbol whose placement counts force it into the row (column) share
    keeps only its row-slot (column-slot) edges: any completion places it
    on that side, so dropping the other side never loses a solution, and it
    stops augmenting paths from rerouting the symbol across sides.  Each
    leftover row (column) of the rectangle has b (a) slots; on the column
    axis a is b, so both sides are the rows of their axis.
    """
    slots, allowed, _, _ = _corner_slots(axes, must_h, must_v)
    return _graph(slots, range(1, axes[0].n + 1), allowed)


def _corner_must_graph(axes: tuple[_Axis, _Axis], must_h: int,
                       must_v: int) -> BipartiteMultigraph:
    """Forced corner symbols versus the slots that can host them."""
    slots, _, musts, hosts = _corner_slots(axes, must_h, must_v)
    return _graph(musts, slots, hosts)


def _solve_corner(axes: tuple[_Axis, _Axis], must_h: int, must_v: int):
    """One matching for both corner directions; returns (h_fills, v_fills).

    The forced symbols are matched to their slots first, and that matching
    seeds the slot matching, both on adjacency lists.  A graph is built
    only to state a violator: any maximum matching gives the same one.
    """
    slots, allowed, musts, hosts = _corner_slots(axes, must_h, must_v)
    owner = [-1] * axes[0].n
    held: list[set[int]] = [set() for _ in slots]
    if musts:
        forced = _augment_each_free(hosts, *_greedy(hosts, 1, len(slots)))
        if len(forced.pairs) < len(musts):
            violator = _violator_from_matching(_corner_must_graph(axes, must_h, must_v), forced)
            return Obstruction("corner-conflict", violator, kind="corner-must")
        for mi, si in forced.pairs:
            owner[musts[mi][1] - 1] = si
            held[si].add(musts[mi][1] - 1)

    full = _augment_each_free(allowed, owner, held)
    if len(full.pairs) < len(slots):
        violator = _violator_from_matching(_corner_slot_graph(axes, must_h, must_v), full)
        return Obstruction("corner-conflict", violator, kind="corner-flow")

    fills: tuple[dict, dict] = ({}, {})
    for si, w in full.pairs:
        tag, index, _ = slots[si]
        fills[tag == "v"].setdefault(index, []).append(w + 1)
    return tuple({i: sorted(syms) for i, syms in side.items()} for side in fills)


def _distribute_rows(ax: _Axis, share: dict) -> tuple[dict, dict]:
    """Row fills and leftover-block fills of one axis, as ascending tuples.

    Each band is coloured once (outline._block_colors), one colour per empty
    big column: its cells are the rows' missing symbols once the plan's share
    is placed and, for the leftover band, the leftover block, which holds
    symbol k T - (rows missing k) times for T empty big columns.  Colour c
    fills the c-th empty big column.
    """
    n, targets = ax.n, ax.targets
    every = (2 << n) - 2
    contents = list(ax.lines)
    for (alpha, x), syms in share.items():
        contents[(alpha - 1) * ax.p + x] |= _mask(syms)
    row_fills: dict[tuple[int, int], tuple[int, ...]] = {}
    block_fills: dict[int, tuple[int, ...]] = {}
    for alpha in range(1, ax.full_bands + (not ax.p_divides) + 1):
        rows = _band_rows(ax, alpha)
        cells = [_bits(every & ~contents[i]) for i in rows]
        leftover = alpha > ax.full_bands
        if leftover:
            block: list[int] = []
            for k in range(1, n + 1):
                m_hat = len(targets) - sum(not contents[i] >> k & 1 for i in rows)
                if m_hat < 0:
                    raise RuntimeError(f"symbol {k} misses more {ax.line}s than there are "
                                       f"empty big lines across them")
                block += [k] * m_hat
            cells.append(block)
        if not targets:
            if any(contents[i] != every for i in rows):
                raise RuntimeError("no room left but symbols remain unplaced")
            continue
        colors = iter(_block_colors(cells, len(targets), n))
        split = [[[] for _ in targets] for _ in cells]  # per cell, its symbols by colour
        for cell, parts in zip(cells, split):
            for k, c in zip(cell, colors):
                parts[c - 1].append(k)
        for c, J in enumerate(targets):
            for i, parts in zip(rows, split):
                if len(parts[c]) != ax.q:
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
    grid object, and hands them on in the distribution.
    """
    shape = _made_for(grid, plan._shape)
    row, col = shape.axes
    row_fills, block_row_fills = _distribute_rows(row, plan.horizontal)
    col_fills, block_col_fills = _distribute_rows(col, plan.vertical)
    dist = Distribution(row_fills=row_fills, block_row_fills=block_row_fills,
                        col_fills=col_fills, block_col_fills=block_col_fills)
    dist._shape = shape
    return dist


def _layout(grid: PartialGrid, plan: MediumCellPlan, dist: Distribution) -> tuple:
    """assemble_outline's row composition, column composition and cells; the
    geometry and the corner's symbols come from the distribution's axes."""
    row_ax, col_ax = _made_for(grid, dist._shape).axes
    p, q, n, r, s = row_ax.p, row_ax.q, row_ax.n, row_ax.r, col_ax.r
    big_cols = row_ax.targets
    col_block = not row_ax.q_divides
    cells = []
    for i, given in enumerate(grid.cells, 1):
        row = [() if v is None else (v,) for v in given]
        if col_block:
            row.append(plan.horizontal.get(((i - 1) // p + 1, (i - 1) % p + 1), ()))
        row.extend(dist.row_fills.get((i, J), ()) for J in big_cols)
        cells.append(tuple(row))
    if not row_ax.p_divides:
        row = [plan.vertical.get(((j - 1) // q + 1, (j - 1) % q + 1), ())
               for j in range(1, s + 1)]
        if col_block:
            alpha, beta = row_ax.full_bands + 1, col_ax.full_bands + 1
            corner = row_ax.corner
            for x in range(1, r - row_ax.r_star + 1):
                corner |= _mask(plan.horizontal.get((alpha, x), ()))
            for y in range(1, s - col_ax.r_star + 1):
                corner |= _mask(plan.vertical.get((beta, y), ()))
            row.append(tuple(_bits((2 << n) - 2 & ~corner)))
        row.extend(dist.block_row_fills.get(J, ()) for J in big_cols)
        cells.append(tuple(row))
    every = tuple(range(1, n + 1))
    for I in col_ax.targets:
        row = [dist.col_fills.get((j, I), ()) for j in range(1, s + 1)]
        if col_block:
            row.append(dist.block_col_fills.get(I, ()))
        row.extend(every for _ in big_cols)
        cells.append(tuple(row))

    row_block = () if row_ax.p_divides else (col_ax.b,)
    row_comp = (1,) * r + row_block + (p,) * len(col_ax.targets)
    col_comp = (1,) * s + ((row_ax.b,) if col_block else ()) + (q,) * len(big_cols)
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
    return not any(isinstance(_match_band(ax, alpha, strengthen), HallViolator)
                   for ax in _shape(grid).axes if not ax.q_divides
                   for alpha in range(1, len(ax.band_cells)))


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
    Any other holds only on a grid that passes those checks, and only if it
    names no symbol outside 1..n.
    """
    oversized = grid.rows > grid.n or grid.cols > grid.n
    if ob.stage == "input-invalid":
        if ob.kind == "oversized":
            return oversized
        if ob.kind == "not-filled":
            return not grid.is_fully_filled()
        if ob.kind == "invalid" and not oversized:
            report = validate_partial(_as_built(grid))
            return not report.ok and ob.detail == report
        return False
    if oversized or not grid.is_fully_filled() or not validate_partial(_as_built(grid)).ok:
        return False
    symbol_ok = isinstance(ob.symbol, int) and 1 <= ob.symbol <= grid.n
    axes = _shape(grid).axes
    for ax in axes:
        if ob.kind == ax.band_kind:
            return verify_violator(_side_graph(ax, ob.index, True), ob.detail)
        if ob.kind == ax.coverage_kind:
            return symbol_ok and verify_violator(_coverage_graph(ax, ob.symbol), ob.detail)
    musts = [_placements(ax)[1] for ax in axes]
    if ob.kind == "corner-double-must":
        return symbol_ok and all(must >> ob.symbol & 1 for must in musts)
    if ob.kind in ("corner-must", "corner-flow"):
        must_h, must_v = musts
        build = _corner_must_graph if ob.kind == "corner-must" else _corner_slot_graph
        return verify_violator(build(axes, must_h, must_v), ob.detail)
    if ob.kind == "ryser":
        ryser = ryser_counts(grid, grid.n)
        return symbol_ok and ryser.counts[ob.symbol] < ryser.bound
    return False
