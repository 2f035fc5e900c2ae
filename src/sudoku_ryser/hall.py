"""Hall's Condition machinery for grids and graphs.

The independence number alpha(L, sigma, Q) is the size of a largest set of
cells of Q, pairwise in distinct rows and columns (and big cells or parts,
depending on flavor), all of whose lists contain sigma.  Hall's Inequality
for Q asks that these numbers summed over all symbols reach |Q|; Hall's
Condition asks this for every subset.  Checking is exact and exhaustive,
which is why it is gated to desk-scale inputs.

On a grid this is the list-assigned-graph condition for the conflict graph
of the cells, in which two cells are adjacent when they share a row, a
column or the flavor's unit (Hilton and Johnson).  So hall_condition hands
the empty cells to hall_condition_graph, and every alpha, on grids and on
graphs, comes from one exact independence search, _max_independent.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .bipartite import BipartiteMultigraph, max_matching
from .grid import FLAVORS, PartialGrid, _constraint_keys, big_cell_of

Cell = tuple[int, int]
# Most candidate cells one exact alpha search takes on before refusing.
_MAX_EXACT = 26


@dataclass(frozen=True)
class HallReport:
    holds: bool
    witness: Optional[tuple[tuple[Cell, ...], int, int]]  # (subset, lhs, size)
    subsets_checked: int
    gave_up: bool


@dataclass(frozen=True)
class RyserReport:
    counts: dict[int, int]
    bound: int
    ok: bool
    failing: tuple[int, ...]


def _flavor_of(grid: PartialGrid, flavor: Optional[str]) -> str:
    chosen = flavor if flavor is not None else grid.flavor
    if chosen not in FLAVORS:
        raise ValueError(f"unknown flavor {chosen!r}")
    if chosen == "gerechte" and grid.partition is None:
        raise ValueError("gerechte flavor needs a partition")
    return chosen


def list_assignment(grid: PartialGrid, flavor: Optional[str] = None) -> dict[Cell, frozenset[int]]:
    """Candidate lists: the symbol itself for filled cells, exclusions otherwise."""
    flavor = _flavor_of(grid, flavor)
    n = grid.n
    lists: dict[Cell, frozenset[int]] = {}
    for r in range(1, grid.rows + 1):
        for c in range(1, grid.cols + 1):
            v = grid.at(r, c)
            if v is not None:
                lists[(r, c)] = frozenset((v,))
                continue
            excluded = grid.row_symbols(r) | grid.col_symbols(c)
            if flavor == "sudoku":
                br, bc = big_cell_of(grid.geometry, r, c)
                excluded |= grid.big_cell_symbols(br, bc)
            elif flavor == "gerechte":
                excluded |= grid.part_symbols(grid.part_id(r, c))
            lists[(r, c)] = frozenset(k for k in range(1, n + 1) if k not in excluded)
    return lists


def _max_independent(cand: int, adj: list[int]) -> int:
    """Size of a largest independent set of the vertices in the bit mask cand.

    Branch and bound on the lowest remaining vertex: take it (dropping its
    neighbours) or leave it; a branch ends when even every remaining vertex
    could not beat the best set found.
    """
    best = 0

    def bb(rest: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if size + rest.bit_count() <= best:
            return
        low = rest & -rest
        bb(rest & ~low & ~adj[low.bit_length() - 1], size + 1)
        bb(rest & ~low, size)

    bb(cand, 0)
    return best


def _adjacency(verts: list, edges: Iterable[tuple]) -> list[int]:
    """Neighbour bit masks indexed by position in verts."""
    index = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, w in edges:
        iu, iw = index[u], index[w]
        adj[iu] |= 1 << iw
        adj[iw] |= 1 << iu
    return adj


def _conflicts(grid: PartialGrid, flavor: str, cells: list[Cell]) -> list[tuple[Cell, Cell]]:
    """Pairs of the cells that share a row, a column or the flavor's unit."""
    keys = [set(_constraint_keys(grid, r, c, flavor)) for r, c in cells]
    return [(cells[i], cells[j]) for i, j in combinations(range(len(cells)), 2)
            if keys[i] & keys[j]]


def _cell_graph(grid: PartialGrid, flavor: str, cells: Iterable[Cell]):
    """The distinct cells in order, their lists and their conflict adjacency."""
    cells = sorted(set(cells))
    lists = list_assignment(grid, flavor)
    cell_lists = [lists[cell] for cell in cells]
    return cells, cell_lists, _adjacency(cells, _conflicts(grid, flavor, cells))


def _alpha(cell_lists: list[frozenset[int]], adj: list[int], sigma: int,
           max_exact: int) -> int:
    cand = [i for i, lst in enumerate(cell_lists) if sigma in lst]
    if len(cand) > max_exact:
        raise ValueError(f"{len(cand)} candidate cells exceed the exact-search gate")
    return _max_independent(sum(1 << i for i in cand), adj)


def alpha_cells(grid: PartialGrid, sigma: int, cells: Iterable[Cell],
                flavor: Optional[str] = None, max_exact: int = _MAX_EXACT) -> int:
    """Exact maximum number of independent cells of Q whose lists hold sigma."""
    _, cell_lists, adj = _cell_graph(grid, _flavor_of(grid, flavor), cells)
    return _alpha(cell_lists, adj, sigma, max_exact)


def hall_inequality(grid: PartialGrid, cells: Iterable[Cell],
                    flavor: Optional[str] = None) -> tuple[int, int, bool]:
    """(sum of alphas, |Q|, whether the inequality holds) for one subset."""
    subset, cell_lists, adj = _cell_graph(grid, _flavor_of(grid, flavor), cells)
    lhs = sum(_alpha(cell_lists, adj, sigma, _MAX_EXACT) for sigma in range(1, grid.n + 1))
    return lhs, len(subset), lhs >= len(subset)


def hall_condition(grid: PartialGrid, flavor: Optional[str] = None,
                   gate: int = 18) -> HallReport:
    """Check Hall's Inequality over every subset of the empty cells.

    Filled cells can be dropped: the inequality for any subset holds exactly
    when it holds for its empty part.  What remains is Hall's Condition for
    the conflict graph of the empty cells (adjacent when they share a row, a
    column or the flavor's unit) under their lists, so hall_condition_graph
    decides it with the one exact independence search.  Enumeration is
    depth first in lexicographic order, so a reported witness is the
    lexicographically first failing subset.  More empty cells than the gate
    means giving up.
    """
    flavor = _flavor_of(grid, flavor)
    empties = sorted(grid.empty_cells())
    if len(empties) > gate:
        return HallReport(True, None, 0, True)
    lists = list_assignment(grid, flavor)
    return hall_condition_graph(empties, _conflicts(grid, flavor, empties),
                                {cell: lists[cell] for cell in empties}, gate)


def ryser_counts(grid: PartialGrid, n: int) -> RyserReport:
    """Symbol occurrence counts of a rectangle against the r + s - n bound."""
    counts = {k: 0 for k in range(1, n + 1)}
    for _, _, v in grid.filled():
        counts[v] += 1
    bound = grid.rows + grid.cols - n
    failing = tuple(k for k in range(1, n + 1) if counts[k] < bound)
    return RyserReport(counts, bound, not failing, failing)


def _alpha_latin_matching(grid: PartialGrid, sigma: int,
                          lists: dict[Cell, frozenset[int]]) -> int:
    """Latin-flavor alpha over all cells via row-column maximum matching."""
    cells = [cell for cell, lst in lists.items() if sigma in lst]
    rows = sorted({r for r, _ in cells})
    cols = sorted({c for _, c in cells})
    ridx = {r: i for i, r in enumerate(rows)}
    cidx = {c: i for i, c in enumerate(cols)}
    edges = tuple((ridx[r], cidx[c]) for r, c in sorted(cells))
    g = BipartiteMultigraph(tuple(rows), tuple(cols), edges)
    return len(max_matching(g).pairs)


def whole_square_inequality(grid: PartialGrid, flavor: Optional[str] = None,
                            gate: int = 30) -> tuple[int, int, bool]:
    """Hall's Inequality for the set of all cells of the grid.

    In the latin flavor each alpha is a row-column matching number, so any
    order is fine; the sudoku and gerechte flavors fall back to exact search
    and respect the gate.
    """
    flavor = _flavor_of(grid, flavor)
    total = grid.rows * grid.cols
    if flavor == "latin":
        lists = list_assignment(grid, flavor)
        lhs = sum(_alpha_latin_matching(grid, sigma, lists)
                  for sigma in range(1, grid.n + 1))
        return lhs, total, lhs >= total
    all_cells = [(r, c) for r in range(1, grid.rows + 1) for c in range(1, grid.cols + 1)]
    _, cell_lists, adj = _cell_graph(grid, flavor, all_cells)
    lhs = sum(_alpha(cell_lists, adj, sigma, gate) for sigma in range(1, grid.n + 1))
    return lhs, total, lhs >= total


def hall_condition_graph(vertices: Iterable, edges: Iterable[tuple], lists: dict,
                         gate: int = 18) -> HallReport:
    """Hall's Condition for a list-assigned simple graph.

    Every induced subgraph (vertex subset) must satisfy the inequality with
    alpha taken over independent sets of vertices listing the color.  The
    subsets are enumerated depth first in lexicographic order of position,
    so a reported witness is the first failing subset in that order.  Each
    subset is screened greedily first: per color, the parent's greedy
    independent set is extended by the one new vertex when it fits, and only
    if these sets fall short of the subset size are the exact alphas
    computed, each cached per color and per subset of that color's vertices.
    """
    verts = list(vertices)
    if len(verts) > gate:
        return HallReport(True, None, 0, True)
    adj = _adjacency(verts, edges)
    vlists = [frozenset(lists.get(v, ())) for v in verts]
    colors = sorted({c for lst in vlists for c in lst})
    holders = {color: sum(1 << i for i, lst in enumerate(vlists) if color in lst)
               for color in colors}
    memo: dict = {}

    def alpha(color, mask: int) -> int:
        key = (color, mask & holders[color])
        if key not in memo:
            memo[key] = _max_independent(key[1], adj)
        return memo[key]

    checked = 1  # the empty subset, trivially fine

    def dfs(start: int, mask: int, greedy: dict, greedy_total: int):
        nonlocal checked
        for i in range(start, len(verts)):
            child_mask = mask | 1 << i
            size = child_mask.bit_count()
            child, child_total = dict(greedy), greedy_total
            for color in vlists[i]:
                if not child[color] & adj[i]:
                    child[color] |= 1 << i
                    child_total += 1
            checked += 1
            if child_total < size:
                lhs = sum(alpha(color, child_mask) for color in colors)
                if lhs < size:
                    subset = tuple(v for j, v in enumerate(verts) if child_mask >> j & 1)
                    return subset, lhs, size
            found = dfs(i + 1, child_mask, child, child_total)
            if found is not None:
                return found
        return None

    witness = dfs(0, 0, dict.fromkeys(colors, 0), 0)
    return HallReport(witness is None, witness, checked, False)
