"""Hall's Condition machinery for grids and graphs.

The independence number alpha(L, sigma, Q) is the size of a largest set of
cells of Q, pairwise in distinct rows and columns (and big cells or parts,
depending on flavor), all of whose lists contain sigma.  Hall's Inequality
for Q asks that these numbers summed over all symbols reach |Q|; Hall's
Condition asks this for every subset.  Checking is exact: every subset is
covered, though whole subtrees of the search are certified by one bound
rather than walked.  The worst case is still exponential, which is why it is
gated to desk-scale inputs.

On a grid this is the list-assigned-graph condition for the conflict graph
of the cells, in which two cells are adjacent when they share a row, a
column or the flavor's unit (Hilton and Johnson).  So hall_condition hands
the empty cells to hall_condition_graph, and every alpha, on grids and on
graphs, comes from one exact independence search, _max_independent.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
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

    Branch and bound on the lowest remaining vertex v.  With at most one
    neighbour left, v is taken without branching: some largest set holds it,
    since swapping that neighbour for v keeps a set independent.  Otherwise
    the branch that takes v (dropping its neighbours) runs first and then
    the one that leaves it.  A branch ends when even every remaining vertex
    could not beat the best set found.
    """
    best = 0

    def bb(rest: int, size: int) -> None:
        nonlocal best
        while rest:
            if size + rest.bit_count() <= best:
                return
            low = rest & -rest
            near = adj[low.bit_length() - 1] & rest
            rest &= ~low
            if near & (near - 1):
                bb(rest & ~near, size + 1)
            else:
                rest &= ~near
                size += 1
        best = max(best, size)

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
    """(sum of alphas, |Q|, whether the inequality holds) for one subset.

    Raises ValueError when some symbol has more than 26 candidate cells in
    the subset, the exact-search gate that alpha_cells takes as max_exact.
    """
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
    lexicographically first failing subset.  A subtree is certified rather
    than walked when greedy independent sets of its root S, grown over the
    later cells, leave at most (their total - |S|) cells unplaced, or when
    S's exact alpha sum exceeds |S| by the number of later cells: either
    gives every subset of the subtree an alpha sum of at least its size.
    Its subsets still count in subsets_checked, which is 2**e whenever the
    condition holds.  More empty cells than the gate means giving up.
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
    seen = Counter(chain.from_iterable(grid.cells))
    counts = {k: seen[k] for k in range(1, n + 1)}
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
    computed, each cached by the subset's vertices that list the color, so
    colors listed by the same vertices of the subset share one entry.

    Below a subset S with largest position i, the subsets S | T, T a subset
    of the later vertices R, are certified at once when either bound holds:
    - with greedy sets G_c of total g, walk R in order, each vertex joining
      the first of its colors, in sorted order, whose grown set has none of
      its neighbours, and let u count the vertices that join none.  If g - |S| >= u, then
      sum_c alpha_c(S | T) >= g + |T| - u >= |S| + |T|, since each set stays
      independent within S | T.
    - with the exact sum lhs, if lhs - |S| >= |R|, then
      sum_c alpha_c(S | T) >= lhs >= |S| + |T|, since no alpha shrinks as
      the subset grows.
    Since u <= |R|, the first bound needs no walk when g - |S| >= |R|.  A
    certified subtree adds its 2**|R| - 1 subsets to subsets_checked, so
    the count, and the first failing subset, are those of a full walk.
    """
    verts = list(vertices)
    if len(verts) > gate:
        return HallReport(True, None, 0, True)
    count = len(verts)
    adj = _adjacency(verts, edges)
    vlists = [frozenset(lists.get(v, ())) for v in verts]
    colors = sorted({c for lst in vlists for c in lst})
    index = {color: k for k, color in enumerate(colors)}
    # per position: its neighbours, the indices of its colors and its bit
    walk = [(adj[i], tuple(sorted(index[c] for c in lst)), 1 << i)
            for i, lst in enumerate(vlists)]
    holders = [sum(1 << i for i, lst in enumerate(vlists) if color in lst)
               for color in colors]
    memo: dict[int, int] = {}  # alpha of a vertex subset
    checked = 1  # the empty subset, trivially fine

    def certified(start: int, sets: list[int], slack: int) -> bool:
        """Whether the greedy sets, grown over vertices start.., miss at most slack."""
        sets = sets[:]
        for near, ks, bit in walk[start:]:
            for k in ks:
                if not sets[k] & near:
                    sets[k] |= bit
                    break
            else:
                slack -= 1
                if slack < 0:
                    return False
        return True

    def dfs(start: int, mask: int, greedy: list[int], greedy_total: int):
        nonlocal checked
        size = mask.bit_count() + 1  # that of every child subset
        for i in range(start, count):
            near, ks, bit = walk[i]
            child_mask = mask | bit
            child, child_total = greedy[:], greedy_total
            for k in ks:
                if not child[k] & near:
                    child[k] |= bit
                    child_total += 1
            checked += 1
            rest = count - 1 - i  # |R|, the vertices after i
            if child_total < size:
                lhs = 0
                for held in holders:
                    sub = child_mask & held
                    alpha = memo.get(sub)
                    if alpha is None:
                        alpha = memo[sub] = _max_independent(sub, adj)
                    lhs += alpha
                if lhs < size:
                    subset = tuple(v for j, v in enumerate(verts) if child_mask >> j & 1)
                    return subset, lhs, size
                skip = lhs - size >= rest
            else:
                slack = child_total - size
                skip = slack >= rest or certified(i + 1, child, slack)
            if skip:
                checked += (1 << rest) - 1
                continue
            found = dfs(i + 1, child_mask, child, child_total)
            if found is not None:
                return found
        return None

    witness = dfs(0, 0, [0] * len(colors), 0)
    return HallReport(witness is None, witness, checked, False)
