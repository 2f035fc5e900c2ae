"""Hall's Condition machinery for grids and graphs.

The independence number alpha(L, sigma, Q) is the size of a largest set of
cells of Q, pairwise in distinct rows and columns (and big cells or parts,
depending on flavor), all of whose lists contain sigma.  Hall's Inequality
for Q asks that these numbers summed over all symbols reach |Q|; Hall's
Condition asks this for every subset.

Lists and conflicts both come from the constraint keys (_cell_model): an
empty cell lists the symbols none of its keys holds, and two cells conflict
when they share a key, each cell's conflicts one bit mask.  So on a grid
Hall's Condition is the list-assigned-graph condition for the conflict graph
(Hilton and Johnson), and hall_condition hands its masks to the same subset
walk (_hall_walk) that hall_condition_graph runs on masks of its edges.

One alpha (_alpha) serves alpha_cells, hall_inequality and
whole_square_inequality: in the latin flavor the row-column matching number
of sigma's candidate cells, at any size; in the sudoku and gerechte flavors
the exact, worst-case exponential independence search.  These owe their
caller a number, so past _GATE candidate cells they raise ValueError.
hall_condition and hall_condition_graph report gave_up past their gate on
the number of cells, before any subset: the condition spans 2**e subsets, and
declining by size is an answer the CLI reports (exit 3).  Below the gate
the check is exact, certifying whole subtrees by one bound.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, groupby, product
from typing import Iterable, Optional

from .bipartite import _augment_each_free, _greedy
from .grid import FLAVORS, PartialGrid, _constraint_keys, validate_partial

Cell = tuple[int, int]
# Most candidate cells of one symbol the exact alpha search takes on.
_GATE = 30


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


def _cell_model(grid: PartialGrid, flavor: str, cells: Iterable[Cell]):
    """The distinct cells in order, their lists and their conflict masks.

    One pass over the filled cells gives each constraint key the mask of the
    symbols it holds.  A filled cell lists its own symbol, an empty one the
    symbols that none of its keys holds.  Cell i's conflict mask has bit j
    set when cell j is another cell sharing one of its keys.
    """
    cells = sorted(set(cells))
    for r, c in cells:
        if not (1 <= r <= grid.rows and 1 <= c <= grid.cols):
            raise ValueError(f"cell ({r}, {c}) outside the {grid.rows} x {grid.cols} grid")
    symbols = range(1, grid.n + 1)
    held: dict = {}
    for r, c, v in grid.filled():
        if v in symbols:
            for key in _constraint_keys(grid, r, c, flavor):
                held[key] = held.get(key, 0) | 1 << v
    lists: list[frozenset[int]] = []
    groups: dict = {}
    for i, (r, c) in enumerate(cells):
        taken = 0
        for key in _constraint_keys(grid, r, c, flavor):
            taken |= held.get(key, 0)
            groups.setdefault(key, []).append(i)
        v = grid.at(r, c)
        lists.append(frozenset(k for k in symbols if not taken >> k & 1)
                     if v is None else frozenset((v,)))
    adj = [0] * len(cells)
    for group in groups.values():
        mask = sum(1 << i for i in group)
        for i in group:
            adj[i] |= mask & ~(1 << i)
    return cells, lists, adj


def list_assignment(grid: PartialGrid, flavor: Optional[str] = None) -> dict[Cell, frozenset[int]]:
    """Candidate lists: the symbol itself for filled cells, exclusions otherwise."""
    every = product(range(1, grid.rows + 1), range(1, grid.cols + 1))
    cells, lists, _ = _cell_model(grid, _flavor_of(grid, flavor), every)
    return dict(zip(cells, lists))


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


def _alpha(grid: PartialGrid, flavor: str, cells: Iterable[Cell]):
    """The distinct cells of Q in order, and sigma -> alpha(L, sigma, Q).

    In the latin flavor alpha is a maximum matching of rows to columns along
    sigma's candidate cells, on adjacency lists; otherwise the exact search
    over the conflict masks, refused past _GATE candidate cells.
    """
    cells, lists, adj = _cell_model(grid, flavor, cells)

    def alpha(sigma: int) -> int:
        cand = [i for i, lst in enumerate(lists) if sigma in lst]
        if flavor == "latin":
            runs = groupby([cells[i] for i in cand], key=lambda cell: cell[0])
            hood = [[c for _, c in run] for _, run in runs]  # each row's columns
            return len(_augment_each_free(hood, *_greedy(hood, 1, grid.cols + 1)).pairs)
        if len(cand) > _GATE:
            raise ValueError(f"{len(cand)} candidate cells of symbol {sigma} exceed "
                             f"the exact-search gate of {_GATE}")
        return _max_independent(sum(1 << i for i in cand), adj)
    return cells, alpha


def alpha_cells(grid: PartialGrid, sigma: int, cells: Iterable[Cell],
                flavor: Optional[str] = None) -> int:
    """Exact maximum number of independent cells of Q whose lists hold sigma;
    ValueError past the sudoku and gerechte flavors' exact-search gate."""
    return _alpha(grid, _flavor_of(grid, flavor), cells)[1](sigma)


def hall_inequality(grid: PartialGrid, cells: Iterable[Cell],
                    flavor: Optional[str] = None) -> tuple[int, int, bool]:
    """(sum of alphas, |Q|, whether the inequality holds) for one subset;
    ValueError past the sudoku and gerechte flavors' exact-search gate."""
    subset, alpha = _alpha(grid, _flavor_of(grid, flavor), cells)
    lhs = sum(map(alpha, range(1, grid.n + 1)))
    return lhs, len(subset), lhs >= len(subset)


def whole_square_inequality(grid: PartialGrid,
                            flavor: Optional[str] = None) -> tuple[int, int, bool]:
    """Hall's Inequality for the set of all cells of the grid: hall_inequality
    over every cell, under the same gate."""
    every = product(range(1, grid.rows + 1), range(1, grid.cols + 1))
    return hall_inequality(grid, every, flavor)


def hall_condition(grid: PartialGrid, flavor: Optional[str] = None,
                   gate: int = 18) -> HallReport:
    """Check Hall's Inequality over every subset of the empty cells.

    Filled cells can be dropped: the inequality for any subset holds exactly
    when it holds for its empty part.  What remains is Hall's Condition for
    the conflict graph of the empty cells (adjacent when they share a row, a
    column or the flavor's unit) under their lists, which _hall_walk, the
    subset walk of hall_condition_graph, decides.  More empty cells than the
    gate means giving up.  A grid that fails validation under the flavor
    checked raises ValueError.
    """
    flavor = _flavor_of(grid, flavor)
    for v in validate_partial(replace(grid, flavor=flavor)).violations[:1]:
        raise ValueError(f"invalid grid: {v.kind} {v.coordinates} symbol {v.symbol}")
    empties = grid.empty_cells()
    if len(empties) > gate:
        return HallReport(True, None, 0, True)
    return _hall_walk(*_cell_model(grid, flavor, empties))


def ryser_counts(grid: PartialGrid, n: int) -> RyserReport:
    """Symbol occurrence counts of a rectangle against the r + s - n bound."""
    seen = Counter(chain.from_iterable(grid.cells))
    counts = {k: seen[k] for k in range(1, n + 1)}
    bound = grid.rows + grid.cols - n
    failing = tuple(k for k in range(1, n + 1) if counts[k] < bound)
    return RyserReport(counts, bound, not failing, failing)


def hall_condition_graph(vertices: Iterable, edges: Iterable[tuple], lists: dict,
                         gate: int = 18) -> HallReport:
    """Hall's Condition for a list-assigned simple graph, by _hall_walk.

    Every induced subgraph (vertex subset) must satisfy the inequality with
    alpha taken over independent sets of vertices listing the color.  More
    vertices than the gate means giving up.
    """
    verts = list(vertices)
    if len(verts) > gate:
        return HallReport(True, None, 0, True)
    return _hall_walk(verts, [frozenset(lists.get(v, ())) for v in verts],
                      _adjacency(verts, edges))


def _hall_walk(verts: list, vlists: list[frozenset], adj: list[int]) -> HallReport:
    """The subset walk of Hall's Condition, on each vertex's list and
    neighbour bit mask by position in verts.

    The subsets are enumerated depth first in lexicographic order of position,
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
    count = len(verts)
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
