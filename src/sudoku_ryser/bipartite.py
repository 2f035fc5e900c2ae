"""Bipartite multigraphs: equitable edge-coloring, matching, Hall certificates.

Every matching grows by one augmenting-path search, _augment_from, on
adjacency lists.  Hall violators are found and rechecked on the same
lists: _violator extracts one from a maximum matching (capacitated_matching
from its failed search), and _is_violator is the one recheck.

Every equitable edge-coloring comes from one kernel, _color_cells.  It
takes the edges as cells, one list of right vertices per left vertex, cuts
each cell into copies of k edges, and properly k-colors the result by
first fit from a staggered start with alternating-chain recoloring, each
right vertex one row of the coloring state.  Only when a right vertex has
more than k edges, so that one of them finds no free color there, are the
right vertices split into copies of k edges (_split_rights) and the
coloring restarted; every block complete() colors gives each symbol at
most k edges, so it never restarts.  equitable_edge_coloring groups any
BipartiteMultigraph's edges into such cells; the outline's block coloring
(outline._block_colors) passes a merged block's cells as they are.

Everything here is deterministic for a fixed input ordering: vertices and
edges are always visited in index order, so repeated runs return identical
colorings and matchings.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Optional, Union


@dataclass(frozen=True)
class BipartiteMultigraph:
    """Two vertex sets joined by a multiset of edges (parallel edges allowed)."""

    left_labels: tuple
    right_labels: tuple
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        nl, nr = len(self.left_labels), len(self.right_labels)
        for u, w in self.edges:
            if not (0 <= u < nl and 0 <= w < nr):
                raise ValueError(f"edge ({u}, {w}) references a missing vertex")

    @property
    def left_count(self) -> int:
        return len(self.left_labels)

    @property
    def right_count(self) -> int:
        return len(self.right_labels)


def _left_adjacency(g: BipartiteMultigraph) -> list[list[int]]:
    """Distinct right neighbors of each left vertex, ascending, in one edge pass."""
    hoods: list[set[int]] = [set() for _ in range(g.left_count)]
    for u, w in g.edges:
        hoods[u].add(w)
    return [sorted(hood) for hood in hoods]


@dataclass(frozen=True)
class EdgeColoring:
    """Assignment of one color in 1..k to every edge (by edge position)."""

    k: int
    color_of: tuple[int, ...]


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)


@dataclass(frozen=True)
class HallViolator:
    """A set of left vertices whose joint neighborhood is too small."""

    left_subset: frozenset[int]
    neighborhood: frozenset[int]


def is_equitable(g: BipartiteMultigraph, coloring: EdgeColoring) -> bool:
    """Direct definitional check: at every vertex all color counts differ by <= 1."""
    if len(coloring.color_of) != len(g.edges):
        return False
    if any(not (1 <= c <= coloring.k) for c in coloring.color_of):
        return False
    for side in (0, 1):
        count = g.left_count if side == 0 else g.right_count
        per_vertex = [[0] * (coloring.k + 1) for _ in range(count)]
        for e, (u, w) in enumerate(g.edges):
            per_vertex[u if side == 0 else w][coloring.color_of[e]] += 1
        for counts in per_vertex:
            cs = counts[1:]
            if max(cs) - min(cs) > 1:
                return False
    return True


def equitable_edge_coloring(g: BipartiteMultigraph, k: int) -> EdgeColoring:
    """Color the edges with k colors so every vertex sees balanced color counts.

    The generic front end of _color_cells: the edges are grouped by left
    vertex, in edge order, and each group is one cell of right vertices.
    Full copies take exactly k edges and see every color once, so the
    merged counts at a vertex of degree d are floor(d/k) or ceil(d/k).
    """
    if k < 1:
        raise ValueError("color count must be at least 1")
    groups: list[list[int]] = [[] for _ in range(g.left_count)]
    for e, (u, _) in enumerate(g.edges):
        groups[u].append(e)
    edges = g.edges
    cells = [[edges[e][1] for e in group] for group in groups]
    color_of = [0] * len(edges)
    for e, c in zip(chain.from_iterable(groups), _color_cells(cells, k, g.right_count)):
        color_of[e] = c
    return EdgeColoring(k, tuple(color_of))


def _color_cells(cells, k: int, right: int) -> list[int]:
    """Equitable k-coloring of the graph joining each cell to its entries.

    cells[i] lists the right vertices (ints in 0..right-1, repeats allowed)
    of left vertex i's edges; returns each edge's color in 1..k, cell by
    cell in stored order.  Each cell is cut into copies of k entries: copy
    c takes entries c*k .. c*k+k-1.  A right vertex of degree at most k is
    its own copy.  The split graph is properly k-edge-colored, so a full
    copy sees every color once and every vertex sees balanced color counts.

    The i-th cell copy starts its first fit at color (i mod k) + 1: each
    edge takes the first color at or above that start free at both its
    copies, else the lowest free at both, and only when there is none is
    one made free by alternating-chain recoloring (_flip_chain).  The
    staggered start keeps cells whose sorted entries rank alike from all
    reaching for the same low colors.  With k = 1 every edge is color 1.
    A right vertex with no free color has more than k entries: the cells
    are then relabelled so that each right vertex starts a new copy every
    k appearances (_split_rights), and coloring restarts on them.

    State: copy v is the offset of its row in the flat list at, one row of
    k + 1 slots per copy: right vertex w's at w * (k + 1), then the cell
    copies' in turn.  at[v] holds bit c when color c is taken at v, and
    at[v + c] is the edge holding color c at v, or -1.  Edge e's two copies
    are kept as their sum ends[e], so the far end from v is ends[e] - v.
    The current cell copy's busy colors stay in busy until the copy ends:
    a chain leaves the right end on a color free at the cell copy, so it
    never reaches that copy.
    """
    if k == 1:
        return [1] * sum(map(len, cells))
    width = k + 1
    full = (1 << width) - 2
    row = [0] + [-1] * k
    at = row * right
    ends: list[int] = []
    color: list[int] = []
    made = 0  # cell copies so far
    end, paint = ends.append, color.append
    for cell in cells:
        for first in range(0, len(cell), k):
            cu = len(at)
            at += row
            above = full & -(2 << made % k)  # colors (made mod k) + 1 .. k
            made += 1
            busy = 0
            for w in cell[first:first + k]:
                cw = w * width
                taken = at[cw]
                free = full & ~(busy | taken)
                if free:
                    bit = free & above or free
                    bit &= -bit
                    pick = bit.bit_length() - 1
                else:
                    # Every color free at u is busy at w: free the first one there.
                    free_w = full & ~taken
                    if not free_w:
                        cells, right = _split_rights(cells, k)
                        return _color_cells(cells, k, right)
                    free_u = full & ~busy
                    pick = (free_u & -free_u).bit_length() - 1
                    _flip_chain(cw, pick, (free_w & -free_w).bit_length() - 1, at, color, ends)
                    bit = 1 << pick
                    taken = at[cw]
                e = len(color)
                at[cu + pick] = e
                at[cw + pick] = e
                busy |= bit
                at[cw] = taken | bit
                end(cu + cw)
                paint(pick)
            at[cu] = busy
    return color


def _split_rights(cells, k: int) -> tuple[list[list[int]], int]:
    """The cells with each right vertex's t-th entry, in cell order, relabelled
    as its copy t // k; returns them and the number of copies."""
    seen: dict[int, int] = {}
    label: dict[tuple[int, int], int] = {}
    out = []
    for cell in cells:
        new = []
        for w in cell:
            t = seen.get(w, 0)
            seen[w] = t + 1
            new.append(label.setdefault((w, t // k), len(label)))
        out.append(new)
    return out, len(label)


def _flip_chain(start: int, a: int, b: int, at: list[int], color: list[int],
                ends: list[int]) -> None:
    """Swap colors a and b along the alternating chain leaving `start` on color a.

    b is free at start, so the chain is a path.  Each step recolors one
    edge x -> y and, at the copy it reaches, hands color x to the chain's
    next edge (or frees it at the far end).  Only the two ends change which
    colors are busy: a becomes free at start and b busy, and the far end
    swaps its chain color likewise.  The state is _color_cells'.
    """
    e = at[start + a]
    at[start + a] = -1
    at[start + b] = e
    vertex, x, y = start, a, b
    while e >= 0:
        vertex = ends[e] - vertex
        nxt = at[vertex + y]
        color[e] = y
        at[vertex + y] = e
        at[vertex + x] = nxt
        x, y = y, x
        e = nxt
    swap = (1 << a) | (1 << b)
    at[start] ^= swap
    at[vertex] ^= swap


def max_matching(g: BipartiteMultigraph) -> Matching:
    """Maximum-cardinality matching, deterministic.

    A greedy pass gives each left vertex, in index order, its first free
    neighbor; then each vertex still free gets one augmenting search (see
    extend_matching).
    """
    adj = _left_adjacency(g)
    return _augment_each_free(adj, *_greedy(adj, 1, g.right_count))


def extend_matching(g: BipartiteMultigraph,
                    initial: Iterable[tuple[int, int]] = ()) -> Matching:
    """Grow a valid initial matching to a maximum one by augmenting paths.

    Augmentation may reroute which left vertex a right vertex serves but
    never unmatches a matched right vertex, so saturations present in the
    initial matching are preserved on the right side.  Each free left
    vertex, in index order, gets one search (see _augment_from): a vertex
    with no augmenting path gains none when others augment (Kuhn), so one
    pass reaches a maximum matching.
    """
    adj = _left_adjacency(g)
    owner = [-1] * g.right_count
    held: list[set[int]] = [set() for _ in adj]
    for u, w in initial:
        if held[u] or owner[w] >= 0:
            raise ValueError("initial pairs are not a matching")
        if w not in adj[u]:
            raise ValueError(f"initial pair ({u}, {w}) is not an edge")
        owner[w] = u
        held[u].add(w)
    return _augment_each_free(adj, owner, held)


def _augment_each_free(adj: list[list[int]], owner: list[int],
                       held: list[set[int]]) -> Matching:
    """One augmenting search from each free left vertex, in index order."""
    for u, got in enumerate(held):
        if not got:
            _augment_from(u, adj, owner, held)
    return Matching(tuple((u, w) for u, got in enumerate(held) for w in got))


def _violator(adj: list[list[int]], owner: list[int]) -> HallViolator:
    """Certificate extraction: the left vertices reachable by alternating
    paths from those that owner (each right vertex's left vertex, or -1)
    leaves unmatched form a deficient set.  For a maximum matching this set
    is the same whichever maximum matching owner holds."""
    reach_l = set(range(len(adj))).difference(owner)
    reach_r: set[int] = set()
    todo = list(reach_l)
    while todo:
        for w in adj[todo.pop()]:
            if w not in reach_r:
                reach_r.add(w)
                v = owner[w]
                if v >= 0 and v not in reach_l:
                    reach_l.add(v)
                    todo.append(v)
    return HallViolator(frozenset(reach_l), frozenset(reach_r))


def saturating_matching(g: BipartiteMultigraph) -> Union[Matching, HallViolator]:
    """A matching covering every left vertex, or a deficiency certificate."""
    adj = _left_adjacency(g)
    owner, held = _greedy(adj, 1, g.right_count)
    m = _augment_each_free(adj, owner, held)
    return m if len(m.pairs) == g.left_count else _violator(adj, owner)


def capacitated_matching(adj: list[list[int]], capacity: int,
                         right_count: int) -> Union[list[list[int]], HallViolator]:
    """Give every left vertex `capacity` distinct right neighbors, each right
    vertex going to at most one left vertex, or certify that this is impossible.

    adj[u] lists left vertex u's right neighbors, ascending and distinct.
    This is a saturating matching of the replicated graph in which left
    vertex u * capacity + c (0 <= c < capacity) is copy c of u, with u's
    neighbors, found without building the copies.  A greedy pass gives each
    vertex its first free neighbors; then each vertex still short, in index
    order, grows one neighbor at a time along an augmenting path (see
    _augment_from).  Returns each vertex's right vertices, ascending.

    When vertex u cannot be filled, the vertices reachable from u by
    alternating paths, with all their copies, form a HallViolator on the
    replicated graph: every right neighbor of theirs is held by one of them,
    and u holds fewer than capacity.
    """
    owner, held = _greedy(adj, capacity, right_count)
    for u in range(len(adj)):
        while len(held[u]) < capacity:
            reached = _augment_from(u, adj, owner, held)
            if reached is not None:
                return HallViolator(
                    frozenset(v * capacity + c for v in reached for c in range(capacity)),
                    frozenset(w for v in reached for w in adj[v]))
    return [sorted(got) for got in held]


def _greedy(adj: list[list[int]], capacity: int,
            right_count: int) -> tuple[list[int], list[set[int]]]:
    """Each left vertex, in index order, takes its first free neighbors, up to
    capacity.  Returns owner (the left vertex holding each right vertex, or
    -1) and held (the right vertices each left vertex holds)."""
    owner = [-1] * right_count
    held: list[set[int]] = []
    for u, hood in enumerate(adj):
        got: set[int] = set()
        for w in hood:
            if len(got) == capacity:
                break
            if owner[w] < 0:
                owner[w] = u
                got.add(w)
        held.append(got)
    return owner, held


def _augment_from(root: int, adj: list[list[int]], owner: list[int],
                  held: list[set[int]]) -> Optional[set[int]]:
    """Give root one more right vertex along an augmenting path, if there is one.

    Depth-first on explicit stacks, visiting each left and right vertex at
    most once: from left vertex u the search may step to any neighbor u
    does not hold, and from a held right vertex on to its holder.  lefts[i]
    takes rights[i], which lefts[i + 1] gives up.  Returns None after
    augmenting, else the left vertices reached.
    """
    seen_left, seen_right = {root}, set()
    lefts, rights, todo = [root], [], [iter(adj[root])]
    while todo:
        u = lefts[-1]
        for w in todo[-1]:
            v = owner[w]
            if v == u or w in seen_right:
                continue
            seen_right.add(w)
            if v < 0:
                rights.append(w)
                for a, x in zip(lefts, rights):
                    owner[x] = a
                    held[a].add(x)
                for a, x in zip(lefts[1:], rights):
                    held[a].discard(x)
                return None
            if v not in seen_left:
                seen_left.add(v)
                lefts.append(v)
                rights.append(w)
                todo.append(iter(adj[v]))
                break
        else:
            lefts.pop()
            todo.pop()
            if rights:
                rights.pop()
    return seen_left


def _is_violator(adj: list[list[int]], v: object) -> bool:
    """Whether v is a HallViolator of the graph whose left vertex u has the
    right neighbors adj[u]: its left subset is a set of left vertices (int
    indices into adj), its neighborhood is theirs, and it is smaller."""
    if not (isinstance(v, HallViolator) and isinstance(v.left_subset, (set, frozenset))
            and all(type(u) is int and 0 <= u < len(adj) for u in v.left_subset)):
        return False
    hood = set().union(*(adj[u] for u in v.left_subset))
    return hood == v.neighborhood and len(hood) < len(v.left_subset)


def verify_violator(g: BipartiteMultigraph, v: HallViolator) -> bool:
    """Recheck v on g's adjacency lists (_is_violator): a claimed vertex the
    graph does not have refuses the claim."""
    return _is_violator(_left_adjacency(g), v)
