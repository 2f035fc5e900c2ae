"""Bipartite multigraphs: equitable edge-coloring, matching, Hall certificates.

Every matching grows by one augmenting-path search, _augment_from, on
adjacency lists.  Hall violators are found and rechecked on the same
lists: _violator extracts one from a maximum matching (capacitated_matching
from its failed search), and _is_violator is the one recheck.

Every equitable edge-coloring comes from one kernel, _color_cells.  It
takes the edges as cells, one list of right vertices per left vertex, cuts
each cell into copies of k edges, and properly k-colors the result by
first fit from a staggered start with alternating-chain recoloring.  It
numbers no edge: it keeps the other end of each color at each cell copy
and each right vertex, and returns the copies' rows, which callers slice
into color classes.  Only when a right vertex has more than k edges, so
that one of them finds no free color there, are the right vertices split
into copies of k edges (_split_rights) and the coloring restarted; every
block complete() colors gives each symbol at most k edges, so it never
restarts.  equitable_edge_coloring groups any BipartiteMultigraph's edges
into such cells; the outline's block coloring (outline._block_colors)
passes a merged block's cells as they are.

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
    Parallel edges of one copy take their colors in ascending order.
    """
    if k < 1:
        raise ValueError("color count must be at least 1")
    groups: list[list[int]] = [[] for _ in range(g.left_count)]
    for e, (u, _) in enumerate(g.edges):
        groups[u].append(e)
    edges = g.edges
    rows = _color_cells([[edges[e][1] for e in group] for group in groups], k, g.right_count)
    copies = (group[i:i + k] for group in groups for i in range(0, len(group), k))
    color_of = [0] * len(edges)
    for at, copy in zip(range(0, len(rows), k), copies):
        slots = sorted((w, c) for c, w in enumerate(rows[at:at + k], 1) if w >= 0)
        for e, (_, c) in zip(sorted(copy, key=lambda e: edges[e][1]), slots):
            color_of[e] = c
    return EdgeColoring(k, tuple(color_of))


def _color_cells(cells, k: int, right: int) -> list[int]:
    """Equitable k-coloring of the graph joining each cell to its entries,
    as the right vertex of each color at each cell copy.

    cells[i] lists the right vertices (ints in 0..right-1, repeats allowed)
    of left vertex i's edges.  Each cell is cut into copies of k entries:
    copy c takes entries c*k .. c*k+k-1.  A right vertex of degree at most k
    is its own copy.  The split graph is properly k-edge-colored, so a full
    copy sees every color once and every vertex sees balanced color counts.
    Returns one row of k slots per cell copy, in cell order: slot c - 1 of
    copy i, at i*k + c - 1, holds the right vertex of color c there, or -1
    in a short copy; with full copies, color class c is rows[c - 1::k].

    The i-th cell copy starts its first fit at color (i mod k) + 1: each
    edge takes the first color at or above that start free at both its
    copies, else the lowest free at both, and only when there is none is
    one made free by alternating-chain recoloring (_flip_chain).  The
    staggered start keeps cells whose sorted entries rank alike from all
    reaching for the same low colors.  With k = 1 every edge is color 1.
    A right vertex with no free color has more than k entries: the attempt
    returns, freeing its state, the cells are relabelled so that each right
    vertex starts a new copy every k appearances (_split_rights), and
    coloring starts again; its rows are read back as the original vertices.
    """
    if k == 1:
        return list(chain.from_iterable(cells))
    rows = _first_fit(cells, k, right)
    if rows is None:
        cells, origin = _split_rights(cells, k)
        rows = [origin[w] if w >= 0 else -1 for w in _first_fit(cells, k, len(origin))]
    return rows


def _first_fit(cells, k: int, right: int) -> Optional[list[int]]:
    """_color_cells' rows for k >= 2, or None if a right vertex has too many entries.

    State, colors counted 0..k-1: copy u's color c is at cop[u + c], right
    vertex w's at sym[w*k + c] (the copy's offset u, or -1), and taken[w]
    has bit c set when color c is taken at w.  The current copy's free
    colors stay in avail: nothing else reads them, and a chain reaches
    copies only on its color a, which is free at the current copy.
    """
    full = (1 << k) - 1
    row = [-1] * k
    sym = row * right
    taken = [0] * right
    cop: list[int] = []
    for cell in cells:
        for first in range(0, len(cell), k):
            cu = len(cop)
            cop += row
            above = full & -(1 << cu // k % k)  # from color i mod k at the i-th copy
            avail = full  # colors still free at the copy
            for w in cell[first:first + k]:
                have = taken[w]
                free = avail & ~have
                if free:
                    bit = free & above or free
                    bit &= -bit
                    pick = bit.bit_length() - 1
                else:
                    # Every color free at the copy is taken at w: free the first one there.
                    free_w = full & ~have
                    if not free_w:
                        return None
                    pick = (avail & -avail).bit_length() - 1
                    _flip_chain(w, pick, (free_w & -free_w).bit_length() - 1, k, sym, cop, taken)
                    bit = 1 << pick
                    have = taken[w]
                cop[cu + pick] = w
                sym[w * k + pick] = cu
                avail ^= bit
                taken[w] = have | bit
    return cop


def _split_rights(cells, k: int) -> tuple[list[list[int]], list[int]]:
    """The cells with each right vertex's t-th entry, in cell order, relabelled
    as its copy t // k; returns them and each copy's right vertex."""
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
    return out, [w for w, _ in label]


def _flip_chain(w: int, a: int, b: int, k: int, sym: list[int], cop: list[int],
                taken: list[int]) -> None:
    """Swap colors a and b along the alternating chain leaving right vertex w
    on color a.

    b is free at w, so the chain is a path that enters each copy on a and
    each right vertex on b.  Every vertex on it swaps its a and b slots, and
    only the ends change which colors are taken: a becomes free at w and b
    taken, and a right vertex at the far end swaps likewise.  The state is
    _first_fit's.
    """
    swap = (1 << a) | (1 << b)
    taken[w] ^= swap
    at = w * k
    u = sym[at + a]
    sym[at + a], sym[at + b] = -1, u
    while True:
        x = cop[u + b]
        cop[u + a], cop[u + b] = x, w
        if x < 0:
            return
        at = x * k
        v = sym[at + a]
        sym[at + a], sym[at + b] = u, v
        if v < 0:
            taken[x] ^= swap
            return
        w, u = x, v


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


def _greedy(adj: list[list[int]], capacity: int, right_count: int,
            held: Optional[list[set[int]]] = None) -> tuple[list[int], list[set[int]]]:
    """Each left vertex, in index order, takes its first free neighbors until
    it holds capacity.  held, when given, is the matching to start from (the
    right vertices each left vertex holds), grown in place.  Returns owner
    (the left vertex holding each right vertex, or -1) and held."""
    owner = [-1] * right_count
    if held is None:
        held = [set() for _ in adj]
    else:
        for u, got in enumerate(held):
            for w in got:
                owner[w] = u
    for u, (hood, got) in enumerate(zip(adj, held)):
        for w in hood:
            if len(got) == capacity:
                break
            if owner[w] < 0:
                owner[w] = u
                got.add(w)
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
