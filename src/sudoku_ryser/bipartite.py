"""Bipartite multigraphs: equitable edge-coloring, matching, Hall certificates.

Everything here is deterministic for a fixed input ordering: vertices and
edges are always visited in index order, so repeated runs return identical
colorings and matchings.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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

    Each vertex is split into copies of degree at most k (full copies take
    exactly k edges), the split graph is properly k-edge-colored (each edge
    takes the first color free at both its copies, and only when there is
    none is one made free by alternating-chain recoloring), and copies are
    merged back.  A full copy then sees every color exactly once, so the
    merged counts at a vertex of degree d are floor(d/k) or ceil(d/k).

    Bit-set layout of the coloring state: busy[v] has bit c set when color
    c (1..k) is taken at copy v, and at[v * (k + 1) + c] is the edge holding
    color c at copy v, or -1.  With full holding bits 1..k, the first color
    free at both copies u and w is the lowest set bit of
    full & ~(busy[u] | busy[w]).
    """
    if k < 1:
        raise ValueError("color count must be at least 1")
    m = len(g.edges)
    if m == 0:
        return EdgeColoring(k, ())

    # Assign each edge endpoint to a vertex copy in blocks of k; right
    # vertex w is vertex left_count + w here.
    left_n = g.left_count
    current = [0] * (left_n + g.right_count)
    room = [0] * len(current)  # edges the current copy can still take
    endpoint: list[tuple[int, int]] = []
    copies = 0
    for u, w in g.edges:
        w += left_n
        if not room[u]:
            current[u], room[u] = copies, k
            copies += 1
        if not room[w]:
            current[w], room[w] = copies, k
            copies += 1
        room[u] -= 1
        room[w] -= 1
        endpoint.append((current[u], current[w]))

    # Proper k-edge-coloring of the split graph (all degrees <= k).
    width = k + 1
    at = [-1] * (copies * width)
    busy = [0] * copies
    full = (1 << width) - 2
    color = [0] * m
    for e, (cu, cw) in enumerate(endpoint):
        free = full & ~(busy[cu] | busy[cw])
        if free:
            pick = (free & -free).bit_length() - 1
        else:
            # Every color free at u is busy at w: free the first one there.
            free_u = full & ~busy[cu]
            free_w = full & ~busy[cw]
            pick = (free_u & -free_u).bit_length() - 1
            _flip_chain(cw, pick, (free_w & -free_w).bit_length() - 1,
                        at, busy, color, endpoint, width)
        at[cu * width + pick] = e
        at[cw * width + pick] = e
        bit = 1 << pick
        busy[cu] |= bit
        busy[cw] |= bit
        color[e] = pick
    return EdgeColoring(k, tuple(color))


def _flip_chain(start: int, a: int, b: int, at: list[int], busy: list[int],
                color: list[int], endpoint: list[tuple[int, int]], width: int) -> None:
    """Swap colors a and b along the alternating chain leaving `start` on color a.

    b is free at start, so the chain is a path.  Each step recolors one
    edge x -> y and, at the vertex it reaches, hands color x to the chain's
    next edge (or frees it at the far end).  Only the two ends change which
    colors are busy: a becomes free at start and b busy, and the far end
    swaps its chain color likewise.
    """
    e = at[start * width + a]
    at[start * width + a] = -1
    at[start * width + b] = e
    vertex, x, y = start, a, b
    while e >= 0:
        cu, cw = endpoint[e]
        vertex = cw if cu == vertex else cu
        base = vertex * width
        nxt = at[base + y]
        color[e] = y
        at[base + y] = e
        at[base + x] = nxt
        x, y = y, x
        e = nxt
    swap = (1 << a) | (1 << b)
    busy[start] ^= swap
    busy[vertex] ^= swap


def max_matching(g: BipartiteMultigraph) -> Matching:
    """Maximum-cardinality matching (Hopcroft-Karp), deterministic.

    The depth-first phase keeps its path on explicit stacks, so long
    augmenting paths cannot exhaust the interpreter's recursion limit.
    """
    left_n = g.left_count
    adj = _left_adjacency(g)
    match_l: list[Optional[int]] = [None] * left_n
    match_r: list[Optional[int]] = [None] * g.right_count
    dist = [-1] * left_n

    def bfs() -> bool:
        queue = deque()
        for u in range(left_n):
            if match_l[u] is None:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = -1
        found = False
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                nxt = match_r[w]
                if nxt is None:
                    found = True
                elif dist[nxt] == -1:
                    dist[nxt] = dist[u] + 1
                    queue.append(nxt)
        return found

    def dfs(root: int) -> None:
        """Augment along the first layered path from the free vertex root, if any.

        lefts[i] is left by rights[i] to reach lefts[i + 1]; a vertex whose
        neighbors are exhausted leaves the layering (dist -1).
        """
        lefts, rights, todo = [root], [], [iter(adj[root])]
        while todo:
            u = lefts[-1]
            for w in todo[-1]:
                nxt = match_r[w]
                if nxt is None:
                    rights.append(w)
                    for a, b in zip(lefts, rights):
                        match_l[a] = b
                        match_r[b] = a
                    return
                if dist[nxt] == dist[u] + 1:
                    lefts.append(nxt)
                    rights.append(w)
                    todo.append(iter(adj[nxt]))
                    break
            else:
                dist[u] = -1
                lefts.pop()
                todo.pop()
                if rights:
                    rights.pop()

    while bfs():
        for u in range(left_n):
            if match_l[u] is None:
                dfs(u)
    pairs = tuple((u, match_l[u]) for u in range(left_n) if match_l[u] is not None)
    return Matching(pairs)


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
    for u in range(g.left_count):
        if not held[u]:
            _augment_from(u, adj, owner, held)
    return Matching(tuple((u, w) for u, got in enumerate(held) for w in got))


def _violator_from_matching(g: BipartiteMultigraph, m: Matching) -> HallViolator:
    """Certificate extraction: left vertices reachable by alternating paths
    from unmatched left vertices form a deficient set."""
    match_l = {u: None for u in range(g.left_count)}
    match_r: dict[int, int] = {}
    for u, w in m.pairs:
        match_l[u] = w
        match_r[w] = u
    reach_l = {u for u in range(g.left_count) if match_l[u] is None}
    reach_r: set[int] = set()
    adj = _left_adjacency(g)
    queue = deque(sorted(reach_l))
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w in reach_r:
                continue
            reach_r.add(w)
            nxt = match_r.get(w)
            if nxt is not None and nxt not in reach_l:
                reach_l.add(nxt)
                queue.append(nxt)
    return HallViolator(frozenset(reach_l), frozenset(reach_r))


def saturating_matching(g: BipartiteMultigraph) -> Union[Matching, HallViolator]:
    """A matching covering every left vertex, or a deficiency certificate."""
    m = max_matching(g)
    if len(m.pairs) == g.left_count:
        return m
    return _violator_from_matching(g, m)


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
    for u in range(len(adj)):
        while len(held[u]) < capacity:
            reached = _augment_from(u, adj, owner, held)
            if reached is not None:
                return HallViolator(
                    frozenset(v * capacity + c for v in reached for c in range(capacity)),
                    frozenset(w for v in reached for w in adj[v]))
    return [sorted(got) for got in held]


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


def verify_violator(g: BipartiteMultigraph, v: HallViolator) -> bool:
    """Recompute the neighborhood of the claimed subset and check deficiency.

    One pass over the edges; a claimed vertex the graph does not have
    contributes no neighbors.
    """
    hood = {w for u, w in g.edges if u in v.left_subset}
    return hood == set(v.neighborhood) and len(hood) < len(v.left_subset)
