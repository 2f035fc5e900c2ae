import random

import pytest

from sudoku_ryser import bipartite
from sudoku_ryser.bipartite import (
    BipartiteMultigraph,
    HallViolator,
    Matching,
    capacitated_matching,
    equitable_edge_coloring,
    extend_matching,
    is_equitable,
    saturating_matching,
    verify_violator,
)


def brute_force_max_matching(g: BipartiteMultigraph) -> int:
    """Exponential reference: try every subset of the deduplicated edges."""
    edges = sorted({(u, w) for u, w in g.edges})

    def best(idx, used_l, used_r):
        if idx == len(edges):
            return 0
        u, w = edges[idx]
        score = best(idx + 1, used_l, used_r)
        if u not in used_l and w not in used_r:
            score = max(score, 1 + best(idx + 1, used_l | {u}, used_r | {w}))
        return score

    return best(0, frozenset(), frozenset())


def max_matching(g: BipartiteMultigraph) -> Matching:
    """The maximum matching the library computes, as hall._alpha and the
    corner run it: a greedy pass, then one augmenting search from each
    left vertex it leaves free."""
    adj = bipartite._left_adjacency(g)
    return bipartite._augment_each_free(adj, *bipartite._greedy(adj, 1, g.right_count))


def random_multigraph(rng, max_side=8, max_edges=24) -> BipartiteMultigraph:
    nl = rng.randint(1, max_side)
    nr = rng.randint(1, max_side)
    m = rng.randint(0, max_edges)
    edges = tuple((rng.randrange(nl), rng.randrange(nr)) for _ in range(m))
    return BipartiteMultigraph(tuple(range(nl)), tuple(range(nr)), edges)


def test_coloring_single_color_is_whole_graph():
    g = BipartiteMultigraph((0, 1), (0, 1), ((0, 0), (0, 1), (1, 0)))
    coloring = equitable_edge_coloring(g, 1)
    assert coloring.color_of == (1, 1, 1)
    assert is_equitable(g, coloring)


def test_coloring_four_parallel_edges_two_colors():
    g = BipartiteMultigraph((0,), (0,), ((0, 0),) * 4)
    coloring = equitable_edge_coloring(g, 2)
    assert sorted(coloring.color_of).count(1) == 2
    assert sorted(coloring.color_of).count(2) == 2
    assert is_equitable(g, coloring)


def test_coloring_rejects_zero_colors():
    g = BipartiteMultigraph((0,), (0,), ())
    with pytest.raises(ValueError):
        equitable_edge_coloring(g, 0)


def test_coloring_random_graphs_definitional_check():
    rng = random.Random(42)
    for _ in range(300):
        nl = rng.randint(1, 20)
        nr = rng.randint(1, 20)
        m = rng.randint(0, 200)
        edges = tuple((rng.randrange(nl), rng.randrange(nr)) for _ in range(m))
        g = BipartiteMultigraph(tuple(range(nl)), tuple(range(nr)), edges)
        k = rng.randint(1, 6)
        coloring = equitable_edge_coloring(g, k)
        assert is_equitable(g, coloring)
        assert len(coloring.color_of) == len(g.edges)


def test_coloring_deterministic():
    g = BipartiteMultigraph(tuple(range(4)), tuple(range(4)),
                            tuple((i, (i + j) % 4) for i in range(4) for j in range(3)))
    assert equitable_edge_coloring(g, 3) == equitable_edge_coloring(g, 3)


def test_max_matching_complete_3x3():
    g = BipartiteMultigraph((0, 1, 2), (0, 1, 2),
                            tuple((u, w) for u in range(3) for w in range(3)))
    assert len(max_matching(g).pairs) == 3


def test_max_matching_star_case():
    # v1w1, v2w1, v3w1, v3w2, v3w3: brute force says 2.
    g = BipartiteMultigraph((0, 1, 2), (0, 1, 2),
                            ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)))
    assert len(max_matching(g).pairs) == 2
    assert brute_force_max_matching(g) == 2


def test_max_matching_edgeless():
    g = BipartiteMultigraph((0, 1), (0,), ())
    assert max_matching(g).pairs == ()


def test_max_matching_matches_brute_force():
    # The library's matcher and extend_matching from no seed, each checked
    # to be a matching of g as large as the brute force's.
    rng = random.Random(99)
    for _ in range(200):
        g = random_multigraph(rng)
        for m in (max_matching(g), extend_matching(g)):
            pairs = m.pairs
            assert len({u for u, _ in pairs}) == len(pairs)
            assert len({w for _, w in pairs}) == len(pairs)
            assert all((u, w) in g.edges for u, w in pairs)
            assert len(pairs) == brute_force_max_matching(g)


def test_saturating_matching_found():
    g = BipartiteMultigraph((0, 1), (0, 1, 2, 3), ((0, 3), (1, 1)))
    result = saturating_matching(g)
    assert isinstance(result, Matching)
    assert result.as_dict() == {0: 3, 1: 1}


def test_saturating_matching_violator():
    g = BipartiteMultigraph((0, 1), (0, 1), ((0, 0), (1, 0)))
    result = saturating_matching(g)
    assert isinstance(result, HallViolator)
    assert result.left_subset == frozenset({0, 1})
    assert result.neighborhood == frozenset({0})
    assert verify_violator(g, result)


def test_saturating_matching_empty_left():
    g = BipartiteMultigraph((), (0, 1), ())
    result = saturating_matching(g)
    assert isinstance(result, Matching) and result.pairs == ()


def test_violator_iff_deficient():
    rng = random.Random(5)
    for _ in range(200):
        g = random_multigraph(rng, max_side=6, max_edges=14)
        result = saturating_matching(g)
        maximum = len(extend_matching(g).pairs)
        if maximum == g.left_count:
            assert isinstance(result, Matching)
        else:
            assert isinstance(result, HallViolator)
            assert verify_violator(g, result)


def test_violator_does_not_depend_on_the_maximum_matching():
    # extend_matching from an empty seed skips the greedy pass and often
    # finds another maximum matching than max_matching; both give the same
    # alternating-path set, so a change of matcher cannot move a violator.
    rng = random.Random(5)
    differ = 0
    for _ in range(400):
        g = random_multigraph(rng, max_side=6, max_edges=14)
        greedy, kuhn = max_matching(g), extend_matching(g)
        assert len(greedy.pairs) == len(kuhn.pairs)
        if len(greedy.pairs) < g.left_count:
            differ += greedy != kuhn
            adj = bipartite._left_adjacency(g)
            violators = []
            for m in (greedy, kuhn):
                owner = [-1] * g.right_count
                for u, w in m.pairs:
                    owner[w] = u
                violators.append(bipartite._violator(adj, owner))
            assert violators[0] == violators[1]
            assert verify_violator(g, violators[0])
    assert differ > 20, differ


def test_verify_violator_refuses_vertices_the_graph_does_not_have():
    # A claimed left vertex outside 0 .. left_count - 1, or one that is not
    # an int, would pad the subset past its neighborhood's size.
    g = BipartiteMultigraph((0, 1), (0, 1), ((0, 0), (1, 1)))
    assert verify_violator(g, HallViolator(frozenset({0, 1}), frozenset({0, 1}))) is False
    for extra in (99, 2, -1, True, 1.0, "1", None):
        assert not verify_violator(g, HallViolator(frozenset({0, extra}), frozenset({0})))
    assert not verify_violator(g, HallViolator([0, 0], frozenset({0})))
    assert not verify_violator(g, HallViolator(3, frozenset()))
    assert not verify_violator(g, 3)


def test_extend_matching_preserves_right_saturation():
    g = BipartiteMultigraph((0, 1, 2), (0, 1, 2),
                            ((0, 0), (0, 1), (1, 0), (2, 1), (2, 2)))
    seeded = extend_matching(g, [(0, 0)])
    assert len(seeded.pairs) == 3
    matched_rights = {w for _, w in seeded.pairs}
    assert 0 in matched_rights


def test_extend_matching_rejects_bad_seed():
    g = BipartiteMultigraph((0, 1), (0, 1), ((0, 0),))
    with pytest.raises(ValueError):
        extend_matching(g, [(0, 1)])
    with pytest.raises(ValueError):
        extend_matching(g, [(0, 0), (1, 0)])


def test_extend_matching_searches_once_per_free_vertex(monkeypatch):
    # A free vertex with no augmenting path gains none when others augment,
    # so one search per vertex the seed leaves free is enough.
    roots = []
    augment = bipartite._augment_from

    def counted(root, *args):
        roots.append(root)
        return augment(root, *args)

    monkeypatch.setattr(bipartite, "_augment_from", counted)
    rng = random.Random(31)
    for _ in range(200):
        g = random_multigraph(rng)
        seed = _first_compatible_edges(g)[: rng.randint(0, g.left_count)]
        roots.clear()
        extend_matching(g, seed)
        seeded = {u for u, _ in seed}
        assert roots == [u for u in range(g.left_count) if u not in seeded]


def _first_compatible_edges(g):
    """A matching of g: each edge in order, kept when both ends are still free."""
    seed, lefts, rights = [], set(), set()
    for u, w in g.edges:
        if u not in lefts and w not in rights:
            seed.append((u, w))
            lefts.add(u)
            rights.add(w)
    return seed


def test_extend_matching_keeps_seeded_rights_and_is_maximum():
    for g, _ in criterion_2_graphs():
        seed = _first_compatible_edges(g)
        extended = extend_matching(g, seed)
        assert {w for _, w in seed} <= {w for _, w in extended.pairs}
        assert len(extended.pairs) == len(max_matching(g).pairs)


def chain_graph(n, reverse=False):
    """Left i joins right i and i + 1, except left 0, which joins right 1 only.

    With reverse=True the left side is listed from n - 1 down to 0, so that
    max_matching's greedy pass leaves left n - 1 (chain vertex 0) free and
    its one augmenting search must follow the whole chain.
    """
    label = (lambda i: n - 1 - i) if reverse else (lambda i: i)
    edges = [(label(0), 1)]
    for i in range(1, n):
        edges += [(label(i), i), (label(i), i + 1)]
    return BipartiteMultigraph(tuple(range(n)), tuple(range(n + 1)), tuple(edges))


def test_extend_matching_follows_a_3000_vertex_chain():
    n = 3000
    extended = extend_matching(chain_graph(n), [(i, i) for i in range(1, n)])
    assert extended.pairs == tuple((i, i + 1) for i in range(n))


def test_max_matching_follows_a_3000_vertex_chain():
    # saturating_matching runs the library's matcher (max_matching above).
    n = 3000
    assert saturating_matching(chain_graph(n)).pairs == tuple((i, i + 1) for i in range(n))
    assert saturating_matching(chain_graph(n, reverse=True)).pairs == tuple(
        (j, n - j) for j in range(n))


def test_coloring_takes_a_color_free_at_both_ends(monkeypatch):
    # The last edge meets color 1 at right vertex 0 and color 2 is free at
    # both of its ends, so no alternating chain needs flipping.
    flips = []
    flip = bipartite._flip_chain

    def counted_flip(*args):
        flips.append(args[:3])
        return flip(*args)

    monkeypatch.setattr(bipartite, "_flip_chain", counted_flip)
    g = BipartiteMultigraph((0, 1, 2), (0, 1), ((0, 0), (1, 1), (0, 1), (2, 0)))
    coloring = equitable_edge_coloring(g, 3)
    assert flips == []
    assert is_equitable(g, coloring)


def reference_coloring(g: BipartiteMultigraph, k: int) -> tuple[int, ...]:
    """The kernel's rule with a dict per copy (color -> edge) instead of bit
    sets.  Edges are taken grouped by left vertex, and each vertex is split
    into copies of k edges in that order; the i-th left copy tries colors
    (i mod k) + 1 .. k, then 1 .. i mod k, for one free at both ends, and
    only when there is none flips an alternating chain."""
    order = sorted(range(len(g.edges)), key=lambda e: g.edges[e][0])
    copies: dict = {}
    seen: dict = {}
    endpoint, first, lefts = [], [], {}
    for e in order:
        u, w = g.edges[e]
        ends = []
        for side, v in ((0, u), (1, w)):
            pos = seen.get((side, v), 0)
            seen[(side, v)] = pos + 1
            ends.append(copies.setdefault((side, v, pos // k), len(copies)))
        endpoint.append(ends)
        first.append(lefts.setdefault(ends[0], len(lefts)) % k + 1)
    used = [{} for _ in copies]
    color = []
    for e, (cu, cw) in enumerate(endpoint):
        colors = list(range(first[e], k + 1)) + list(range(1, first[e]))
        pick = next((c for c in colors if c not in used[cu] and c not in used[cw]), 0)
        if not pick:
            pick = min(c for c in colors if c not in used[cu])
            other = min(c for c in colors if c not in used[cw])
            path, vertex, want = [], cw, pick
            while want in used[vertex]:
                f = used[vertex][want]
                path.append(f)
                cu_f, cw_f = endpoint[f]
                vertex = cw_f if cu_f == vertex else cu_f
                want = other if want == pick else pick
            for f in path:
                for v in endpoint[f]:
                    del used[v][color[f]]
            for f in path:
                color[f] = other if color[f] == pick else pick
                for v in endpoint[f]:
                    used[v][color[f]] = f
        used[cu][pick] = used[cw][pick] = e
        color.append(pick)
    by_edge = [0] * len(g.edges)
    for e, c in zip(order, color):
        by_edge[e] = c
    return tuple(by_edge)


def by_copy(g: BipartiteMultigraph, k: int, color_of) -> list[dict[int, int]]:
    """Each left copy's right vertex per colour: the edges grouped by left
    vertex, in edge order, and cut into copies of k, as the kernel cuts its
    cells.  Parallel edges of one copy may swap colours without changing it."""
    groups: list[list[int]] = [[] for _ in g.left_labels]
    for e, (u, _) in enumerate(g.edges):
        groups[u].append(e)
    return [{color_of[e]: g.edges[e][1] for e in group[i:i + k]}
            for group in groups for i in range(0, len(group), k)]


def parallel_colours_ascend(g: BipartiteMultigraph, k: int, color_of) -> bool:
    """Whether the parallel edges of each left copy take ascending colours in edge order."""
    last: dict = {}
    seen: dict = {}
    for e, (u, w) in enumerate(g.edges):
        copy = (u, seen.get(u, 0) // k)
        seen[u] = seen.get(u, 0) + 1
        if last.get((copy, w), 0) > color_of[e]:
            return False
        last[(copy, w)] = color_of[e]
    return True


def criterion_2_graphs():
    """The acceptance suite's criterion-2 graphs, each with its color count."""
    rng = random.Random(271828)
    graphs = []
    for _ in range(1000):
        nl = rng.randint(1, 20)
        nr = rng.randint(1, 20)
        m = rng.randint(0, 200)
        edges = tuple((rng.randrange(nl), rng.randrange(nr)) for _ in range(m))
        g = BipartiteMultigraph(tuple(range(nl)), tuple(range(nr)), edges)
        graphs.append((g, rng.randint(1, 6)))
    return graphs


def test_coloring_matches_the_dict_reference(monkeypatch):
    # The criterion-2 graphs of the acceptance suite, then denser random
    # multigraphs with more colors, where chains are flipped more often.
    flips = []
    flip = bipartite._flip_chain

    def counted_flip(*args):
        flips.append(args[:3])
        return flip(*args)

    monkeypatch.setattr(bipartite, "_flip_chain", counted_flip)
    graphs = criterion_2_graphs()
    rng = random.Random(6)
    graphs.extend((random_multigraph(rng, max_side=6, max_edges=120), rng.randint(1, 12))
                  for _ in range(300))
    parallel = 0
    for g, k in graphs:
        colors, reference = equitable_edge_coloring(g, k).color_of, reference_coloring(g, k)
        assert by_copy(g, k, colors) == by_copy(g, k, reference), (g, k)
        assert parallel_colours_ascend(g, k, colors), (g, k)
        parallel += colors != reference
    assert len(flips) > 100
    assert parallel  # the reference colours some parallel edges out of order


def test_coloring_restarts_on_split_rights_after_chain_flips(monkeypatch):
    # Right vertex 2 has three edges at k = 2.  Left vertex 1's edge to it
    # finds no color free at both ends and flips a chain; only left vertex
    # 2's edge then finds vertex 2 with no free color, so the kernel splits
    # the right vertices into copies and colors again from the start.
    events = []
    flip, split = bipartite._flip_chain, bipartite._split_rights

    def counted_flip(*args):
        events.append("flip")
        return flip(*args)

    def counted_split(*args):
        events.append("split")
        return split(*args)

    monkeypatch.setattr(bipartite, "_flip_chain", counted_flip)
    monkeypatch.setattr(bipartite, "_split_rights", counted_split)
    g = BipartiteMultigraph((0, 1, 2), (0, 1, 2), ((0, 2), (1, 0), (1, 2), (2, 2)))
    coloring = equitable_edge_coloring(g, 2)
    assert events[:2] == ["flip", "split"]
    assert is_equitable(g, coloring)
    assert by_copy(g, 2, coloring.color_of) == by_copy(g, 2, reference_coloring(g, 2))


def test_color_cells_returns_one_class_per_colour(monkeypatch):
    # The kernel's output contract on seeded random cells: k lists, one per
    # colour, each with one entry per cell copy (-1 in a short copy); the
    # copies, read across the classes, hold exactly their cell slices; each
    # class holds a right vertex of degree d floor(d/k) or ceil(d/k) times,
    # so at most once when d <= k; and the copies agree with the dict
    # reference.  The draws cover repeats, short copies, k = 1 and the
    # _split_rights restart.
    splits = []
    split = bipartite._split_rights

    def counted_split(*args):
        splits.append(args)
        return split(*args)

    monkeypatch.setattr(bipartite, "_split_rights", counted_split)
    rng = random.Random(31)
    seen = set()
    for _ in range(1500):
        k, right = rng.randint(1, 6), rng.randint(1, 8)
        cells = [[rng.randrange(right) for _ in range(rng.randint(0, 3 * k))]
                 for _ in range(rng.randint(0, 7))]
        restarts = len(splits)
        classes = bipartite._color_cells(cells, k, right)
        slices = [cell[i:i + k] for cell in cells for i in range(0, len(cell), k)]
        assert len(classes) == k
        assert all(len(cls) == len(slices) for cls in classes)
        for row, slice_ in zip(zip(*classes), slices):
            assert sorted(w for w in row if w >= 0) == sorted(slice_)
        degree = [0] * right
        for cell in cells:
            for w in cell:
                degree[w] += 1
        for cls in classes:
            for w, d in enumerate(degree):
                assert d // k <= cls.count(w) <= -(-d // k), (cells, k)
        edges = tuple((u, w) for u, cell in enumerate(cells) for w in cell)
        g = BipartiteMultigraph(tuple(range(len(cells))), tuple(range(right)), edges)
        mine = [{c: w for c, w in enumerate(row, 1) if w >= 0} for row in zip(*classes)]
        assert mine == by_copy(g, k, reference_coloring(g, k)), (cells, k)
        seen.update(name for name, hit in (
            ("repeat", any(len(set(cell)) < len(cell) for cell in cells)),
            ("short copy", any(len(slice_) < k for slice_ in slices)),
            ("k = 1", k == 1),
            ("restart", len(splits) > restarts)) if hit)
    assert seen == {"repeat", "short copy", "k = 1", "restart"}


def adjacency(g):
    return [sorted({w for u, w in g.edges if u == x}) for x in range(g.left_count)]


def replicated(adj, capacity, right_count):
    """The graph in which left vertex u * capacity + c is copy c of u."""
    edges = tuple((u * capacity + c, w) for u, hood in enumerate(adj)
                  for c in range(capacity) for w in hood)
    return BipartiteMultigraph(tuple(range(len(adj) * capacity)), tuple(range(right_count)),
                               edges)


def check_capacitated(adj, capacity, right_count, result):
    """The result is a valid filling, or a violator of the replicated graph;
    returns whether it filled."""
    if isinstance(result, HallViolator):
        assert verify_violator(replicated(adj, capacity, right_count), result)
        return False
    assert len(result) == len(adj)
    for got, hood in zip(result, adj):
        assert len(got) == capacity and got == sorted(got) and set(got) <= set(hood)
    placed = [w for got in result for w in got]
    assert len(placed) == len(set(placed))
    return True


def test_capacitated_matching_with_capacity_one_is_max_matching():
    outcomes = []
    for g, _ in criterion_2_graphs():
        adj = adjacency(g)
        result = capacitated_matching(adj, 1, g.right_count)
        filled = check_capacitated(adj, 1, g.right_count, result)
        assert filled == (len(max_matching(g).pairs) == g.left_count)
        if not filled:
            assert verify_violator(g, result)
        outcomes.append(filled)
    assert 100 < sum(outcomes) < 900


def test_capacitated_matching_agrees_on_replicated_graphs():
    rng = random.Random(17)
    outcomes = []
    for _ in range(400):
        g = random_multigraph(rng, max_side=7, max_edges=30)
        capacity = rng.randint(1, 3)
        adj = adjacency(g)
        result = capacitated_matching(adj, capacity, g.right_count)
        filled = check_capacitated(adj, capacity, g.right_count, result)
        expected = saturating_matching(replicated(adj, capacity, g.right_count))
        assert filled == isinstance(expected, Matching)
        outcomes.append(filled)
    assert 40 < sum(outcomes) < 360


def test_capacitated_matching_is_deterministic():
    rng = random.Random(8)
    for _ in range(100):
        g = random_multigraph(rng, max_side=8, max_edges=40)
        capacity = rng.randint(1, 3)
        adj = adjacency(g)
        assert (capacitated_matching(adj, capacity, g.right_count)
                == capacitated_matching(adj, capacity, g.right_count))


def test_capacitated_matching_follows_a_3000_vertex_chain():
    # Greedy gives left i < n - 1 right vertex i, leaving left n - 1, whose
    # only neighbor is 0, short; the one augmenting path passes every left.
    n = 3000
    adj = [[i, i + 1] for i in range(n - 1)] + [[0]]
    assert capacitated_matching(adj, 1, n) == [[i + 1] for i in range(n - 1)] + [[0]]
