"""The colouring kernel's and the matcher's work on fixed inputs, pinned as
counts and a hash.

For each input the ledger counts the coloured edges, the _flip_chain calls,
the chain edges those calls recolour and the augmenting searches
(bipartite._augment_from calls), and hashes the kernel's colour classes of
every colouring, in call order, transposed into one flat list: for each
cell copy, in cell order, the right vertex of each colour (-1 where a short
copy lacks it).  A change that claims identical colourings and matchings
(a kernel speed-up) leaves LEDGER as it is; a change to the algorithm
records the new figures and says why.
The counts come from spies on bipartite._flip_chain, on
bipartite._augment_from and on outline._color_cells, the name every
colouring of complete() goes through; the multigraph input is coloured by
equitable_edge_coloring and its copies are read off its result, so parallel
edges of one copy may swap colours without changing the hash.  The (16,16)
input is the order-256 pin of the large-order work.
"""
import hashlib
import random

from sudoku_ryser import bipartite, outline
from sudoku_ryser.bipartite import BipartiteMultigraph, equitable_edge_coloring
from sudoku_ryser.completion import complete
from sudoku_ryser.fixtures import _pattern_square
from sudoku_ryser.grid import grid_from_rows

# input -> (coloured edges, _flip_chain calls, chain edges recoloured, _augment_from calls,
#           sha256 of the copies)
LEDGER = {
    "(12,12) 73x49": (34560, 3816, 59030, 33,
                      "0137bd6eee8a097707fbec3bc1592d7608e85eeaa6d572c1a5e88a209ed48c37"),
    "(8,12) 49x33": (15360, 1567, 22228, 10,
                     "5c89b82db81b429e6dc9c039b1a79bbb914967bf4b76cde1fc562da2266f9c2f"),
    "(1,121) 61x41": (12140, 257, 8318, 0,
                      "c4c4e9a4f30ddedd5c1724f08ed81e97f8be971ac32f3c04d66255cb8787b9bb"),
    "multigraph k=3": (64, 5, 12, 0,
                       "36fb42b28ae71120639c619e7255af6bd7a61b2c6841d0239aba56d7c01332c0"),
    "(16,16) 129x86": (109824, 11668, 228894, 63,
                       "1d4f4c286d7057bc92c481080dc4658790e3c2453d373e0cbe7eaf4bcdb4f6da"),
}


def _corner(p: int, q: int, r: int, s: int, seed: int):
    rows = _pattern_square(p, q, random.Random(seed))
    return grid_from_rows(p, q, [row[:s] for row in rows[:r]])


def _overfull_multigraph() -> BipartiteMultigraph:
    """Right vertex 0 takes left vertex 0's first four edges, one more than
    k = 3, before any chain is flipped; the other edges are seeded at random."""
    rng = random.Random(5)
    edges = [(0, 0)] * 4 + [(rng.randrange(7), rng.randrange(6)) for _ in range(60)]
    return BipartiteMultigraph(tuple(range(7)), tuple(range(6)), tuple(edges))


INPUTS = {
    "(12,12) 73x49": lambda: complete(_corner(12, 12, 73, 49, 1)),
    "(8,12) 49x33": lambda: complete(_corner(8, 12, 49, 33, 2)),
    "(1,121) 61x41": lambda: complete(_corner(1, 121, 61, 41, 3)),
    "multigraph k=3": lambda: equitable_edge_coloring(_overfull_multigraph(), 3),
    "(16,16) 129x86": lambda: complete(_corner(16, 16, 129, 86, 4)),
}


def _rows_of(g: BipartiteMultigraph, k: int, color_of) -> list[int]:
    """The flat copies of an edge colouring: the edges grouped by left
    vertex, in edge order, cut into copies of k, and each copy's right
    vertex written into the slot of its colour."""
    groups: list[list[int]] = [[] for _ in g.left_labels]
    for e, (u, _) in enumerate(g.edges):
        groups[u].append(e)
    rows: list[int] = []
    for group in groups:
        for first in range(0, len(group), k):
            row = [-1] * k
            for e in group[first:first + k]:
                row[color_of[e] - 1] = g.edges[e][1]
            rows += row
    return rows


def _ledger(monkeypatch, run):
    digest = hashlib.sha256()
    counts = {"edges": 0, "flips": 0, "walked": 0, "searches": 0}
    core, flip, search = outline._color_cells, bipartite._flip_chain, bipartite._augment_from

    def coloring(cells, k, right):
        classes = core(cells, k, right)
        counts["edges"] += sum(map(len, cells))
        digest.update(repr([w for copy in zip(*classes) for w in copy]).encode())
        return classes

    def flipping(w, a, b, sym, cop, taken):
        # Walk the chain before it flips: a right vertex leaves on a, a copy on b.
        u = sym[a][w]
        while u >= 0:
            counts["walked"] += 1
            x = cop[b][u]
            if x < 0:
                break
            counts["walked"] += 1
            u = sym[a][x]
        counts["flips"] += 1
        flip(w, a, b, sym, cop, taken)

    def searching(root, adj, owner, held):
        counts["searches"] += 1
        return search(root, adj, owner, held)

    monkeypatch.setattr(outline, "_color_cells", coloring)
    monkeypatch.setattr(bipartite, "_flip_chain", flipping)
    monkeypatch.setattr(bipartite, "_augment_from", searching)
    result = run()
    if isinstance(result, bipartite.EdgeColoring):
        counts["edges"] += len(result.color_of)
        digest.update(repr(_rows_of(_overfull_multigraph(), result.k, result.color_of)).encode())
    else:
        assert result.completable
    return (counts["edges"], counts["flips"], counts["walked"], counts["searches"],
            digest.hexdigest())


def test_coloring_work_matches_the_ledger(monkeypatch):
    for name, run in INPUTS.items():
        with monkeypatch.context() as spy:
            assert _ledger(spy, run) == LEDGER[name], name
