"""The colouring kernel's work on fixed inputs, pinned as counts and a hash.

For each input the ledger counts the coloured edges, the _flip_chain calls
and the chain edges those calls recolour, and hashes every colour list the
kernel returned, in call order.  A change that claims identical colourings
(a kernel speed-up) leaves LEDGER as it is; a change to the algorithm
records the new figures and says why.  The counts come from spies on
bipartite._flip_chain and on outline._color_cells, the name every colouring
of complete() goes through; the multigraph input is coloured by
equitable_edge_coloring and hashed from its result.
"""
import hashlib
import random

from sudoku_ryser import bipartite, outline
from sudoku_ryser.bipartite import BipartiteMultigraph, equitable_edge_coloring
from sudoku_ryser.completion import complete
from sudoku_ryser.fixtures import _pattern_square
from sudoku_ryser.grid import grid_from_rows

# input -> (coloured edges, _flip_chain calls, chain edges recoloured, sha256 of the colours)
LEDGER = {
    "(12,12) 73x49": (34560, 3833, 58968,
                      "90b157ed6527f21150fed15677dcf45738dc386236e08927cb69706caae5702d"),
    "(8,12) 49x33": (15360, 1608, 20512,
                     "3dbd6889e3d1b6d2cf03a187da9a3e729a1705853924eac817a1bd4f91df462a"),
    "(1,121) 61x41": (12140, 257, 8318,
                      "e32d5fc98f4cea801d1a6c3e651b52c7c707cb5a99a9b0ba5af8e45e711b889d"),
    "multigraph k=3": (64, 5, 12,
                       "e1ea50229185a1e634bce7df2f2e5d70e0c8d7b9731e200fc308d7732e2af7cc"),
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
}


def _ledger(monkeypatch, run):
    digest = hashlib.sha256()
    counts = {"edges": 0, "flips": 0, "walked": 0}
    core, flip = outline._color_cells, bipartite._flip_chain

    def coloring(cells, k, right):
        colors = core(cells, k, right)
        counts["edges"] += len(colors)
        digest.update(repr(colors).encode())
        return colors

    def flipping(start, a, b, at, color, ends):
        before = color[:]
        flip(start, a, b, at, color, ends)
        counts["flips"] += 1
        counts["walked"] += sum(x != y for x, y in zip(before, color))

    monkeypatch.setattr(outline, "_color_cells", coloring)
    monkeypatch.setattr(bipartite, "_flip_chain", flipping)
    result = run()
    if isinstance(result, bipartite.EdgeColoring):
        counts["edges"] += len(result.color_of)
        digest.update(repr(list(result.color_of)).encode())
    else:
        assert result.completable
    return counts["edges"], counts["flips"], counts["walked"], digest.hexdigest()


def test_coloring_work_matches_the_ledger(monkeypatch):
    for name, run in INPUTS.items():
        with monkeypatch.context() as spy:
            assert _ledger(spy, run) == LEDGER[name], name
