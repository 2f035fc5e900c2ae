import itertools
import random

import pytest

from sudoku_ryser import outline
from sudoku_ryser.bipartite import (
    BipartiteMultigraph,
    EdgeColoring,
    _color_cells,
    equitable_edge_coloring,
    is_equitable,
)
from sudoku_ryser.fixtures import random_latin_square
from sudoku_ryser.grid import grid_from_rows, validate_partial
from sudoku_ryser.outline import (
    OutlineError,
    OutlineLatinSquare,
    amalgamate,
    expand_outline,
    split_front,
    validate_outline,
)

L4 = grid_from_rows(1, 4, [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]])


def random_composition(rng, n):
    parts = []
    left = n
    while left:
        part = rng.randint(1, left)
        parts.append(part)
        left -= part
    return tuple(parts)


def test_amalgamate_identity_compositions():
    unit = (1, 1, 1, 1)
    o = amalgamate(L4, unit, unit, unit)
    assert o.cells[0][0] == (1,)
    assert all(len(o.cells[i][j]) == 1 for i in range(4) for j in range(4))
    assert all(o.cells[i][j][0] == L4.cells[i][j] for i in range(4) for j in range(4))


def test_amalgamate_single_cell():
    o = amalgamate(L4, (4,), (4,), (1, 1, 1, 1))
    assert o.cells == ((tuple(sorted([1, 2, 3, 4] * 4)),),)


def test_amalgamate_blocks():
    o = amalgamate(L4, (2, 2), (2, 2), (1, 1, 1, 1))
    assert o.cells[0][0] == (1, 2, 3, 4)
    assert validate_outline(o).ok


def test_amalgamate_rejects_bad_input():
    with pytest.raises(ValueError):
        amalgamate(L4, (2, 2), (2, 2), (2, 1))  # symbol composition sums to 3
    broken = grid_from_rows(1, 4, [[1, 2, 3, 4], [1, 2, 3, 4],
                                   [2, 1, 4, 3], [4, 3, 2, 1]])
    with pytest.raises(ValueError):
        amalgamate(broken, (4,), (4,), (1, 1, 1, 1))


def test_validate_outline_accepts_amalgams():
    rng = random.Random(3)
    for n in (4, 6):
        for seed in range(5):
            square = random_latin_square(n, seed)
            S = random_composition(rng, n)
            T = random_composition(rng, n)
            U = random_composition(rng, n)
            assert validate_outline(amalgamate(square, S, T, U)).ok


def test_validate_outline_flags_cell_size():
    o = amalgamate(L4, (2, 2), (2, 2), (1, 1, 1, 1))
    cells = list(list(row) for row in o.cells)
    cells[0][0] = cells[0][0][:-1]
    bad = OutlineLatinSquare(o.row_comp, o.col_comp, o.sym_comp,
                             tuple(tuple(row) for row in cells))
    report = validate_outline(bad)
    assert not report.ok
    assert any(v.kind == "cell" for v in report.violations)


def test_validate_outline_flags_column_counts():
    # Swap one symbol between two cells of the same row: row counts stay
    # fine, both column counts break.
    o = amalgamate(L4, (2, 2), (2, 2), (1, 1, 1, 1))
    cells = [list(row) for row in o.cells]
    first = list(cells[0][0])
    second = list(cells[0][1])
    moved = first[0]
    other = next(v for v in second if v != moved)
    first.remove(moved)
    first.append(other)
    second.remove(other)
    second.append(moved)
    cells[0][0] = tuple(sorted(first))
    cells[0][1] = tuple(sorted(second))
    bad = OutlineLatinSquare(o.row_comp, o.col_comp, o.sym_comp,
                             tuple(tuple(row) for row in cells))
    report = validate_outline(bad)
    assert not report.ok
    assert any(v.kind == "column" for v in report.violations)


def test_validate_outline_flags_every_move():
    # Moving one symbol instance from any cell to any other breaks at least
    # the two cells' sizes.
    o = amalgamate(random_latin_square(5, 2), (2, 1, 2), (1, 3, 1), (1, 2, 2))
    assert validate_outline(o).ok
    places = [(i, j) for i in range(3) for j in range(3)]
    moves = 0
    for (i, j), (i2, j2) in itertools.permutations(places, 2):
        for k in set(o.cells[i][j]):
            cells = [list(row) for row in o.cells]
            source = list(cells[i][j])
            source.remove(k)
            cells[i][j] = tuple(source)
            cells[i2][j2] = tuple(sorted(cells[i2][j2] + (k,)))
            bad = OutlineLatinSquare(o.row_comp, o.col_comp, o.sym_comp,
                                     tuple(tuple(row) for row in cells))
            assert not validate_outline(bad).ok, (i, j, i2, j2, k)
            moves += 1
    assert moves > 100
    # Two moves of k round a rectangle of cells keep every row and column
    # count; only the four cell sizes break.
    for (i, j), (i2, j2) in itertools.combinations(places, 2):
        for k in set(o.cells[i][j]) & set(o.cells[i2][j2]):
            if i == i2 or j == j2:
                continue
            cells = [list(row) for row in o.cells]
            for (a, b), (c, d) in (((i, j), (i, j2)), ((i2, j2), (i2, j))):
                source = list(cells[a][b])
                source.remove(k)
                cells[a][b] = tuple(source)
                cells[c][d] = tuple(sorted(cells[c][d] + (k,)))
            bad = OutlineLatinSquare(o.row_comp, o.col_comp, o.sym_comp,
                                     tuple(tuple(row) for row in cells))
            report = validate_outline(bad)
            assert not report.ok and {v.kind for v in report.violations} == {"cell"}


def test_split_front_requires_composite_part():
    unit = (1, 1, 1, 1)
    o = amalgamate(L4, unit, unit, unit)
    with pytest.raises(OutlineError):
        split_front(o, "row")


def test_split_front_row_validity_and_conservation():
    o = amalgamate(L4, (2, 2), (3, 1), (1, 1, 1, 1))
    split = split_front(o, "row")
    assert split.row_comp == (1, 1, 2)
    assert validate_outline(split).ok
    for j in range(len(o.col_comp)):
        merged = tuple(sorted(split.cells[0][j] + split.cells[1][j]))
        assert merged == o.cells[0][j]


def test_split_until_unit_takes_expected_steps():
    rng = random.Random(17)
    for n in (4, 6):
        square = random_latin_square(n, n)
        S = random_composition(rng, n)
        T = random_composition(rng, n)
        o = amalgamate(square, S, T, (1,) * n)
        steps = 0
        current = o
        while any(part >= 2 for part in current.row_comp):
            current = split_front(current, "row")
            steps += 1
            assert validate_outline(current).ok
        while any(part >= 2 for part in current.col_comp):
            current = split_front(current, "column")
            steps += 1
            assert validate_outline(current).ok
        assert steps == sum(p - 1 for p in S) + sum(q - 1 for q in T)


def test_expand_all_unit_outline_is_itself():
    unit = (1, 1, 1, 1)
    o = amalgamate(L4, unit, unit, unit)
    square = expand_outline(o)
    assert square.cells == L4.cells


def test_expand_single_cell_n2():
    o = OutlineLatinSquare((2,), (2,), (1, 1), (((1, 1, 2, 2),),))
    square = expand_outline(o)
    assert validate_partial(square).ok
    assert amalgamate(square, (2,), (2,), (1, 1)).cells == o.cells


def test_expand_requires_unit_symbols():
    o = amalgamate(L4, (2, 2), (2, 2), (2, 2))
    with pytest.raises(OutlineError):
        expand_outline(o)


def test_expand_rejects_invalid_outline():
    o = amalgamate(L4, (2, 2), (2, 2), (1, 1, 1, 1))
    cells = [list(row) for row in o.cells]
    cells[0][0] = cells[0][0][:-1]
    bad = OutlineLatinSquare(o.row_comp, o.col_comp, o.sym_comp,
                             tuple(tuple(row) for row in cells))
    with pytest.raises(OutlineError):
        expand_outline(bad)
    assert not validate_outline(bad).ok
    with pytest.raises(OutlineError):
        expand_outline(bad)


def test_outline_rejects_a_cell_array_of_the_wrong_shape():
    with pytest.raises(OutlineError, match="height"):
        OutlineLatinSquare((2,), (2,), (1, 1), (((1, 1),), ((2, 2),)))
    with pytest.raises(OutlineError, match="width"):
        OutlineLatinSquare((2,), (1, 1), (1, 1), (((1, 2),),))


def test_expand_round_trip():
    rng = random.Random(23)
    for n in (4, 6, 8):
        for case in range(4):
            square = random_latin_square(n, 100 * n + case)
            S = random_composition(rng, n)
            T = random_composition(rng, n)
            U = (1,) * n
            o = amalgamate(square, S, T, U)
            expanded = expand_outline(o)
            assert validate_partial(expanded).ok
            assert amalgamate(expanded, S, T, U) == o


def shuffled_pattern_square(p, q, seed):
    """A (p,q) pattern square with its rows, columns and symbols permuted."""
    n = p * q
    rng = random.Random(seed)
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    return grid_from_rows(1, n, [[syms[(q * (i % p) + i // p + j) % n] + 1 for j in cols]
                                 for i in rows])


@pytest.mark.parametrize("p, q, S, T", [
    (6, 6, (6,) * 6, (6,) * 6),
    (6, 6, (12, 1, 5, 18), (9, 3, 6, 6, 12)),
    (6, 6, (17, 1, 18), (1, 35)),
    (4, 9, (2, 10, 24), (30, 1, 1, 4)),
    (3, 4, (12,), (12,)),
    (3, 4, (1, 11), (11, 1)),
])
def test_expand_round_trip_at_block_sizes(p, q, S, T):
    n = p * q
    U = (1,) * n
    o = amalgamate(shuffled_pattern_square(p, q, seed=n + len(S)), S, T, U)
    expanded = expand_outline(o)
    assert validate_partial(expanded).ok
    assert amalgamate(expanded, S, T, U) == o


def test_expand_colors_each_merged_part_once(monkeypatch):
    S, T = (6, 1, 5, 12, 12), (1, 35)
    colors, splits = [], []
    core, split = outline._color_cells, outline.split_front

    def counted_coloring(cells, k, right):
        assert any(cells)
        colors.append(k)
        return core(cells, k, right)

    def counted_split(o, axis):
        splits.append(axis)
        return split(o, axis)

    monkeypatch.setattr(outline, "_color_cells", counted_coloring)
    monkeypatch.setattr(outline, "split_front", counted_split)
    o = amalgamate(shuffled_pattern_square(6, 6, seed=1), S, T, (1,) * 36)
    assert amalgamate(expand_outline(o), S, T, (1,) * 36) == o
    assert colors == [6, 5, 12, 12, 35]
    assert splits == []


def test_block_colors_are_the_generic_coloring_of_the_block_graph():
    # What equitable_edge_coloring adds over the kernel (_color_cells): it
    # groups the graph's edges by left vertex, in edge order, and gives each
    # copy's edges the colours its row gives their symbols, ascending among
    # parallel edges.  The block graph's edges are given with the cells
    # interleaved at random, each cell's own edges in order, so the grouped
    # cells are the block's cells: every edge must get its instance's colour
    # read off the kernel's rows on those cells, and the colouring must pass
    # is_equitable.
    rng = random.Random(59)
    cases = [((), 3, 4), (((),), 1, 2), (((), (2, 2, 1), ()), 1, 2)]
    for _ in range(3000):
        n, m = rng.randint(1, 10), rng.randint(1, 6)
        block = tuple(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3 * m)))
                      for _ in range(rng.randint(0, 6)))
        cases.append((block, m, n))
    seen = set()
    interleaved = 0
    for block, m, n in cases:
        grouped = [[k - 1 for k in cell] for cell in block]
        rows = iter(_color_cells(grouped, m, n))
        colour = {}
        for b, cell in enumerate(grouped):
            for first in range(0, len(cell), m):
                colours: dict = {}
                for c in range(1, m + 1):
                    colours.setdefault(next(rows), []).append(c)
                for i in range(first, min(first + m, len(cell))):
                    colour[(b, i)] = colours[cell[i]].pop(0)
        assert next(rows, None) is None
        pending = [list(range(len(cell))) for cell in grouped]
        order = []  # (cell, instance) of each edge, cells interleaved
        while any(pending):
            b = rng.choice([b for b, left in enumerate(pending) if left])
            order.append((b, pending[b].pop(0)))
        interleaved += order != sorted(order)
        edges = tuple((b, grouped[b][i]) for b, i in order)
        graph = BipartiteMultigraph(tuple(range(len(block))), tuple(range(1, n + 1)), edges)
        coloring = equitable_edge_coloring(graph, m)
        assert list(coloring.color_of) == [colour[inst] for inst in order], (block, m, n)
        assert is_equitable(graph, coloring), (block, m, n)
        degree = [0] * n
        for _, w in edges:
            degree[w] += 1
        seen.update(name for name, hit in (
            ("repeated symbol", any(len(set(cell)) < len(cell) for cell in block)),
            ("cell longer than m", any(len(cell) > m for cell in block)),
            ("symbol degree above m", max(degree) > m),
            ("empty cell", () in block),
            ("empty block", not block),
            ("m = 1", m == 1)) if hit)
    assert len(seen) == 6
    assert interleaved > 1000


def test_block_colors_pass_the_definitional_equitability_check():
    # Independent of the colouring kernel: each block's rows, read as an
    # m-edge-colouring of the graph joining its cells to the symbols (slot c
    # of a row of cell b, holding k, is an edge b-k of colour c + 1), hold
    # every symbol instance once and pass is_equitable's count at every
    # vertex.  Cells are sorted, as the library stores them, or left in draw
    # order.
    rng = random.Random(61)
    seen = set()
    for _ in range(2000):
        n, m = rng.randint(1, 10), rng.randint(1, 8)
        block = []
        for _ in range(rng.randint(1, 6)):
            cell = [rng.randint(1, n) for _ in range(rng.randint(0, 3 * m))]
            block.append(tuple(sorted(cell) if rng.random() < 0.5 else cell))
        rows = outline._block_colors(tuple(block), m, n)
        copies = [b for b, cell in enumerate(block) for _ in range(0, len(cell), m)]
        assert len(rows) == m * len(copies)
        edges, colors = [], []
        for at, b in zip(range(0, len(rows), m), copies):
            for c, k in enumerate(rows[at:at + m], 1):
                if k >= 0:
                    edges.append((b, k - 1))
                    colors.append(c)
        assert sorted(edges) == sorted((b, k - 1) for b, cell in enumerate(block) for k in cell)
        graph = BipartiteMultigraph(tuple(range(len(block))), tuple(range(1, n + 1)),
                                    tuple(edges))
        assert is_equitable(graph, EdgeColoring(m, tuple(colors))), (block, m, n)
        degrees = [len(cell) for cell in block]
        degrees += [sum(cell.count(k) for cell in block) for k in range(1, n + 1)]
        seen.update(name for name, hit in (
            ("repeated symbol", any(len(set(cell)) < len(cell) for cell in block)),
            ("empty cell", () in block),
            ("m = 1", m == 1),
            ("m above every degree", m > max(degrees))) if hit)
    assert len(seen) == 4


def test_block_slices_keep_cells_ascending():
    # Expansion no longer sorts a slice: its cells come out in the order the
    # block's cells are read, and every library-built outline stores them sorted.
    rng = random.Random(41)
    for n in (4, 6, 9, 12):
        for case in range(3):
            U = (1,) * n
            o = amalgamate(random_latin_square(n, 10 * n + case), random_composition(rng, n),
                           random_composition(rng, n), U)
            for axis, comp in (("row", o.row_comp), ("column", o.col_comp)):
                for m, block in zip(comp, outline._lines(o, axis)):
                    for slice_ in outline._block_slices(block, m, n):
                        assert all(list(cell) == sorted(cell) for cell in slice_)


def test_expand_outline_with_unsorted_cells():
    rng = random.Random(43)
    reordered = splits = 0
    for n in (4, 6, 9):
        for case in range(3):
            S, T, U = random_composition(rng, n), random_composition(rng, n), (1,) * n
            o = amalgamate(random_latin_square(n, 20 * n + case), S, T, U)
            cells = tuple(tuple(tuple(sorted(cell, reverse=True)) for cell in row)
                          for row in o.cells)
            reordered += cells != o.cells
            unsorted = OutlineLatinSquare(S, T, U, cells)
            expanded = expand_outline(unsorted)
            assert validate_partial(expanded).ok
            assert amalgamate(expanded, S, T, U) == o
            # split_front sorts both its unit slice and the merged rest.
            for axis, comp in (("row", S), ("column", T)):
                if max(comp) >= 2:
                    split = split_front(unsorted, axis)
                    assert validate_outline(split).ok
                    target = next(idx for idx, part in enumerate(comp) if part >= 2)
                    new_lines = outline._lines(split, axis)[target:target + 2]
                    assert all(list(cell) == sorted(cell) for line in new_lines for cell in line)
                    splits += 1
    assert reordered >= 6 and splits >= 6
