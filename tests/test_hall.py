import functools
import itertools
import random
import re
from pathlib import Path

import pytest

from sudoku_ryser import hall as hall_module
from sudoku_ryser.fixtures import (
    brute_force_complete,
    gen_random_valid_rectangle,
)
from sudoku_ryser.grid import (
    embed_in_square,
    empty_grid,
    grid_from_rows,
    parse_grid,
    validate_partial,
)
from sudoku_ryser.hall import (
    alpha_cells,
    hall_condition,
    hall_condition_graph,
    hall_inequality,
    list_assignment,
    ryser_counts,
    whole_square_inequality,
)

# Three preassigned cells in a (2,2) square: 1 and 2 in row 1 of the first
# big cell, 3 in the second big cell at (2,3).
BLOCKED = empty_grid(2, 2).with_cell(1, 1, 1).with_cell(1, 2, 2).with_cell(2, 3, 3)


def test_lists_filled_cell_is_singleton():
    lists = list_assignment(BLOCKED)
    assert lists[(1, 1)] == frozenset({1})
    assert lists[(2, 3)] == frozenset({3})


def test_lists_empty_grid():
    lists = list_assignment(empty_grid(2, 2))
    assert all(lst == frozenset({1, 2, 3, 4}) for lst in lists.values())


def test_lists_blocked_instance():
    lists = list_assignment(BLOCKED)
    assert lists[(1, 3)] == frozenset({4})
    assert lists[(1, 4)] == frozenset({4})


def test_lists_flavors_differ():
    latin = list_assignment(BLOCKED, flavor="latin")
    assert latin[(1, 4)] == frozenset({3, 4})


def test_lists_gerechte_needs_partition():
    with pytest.raises(ValueError):
        list_assignment(empty_grid(2, 2), flavor="gerechte")


def test_alpha_single_cell():
    assert alpha_cells(BLOCKED, 4, [(1, 3)]) == 1


def test_alpha_same_row():
    assert alpha_cells(BLOCKED, 4, [(1, 3), (1, 4)]) == 1


def test_alpha_big_cell_clause():
    grid = empty_grid(2, 2)
    # (1,1) and (2,2) share a big cell but not a row or column.
    assert alpha_cells(grid, 1, [(1, 1), (2, 2)]) == 1
    assert alpha_cells(grid, 1, [(1, 1), (2, 2)], flavor="latin") == 2


def _alpha_reference(square, sigma, cells, flavor):
    # Tries sets of sigma's candidate cells by size; a set holding an
    # independent k-set holds one of every smaller size, so it stops at the
    # first size with none.
    lists = list_assignment(square, flavor)
    p, q = square.geometry.p, square.geometry.q

    def independent(combo):
        units = [{r for r, _ in combo}, {c for _, c in combo}]
        if flavor == "sudoku":
            units.append({((r - 1) // p, (c - 1) // q) for r, c in combo})
        return all(len(unit) == len(combo) for unit in units)

    cand = [cell for cell in cells if sigma in lists[cell]]
    best = 0
    for k in range(1, len(cand) + 1):
        if not any(map(independent, itertools.combinations(cand, k))):
            break
        best = k
    return best


def test_alpha_matches_exhaustive_reference():
    # Sampled cells of (2,2) embeddings in both flavors.
    rng = random.Random(31)
    for _ in range(40):
        grid = gen_random_valid_rectangle(2, 2, rng.randint(1, 3), rng.randint(1, 3),
                                          rng.randint(0, 999))
        square = embed_in_square(grid)
        empties = square.empty_cells()
        cells = rng.sample(empties, min(len(empties), 6))
        for flavor in ("sudoku", "latin"):
            for sigma in range(1, 5):
                assert (alpha_cells(square, sigma, cells, flavor=flavor)
                        == _alpha_reference(square, sigma, cells, flavor))


def test_latin_alpha_matching_equals_search():
    # The latin alpha is a row-column matching; on sampled cells and on
    # every cell of (1,4) embeddings it equals the exhaustive search.
    rng = random.Random(77)
    every = [(r, c) for r in range(1, 5) for c in range(1, 5)]
    for _ in range(20):
        grid = gen_random_valid_rectangle(1, 4, rng.randint(1, 3), rng.randint(1, 3),
                                          rng.randint(0, 999))
        square = embed_in_square(grid)
        for cells in (rng.sample(every, 8), every):
            for sigma in range(1, 5):
                assert (alpha_cells(square, sigma, cells, flavor="latin")
                        == _alpha_reference(square, sigma, cells, "latin"))


def test_lists_match_scan_reference():
    # Each empty cell lists the symbols absent from its row, its column and
    # the flavor's unit, read straight from the cells.  The parts are the
    # broken diagonals, which cross every big cell.
    rng = random.Random(3)
    partition = [[(r + c) % 4 + 1 for c in range(4)] for r in range(4)]
    boxes = [[r // 2 * 2 + c // 2 for c in range(4)] for r in range(4)]
    for _ in range(10):
        square = embed_in_square(gen_random_valid_rectangle(2, 2, rng.randint(1, 4),
                                                            rng.randint(1, 4), rng.randint(0, 999)))
        gerechte = grid_from_rows(2, 2, [list(row) for row in square.cells], partition=partition)
        for grid, flavor, units in ((square, "latin", None), (square, "sudoku", boxes),
                                    (gerechte, "gerechte", partition)):
            lists = list_assignment(grid, flavor)
            for r in range(1, 5):
                for c in range(1, 5):
                    if grid.at(r, c) is not None:
                        assert lists[(r, c)] == {grid.at(r, c)}
                        continue
                    seen = grid.row_symbols(r) | {grid.at(i, c) for i in range(1, 5)}
                    if units is not None:
                        seen |= {grid.at(i, j) for i in range(1, 5) for j in range(1, 5)
                                 if units[i - 1][j - 1] == units[r - 1][c - 1]}
                    assert lists[(r, c)] == set(range(1, 5)) - seen


def test_latin_hall_inequality_has_no_gate():
    # 36 cells each list every symbol: the latin alpha is a matching at any
    # size, while the sudoku flavor's exact search refuses past its gate.
    grid = empty_grid(2, 3)
    cells = [(r, c) for r in range(1, 7) for c in range(1, 7)]
    assert hall_inequality(grid, cells, flavor="latin") == (36, 36, True)
    assert whole_square_inequality(grid, flavor="latin") == (36, 36, True)
    with pytest.raises(ValueError, match="gate"):
        alpha_cells(grid, 1, cells, flavor="sudoku")
    with pytest.raises(ValueError, match="gate"):
        hall_inequality(grid, cells, flavor="sudoku")
    with pytest.raises(ValueError, match="gate"):
        whole_square_inequality(grid, flavor="sudoku")


def test_whole_square_is_hall_inequality_over_every_cell():
    # (2,3) squares give the latin flavor symbols with more than 30
    # candidate cells; the sudoku flavor refuses those in both calls alike.
    rng = random.Random(14)
    answered = 0
    for p, q in ((2, 2), (1, 4), (2, 3)):
        n = p * q
        every = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
        for _ in range(6):
            square = embed_in_square(gen_random_valid_rectangle(
                p, q, rng.randint(1, n - 1), rng.randint(1, n - 1), rng.randint(0, 999)))
            for flavor in ("latin", "sudoku"):
                try:
                    whole = whole_square_inequality(square, flavor)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        hall_inequality(square, every, flavor)
                    continue
                assert hall_inequality(square, every, flavor) == whole
                answered += 1
    assert answered > 30


@pytest.mark.parametrize("cell", [(0, 1), (5, 1), (1, -1)])
def test_cells_outside_the_grid_are_refused(cell):
    with pytest.raises(ValueError, match=re.escape(str(cell))):
        alpha_cells(empty_grid(2, 2), 1, [cell])
    with pytest.raises(ValueError, match=re.escape(str(cell))):
        hall_inequality(empty_grid(2, 2), [(1, 1), cell])


def test_hall_inequality_blocked_pair():
    lhs, size, ok = hall_inequality(BLOCKED, [(1, 3), (1, 4)])
    assert (lhs, size, ok) == (1, 2, False)


def test_hall_inequality_empty_subset():
    assert hall_inequality(BLOCKED, []) == (0, 0, True)


def test_hall_inequality_completed_square():
    square = grid_from_rows(2, 2, [[1, 2, 3, 4], [3, 4, 1, 2],
                                   [2, 1, 4, 3], [4, 3, 2, 1]])
    cells = [(1, 1), (2, 2), (3, 3), (1, 4), (4, 4)]
    lhs, size, ok = hall_inequality(square, cells)
    assert ok and lhs == size == 5


def test_hall_condition_blocked_witness():
    report = hall_condition(BLOCKED)
    assert not report.holds
    cells, lhs, size = report.witness
    assert cells == ((1, 3), (1, 4))
    assert lhs == 1 and size == 2


def test_hall_condition_completed_square_holds():
    square = grid_from_rows(2, 2, [[1, 2, 3, 4], [3, 4, 1, 2],
                                   [2, 1, 4, 3], [4, 3, 2, 1]])
    report = hall_condition(square)
    assert report.holds and not report.gave_up
    assert report.subsets_checked == 1  # only the empty subset


def test_hall_condition_refuses_an_invalid_grid():
    # The filled square repeats 2 in its last row, so it has no completion
    # for the condition to speak of; validation runs under the flavor
    # checked and before the gate.  The latin square clashes only in its
    # big cells, so it is refused as sudoku and holds as latin.
    clash = grid_from_rows(2, 2, [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 2]])
    for flavor in ("sudoku", "latin"):
        with pytest.raises(ValueError, match="invalid grid: row"):
            hall_condition(clash, flavor=flavor)
    with pytest.raises(ValueError, match="invalid grid: bigcell"):
        hall_condition(empty_grid(2, 3).with_cell(1, 1, 1).with_cell(2, 2, 1), gate=18)
    latin = grid_from_rows(2, 2, [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]])
    with pytest.raises(ValueError, match="invalid grid: bigcell"):
        hall_condition(latin)
    assert hall_condition(latin, flavor="latin").holds


def test_hall_condition_gate():
    report = hall_condition(empty_grid(2, 3), gate=18)
    assert report.gave_up
    assert report.subsets_checked == 0


def test_hall_condition_filled_cells_reduction():
    rng = random.Random(8)
    for _ in range(25):
        grid = gen_random_valid_rectangle(2, 2, rng.randint(1, 4), rng.randint(1, 4),
                                          rng.randint(0, 999))
        square = embed_in_square(grid)
        empties = square.empty_cells()
        filled = [(r, c) for r, c, _ in square.filled()]
        some_empty = rng.sample(empties, min(len(empties), 4))
        some_filled = rng.sample(filled, min(len(filled), 3))
        mixed = some_empty + some_filled
        _, _, ok_mixed = hall_inequality(square, mixed)
        _, _, ok_empty = hall_inequality(square, some_empty)
        assert ok_mixed == ok_empty


def test_ryser_counts_failure():
    grid = grid_from_rows(1, 3, [[1, 2], [2, 1]])
    report = ryser_counts(grid, 3)
    assert report.counts == {1: 2, 2: 2, 3: 0}
    assert report.bound == 1
    assert not report.ok and report.failing == (3,)


def test_ryser_counts_larger_order_passes():
    grid = grid_from_rows(1, 4, [[1, 2], [2, 1]])
    report = ryser_counts(grid, 4)
    assert report.ok and report.bound == 0


def test_ryser_counts_full_square():
    square = grid_from_rows(1, 3, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    report = ryser_counts(square, 3)
    assert report.ok and all(v == 3 for v in report.counts.values())


def test_whole_square_inequality_failing_embedding():
    grid = grid_from_rows(1, 3, [[1, 2], [2, 1]])
    square = embed_in_square(grid)
    lhs, total, ok = whole_square_inequality(square, flavor="latin")
    assert (lhs, total, ok) == (8, 9, False)


def test_whole_square_inequality_empty_square():
    lhs, total, ok = whole_square_inequality(empty_grid(1, 4), flavor="latin")
    assert ok and lhs == total == 16


def test_whole_square_inequality_completable_embedding():
    grid = grid_from_rows(1, 3, [[1, 2], [2, 3]])
    lhs, total, ok = whole_square_inequality(embed_in_square(grid), flavor="latin")
    assert ok and lhs >= total


def test_whole_square_sudoku_flavor():
    square = embed_in_square(grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1], [2, 1, 4]]))
    lhs, total, ok = whole_square_inequality(square, flavor="sudoku")
    assert ok and total == 16


def test_graph_condition_single_edge_same_lists():
    report = hall_condition_graph(["a", "b"], [("a", "b")],
                                  {"a": {1}, "b": {1}})
    assert not report.holds
    cells, lhs, size = report.witness
    assert set(cells) == {"a", "b"} and lhs == 1


def test_graph_condition_single_edge_distinct_lists():
    report = hall_condition_graph(["a", "b"], [("a", "b")],
                                  {"a": {1}, "b": {2}})
    assert report.holds


def test_graph_condition_path():
    report = hall_condition_graph(["a", "b", "c"], [("a", "b"), ("b", "c")],
                                  {v: {1, 2} for v in "abc"})
    assert report.holds


def test_whole_square_stable_under_legal_fill():
    # Filling a cell with a value taken from an actual completion never
    # breaks a holding whole-square inequality.
    rng = random.Random(21)
    checked = 0
    for _ in range(20):
        grid = gen_random_valid_rectangle(1, 4, rng.randint(1, 3), rng.randint(1, 3),
                                          rng.randint(0, 999))
        square = embed_in_square(grid)
        _, _, ok = whole_square_inequality(square, flavor="latin")
        oracle = brute_force_complete(square)
        if not ok or oracle.outcome != "found":
            continue
        empties = square.empty_cells()
        r, c = rng.choice(empties)
        filled = square.with_cell(r, c, oracle.square.at(r, c))
        lhs, total, still_ok = whole_square_inequality(filled, flavor="latin")
        assert still_ok and lhs >= total
        checked += 1
    assert checked > 5


def test_hall_condition_agrees_with_oracle_small():
    rng = random.Random(4)
    for _ in range(12):
        grid = gen_random_valid_rectangle(2, 2, rng.randint(2, 4), rng.randint(2, 4),
                                          rng.randint(0, 999))
        square = embed_in_square(grid)
        report = hall_condition(square)
        oracle = brute_force_complete(square)
        assert report.holds == (oracle.outcome == "found")


def _reference_condition(count, adjacent, lists, gate=18):
    """(holds, witness, subsets_checked, gave_up) by plain enumeration.

    Subsets of positions 0..count-1 come in the depth-first lexicographic
    order the library uses; alpha is the size of a largest independent
    subset of the candidates, found by trying every combination.
    """
    if count > gate:
        return True, None, 0, True
    colors = sorted({c for lst in lists for c in lst})

    def alpha(color, subset):
        cand = [i for i in subset if color in lists[i]]
        for k in range(len(cand), 0, -1):
            for combo in itertools.combinations(cand, k):
                if not any(adjacent(a, b) for a, b in itertools.combinations(combo, 2)):
                    return k
        return 0

    def subsets(start, prefix):
        for i in range(start, count):
            yield prefix + (i,)
            yield from subsets(i + 1, prefix + (i,))

    checked = 1
    for subset in subsets(0, ()):
        checked += 1
        lhs = sum(alpha(color, subset) for color in colors)
        if lhs < len(subset):
            return False, (subset, lhs, len(subset)), checked, False
    return True, None, checked, False


def _report_tuple(report):
    return report.holds, report.witness, report.subsets_checked, report.gave_up


def test_hall_condition_matches_reference():
    # At most 10 empty cells; random 3 x 3 rectangles are the ones that
    # sometimes fail, so they are drawn most.
    rng = random.Random(12)
    failing = 0
    for r, s in [(2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3)] * 3 + [(3, 3)] * 30:
        square = embed_in_square(gen_random_valid_rectangle(2, 2, r, s, rng.randint(0, 999)))
        empties = sorted(square.empty_cells())
        for flavor in ("sudoku", "latin"):
            lists = list_assignment(square, flavor)

            def adjacent(a, b):
                (r1, c1), (r2, c2) = empties[a], empties[b]
                same_box = ((r1 - 1) // 2, (c1 - 1) // 2) == ((r2 - 1) // 2, (c2 - 1) // 2)
                return r1 == r2 or c1 == c2 or (flavor == "sudoku" and same_box)

            holds, witness, checked, gave_up = _reference_condition(
                len(empties), adjacent, [lists[cell] for cell in empties])
            if witness is not None:
                subset, lhs, size = witness
                witness = tuple(empties[i] for i in subset), lhs, size
                failing += 1
            expected = (holds, witness, checked, gave_up)
            assert _report_tuple(hall_condition(square, flavor=flavor)) == expected
    assert failing > 0


def test_hall_condition_graph_matches_reference():
    rng = random.Random(5)
    failing = 0
    for case in range(200):
        count = rng.randint(0, 8)
        names = [f"v{i}" for i in range(count)]
        density = rng.random()
        edges = {(a, b) for a, b in itertools.combinations(range(count), 2)
                 if rng.random() < density}
        lists = [frozenset(c for c in (1, 2, 3) if rng.random() < 0.45)
                 for _ in range(count)]
        gate = 6 if case % 10 == 0 else 18
        holds, witness, checked, gave_up = _reference_condition(
            count, lambda a, b: (min(a, b), max(a, b)) in edges, lists, gate)
        if witness is not None:
            subset, lhs, size = witness
            witness = tuple(names[i] for i in subset), lhs, size
            failing += 1
        report = hall_condition_graph(names, [(names[a], names[b]) for a, b in sorted(edges)],
                                      dict(zip(names, lists)), gate)
        assert _report_tuple(report) == (holds, witness, checked, gave_up)
    assert failing > 0


def test_hall_condition_graph_matches_reference_with_skipped_subtrees():
    # 9 or 10 vertices whose lists take 2 to 4 of 4 colours: most subsets
    # pass the greedy screen with room to spare, so the search certifies
    # whole subtrees, while denser graphs still fail somewhere.
    rng = random.Random(9)
    holding = failing = 0
    while holding < 40 or failing < 10:
        count = rng.randint(9, 10)
        density = rng.uniform(0.2, 0.9)
        edges = {(a, b) for a, b in itertools.combinations(range(count), 2)
                 if rng.random() < density}
        lists = [frozenset(rng.sample(range(1, 5), rng.randint(2, 4))) for _ in range(count)]
        expected = _reference_condition(
            count, lambda a, b: (min(a, b), max(a, b)) in edges, lists)
        report = hall_condition_graph(range(count), sorted(edges), dict(enumerate(lists)))
        assert _report_tuple(report) == expected
        holding += expected[0]
        failing += not expected[0]


def test_max_independent_matches_brute_force():
    # Sparse graphs leave many vertices with at most one neighbour, which
    # are taken without branching; dense ones take the branch and bound.
    rng = random.Random(21)
    for _ in range(300):
        count = rng.randint(0, 10)
        density = rng.choice((0.1, 0.3, 0.5, 0.8))
        adj = [0] * count
        for a, b in itertools.combinations(range(count), 2):
            if rng.random() < density:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        cand = rng.getrandbits(count) if count else 0
        best = max(sub.bit_count() for sub in range(cand + 1)
                   if not sub & ~cand
                   and not any(sub >> i & 1 and adj[i] & sub for i in range(count)))
        assert hall_module._max_independent(cand, adj) == best


HALL_GAP = Path(__file__).resolve().parent.parent / "fixtures" / "hall_gap_order5.grid"


def test_hall_condition_holds_on_an_incompletable_order5_latin_square():
    # The paper proves Hall's Condition sufficient for partial Sudoku
    # rectangles; on a general partial square it is only necessary.  On this
    # order-5 partial latin square every subset of the 16 empty cells meets
    # Hall's Inequality, yet no completion exists.  A brute force written
    # here, apart from the library, agrees on both points.
    text = HALL_GAP.read_text(encoding="utf-8")
    grid = parse_grid(text)
    report = hall_condition(grid)
    assert report.holds and not report.gave_up and report.subsets_checked == 2 ** 16
    assert brute_force_complete(grid).outcome == "incompletable"

    rows = [[0 if tok == "." else int(tok) for tok in line.split()]
            for line in text.splitlines()[2:]]
    n = len(rows)
    empty = [(r, c) for r in range(n) for c in range(n) if not rows[r][c]]

    def allowed(r, c):
        return [k for k in range(1, n + 1)
                if k not in rows[r] and all(row[c] != k for row in rows)]

    has = [sum(1 << i for i, (r, c) in enumerate(empty) if k in allowed(r, c))
           for k in range(1, n + 1)]
    # clash[i]: the empty cells sharing a row or a column with cell i, and i.
    clash = [sum(1 << j for j, (r2, c2) in enumerate(empty) if r2 == r or c2 == c)
             for r, c in empty]

    @functools.cache
    def alpha(mask):  # most cells of mask with no two in one row or column
        if not mask:
            return 0
        i = (mask & -mask).bit_length() - 1
        return max(alpha(mask & ~(1 << i)), 1 + alpha(mask & ~clash[i]))

    assert len(empty) == 16
    assert all(sum(alpha(subset & h) for h in has) >= subset.bit_count()
               for subset in range(1 << len(empty)))

    def fill(i):  # some completion of the empty cells from i on
        if i == len(empty):
            return True
        r, c = empty[i]
        for k in allowed(r, c):
            rows[r][c] = k
            if fill(i + 1):
                return True
        rows[r][c] = 0
        return False

    assert not fill(0)
