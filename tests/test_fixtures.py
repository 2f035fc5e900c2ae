import random
import time

import pytest

from sudoku_ryser import fixtures
from sudoku_ryser.fixtures import (
    brute_force_complete,
    gen_evans_big,
    gen_evans_small,
    gen_fig6,
    gen_random_rectangle,
    gen_random_valid_rectangle,
    random_latin_square,
)
from sudoku_ryser.grid import (
    _constraint_keys,
    empty_grid,
    extends,
    grid_from_rows,
    validate_partial,
)


def filled_count(grid):
    return sum(1 for _ in grid.filled())


def test_oracle_full_square_is_found_immediately():
    square = grid_from_rows(2, 2, [[1, 2, 3, 4], [3, 4, 1, 2],
                                   [2, 1, 4, 3], [4, 3, 2, 1]])
    result = brute_force_complete(square)
    assert result.outcome == "found"
    assert result.square == square
    assert result.nodes_expanded == 0


def test_oracle_empty_grid_found():
    result = brute_force_complete(empty_grid(2, 2))
    assert result.outcome == "found"
    assert validate_partial(result.square).ok
    assert result.square.is_fully_filled()


def test_oracle_rejects_invalid_input():
    with pytest.raises(ValueError):
        brute_force_complete(grid_from_rows(1, 2, [[1, 1]]))


def test_oracle_node_limit():
    result = brute_force_complete(empty_grid(3, 3), node_limit=5)
    assert result.outcome == "gaveUp"
    assert result.square is None


def test_oracle_deterministic():
    grid = gen_evans_small(2, 2)
    first = brute_force_complete(grid)
    second = brute_force_complete(grid)
    assert first.outcome == second.outcome == "incompletable"
    assert first.nodes_expanded == second.nodes_expanded


def test_oracle_finds_the_classic_grids_incompletable():
    from sudoku_ryser.grid import embed_in_square

    clash = embed_in_square(grid_from_rows(2, 3, [[1, 2], [3, 4], [2, 1], [4, 3]]))
    for grid in (gen_evans_small(2, 2), gen_evans_small(2, 3),
                 gen_fig6(4, 2, "column"), gen_fig6(4, 3, "diagonal"), clash):
        assert brute_force_complete(grid).outcome == "incompletable"


def reduced_cyclic_latin(n):
    """The cyclic latin square of order n with only row 1 and column 1 kept."""
    return grid_from_rows(1, n, [[(i + j) % n + 1 if i == 0 or j == 0 else None
                                  for j in range(n)] for i in range(n)])


def test_oracle_fills_a_grid_deeper_than_the_recursion_limit():
    grid = reduced_cyclic_latin(34)  # 1,089 empty cells
    result = brute_force_complete(grid)
    assert result.outcome == "found"
    assert validate_partial(result.square).ok and result.square.is_fully_filled()
    assert extends(grid, result.square)


def test_evans_small_layout_2_2():
    grid = gen_evans_small(2, 2)
    assert grid.at(1, 1) == 1 and grid.at(1, 2) == 2 and grid.at(2, 3) == 3
    assert filled_count(grid) == 3
    assert validate_partial(grid).ok


def test_evans_small_layout_4_4():
    grid = gen_evans_small(4, 4)
    assert [grid.at(1, j) for j in range(1, 5)] == [1, 2, 3, 4]
    assert grid.at(2, 5) == 5 and grid.at(3, 9) == 5 and grid.at(4, 13) == 5
    assert filled_count(grid) == 7


def test_evans_small_cell_count_and_incompletable():
    for p, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
        grid = gen_evans_small(p, q)
        assert filled_count(grid) == p + q - 1
        assert validate_partial(grid).ok
        assert brute_force_complete(grid).outcome == "incompletable"


def test_evans_small_rejects_degenerate():
    with pytest.raises(ValueError):
        gen_evans_small(1, 3)


def test_evans_big_blocks_2_2():
    grid = gen_evans_big(2, 2)
    assert [[grid.at(r, c) for c in (1, 2)] for r in (1, 2)] == [[1, 2], [3, 4]]
    assert [[grid.at(r, c) for c in (3, 4)] for r in (3, 4)] == [[3, 1], [4, 2]]
    assert validate_partial(grid).ok


def test_generators_match_a_cell_by_cell_construction():
    # Each generator, against its construction written here one with_cell
    # at a time from the empty square, at a few sizes.
    def placed(p, q, cells, flavor=None):
        grid = empty_grid(p, q, flavor=flavor)
        for r, c, v in cells:
            grid = grid.with_cell(r, c, v)
        return grid

    for p, q in ((2, 2), (2, 3), (3, 2), (4, 3)):
        cells = [(1, j, j) for j in range(1, q + 1)]
        cells += [(m, (m - 1) * q + 1, q + 1) for m in range(2, p + 1)]
        assert gen_evans_small(p, q) == placed(p, q, cells)
    for k, i in ((2, 2), (3, 2), (3, 3), (4, 3)):
        rows = [[(t * k) + j + 1 for j in range(k)] for t in range(k)]
        cells = []
        for t in range(1, k + 1):
            block = rows[t - 1:] + rows[:t - 1]
            for dr in range(k):
                for dc in range(k):
                    if t < i:
                        cells.append((dr + 1, (t - 1) * k + dc + 1, block[dr][dc]))
                    else:
                        cells.append(((1 + t - i) * k + dr + 1, (i - 1) * k + dc + 1,
                                      block[dc][dr]))
        assert gen_evans_big(k, i) == placed(k, k, cells)
    for n in (3, 4, 6):
        for x in range(1, n):
            cells = [(1, j, j) for j in range(1, x + 1)]
            cells += [(2 + t, x + 1, v) for t, v in enumerate(range(x + 1, n + 1))]
            assert gen_fig6(n, x, "column") == placed(1, n, cells, "latin")
        for x in range(2, n + 1):
            cells = [(1, j, j) for j in range(1, x)]
            cells += [(1 + t, x + t - 1, x) for t in range(1, n - x + 2)]
            assert gen_fig6(n, x, "diagonal") == placed(1, n, cells, "latin")


def test_evans_big_incompletable():
    assert brute_force_complete(gen_evans_big(2, 2)).outcome == "incompletable"
    result = brute_force_complete(gen_evans_big(3, 2), node_limit=2_000_000)
    assert result.outcome == "incompletable"


def test_evans_big_filled_big_cells():
    grid = gen_evans_big(3, 2)
    assert validate_partial(grid).ok
    filled_blocks = set()
    for r, c, _ in grid.filled():
        filled_blocks.add(((r - 1) // 3 + 1, (c - 1) // 3 + 1))
    assert len(filled_blocks) == 3  # (1,1) plus the transposed stack in big column 2
    assert filled_count(grid) == 3 * 9


def test_evans_big_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_evans_big(2, 1)
    with pytest.raises(ValueError):
        gen_evans_big(2, 3)


def test_fig6_column_small():
    grid = gen_fig6(3, 2, "column")
    assert grid.at(1, 1) == 1 and grid.at(1, 2) == 2 and grid.at(2, 3) == 3
    assert filled_count(grid) == 3
    assert brute_force_complete(grid).outcome == "incompletable"


def test_fig6_diagonal():
    grid = gen_fig6(4, 2, "diagonal")
    assert grid.at(1, 1) == 1
    assert grid.at(2, 2) == grid.at(3, 3) == grid.at(4, 4) == 2
    assert brute_force_complete(grid).outcome == "incompletable"


def test_fig6_counts_and_incompletable():
    for n in (3, 4, 5):
        for variant, xs in (("column", range(1, n)), ("diagonal", range(2, n + 1))):
            for x in xs:
                grid = gen_fig6(n, x, variant)
                assert filled_count(grid) == n
                assert validate_partial(grid).ok
                assert brute_force_complete(grid).outcome == "incompletable"


def test_fig6_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_fig6(4, 0, "column")
    with pytest.raises(ValueError):
        gen_fig6(4, 1, "diagonal")
    with pytest.raises(ValueError):
        gen_fig6(4, 2, "spiral")


def test_random_rectangle_valid_and_deterministic():
    for seed in range(8):
        grid = gen_random_rectangle(2, 3, 3, 4, seed)
        assert grid.rows == 3 and grid.cols == 4
        assert grid.is_fully_filled()
        assert validate_partial(grid).ok
        assert gen_random_rectangle(2, 3, 3, 4, seed) == grid


def test_random_rectangle_is_completable_by_construction():
    grid = gen_random_rectangle(2, 2, 2, 2, 5)
    assert brute_force_complete(grid).outcome == "found"


def test_random_valid_rectangle():
    for seed in range(8):
        grid = gen_random_valid_rectangle(2, 3, 4, 3, seed)
        assert grid.is_fully_filled()
        assert validate_partial(grid).ok


def plain_backtracking_rectangle(p, q, r, s, seed):
    """Row-major backtracking with shuffled options and no restart: the draw
    gen_random_valid_rectangle makes whenever its first attempt finishes."""
    rng = random.Random(seed)
    n = p * q
    base = empty_grid(p, q, rows=r, cols=s, flavor="latin" if p == 1 or q == 1 else "sudoku")
    cells = [(i, j) for i in range(1, r + 1) for j in range(1, s + 1)]
    used = {}
    values = {}

    def fill(idx):
        if idx == len(cells):
            return True
        keys = _constraint_keys(base, *cells[idx])
        options = [v for v in range(1, n + 1) if all(v not in used.get(k, ()) for k in keys)]
        rng.shuffle(options)
        for v in options:
            values[cells[idx]] = v
            for k in keys:
                used.setdefault(k, set()).add(v)
            if fill(idx + 1):
                return True
            for k in keys:
                used[k].discard(v)
        return False

    assert fill(0)
    return tuple(tuple(values[(i, j)] for j in range(1, s + 1)) for i in range(1, r + 1))


def test_random_valid_rectangle_keeps_draws_that_need_no_restart():
    rng = random.Random(3)
    for _ in range(120):
        p, q = rng.choice([(1, 4), (2, 2), (2, 3), (3, 2), (3, 3)])
        n = p * q
        r, s, seed = rng.randint(0, n), rng.randint(0, n), rng.randrange(10_000)
        assert gen_random_valid_rectangle(p, q, r, s, seed).cells == \
            plain_backtracking_rectangle(p, q, r, s, seed), (p, q, r, s, seed)


@pytest.mark.parametrize("p, q, r, s, seed", [(4, 3, 4, 10, 10), (3, 4, 12, 10, 8)])
def test_random_valid_rectangle_restarts_past_a_stall(p, q, r, s, seed):
    # Plain backtracking spends seconds on these draws; restarts end them.
    start = time.process_time()
    grid = gen_random_valid_rectangle(p, q, r, s, seed)
    assert time.process_time() - start < 1.0
    assert (grid.rows, grid.cols) == (r, s)
    assert grid.is_fully_filled() and validate_partial(grid).ok
    assert gen_random_valid_rectangle(p, q, r, s, seed) == grid


def test_random_valid_rectangle_falls_back_to_a_pattern_corner(monkeypatch):
    # With no room for any attempt, every draw with a cell is a
    # pattern-square corner: valid at every shape, latin ones included, and
    # the same for the same seed.
    monkeypatch.setattr(fixtures, "FIRST_BUDGET", 0)
    monkeypatch.setattr(fixtures, "RESTART_VISITS", 0)
    rng = random.Random(11)
    draws = set()
    for p, q in [(1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (3, 3)] * 4:
        n = p * q
        r, s, seed = rng.randint(1, n), rng.randint(1, n), rng.randrange(10_000)
        grid = gen_random_valid_rectangle(p, q, r, s, seed)
        assert (grid.rows, grid.cols) == (r, s)
        assert grid.is_fully_filled() and validate_partial(grid).ok, (p, q, r, s, seed)
        assert gen_random_valid_rectangle(p, q, r, s, seed) == grid
        draws.add(gen_random_valid_rectangle(p, q, n, n, seed).cells)
    assert len(draws) > 12  # the shuffles differ from seed to seed


def test_random_valid_rectangle_deeper_than_the_recursion_limit():
    grid = gen_random_valid_rectangle(1, 34, 34, 34, 1)  # 1,156 cells
    assert grid.is_fully_filled() and validate_partial(grid).ok


def test_random_latin_square():
    square = random_latin_square(5, 1)
    assert validate_partial(square).ok
    assert square.flavor == "latin"


def test_extends_helper():
    base = grid_from_rows(2, 2, [[1, 2]])
    good = grid_from_rows(2, 2, [[1, 2, 3, 4], [3, 4, 1, 2],
                                 [2, 1, 4, 3], [4, 3, 2, 1]])
    assert extends(base, good)
    assert not extends(grid_from_rows(2, 2, [[2, 1]]), good)
    # Empty base cells match anything; a mismatch in a later row, a base
    # wider or taller than the square, or an empty square cell does not.
    assert extends(grid_from_rows(2, 2, [[0, 2, 0], [3, 0, 1]]), good)
    assert extends(grid_from_rows(2, 2, [[0, 0]]), empty_grid(2, 2))
    assert extends(empty_grid(2, 2, 0, 0), good) and extends(good, good)
    assert not extends(grid_from_rows(2, 2, [[1, 0], [4, 0]]), good)
    assert not extends(grid_from_rows(2, 2, [[1], [3], [2], [4], [1]]), good)
    assert not extends(grid_from_rows(2, 2, [[1, 2, 3, 4, 0]]), good)
    assert not extends(base, empty_grid(2, 2))
