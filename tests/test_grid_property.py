"""Property test: validate_partial agrees with a pairwise reference check.

Kept apart from test_grid.py so that the grid tests do not depend on
hypothesis.
"""
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_ryser.grid import PartialGrid, SudokuGeometry, _constraint_keys, validate_partial


def naive_ok(grid: PartialGrid) -> bool:
    """Pairwise reference: every symbol in 1..n, and no two filled cells that
    share a constraint key hold the same symbol."""
    filled = list(grid.filled())
    if any(not 1 <= v <= grid.n for _, _, v in filled):
        return False
    return not any(
        v1 == v2 and set(_constraint_keys(grid, r1, c1)) & set(_constraint_keys(grid, r2, c2))
        for (r1, c1, v1), (r2, c2, v2) in combinations(filled, 2))


@st.composite
def faulty_grids(draw):
    """A corner of a relabelled pattern square, some cells blanked, some
    overwritten with symbols from 0..n + 1 (clashes and out-of-range ones).
    A gerechte grid gets the box partition with relabelled part ids."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = p * q
    rows, cols = draw(st.integers(0, n)), draw(st.integers(0, n))
    relabel = draw(st.permutations(range(1, n + 1)))
    cells = [[relabel[((i % p) * q + i // p + j) % n] for j in range(cols)]
             for i in range(rows)]
    if rows and cols:
        spots = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        for i, j in draw(st.lists(spots, max_size=rows * cols)):
            cells[i][j] = None
        for (i, j), v in draw(st.lists(st.tuples(spots, st.integers(0, n + 1)), max_size=3)):
            cells[i][j] = v
    flavors = ("latin", "gerechte") if p == 1 or q == 1 else ("latin", "sudoku", "gerechte")
    flavor = draw(st.sampled_from(flavors))
    partition = None
    if flavor == "gerechte":
        ids = draw(st.permutations(range(1, n + 1)))
        partition = tuple(tuple(ids[(i // p) * p + j // q] for j in range(cols))
                          for i in range(rows))
    return PartialGrid(SudokuGeometry(p, q), rows, cols,
                       tuple(tuple(row) for row in cells), flavor, partition)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(faulty_grids())
def test_validate_agrees_with_pairwise_check(grid):
    report = validate_partial(grid)
    assert report.ok == naive_ok(grid)
    assert report.ok == (not report.violations)
