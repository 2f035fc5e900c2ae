"""Property tests: hall_condition under the symmetries of the Sudoku square.

Kept apart from test_hall.py so that the Hall tests do not depend on
hypothesis.  Every grid is a (2,2) or (2,3) rectangle embedded in the top
left of its empty square, with at most 18 empty cells.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from sudoku_ryser.fixtures import gen_random_valid_rectangle
from sudoku_ryser.grid import PartialGrid, embed_in_square, grid_from_rows
from sudoku_ryser.hall import hall_condition

# (p, q, rows, cols); random (2,2) 3 x 3 and (2,3) 4 x 5, 5 x 4 and 5 x 5
# rectangles fail Hall's Condition often enough to be drawn.
RANDOM_SHAPES = ([(2, 2, r, s) for r, s in ((3, 3), (2, 4), (4, 2), (3, 4))]
                 + [(2, 3, r, s) for r, s in ((3, 6), (6, 3), (4, 5), (5, 4), (5, 5), (4, 6))])
PATTERN_SHAPES = ([(2, 2, r, s) for r in range(5) for s in range(5)]
                  + [(2, 3, r, s) for r in range(1, 7) for s in range(1, 7) if r * s >= 18])


def _image(square: PartialGrid, symbols, row_order, col_order) -> PartialGrid:
    """The square with its rows and columns reordered and its symbols relabelled."""
    cells = tuple(tuple(None if square.cells[i][j] is None else symbols[square.cells[i][j] - 1]
                        for j in col_order)
                  for i in row_order)
    return PartialGrid(square.geometry, square.rows, square.cols, cells, square.flavor, None)


@st.composite
def squares_and_images(draw):
    """An embedded random rectangle and its image under a drawn symmetry:
    a symbol relabelling, a band order, a row order within each band and a
    stack order."""
    p, q, r, s = draw(st.sampled_from(RANDOM_SHAPES))
    square = embed_in_square(gen_random_valid_rectangle(p, q, r, s, draw(st.integers(0, 9999))))
    symbols = draw(st.permutations(range(1, p * q + 1)))
    bands = draw(st.permutations(range(q)))
    rows = [draw(st.permutations(range(p))) for _ in range(q)]
    stacks = draw(st.permutations(range(p)))
    row_order = [bands[k] * p + rows[k][t] for k in range(q) for t in range(p)]
    col_order = [stacks[k] * q + t for k in range(p) for t in range(q)]
    return square, _image(square, symbols, row_order, col_order)


def _check_count(report, empties: int) -> None:
    assert not report.gave_up
    if report.holds:
        assert report.subsets_checked == 2 ** empties


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(squares_and_images())
def test_hall_condition_is_invariant_under_symmetries(pair):
    square, image = pair
    empties = len(square.empty_cells())
    report, moved = hall_condition(square), hall_condition(image)
    assert moved.holds == report.holds
    _check_count(report, empties)
    _check_count(moved, empties)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PATTERN_SHAPES), st.data())
def test_pattern_corners_hold_with_every_subset_counted(shape, data):
    # (q (i mod p) + i // p + j) mod n, relabelled, is a Sudoku square, so
    # every corner of it is completable.
    p, q, r, s = shape
    n = p * q
    symbols = data.draw(st.permutations(range(1, n + 1)))
    rows = [[symbols[(q * (i % p) + i // p + j) % n] for j in range(s)] for i in range(r)]
    square = embed_in_square(grid_from_rows(p, q, rows))
    report = hall_condition(square)
    assert report.holds and report.witness is None
    _check_count(report, n * n - r * s)
