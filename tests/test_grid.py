import random

import pytest

from sudoku_ryser.grid import (
    MAX_ORDER,
    GridFormatError,
    PartialGrid,
    SudokuGeometry,
    anchors,
    big_cell_of,
    embed_in_square,
    empty_grid,
    grid_from_rows,
    parse_grid,
    serialize_grid,
    validate_partial,
)


def test_anchors_formula():
    assert anchors(5, 0, SudokuGeometry(2, 2)).r_star == 4
    assert anchors(4, 0, SudokuGeometry(2, 2)).r_star == 4
    assert anchors(7, 0, SudokuGeometry(3, 3)).r_star == 6
    assert anchors(0, 5, SudokuGeometry(2, 3)).s_star == 3


def test_anchors_invariants():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.randint(1, 5)
        q = rng.randint(1, 5)
        geom = SudokuGeometry(p, q)
        r = rng.randint(0, geom.n)
        s = rng.randint(0, geom.n)
        anc = anchors(r, s, geom)
        assert anc.r_star <= r < anc.r_star + p
        assert anc.r_star % p == 0
        assert anc.s_star <= s < anc.s_star + q
        assert anc.s_star % q == 0


def test_anchors_negative():
    with pytest.raises(ValueError):
        anchors(-1, 0, SudokuGeometry(2, 2))


def test_big_cell_of():
    assert big_cell_of(SudokuGeometry(2, 3), 3, 4) == (2, 2)
    assert big_cell_of(SudokuGeometry(2, 3), 1, 1) == (1, 1)
    assert big_cell_of(SudokuGeometry(3, 3), 9, 9) == (3, 3)
    with pytest.raises(ValueError):
        big_cell_of(SudokuGeometry(2, 2), 5, 1)


def test_validate_ok_rectangle():
    grid = grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1]])
    assert validate_partial(grid).ok


def test_validate_row_duplicate():
    grid = grid_from_rows(1, 2, [[1, 1]])
    report = validate_partial(grid)
    assert not report.ok
    assert any(v.kind == "row" and v.symbol == 1 for v in report.violations)


def test_validate_bigcell_duplicate():
    grid = empty_grid(2, 2).with_cell(1, 1, 1).with_cell(2, 2, 1)
    report = validate_partial(grid)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "bigcell" in kinds and "row" not in kinds and "column" not in kinds


def test_validate_range():
    grid = grid_from_rows(2, 2, [[5]])
    report = validate_partial(grid)
    assert not report.ok
    assert report.violations[0].kind == "range"


@pytest.mark.parametrize("value", [1.5, 1.0, "1", True])
def test_validate_reports_a_symbol_that_is_not_an_int(value):
    # 1.0 and True equal 1, so a set of the values would not see them.
    report = validate_partial(grid_from_rows(2, 2, [[value, 2], [3, 4]]))
    assert not report.ok
    assert [(v.kind, v.coordinates, v.symbol) for v in report.violations] == [
        ("range", ((1, 1),), value)]
    assert type(report.violations[0].symbol) is type(value)


def test_validate_filled_cell_outside_square_raises():
    # Row 5 of a 5x4 (2,2) grid lies outside the order-4 square, so its
    # cell has no big cell.
    grid = empty_grid(2, 2, 5, 4).with_cell(5, 1, 1)
    with pytest.raises(ValueError):
        validate_partial(grid)


def test_validate_gerechte_part():
    partition = [[1, 1], [2, 2]]
    grid = grid_from_rows(2, 2, [[1, 0], [0, 1]], partition=partition)
    assert grid.flavor == "gerechte"
    assert validate_partial(grid).ok
    bad = grid.with_cell(1, 2, 1)
    report = validate_partial(bad)
    assert any(v.kind == "row" for v in report.violations)
    bad2 = grid_from_rows(2, 2, [[1, 1], [0, 0]], partition=[[1, 2], [1, 2]])
    report2 = validate_partial(bad2)
    assert any(v.kind == "row" for v in report2.violations)
    assert not any(v.kind == "part" for v in report2.violations)


def test_parse_basic():
    text = "sudoku v1\n2 2 2 3\n1 2 3\n3 4 1\n"
    grid = parse_grid(text)
    assert grid.geometry == SudokuGeometry(2, 2)
    assert grid.rows == 2 and grid.cols == 3
    assert grid.at(1, 3) == 3 and grid.at(2, 2) == 4
    assert grid.flavor == "sudoku"


def test_parse_errors():
    with pytest.raises(GridFormatError):
        parse_grid("nope\n")
    with pytest.raises(GridFormatError):
        parse_grid("sudoku v1\n2 2 2\n")
    with pytest.raises(GridFormatError):
        parse_grid("sudoku v1\n2 2 2 3\n1 2\n3 4 1\n")
    with pytest.raises(GridFormatError):
        parse_grid("sudoku v1\n2 2 1 2\n1 x\n")
    with pytest.raises(GridFormatError):
        parse_grid("sudoku v1\n2 2 1 2\n1 9\n")


def test_parse_bounds_the_order_and_the_sides():
    # The header is checked before anything is built from it: one above
    # MAX_ORDER, as order or as side, is a format error; at it, a grid.
    over = MAX_ORDER + 1
    for header in (f"1 {over} 0 0", f"{over} 1 0 0", f"1 1 {over} 0", f"1 1 0 {over}"):
        with pytest.raises(GridFormatError, match=str(MAX_ORDER)):
            parse_grid(f"sudoku v1\n{header}\n")
    for header in (f"1 {MAX_ORDER} 0 0", f"1 1 {MAX_ORDER} 0", f"1 1 0 {MAX_ORDER}"):
        grid = parse_grid(f"sudoku v1\n{header}\n")
        assert max(grid.n, grid.rows, grid.cols) == MAX_ORDER


def test_serialize_empty():
    text = serialize_grid(empty_grid(2, 2))
    lines = text.strip().splitlines()
    assert lines[2:] == [". . . ."] * 4


def test_serialize_two_digit_symbol():
    grid = empty_grid(3, 4).with_cell(1, 1, 10)
    assert serialize_grid(grid).splitlines()[2].split()[0] == "10"


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.randint(1, 3)
        q = rng.randint(1, 3)
        geom = SudokuGeometry(p, q)
        rows = rng.randint(0, geom.n)
        cols = rng.randint(0, geom.n)
        cells = tuple(
            tuple(rng.choice([None] * 3 + list(range(1, geom.n + 1))) for _ in range(cols))
            for _ in range(rows)
        )
        flavor = "latin" if p == 1 or q == 1 else "sudoku"
        grid = PartialGrid(geom, rows, cols, cells, flavor, None)
        assert parse_grid(serialize_grid(grid)) == grid


def test_round_trip_full_144_square():
    # serialize_grid looks each symbol's token up in a table; the reference
    # writes every cell with str().  A value outside 1..n, which parse_grid
    # rejects, is still written as str() writes it.
    p = q = 12
    n = p * q
    rows = [[((i % p) * q + i // p + j) % n + 1 for j in range(n)] for i in range(n)]
    square = grid_from_rows(p, q, rows)
    assert square.is_fully_filled() and validate_partial(square).ok
    holed = square.with_cell(n, n, None)
    for grid in (square, holed, square.with_cell(2, 3, n + 7)):
        text = serialize_grid(grid)
        expected = [" ".join("." if v is None else str(v) for v in row) for row in grid.cells]
        assert text.splitlines()[2:] == expected
        if grid.at(2, 3) <= n:
            assert parse_grid(text) == grid


def test_round_trip_partition():
    partition = [[1, 2], [2, 1]]
    grid = grid_from_rows(1, 2, [[1, 0], [0, 2]], partition=partition)
    again = parse_grid(serialize_grid(grid))
    assert again == grid
    assert again.flavor == "gerechte"


def test_serialize_parse_canonical():
    messy = "sudoku v1\n 2 2   2 3 \n1   2 3\n3 4    1\n\n"
    canonical = serialize_grid(parse_grid(messy))
    assert parse_grid(canonical) == parse_grid(messy)
    assert serialize_grid(parse_grid(canonical)) == canonical


def test_band_row_permutation_preserves_sudoku_validity():
    grid = grid_from_rows(2, 2, [[1, 2, 3, 4], [3, 4, 1, 2], [2, 1, 4, 3], [4, 3, 2, 1]])
    assert validate_partial(grid).ok
    swapped = grid_from_rows(2, 2, [list(grid.cells[1]), list(grid.cells[0]),
                                    list(grid.cells[2]), list(grid.cells[3])])
    assert validate_partial(swapped).ok


def test_embed_in_square():
    grid = grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1]])
    square = embed_in_square(grid)
    assert square.rows == square.cols == 4
    assert square.at(1, 1) == 1 and square.at(2, 3) == 1
    assert square.at(3, 1) is None and square.at(1, 4) is None
