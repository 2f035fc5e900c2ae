import random
import time

import pytest

from sudoku_ryser import cli, completion
from sudoku_ryser.cli import EXIT_INTERNAL, EXIT_USAGE, main
from sudoku_ryser.fixtures import gen_evans_small
from sudoku_ryser.grid import (
    MAX_ORDER,
    PartialGrid,
    extends,
    grid_from_rows,
    parse_grid,
    serialize_grid,
    validate_partial,
)


@pytest.fixture
def worked_file(tmp_path):
    grid = grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1], [2, 1, 4]])
    path = tmp_path / "worked.grid"
    path.write_text(serialize_grid(grid))
    return str(path)


@pytest.fixture
def ryser_fail_file(tmp_path):
    grid = grid_from_rows(1, 3, [[1, 2], [2, 1]])
    path = tmp_path / "ryser_fail.grid"
    path.write_text(serialize_grid(grid))
    return str(path)


def test_complete_worked(worked_file, capsys):
    assert main(["complete", worked_file]) == 0
    out = capsys.readouterr().out
    square = parse_grid(out)
    assert square.rows == square.cols == 4
    assert validate_partial(square).ok
    assert square.at(1, 1) == 1 and square.at(3, 3) == 4


def test_complete_incompletable(tmp_path, capsys):
    grid = grid_from_rows(2, 2, [[2, 4, 1], [3, 1, 2], [1, 2, 3]])
    path = tmp_path / "bad.grid"
    path.write_text(serialize_grid(grid))
    assert main(["complete", str(path)]) == 1
    err = capsys.readouterr().err
    assert "incompletable" in err


@pytest.mark.parametrize("error", [RuntimeError("construction bug"),
                                   RecursionError("maximum recursion depth exceeded")])
def test_internal_error_is_not_incompletable(worked_file, capsys, monkeypatch, error):
    def broken(grid):
        raise error

    monkeypatch.setattr(completion, "complete", broken)
    assert main(["complete", worked_file]) == EXIT_INTERNAL  # not 1, "incompletable"
    assert "internal error" in capsys.readouterr().err


def test_out_of_memory_is_an_internal_error(worked_file, capsys, monkeypatch):
    def exhausted(grid):
        raise MemoryError

    monkeypatch.setattr(completion, "complete", exhausted)
    assert main(["complete", worked_file]) == EXIT_INTERNAL  # not 1, "incompletable"
    assert capsys.readouterr().err.startswith("internal error: MemoryError")


@pytest.mark.parametrize("header", [f"1 {MAX_ORDER + 1} 1 1", f"1 1 {MAX_ORDER + 1} 0"])
def test_a_header_above_the_order_limit_is_a_format_error(tmp_path, capsys, header):
    path = tmp_path / "big.grid"
    path.write_text(f"sudoku v1\n{header}\n1\n")
    for command in (["complete"], ["check", "--hall"], ["verify"]):
        assert main(command + [str(path)]) == EXIT_USAGE, command
        assert capsys.readouterr().err.startswith("error: "), command


def test_invalid_assembled_outline_is_an_internal_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "corner.grid"
    path.write_text(serialize_grid(grid_from_rows(2, 2, [[1, 2], [3, 4]])))
    honest = completion.distribute_free

    def tampered(grid, plan):
        dist = honest(grid, plan)
        dist.row_fills[(1, 2)] = (3, 3)  # row 1 would hold symbol 3 twice
        return dist

    monkeypatch.setattr(completion, "distribute_free", tampered)
    assert main(["complete", str(path)]) == EXIT_INTERNAL
    assert "construction bug" in capsys.readouterr().err


def test_complete_brute_method(tmp_path, capsys):
    path = tmp_path / "evans.grid"
    path.write_text(serialize_grid(gen_evans_small(2, 2)))
    assert main(["complete", str(path), "--method", "brute"]) == 1


def test_complete_falls_back_to_exhaustive_search(tmp_path, capsys):
    # Evans' grid is not a corner rectangle, so the default method hands it
    # to the oracle and reports the oracle's verdict as --method brute does.
    path = tmp_path / "evans.grid"
    path.write_text(serialize_grid(gen_evans_small(2, 2)))
    assert main(["complete", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "falling back to exhaustive search" in captured.err
    assert "incompletable (exhaustive search)" in captured.err


def test_complete_node_limit_gives_up(tmp_path, capsys):
    path = tmp_path / "empty9.grid"
    path.write_text("sudoku v1\n3 3 9 9\n" + "\n".join([" ".join(["."] * 9)] * 9) + "\n")
    assert main(["complete", str(path), "--method", "brute", "--node-limit", "3"]) == 3
    assert "gave up: node limit exhausted" in capsys.readouterr().err


def test_check_ryser(ryser_fail_file, capsys):
    assert main(["check", "--ryser", ryser_fail_file]) == 1
    out = capsys.readouterr().out
    assert "symbol 3: N=0 < 1" in out


def test_check_ryser_rejects_a_rectangle_that_is_not_latin(tmp_path, capsys):
    # Row 1 repeats symbol 1: Ryser's counts would all meet their bound, but
    # the rectangle is invalid, as complete says too.
    path = tmp_path / "not_latin.grid"
    path.write_text("sudoku v1\n1 3 2 2\n1 1\n2 3\n")
    assert main(["check", "--ryser", str(path)]) == 1
    assert "invalid" in capsys.readouterr().err
    assert main(["complete", str(path)]) == 1
    assert "input-invalid" in capsys.readouterr().err


def test_check_ryser_reports_an_oversized_rectangle(tmp_path, capsys):
    # Three empty rows at order 2 are oversized before Ryser's bound is
    # read, as complete says.
    path = tmp_path / "tall.grid"
    path.write_text("sudoku v1\n1 2 3 0\n")
    for command in (["check", "--ryser"], ["complete"]):
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "incompletable at stage input-invalid (oversized)\n"


@pytest.mark.parametrize("text", [
    "sudoku v1\n2 2 5 1\n.\n.\n.\n.\n1\n",  # a symbol below the square, no corner
    "sudoku v1\n1 2 3 1\n.\n.\n1\n",  # no corner either
    "sudoku v1\n1 2 3 1\n1\n.\n.\n",  # a 1 x 1 corner inside an oversized grid
])
def test_complete_reports_an_oversized_grid_on_every_route(tmp_path, capsys, text):
    path = tmp_path / "oversized.grid"
    path.write_text(text)
    for method in ("auto", "thm2", "thm3", "brute"):
        assert main(["complete", str(path), "--method", method]) == 1, method
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "incompletable at stage input-invalid (oversized)\n"
    if text.endswith("1\n.\n.\n"):
        assert main(["check", "--matchings", str(path)]) == 1
        assert capsys.readouterr().out == "incompletable at stage input-invalid (oversized)\n"
        assert main(["check", "--ryser", str(path)]) == 1
        assert "(oversized)" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["--hall", "--matchings"])
@pytest.mark.parametrize("text", [
    "sudoku v1\n1 2 3 0\n",  # three empty rows at order 2
    "sudoku v1\n2 2 5 1\n.\n.\n.\n.\n1\n",  # a symbol below the square, no corner
], ids=["tall-empty", "no-corner"])
def test_check_reports_an_oversized_grid_first(tmp_path, capsys, route, text):
    # complete()'s size rule comes before anything else a check reads: not
    # embed_in_square's format error, nor a missing corner rectangle.
    path = tmp_path / "oversized.grid"
    path.write_text(text)
    assert main(["check", route, str(path)]) == 1
    captured = capsys.readouterr()
    said = captured.out if route == "--matchings" else captured.err
    assert said == "incompletable at stage input-invalid (oversized)\n"
    assert "error" not in captured.err
    assert main(["complete", str(path)]) == 1
    assert capsys.readouterr().err == "incompletable at stage input-invalid (oversized)\n"


# (2,2), 3 x 3, with cell (3,3) empty: not a corner rectangle, and no 4 x 4
# square extends it (check --hall finds a deficient subset), yet every
# cell of the file itself can be filled.
HOLED_INCOMPLETABLE = "sudoku v1\n2 2 3 3\n1 3 4\n4 2 3\n3 4 .\n"
# The same shape cut from a (2,2) pattern square: completable.
HOLED_COMPLETABLE = "sudoku v1\n2 2 3 3\n1 2 3\n3 4 1\n2 1 .\n"


@pytest.mark.parametrize("method", ["auto", "brute"])
def test_exhaustive_search_answers_for_the_whole_square(tmp_path, capsys, method):
    # The oracle searches the file embedded in its n x n square, as check
    # --hall tests it, so "yes" means a square extends the file.
    path = tmp_path / "holed.grid"
    path.write_text(HOLED_INCOMPLETABLE)
    assert main(["check", "--hall", str(path)]) == 1
    assert capsys.readouterr().out.startswith("fails")
    assert main(["complete", str(path), "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "incompletable (exhaustive search)" in captured.err
    path.write_text(HOLED_COMPLETABLE)
    assert main(["complete", str(path), "--method", method]) == 0
    square = parse_grid(capsys.readouterr().out)
    assert square.rows == square.cols == 4
    assert validate_partial(square).ok and square.is_fully_filled()
    assert extends(parse_grid(HOLED_COMPLETABLE), square)


def test_check_ryser_ok(tmp_path, capsys):
    grid = grid_from_rows(1, 4, [[1, 2], [2, 1]])
    path = tmp_path / "ok.grid"
    path.write_text(serialize_grid(grid))
    assert main(["check", "--ryser", str(path)]) == 0


def test_check_ryser_reads_the_filled_corner(tmp_path, capsys):
    # A 4 x 4 file holding only cell (1,1) is a 1 x 1 rectangle, whose bound
    # 1 + 1 - 4 every symbol meets, not a 4 x 4 one whose bound is 4.
    path = tmp_path / "sparse.grid"
    path.write_text(serialize_grid(grid_from_rows(1, 4, [[1, 0, 0, 0]] + [[0] * 4] * 3)))
    assert main(["check", "--ryser", "--verbose", str(path)]) == 0
    assert "symbol 1: N=1\n" in capsys.readouterr().out
    assert main(["complete", str(path)]) == 0


def _corner_by_cells(grid):
    """The corner check cell by cell: the height and width are the filled
    runs down column 1 and along row 1, and every cell must be filled
    exactly when it lies inside them."""
    if grid.is_fully_filled():
        return grid
    cells = grid.cells
    rows = next((i for i in range(grid.rows) if cells[i][0] is None), grid.rows)
    cols = next((j for j in range(grid.cols) if cells[0][j] is None), grid.cols)
    for i in range(grid.rows):
        for j in range(grid.cols):
            if (cells[i][j] is not None) != (i < rows and j < cols):
                return None
    return PartialGrid(grid.geometry, rows, cols, tuple(row[:cols] for row in cells[:rows]),
                       grid.flavor, None)


def test_corner_rectangle_reads_whole_rows(monkeypatch):
    # Seeded grids of every kind the check meets: corners (empty and full
    # among them), corners with a hole or a stray filled cell, or with a
    # cell moved out of the corner along its row, and ragged rows that each
    # fill their own prefix.  The row-wise check agrees with
    # the cell-by-cell reference and never reads a cell through at().
    def refuse(*args):
        raise AssertionError("PartialGrid.at was called")

    monkeypatch.setattr(PartialGrid, "at", refuse)
    rng = random.Random(27)
    seen = set()
    for _ in range(600):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        n = p * q
        height, width = rng.randint(1, n), rng.randint(1, n)
        r, s = rng.randint(0, height), rng.randint(0, width)
        kind = rng.choice(("corner", "hole", "stray", "moved", "ragged"))
        if kind == "ragged":
            ends = [rng.randint(0, width) for _ in range(height)]
        else:
            ends = [s if i < r else 0 for i in range(height)]
        rows = [[rng.randint(1, n) if j < end else 0 for j in range(width)] for end in ends]
        if kind == "hole" and r and s:
            rows[rng.randrange(r)][rng.randrange(s)] = 0
        if kind == "moved" and r and 0 < s < width:
            i = rng.randrange(r)
            rows[i][rng.randrange(s)], rows[i][rng.randrange(s, width)] = 0, 1
        if kind == "stray" and (r < height or s < width):
            i, j = rng.randrange(height), rng.randrange(width)
            while i < r and j < s:
                i, j = rng.randrange(height), rng.randrange(width)
            rows[i][j] = 1
        grid = grid_from_rows(p, q, rows)
        expected = _corner_by_cells(grid)
        assert cli._is_corner_rectangle(grid) == expected, rows
        seen.add((kind, expected is not None))
        seen.update(name for name, hit in (
            ("full", grid.is_fully_filled()),
            ("empty", all(v is None for row in grid.cells for v in row))) if hit)
    assert {("corner", True), ("hole", False), ("stray", False), ("moved", False),
            ("ragged", True), ("ragged", False), "full", "empty"} <= seen


def test_check_ryser_needs_a_corner_rectangle(tmp_path, capsys):
    path = tmp_path / "scattered.grid"
    path.write_text(serialize_grid(grid_from_rows(1, 4, [[1, 0, 0, 0], [0, 0, 0, 2]])))
    assert main(["check", "--ryser", str(path)]) == 2
    captured = capsys.readouterr()
    assert "corner rectangle" in captured.err and captured.out == ""


def test_check_hall(tmp_path, capsys):
    grid = grid_from_rows(2, 2, [[1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    path = tmp_path / "blocked.grid"
    path.write_text(serialize_grid(grid))
    code = main(["check", "--hall", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "fails" in out and "(1,3)" in out


INVALID_GRIDS = {
    # Fully filled (2,2) square whose last row repeats symbol 2.
    "filled": "sudoku v1\n2 2 4 4\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 2\n",
    # Row 1 repeats symbol 1 over three empty rows: not a corner rectangle.
    "sparse": "sudoku v1\n2 2 4 4\n1 . . 1\n. . . .\n. . . .\n. . . .\n",
}


@pytest.mark.parametrize("name", sorted(INVALID_GRIDS))
@pytest.mark.parametrize("argv", [["check", "--hall"], ["complete"],
                                  ["complete", "--method", "brute"]])
def test_invalid_input_exits_1_on_every_path(tmp_path, capsys, name, argv):
    # Invalid input is a verdict (exit 1), reported as such, on the Hall
    # check and the oracle paths too: not "holds", not a subset witness and
    # not a usage error.
    path = tmp_path / f"{name}.grid"
    path.write_text(INVALID_GRIDS[name])
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid" in captured.err and "error" not in captured.err


def test_check_hall_gate(tmp_path, capsys):
    path = tmp_path / "empty.grid"
    path.write_text(serialize_grid(grid_from_rows(2, 3, [[0] * 6] * 6)))
    assert main(["check", "--hall", str(path), "--gate", "18"]) == 3


def test_check_hall_embeds_a_rectangle(ryser_fail_file, capsys):
    # The 2 x 2 latin rectangle has no empty cell; in the 3 x 3 square it
    # sits in, (1,3) and (2,3) both list only symbol 3.
    assert main(["check", "--hall", ryser_fail_file]) == 1
    out = capsys.readouterr().out
    assert out.startswith("fails") and "(1,3) (2,3)" in out


def test_check_hall_needs_a_full_gerechte_square(tmp_path, capsys):
    # The file gives parts only to the rectangle's own cells, so the cells
    # it would be embedded with have none: a usage error, not "holds".
    path = tmp_path / "gerechte.grid"
    path.write_text("sudoku v1\n1 3 2 2\n1 2\n2 1\npartition\n1 1\n2 2\n")
    assert main(["check", "--hall", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "full n x n square" in captured.err
    # Under another flavor the parts are not needed, and the rectangle is
    # embedded as a grid without a partition is.
    assert main(["check", "--hall", str(path), "--flavor", "latin"]) == 1
    assert "(1,3) (2,3)" in capsys.readouterr().out
    square = tmp_path / "square.grid"
    square.write_text("sudoku v1\n1 3 3 3\n1 2 .\n. . .\n. . .\n"
                      "partition\n1 1 2\n1 2 2\n3 3 3\n")
    assert main(["check", "--hall", str(square)]) == 0
    assert capsys.readouterr().out.startswith("holds")


def test_check_matchings(worked_file, capsys):
    assert main(["check", "--matchings", worked_file]) == 0
    assert "completable" in capsys.readouterr().out


@pytest.fixture
def gerechte_file(tmp_path):
    # A completable 2 x 2 corner of a 4 x 4 gerechte grid whose parts are the
    # boxes: the pipeline reads no partition, so it must not decide it.
    path = tmp_path / "gerechte.grid"
    path.write_text("sudoku v1\n2 2 4 4\n1 2 . .\n3 4 . .\n. . . .\n. . . .\n"
                    "partition\n1 1 2 2\n1 1 2 2\n3 3 4 4\n3 3 4 4\n")
    return str(path)


def test_complete_gerechte_corner_goes_to_the_oracle(gerechte_file, capsys):
    assert main(["complete", gerechte_file]) == 0
    captured = capsys.readouterr()
    assert "falling back to exhaustive search" in captured.err
    square = parse_grid(captured.out)
    assert square.flavor == "gerechte" and square.partition is not None
    assert validate_partial(square).ok and square.is_fully_filled()
    assert square.at(1, 1) == 1 and square.at(2, 2) == 4


@pytest.mark.parametrize("argv", [["complete", "--method", "thm2"],
                                  ["complete", "--method", "thm3"],
                                  ["check", "--matchings"]])
def test_corner_methods_refuse_a_gerechte_grid(gerechte_file, capsys, argv):
    assert main(argv + [gerechte_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "partition-free corner rectangle" in captured.err


def test_gen_evans_small(capsys):
    assert main(["gen", "evans-small", "--p", "2", "--q", "2"]) == 0
    grid = parse_grid(capsys.readouterr().out)
    assert sum(1 for _ in grid.filled()) == 3


def test_gen_evans_big(capsys):
    assert main(["gen", "evans-big", "--k", "2", "--i", "2"]) == 0
    grid = parse_grid(capsys.readouterr().out)
    assert grid.at(1, 1) == 1 and grid.at(3, 3) == 3


def test_gen_fig6(capsys):
    assert main(["gen", "fig6", "--n", "4", "--x", "2", "--variant", "column"]) == 0
    grid = parse_grid(capsys.readouterr().out)
    assert sum(1 for _ in grid.filled()) == 4


def test_gen_random_deterministic(capsys):
    assert main(["gen", "random", "--p", "2", "--q", "2", "--r", "2", "--s", "2",
                 "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "--p", "2", "--q", "2", "--r", "2", "--s", "2",
                 "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_gen_random_square_deeper_than_the_recursion_limit(capsys):
    assert main(["gen", "random", "--p", "1", "--q", "34", "--r", "34", "--s", "34"]) == 0
    square = parse_grid(capsys.readouterr().out)
    assert square.is_fully_filled() and validate_partial(square).ok


def test_gen_random_full_square_of_order_36_terminates(capsys):
    # Restarts do not finish this square; once they have spent their cell
    # visits, the draw is the corner of a shuffled pattern square.
    start = time.process_time()
    assert main(["gen", "random", "--p", "6", "--q", "6", "--r", "36", "--s", "36"]) == 0
    assert time.process_time() - start < 2.0
    square = parse_grid(capsys.readouterr().out)
    assert (square.n, square.rows, square.cols) == (36, 36, 36)
    assert square.is_fully_filled() and validate_partial(square).ok


@pytest.mark.parametrize("argv", [
    ["evans-small", "--p", "5", "--q", "205"],
    ["evans-big", "--k", "33", "--i", "2"],
    ["fig6", "--n", "1025", "--x", "2", "--variant", "column"],
    ["random", "--p", "41", "--q", "25", "--r", "1", "--s", "1"],
])
def test_gen_refuses_an_order_above_the_cap_before_building(argv, capsys):
    # parse_grid refuses an order above MAX_ORDER, so gen must not write
    # one; each generator is asked for the smallest order it has above it.
    start = time.process_time()
    assert main(["gen"] + argv) == 2
    assert time.process_time() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"at most {MAX_ORDER}" in captured.err


def test_verify(tmp_path, capsys):
    good = tmp_path / "good.grid"
    good.write_text("sudoku v1\n2 2 2 2\n1 2\n3 4\n")
    assert main(["verify", str(good)]) == 0
    bad = tmp_path / "bad.grid"
    bad.write_text("sudoku v1\n2 2 1 2\n1 1\n")
    assert main(["verify", str(bad)]) == 1


def test_complete_thm2_requires_alignment(worked_file, capsys):
    assert main(["complete", worked_file, "--method", "thm2"]) == 2


def test_complete_thm2_on_aligned(tmp_path, capsys):
    grid = grid_from_rows(2, 2, [[1, 2], [3, 4]])
    path = tmp_path / "aligned.grid"
    path.write_text(serialize_grid(grid))
    assert main(["complete", str(path), "--method", "thm2"]) == 0
    assert validate_partial(parse_grid(capsys.readouterr().out)).ok


def test_format_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.grid"
    path.write_text("not a grid\n")
    assert main(["verify", str(path)]) == 2


def test_missing_file_exit_code(tmp_path, capsys):
    # A missing file and a directory are both unreadable input (exit 2),
    # never "incompletable" (exit 1) or a traceback.
    for path in ("/nonexistent/x.grid", str(tmp_path)):
        for command in (["complete"], ["check", "--ryser"], ["verify"]):
            assert main(command + [path]) == 2, (command, path)
            assert capsys.readouterr().err.startswith("error: "), (command, path)


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2


def test_main_parses_with_one_parser_per_process(worked_file, capsys, monkeypatch):
    # main builds its parser on the first call and reuses it: exit codes,
    # usage errors and --help stay the same however often it is called.
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    rounds = []
    for _ in range(3):
        codes = (main(["--help"]), main(["complete"]), main(["bogus"]),
                 main(["check", worked_file]), main(["complete", worked_file]))
        rounds.append((codes, capsys.readouterr()))
    assert rounds[0] == rounds[1] == rounds[2]
    codes, captured = rounds[0]
    assert codes == (0, 2, 2, 2, 0)
    assert captured.out.startswith("usage: sudoku-ryser")
    assert "the following arguments are required: file" in captured.err
    assert len(built) == 1
