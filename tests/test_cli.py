import pytest

from sudoku_ryser import cli, completion
from sudoku_ryser.cli import EXIT_INTERNAL, main
from sudoku_ryser.fixtures import gen_evans_small
from sudoku_ryser.grid import grid_from_rows, parse_grid, serialize_grid, validate_partial


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


def test_check_ryser(ryser_fail_file, capsys):
    assert main(["check", "--ryser", ryser_fail_file]) == 1
    out = capsys.readouterr().out
    assert "symbol 3: N=0 < 1" in out


def test_check_ryser_ok(tmp_path, capsys):
    grid = grid_from_rows(1, 4, [[1, 2], [2, 1]])
    path = tmp_path / "ok.grid"
    path.write_text(serialize_grid(grid))
    assert main(["check", "--ryser", str(path)]) == 0


def test_check_hall(tmp_path, capsys):
    grid = grid_from_rows(2, 2, [[1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    path = tmp_path / "blocked.grid"
    path.write_text(serialize_grid(grid))
    code = main(["check", "--hall", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "fails" in out and "(1,3)" in out


def test_check_hall_gate(tmp_path, capsys):
    path = tmp_path / "empty.grid"
    path.write_text(serialize_grid(grid_from_rows(2, 3, [[0] * 6] * 6)))
    assert main(["check", "--hall", str(path), "--gate", "18"]) == 3


def test_check_matchings(worked_file, capsys):
    assert main(["check", "--matchings", worked_file]) == 0
    assert "completable" in capsys.readouterr().out


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


def test_missing_file_exit_code(capsys):
    assert main(["verify", "/nonexistent/x.grid"]) == 2


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
