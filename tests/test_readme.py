"""The README's CLI block, run through cli.main, gives the results it states.

Paths under fixtures/ are the committed files; every other file is written
to and read from a temporary directory, as the block's redirections say.
"""
import re
import shlex
from pathlib import Path

from sudoku_ryser import cli
from sudoku_ryser.grid import extends, parse_grid, validate_partial

ROOT = Path(__file__).resolve().parent.parent


def cli_block() -> list[tuple[list[str], str]]:
    """Each command of the README's CLI block, with its comment."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            commands.append((shlex.split(code), comment.strip()))
    return commands


def test_readme_cli_block_gives_the_stated_results(tmp_path, capsys):
    outputs = []
    for argv, comment in cli_block():
        assert argv[0] == "sudoku-ryser", argv
        argv, target = argv[1:], None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], tmp_path / argv[-1]
        argv = [str(ROOT / a) if a.startswith("fixtures/")
                else str(tmp_path / a) if a.endswith(".grid") else a for a in argv]
        code = cli.main(argv)
        out = capsys.readouterr().out
        stated = re.match(r"exit (\d+)", comment)
        assert code == (int(stated.group(1)) if stated else 0), (argv, comment)
        for quoted in re.findall(r'prints "([^"]*)"', comment):
            assert quoted in out.splitlines(), (argv, out)
        if target is not None:
            target.write_text(out, encoding="utf-8")
        outputs.append((argv, out))
    # The results the block names: the Ryser failure, and a completion
    # that validates and extends the file it was given.
    ryser = [out for argv, out in outputs if argv[:2] == ["check", "--ryser"]]
    assert ryser == ["symbol 3: N=0 < 1\n"]
    (path, out), = [(argv[1], out) for argv, out in outputs if argv[0] == "complete"]
    square, rectangle = parse_grid(out), parse_grid(Path(path).read_text(encoding="utf-8"))
    assert (square.rows, square.cols) == (rectangle.n, rectangle.n) == (4, 4)
    assert square.is_fully_filled() and validate_partial(square).ok
    assert extends(rectangle, square)
