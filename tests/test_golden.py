"""complete()'s and validate_partial's outputs on fixed inputs, pinned by one
hash per input group.

A change that claims to leave every output byte-identical (a speed-up, a
refactor) must leave GOLDEN as it is.  A change that alters a square or an
obstruction on purpose records the new hash of each group it alters and
says why; the groups it leaves alone keep theirs.  VERDICT_DIGEST pins the
verdicts alone, so a change that picks other squares must leave it as it is.
"""
import hashlib
import random

from sudoku_ryser.bipartite import HallViolator
from sudoku_ryser.completion import complete
from sudoku_ryser.fixtures import gen_random_rectangle, gen_random_valid_rectangle
from sudoku_ryser.grid import PartialGrid, SudokuGeometry, extends, validate_partial

SHAPES = ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))
DRAWS = 24  # per shape
GOLDEN = {
    (2, 3): "d1c926e6c8c8754bbbb2fb9c7549e5a9ae214d9ad2d16b1ad8b40a4cdf5488c7",
    (3, 2): "8ed27950da81b321543c33f82e88efc6c97b6e2d41c07f8bf9695f55bc165bdc",
    (3, 3): "898600d35f65cea20031b9e3e838dccdd9bc1dcdec52f767a04fdd0bd297e49e",
    (3, 4): "442eabc07b3ddef6ae6e3fc085e2f18f722c4fe883fed5f9d7332191d7bbb9af",
    (4, 3): "a863ebd46da46012e0a3f1a93adbde031cd283eef3991868c73ce90698260901",
    (4, 4): "b276bef54e5a338cf515156e719f4508823db86ce6e26789f400c165c80cdb41",
    "latin": "92ba82489026925b05c0367c286fc13ad47b4ecebd4a57f3a82e5ace644277d0",
}


def _groups():
    """Fixed-seed random valid rectangles of every shape, then two latin corners."""
    rng = random.Random(12)
    for p, q in SHAPES:
        n = p * q
        grids = []
        for _ in range(DRAWS):
            r, s = rng.randint(1, n), rng.randint(1, n)
            grids.append(gen_random_valid_rectangle(p, q, r, s, rng.randrange(10 ** 9)))
        yield (p, q), grids
    yield "latin", [
        gen_random_rectangle(1, 9, 5, 4, 3),  # a corner of a latin square: completes
        gen_random_valid_rectangle(1, 6, 4, 5, 7),  # fails Ryser's bound
    ]


def _detail(detail):
    if isinstance(detail, HallViolator):
        return ("violator", sorted(detail.left_subset), sorted(detail.neighborhood))
    return detail


def _record(grid):
    verdict = complete(grid)
    out = verdict.certificate
    if verdict.completable:
        return (grid.cells, True, out.cells)
    return (grid.cells, False, out.stage, out.kind, out.index, out.symbol, _detail(out.detail))


def test_complete_outputs_match_the_recorded_hash():
    records = {group: [_record(grid) for grid in grids] for group, grids in _groups()}
    verdicts = {record[1] if record[1] else record[3]
                for group in records.values() for record in group}
    assert True in verdicts and "ryser" in verdicts and len(verdicts) >= 5, verdicts
    digests = {group: hashlib.sha256(repr(group_records).encode()).hexdigest()
               for group, group_records in records.items()}
    assert digests == GOLDEN


# Larger latin corners, by geometry: the shapes that skip one Ryser step or
# both, and a 30 x 30 corner that misses six symbols (fails Ryser's bound).
LATIN_CORNERS = ((18, 12), (36, 20), (20, 36), (36, 36), (1, 35), (35, 1), (0, 0), (30, 30))
GOLDEN_LATIN = {
    (1, 36): "3c72481e1a4ad218fc065659ae0617dc0f502bb002bb95391c83727b866547c0",
    (36, 1): "72a7323130394e69672cfba7653cf9cb64a5b21d6fad31d44a670e3fc7e680f2",
}


def _latin_corner(p, q, r, s, seed):
    """The r x s corner of a cyclic latin square of order pq with its rows,
    columns and symbols permuted, except that a 30 x 30 corner is a whole
    cyclic square of order 30."""
    n = p * q
    rng = random.Random(seed)
    if (r, s) == (30, 30):
        rows = [[(i + j) % 30 + 1 for j in range(30)] for i in range(30)]
    else:
        row_of, col_of, sym = (rng.sample(range(n), n) for _ in range(3))
        rows = [[sym[(row_of[i] + col_of[j]) % n] + 1 for j in range(s)] for i in range(r)]
    return PartialGrid(SudokuGeometry(p, q), r, s, tuple(map(tuple, rows)), "latin")


def test_large_latin_corners_match_the_recorded_hash():
    digests = {}
    for p, q in GOLDEN_LATIN:
        records = [_record(_latin_corner(p, q, r, s, 10000 * p + 100 * r + s))
                   for r, s in LATIN_CORNERS]
        assert [record[1] for record in records] == [True] * 7 + [False]
        digests[(p, q)] = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digests == GOLDEN_LATIN


# The verdicts of both corpora above, with each completed square replaced by
# whether it validates and extends its rectangle.  A change that alters
# squares but no verdict (another choice among valid completions) re-records
# GOLDEN and GOLDEN_LATIN and leaves this digest as it is.
VERDICT_DIGEST = "1b61ecc93d39c7335b6d353fec977c9db6540caa4be576c4525d375fc959a3b6"


def _verdict_record(grid):
    verdict = complete(grid)
    if verdict.completable:
        square = verdict.certificate
        return (grid.cells, True, (validate_partial(square).ok, extends(grid, square)))
    return _record(grid)


def test_verdicts_match_the_recorded_digest():
    grids = [grid for _, group in _groups() for grid in group]
    grids += [_latin_corner(p, q, r, s, 10000 * p + 100 * r + s)
              for p, q in GOLDEN_LATIN for r, s in LATIN_CORNERS]
    records = [_verdict_record(grid) for grid in grids]
    assert all(record[2] == (True, True) for record in records if record[1])
    assert hashlib.sha256(repr(records).encode()).hexdigest() == VERDICT_DIGEST


GOLDEN_VALIDATE = {
    "latin": "6a10401fb082182b1a815bbf574caec400708b6e6454a542bbc35d7606cc3b28",
    "sudoku": "f314ea39b7bce5ffa72adcf66d7c30ed4986a7814101364acf0d58613aa1559f",
    "gerechte": "fca6507774e4b3f298d15ea5b1f225126c69a6980f662609d13f1518dfcea296",
}


def _faulty(rng, p, q, rows, cols, flavor):
    """A corner of a relabelled (p,q) pattern square with some cells blanked
    and up to three overwritten with symbols in 0..n + 1; a gerechte grid
    gets the box partition with relabelled part ids."""
    n = p * q
    relabel = rng.sample(range(1, n + 1), n)
    cells = [[relabel[(q * (i % p) + i // p + j) % n] for j in range(cols)]
             for i in range(rows)]
    for _ in range(rng.randint(0, rows * cols)):
        cells[rng.randrange(rows)][rng.randrange(cols)] = None
    for _ in range(rng.randint(0, 3) if rows and cols else 0):
        cells[rng.randrange(rows)][rng.randrange(cols)] = rng.randint(0, n + 1)
    partition = None
    if flavor == "gerechte":
        ids = rng.sample(range(1, n + 1), n)
        partition = tuple(tuple(ids[(i // p) * p + j // q] for j in range(cols))
                          for i in range(rows))
    return PartialGrid(SudokuGeometry(p, q), rows, cols, tuple(map(tuple, cells)), flavor,
                       partition)


def _validate_corpus(flavor):
    """Seeded faulty grids of one flavour, then hand-made edge cases: empty
    and zero-width or zero-height grids and, per flavour, grids that reach
    past the square, a missing partition or uneven parts."""
    rng = random.Random(f"validate-{flavor}")
    shapes = ((1, 4), (4, 1), (2, 2), (2, 3), (3, 2), (3, 3))
    if flavor == "sudoku":
        shapes = shapes[2:]
    for p, q in shapes:
        n = p * q
        for _ in range(20):
            yield _faulty(rng, p, q, rng.randint(0, n), rng.randint(0, n), flavor)
        for rows, cols in ((0, 0), (0, n), (n, 0), (n, n)):
            yield _faulty(rng, p, q, rows, cols, flavor)
    geom = SudokuGeometry(2, 2)
    if flavor == "latin":
        yield PartialGrid(geom, 5, 2, ((1, 2), (2, 1), (3, 4), (4, 3), (1, 5)), flavor)
    if flavor == "sudoku":
        yield PartialGrid(geom, 5, 5, ((1, 2, 3, 4, None),) + ((None,) * 5,) * 4, flavor)
        yield PartialGrid(geom, 5, 4, ((None,) * 4,) * 4 + ((1, None, None, None),), flavor)
    if flavor == "gerechte":
        yield PartialGrid(geom, 2, 2, ((1, 2), (1, None)), flavor)
        yield PartialGrid(geom, 4, 4, ((None,) * 4,) * 4, flavor,
                          ((1, 1, 1, 1), (1, 2, 2, 2), (3, 3, 3, 3), (4, 4, 4, 4)))


def _validation_record(grid):
    try:
        return (grid.cells, grid.partition, validate_partial(grid))
    except ValueError as exc:
        return (grid.cells, grid.partition, type(exc).__name__, str(exc))


def test_validate_reports_match_the_recorded_hash():
    digests = {}
    for flavor in GOLDEN_VALIDATE:
        records = [_validation_record(grid) for grid in _validate_corpus(flavor)]
        reports = [record[2] for record in records if len(record) == 3]
        assert any(report.ok for report in reports)
        kinds = {v.kind for report in reports for v in report.violations}
        assert {"range", "row", "column"} <= kinds, (flavor, kinds)
        digests[flavor] = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digests == GOLDEN_VALIDATE
