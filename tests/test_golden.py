"""complete()'s outputs on fixed inputs, pinned by one hash.

A change that claims to leave every output byte-identical (a speed-up, a
refactor) must leave GOLDEN as it is.  A change that alters a square or an
obstruction on purpose records the new hash and says why.
"""
import hashlib
import random

from sudoku_ryser.bipartite import HallViolator
from sudoku_ryser.completion import complete
from sudoku_ryser.fixtures import gen_random_rectangle, gen_random_valid_rectangle

SHAPES = ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))
DRAWS = 24  # per shape
GOLDEN = "ea3b4783876d7795a39f9f6a753386539753f039237887ab467411d0f963f61e"


def _inputs():
    """Fixed-seed random valid rectangles of every shape, then two latin corners."""
    rng = random.Random(12)
    for p, q in SHAPES:
        n = p * q
        for _ in range(DRAWS):
            r, s = rng.randint(1, n), rng.randint(1, n)
            yield gen_random_valid_rectangle(p, q, r, s, rng.randrange(10 ** 9))
    yield gen_random_rectangle(1, 9, 5, 4, 3)  # a corner of a latin square: completes
    yield gen_random_valid_rectangle(1, 6, 4, 5, 7)  # fails Ryser's bound


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
    records = [_record(grid) for grid in _inputs()]
    verdicts = {record[1] if record[1] else record[3] for record in records}
    assert True in verdicts and "ryser" in verdicts and len(verdicts) >= 5, verdicts
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == GOLDEN
