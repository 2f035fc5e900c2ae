"""complete()'s outputs on fixed inputs, pinned by one hash per input group.

A change that claims to leave every output byte-identical (a speed-up, a
refactor) must leave GOLDEN as it is.  A change that alters a square or an
obstruction on purpose records the new hash of each group it alters and
says why; the groups it leaves alone keep theirs.
"""
import hashlib
import random

from sudoku_ryser.bipartite import HallViolator
from sudoku_ryser.completion import complete
from sudoku_ryser.fixtures import gen_random_rectangle, gen_random_valid_rectangle

SHAPES = ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))
DRAWS = 24  # per shape
GOLDEN = {
    (2, 3): "d6e8c18e9e9b619b5e21d5d669cfd5c007eb1ba8a5a3592e28407d159e4a870c",
    (3, 2): "0908dc25be7f00fe08512c6ac150aceaad5485f21569f4a818baed8ce5c1d3bc",
    (3, 3): "a92253f05006c7a9dada41d1815acf5e57a58568abc4209f563ebf537fec934c",
    (3, 4): "fbc1a15c02c09a79dfbc75892087c11b2df53bc8315e6be2e6ddf92771769f0c",
    (4, 3): "121a1097891f6c2e4a51eaae1f15b2db341517eb19a57d4da1cccae90e445077",
    (4, 4): "256e0a90d196c99d23a2cbdc75c887716108e3ce91537f340cfbefe221200a0d",
    "latin": "63456bc669df3b853a8c03dc42266d9c330b483dda9ddb35cdf146db133add30",
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
