"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and instance counts.
"""
import itertools
import random
import time

import pytest

from sudoku_ryser.bipartite import (
    BipartiteMultigraph,
    _augment_each_free,
    _greedy,
    equitable_edge_coloring,
    extend_matching,
    is_equitable,
)
from sudoku_ryser.completion import (
    Obstruction,
    complete,
    complete_latin_rectangle,
    verify_obstruction,
)
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
    PartialGrid,
    SudokuGeometry,
    embed_in_square,
    empty_grid,
    extends,
    grid_from_rows,
    validate_partial,
)
from sudoku_ryser.hall import hall_condition, ryser_counts, whole_square_inequality
from sudoku_ryser.outline import amalgamate, expand_outline


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def enumerate_rectangles(p: int, q: int, r: int, s: int):
    """Every valid fully filled r x s rectangle for the given box shape."""
    geom = SudokuGeometry(p, q)
    n = geom.n
    flavor = "latin" if p == 1 or q == 1 else "sudoku"
    cells = [(i, j) for i in range(r) for j in range(s)]
    grid = [[0] * s for _ in range(r)]
    row_used = [set() for _ in range(r)]
    col_used = [set() for _ in range(s)]
    box_used: dict = {}
    for i in range(r):
        for j in range(s):
            box_used.setdefault((i // p, j // q), set())

    out = []

    def rec(idx: int) -> None:
        if idx == len(cells):
            out.append(PartialGrid(geom, r, s,
                                   tuple(tuple(row) for row in grid), flavor, None))
            return
        i, j = cells[idx]
        box = box_used[(i // p, j // q)] if flavor == "sudoku" else None
        for v in range(1, n + 1):
            if v in row_used[i] or v in col_used[j]:
                continue
            if box is not None and v in box:
                continue
            grid[i][j] = v
            row_used[i].add(v)
            col_used[j].add(v)
            if box is not None:
                box.add(v)
            rec(idx + 1)
            row_used[i].discard(v)
            col_used[j].discard(v)
            if box is not None:
                box.discard(v)
        grid[i][j] = 0

    rec(0)
    return out


@pytest.fixture(scope="module")
def latin_n4_instances():
    """(grid, ryser_ok, oracle_found) for every latin rectangle of order 4."""
    out = []
    for r in range(0, 5):
        for s in range(0, 5):
            for grid in enumerate_rectangles(1, 4, r, s):
                ok = ryser_counts(grid, 4).ok
                oracle = brute_force_complete(embed_in_square(grid))
                out.append((grid, ok, oracle.outcome == "found"))
    return out


@pytest.fixture(scope="module")
def sudoku_22_instances():
    """(grid, decide_verdict, oracle_found) for every (2,2) rectangle."""
    out = []
    for r in range(0, 5):
        for s in range(0, 5):
            for grid in enumerate_rectangles(2, 2, r, s):
                verdict = complete(grid)
                oracle = brute_force_complete(embed_in_square(grid))
                out.append((grid, verdict, oracle.outcome == "found"))
    return out


@pytest.fixture(scope="module")
def sudoku_23_samples():
    """200 sampled (2,3) rectangles with decide verdicts and oracle outcomes."""
    rng = random.Random(2023)
    out = []
    for case in range(200):
        r = rng.randint(0, 6)
        s = rng.randint(0, 6)
        maker = gen_random_rectangle if case % 2 == 0 else gen_random_valid_rectangle
        grid = maker(2, 3, r, s, 10_000 + case)
        verdict = complete(grid)
        oracle = brute_force_complete(embed_in_square(grid))
        out.append((grid, verdict, oracle.outcome == "found"))
    return out


@pytest.fixture(scope="module")
def sudoku_p_gt_q_samples():
    """260 sampled (3,2) and (4,2) rectangles, where p > q, with verdicts and oracle outcomes."""
    rng = random.Random(3242)
    out = []
    for p, q, count in ((3, 2, 200), (4, 2, 60)):
        n = p * q
        for case in range(count):
            r = rng.randint(0, n)
            s = rng.randint(0, n)
            maker = gen_random_rectangle if case % 2 == 0 else gen_random_valid_rectangle
            grid = maker(p, q, r, s, 20_000 + case)
            verdict = complete(grid)
            oracle = brute_force_complete(embed_in_square(grid))
            out.append((grid, verdict, oracle.outcome == "found"))
    return out


def test_criterion_1_theorem2_totality():
    start = time.time()
    failures = 0
    total = 0
    for p, q in ((2, 2), (2, 3), (3, 3)):
        n = p * q
        rng = random.Random(1000 * p + q)
        for case in range(200):
            r = p * rng.randint(0, n // p)
            s = q * rng.randint(0, n // q)
            grid = gen_random_rectangle(p, q, r, s, 31_000 + case)
            verdict = complete(grid)
            total += 1
            if not (verdict.completable
                    and validate_partial(verdict.certificate).ok
                    and extends(grid, verdict.certificate)):
                failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60
    report("1 (box-aligned totality)", ok,
           f"{total - failures}/{total} completed and verified in {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60


def test_criterion_2_equitable_coloring():
    rng = random.Random(271828)
    failures = 0
    for _ in range(1000):
        nl = rng.randint(1, 20)
        nr = rng.randint(1, 20)
        m = rng.randint(0, 200)
        edges = tuple((rng.randrange(nl), rng.randrange(nr)) for _ in range(m))
        g = BipartiteMultigraph(tuple(range(nl)), tuple(range(nr)), edges)
        k = rng.randint(1, 6)
        coloring = equitable_edge_coloring(g, k)
        if not is_equitable(g, coloring) or len(coloring.color_of) != m:
            failures += 1
    report("2 (equitable coloring)", failures == 0,
           f"{1000 - failures}/1000 colorings balanced")
    assert failures == 0


def test_criterion_3_expansion_round_trip():
    start = time.time()
    rng = random.Random(314159)
    failures = 0
    cases = 0
    for n in (4, 6, 8):
        for case in range(34 if n < 8 else 32):
            square = random_latin_square(n, 500 * n + case)
            comps = []
            for _ in range(2):
                parts, left = [], n
                while left:
                    part = rng.randint(1, left)
                    parts.append(part)
                    left -= part
                comps.append(tuple(parts))
            S, T = comps
            U = (1,) * n
            outline = amalgamate(square, S, T, U)
            expanded = expand_outline(outline)
            cases += 1
            if amalgamate(expanded, S, T, U) != outline:
                failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 60
    report("3 (expansion round-trip)", ok,
           f"{cases - failures}/{cases} round-trips identical in {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60


def test_criterion_4_ryser_equivalence(latin_n4_instances):
    mismatches = sum(1 for _, ok, found in latin_n4_instances if ok != found)
    rng = random.Random(55)
    sampled_mismatch = 0
    for case in range(500):
        r = rng.randint(0, 5)
        s = rng.randint(0, 5)
        grid = gen_random_valid_rectangle(1, 5, r, s, 40_000 + case)
        ok = ryser_counts(grid, 5).ok
        found = brute_force_complete(embed_in_square(grid)).outcome == "found"
        if ok != found:
            sampled_mismatch += 1
    total_ok = mismatches == 0 and sampled_mismatch == 0
    report("4 (counting criterion = oracle)", total_ok,
           f"{len(latin_n4_instances)} exhaustive n=4 + 500 sampled n=5, "
           f"{mismatches + sampled_mismatch} mismatches")
    assert mismatches == 0
    assert sampled_mismatch == 0


def test_criterion_5_decision(sudoku_22_instances, sudoku_23_samples, sudoku_p_gt_q_samples):
    instances = list(itertools.chain(sudoku_22_instances, sudoku_23_samples,
                                     sudoku_p_gt_q_samples))
    mismatches = [grid for grid, verdict, found in instances if verdict.completable != found]
    ok = not mismatches
    report("5 (staged decision = oracle)", ok,
           f"{len(sudoku_22_instances)} exhaustive (2,2) + {len(sudoku_23_samples)} "
           f"sampled (2,3) + {len(sudoku_p_gt_q_samples)} sampled (3,2) and (4,2), "
           f"{len(mismatches)} mismatches")
    assert not mismatches, mismatches[:3]


def test_criterion_6_hall_condition(sudoku_22_instances, sudoku_23_samples):
    start = time.time()
    mismatches = 0
    checked = 0
    for grid, verdict, found in itertools.chain(sudoku_22_instances, sudoku_23_samples):
        square = embed_in_square(grid)
        if len(square.empty_cells()) > 18:
            continue
        reportH = hall_condition(square, flavor="sudoku", gate=18)
        checked += 1
        if reportH.gave_up or reportH.holds != found or verdict.completable != found:
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 600
    report("6 (subset condition = decision = oracle)", ok,
           f"{checked} instances with <= 18 empty cells, {mismatches} mismatches, "
           f"{elapsed:.0f}s")
    assert mismatches == 0
    assert elapsed < 600


def test_criterion_7_whole_square_inequality(latin_n4_instances):
    mismatches = 0
    for grid, ok, _ in latin_n4_instances:
        square = embed_in_square(grid)
        _, _, holds = whole_square_inequality(square, flavor="latin")
        if holds != ok:
            mismatches += 1
    report("7 (single whole-square inequality)", mismatches == 0,
           f"{len(latin_n4_instances)} embeddings, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_8_fixtures():
    problems = []
    for p, q in ((2, 2), (2, 3), (3, 2), (3, 3)):
        grid = gen_evans_small(p, q)
        cells = sum(1 for _ in grid.filled())
        if cells != p + q - 1:
            problems.append(f"evans-small({p},{q}) cell count {cells}")
        if brute_force_complete(grid).outcome != "incompletable":
            problems.append(f"evans-small({p},{q}) not incompletable")
    for k, i in ((2, 2), (3, 2)):
        if brute_force_complete(gen_evans_big(k, i),
                                node_limit=5_000_000).outcome != "incompletable":
            problems.append(f"evans-big({k},{i}) not incompletable")
    for n in (3, 4, 5):
        for variant, xs in (("column", range(1, n)), ("diagonal", range(2, n + 1))):
            for x in xs:
                grid = gen_fig6(n, x, variant)
                cells = sum(1 for _ in grid.filled())
                if cells != n:
                    problems.append(f"fig6({n},{x},{variant}) cell count {cells}")
                if brute_force_complete(grid).outcome != "incompletable":
                    problems.append(f"fig6({n},{x},{variant}) not incompletable")
    report("8 (incompletable fixtures)", not problems,
           problems[0] if problems else "all fixture families verified")
    assert not problems


def test_criterion_9_certificates(sudoku_22_instances, sudoku_23_samples,
                                  latin_n4_instances):
    bad = 0
    total = 0
    for grid, verdict, _ in itertools.chain(sudoku_22_instances, sudoku_23_samples):
        if not verdict.completable:
            total += 1
            if not verify_obstruction(grid, verdict.certificate):
                bad += 1
    for grid, ok, _ in latin_n4_instances:
        if not ok:
            result = complete_latin_rectangle(grid, 4)
            total += 1
            if not (isinstance(result, Obstruction)
                    and verify_obstruction(grid, result)):
                bad += 1
    report("9 (certificates recheck)", bad == 0,
           f"{total - bad}/{total} obstructions re-verified independently")
    assert bad == 0
    assert total > 0


def test_criterion_10_matching_engine():
    # The matcher the library runs (a greedy pass, then one augmenting
    # search per free left vertex, as hall._alpha and the corner call it)
    # and extend_matching from no seed, each against a brute force.
    rng = random.Random(161803)

    def brute(edges, nl):
        dedup = sorted(set(edges))

        def best(idx, used_l, used_r):
            if idx == len(dedup):
                return 0
            u, w = dedup[idx]
            score = best(idx + 1, used_l, used_r)
            if not (used_l >> u) & 1 and not (used_r >> w) & 1:
                score = max(score, 1 + best(idx + 1, used_l | (1 << u), used_r | (1 << w)))
            return score

        return best(0, 0, 0)

    failures = 0
    for _ in range(500):
        nl = rng.randint(1, 8)
        nr = rng.randint(1, 8)
        m = rng.randint(0, 20)
        edges = tuple((rng.randrange(nl), rng.randrange(nr)) for _ in range(m))
        g = BipartiteMultigraph(tuple(range(nl)), tuple(range(nr)), edges)
        adj = [sorted({w for u, w in edges if u == x}) for x in range(nl)]
        best = brute(edges, nl)
        for found in (_augment_each_free(adj, *_greedy(adj, 1, nr)), extend_matching(g)):
            pairs = found.pairs
            if (len(pairs) != best or not set(pairs) <= set(edges)
                    or len({u for u, _ in pairs}) < len(pairs)
                    or len({w for _, w in pairs}) < len(pairs)):
                failures += 1
                break
    report("10 (matching engine)", failures == 0,
           f"{500 - failures}/500 graphs agree with brute force")
    assert failures == 0
