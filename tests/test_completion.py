import itertools
import random

import pytest

from sudoku_ryser import completion, outline
from sudoku_ryser.bipartite import HallViolator, Matching, saturating_matching, verify_violator
from sudoku_ryser.completion import (
    MediumCellPlan,
    Obstruction,
    assemble_outline,
    bottom_graph,
    complete,
    complete_latin_rectangle,
    distribute_free,
    matchings_exist,
    plan_medium_cells,
    side_graph,
    verify_obstruction,
)
from sudoku_ryser.fixtures import (
    brute_force_complete,
    extends,
    gen_random_rectangle,
    gen_random_valid_rectangle,
)
from sudoku_ryser.grid import (
    PartialGrid,
    SudokuGeometry,
    embed_in_square,
    empty_grid,
    grid_from_rows,
    validate_partial,
)
from sudoku_ryser.outline import validate_outline

WORKED = grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1], [2, 1, 4]])
WORKED_SQUARE = grid_from_rows(2, 2, [[1, 2, 3, 4], [3, 4, 1, 2],
                                      [2, 1, 4, 3], [4, 3, 2, 1]])


def edge_set(graph):
    return {(graph.left_labels[u], graph.right_labels[w]) for u, w in graph.edges}


def cyclic_rows(n, r, s, shift):
    """The r x s corner of a cyclic latin square of order n, symbol k + 1
    relabelled (k * shift) % n + 1; shift must be coprime to n."""
    relabel = [(k * shift) % n + 1 for k in range(n)]
    return [[relabel[(i + j) % n] for j in range(s)] for i in range(r)]


def test_side_graph_band_example():
    grid = grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1]])
    g = side_graph(grid, 1)
    assert edge_set(g) == {(("row", 1, 1), 4), (("row", 2, 1), 2)}


def test_side_graph_replication_count():
    grid = gen_random_rectangle(2, 3, 2, 4, 0)
    g = side_graph(grid, 1)
    copies = {lab[2] for lab in g.left_labels}
    assert copies == {1, 2}  # q - (s - s*) = 3 - 1


def test_side_graph_corner_only():
    grid = grid_from_rows(2, 2, [[1, 2, 3]])
    g = side_graph(grid, 1)
    assert edge_set(g) == {(("row", 1, 1), 4)}


def test_side_graph_preconditions():
    with pytest.raises(ValueError):
        side_graph(grid_from_rows(2, 2, [[1, 2], [3, 4]]), 1)  # q | s
    with pytest.raises(ValueError):
        side_graph(grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1]]), 2)  # p | r, no corner


def test_bottom_graph_example_both_rules():
    grid = grid_from_rows(2, 2, [[1, 2, 3]])
    relaxed = bottom_graph(grid, 1, strengthen=False)
    assert edge_set(relaxed) == {(("col", 1, 1), k) for k in (2, 3, 4)} | {
        (("col", 2, 1), k) for k in (1, 3, 4)}
    strengthened = bottom_graph(grid, 1)
    assert edge_set(strengthened) == {(("col", 1, 1), k) for k in (3, 4)} | {
        (("col", 2, 1), k) for k in (3, 4)}


def test_bottom_graph_replication():
    grid = gen_random_rectangle(3, 2, 4, 2, 1)
    g = bottom_graph(grid, 1)
    copies = {lab[2] for lab in g.left_labels}
    assert copies == {1, 2}  # p - (r - r*) = 3 - 1


def test_bottom_graph_precondition():
    grid = gen_random_rectangle(2, 2, 2, 3, 2)
    with pytest.raises(ValueError):
        bottom_graph(grid, 1)  # p | r


def test_plan_worked_instance():
    plan = plan_medium_cells(WORKED)
    assert isinstance(plan, MediumCellPlan)
    assert plan.horizontal == {(1, 1): (4,), (1, 2): (2,), (2, 1): (3,)}
    assert plan.vertical == {(1, 1): (4,), (1, 2): (3,), (2, 1): (2,)}


def test_plan_no_restricted_cells():
    plan = plan_medium_cells(grid_from_rows(2, 2, [[1, 2], [3, 4]]))
    assert plan.horizontal == {} and plan.vertical == {}


def test_plan_single_row():
    grid = grid_from_rows(2, 2, [[1, 2, 3]])
    plan = plan_medium_cells(grid)
    assert plan.horizontal == {(1, 1): (4,)}
    assert set(plan.vertical) == {(1, 1), (1, 2), (2, 1)}
    verdict = complete(grid)
    assert verdict.completable


def test_distribute_forced_band():
    grid = grid_from_rows(2, 2, [[1, 2], [3, 4]])
    dist = distribute_free(grid, MediumCellPlan())
    assert dist.row_fills[(1, 2)] == (3, 4)
    assert dist.row_fills[(2, 2)] == (1, 2)
    assert dist.col_fills[(1, 2)] == (2, 4)
    assert dist.col_fills[(2, 2)] == (1, 3)


def test_distribute_splits_every_empty_big_line_exactly():
    # For each empty big column J, every row of a full band takes q symbols
    # there and the band takes each symbol once; the leftover rows and the
    # leftover block together take each symbol once.  The same holds for
    # columns in each empty big row, with p symbols per column.
    rng = random.Random(12)
    checked = 0
    for p, q in ((2, 3), (3, 2), (3, 4), (4, 3)):
        n = p * q
        for case in range(8):
            r, s = rng.randint(1, n), rng.randint(1, n)
            grid = gen_random_rectangle(p, q, r, s, case)
            dist = distribute_free(grid, plan_medium_cells(grid))
            for fills, block, lines, cross, height, width in (
                    (dist.row_fills, dist.block_row_fills, r, s, p, q),
                    (dist.col_fills, dist.block_col_fills, s, r, q, p)):
                full = lines - lines % height
                targets = range(-(-cross // width) + 1, height + 1)
                for target in targets:
                    for band in range(full // height):
                        band_lines = range(band * height + 1, (band + 1) * height + 1)
                        assert all(len(fills[(i, target)]) == width for i in band_lines)
                        assert sorted(k for i in band_lines
                                      for k in fills[(i, target)]) == list(range(1, n + 1))
                        checked += 1
                    if full < lines:
                        leftover = [k for i in range(full + 1, lines + 1)
                                    for k in fills[(i, target)]]
                        assert sorted(leftover + list(block[target])) == list(range(1, n + 1))
                        checked += 1
                assert set(block) == (set(targets) if full < lines else set())
    assert checked > 100


def test_assemble_worked_instance_gives_expected_square():
    plan = plan_medium_cells(WORKED)
    dist = distribute_free(WORKED, plan)
    outline = assemble_outline(WORKED, plan, dist)
    assert validate_outline(outline).ok
    assert outline.row_comp == (1, 1, 1, 1)
    verdict = complete(WORKED)
    assert verdict.completable
    assert verdict.certificate == WORKED_SQUARE


def test_assemble_tampered_plan_flags_outline():
    plan = plan_medium_cells(WORKED)
    dist = distribute_free(WORKED, plan)
    tampered = MediumCellPlan(dict(plan.horizontal), dict(plan.vertical))
    tampered.horizontal[(1, 1)] = (3,)  # duplicates 3 inside the big cell
    result = assemble_outline(WORKED, tampered, dist)
    assert isinstance(result, Obstruction)
    assert result.stage == "outline-invalid"
    assert not result.detail.ok


def test_complete_theorem2_shape_always_succeeds():
    for p, q in ((2, 2), (2, 3), (3, 2)):
        n = p * q
        for seed in range(6):
            rng = random.Random(seed)
            r = p * rng.randint(0, n // p)
            s = q * rng.randint(0, n // q)
            grid = gen_random_rectangle(p, q, r, s, seed)
            verdict = complete(grid)
            assert verdict.completable, (p, q, r, s, seed)
            assert validate_partial(verdict.certificate).ok
            assert extends(grid, verdict.certificate)


def test_complete_empty_and_full():
    verdict = complete(empty_grid(2, 3, 0, 0))
    assert verdict.completable
    assert validate_partial(verdict.certificate).ok
    square = gen_random_rectangle(2, 2, 4, 4, 3)
    assert complete(square).certificate == square


def test_complete_rejects_invalid_input():
    verdict = complete(grid_from_rows(2, 2, [[1, 1]]))
    assert not verdict.completable
    assert verdict.certificate.stage == "input-invalid"
    holes = empty_grid(2, 2).with_cell(1, 1, 1)
    verdict = complete(holes)
    assert not verdict.completable
    assert verdict.certificate.stage == "input-invalid"


def test_complete_routes_latin_for_flat_boxes():
    grid = grid_from_rows(1, 3, [[1, 2], [2, 1]])
    verdict = complete(grid)
    assert not verdict.completable
    ob = verdict.certificate
    assert ob.stage == "ryser" and ob.symbol == 3
    assert verify_obstruction(grid, ob)
    # q = 1 (p = n) takes the latin path too.
    for r, s in ((2, 3), (5, 1), (1, 5), (5, 5)):
        grid = grid_from_rows(5, 1, cyclic_rows(5, r, s, shift=2))
        verdict = complete(grid)
        assert verdict.completable
        assert verdict.certificate.geometry == SudokuGeometry(5, 1)
        assert validate_partial(verdict.certificate).ok and extends(grid, verdict.certificate)


def test_complete_latin_rectangle_ryser_failure():
    grid = grid_from_rows(1, 3, [[1, 2], [2, 1]])
    result = complete_latin_rectangle(grid, 3)
    assert isinstance(result, Obstruction)
    assert result.symbol == 3


def test_complete_latin_rectangle_success():
    grid = grid_from_rows(1, 3, [[1, 2], [2, 3]])
    result = complete_latin_rectangle(grid, 3)
    assert isinstance(result, PartialGrid)
    assert validate_partial(result).ok
    assert extends(grid, result)
    # Edge shapes: no merged row block, no merged column block, or neither.
    for r, s in ((6, 2), (3, 6), (1, 6), (6, 1), (6, 6), (5, 5)):
        grid = grid_from_rows(1, 6, cyclic_rows(6, r, s, shift=5))
        result = complete_latin_rectangle(grid, 6)
        assert isinstance(result, PartialGrid) and result.rows == result.cols == 6
        assert validate_partial(result).ok and extends(grid, result)


def test_complete_latin_rectangle_from_scratch():
    result = complete_latin_rectangle(empty_grid(1, 4, 0, 0), 4)
    assert isinstance(result, PartialGrid)
    assert validate_partial(result).ok
    assert result.rows == result.cols == 4


def test_complete_latin_rectangle_exhaustive_n4():
    # Every 2x2 latin rectangle on 1..4: verdict must match the oracle.
    for a, b, c, d in itertools.product(range(1, 5), repeat=4):
        if a == b or c == d or a == c or b == d:
            continue
        grid = grid_from_rows(1, 4, [[a, b], [c, d]])
        result = complete_latin_rectangle(grid, 4)
        oracle = brute_force_complete(embed_in_square(grid))
        if isinstance(result, Obstruction):
            assert oracle.outcome == "incompletable"
        else:
            assert oracle.outcome == "found"
            assert validate_partial(result).ok and extends(grid, result)


def test_complete_latin_rectangle_expands_one_outline(monkeypatch):
    # r < n and s < n: one merged row block and one merged column block, so
    # exactly two colorings and no matching of the completion module.
    colors, matchings = [], []
    coloring = outline.equitable_edge_coloring

    def counted_coloring(graph, k):
        colors.append(k)
        return coloring(graph, k)

    def counted(name):
        fn = getattr(completion, name)

        def call(*args, **kwargs):
            matchings.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(outline, "equitable_edge_coloring", counted_coloring)
    for name in ("saturating_matching", "extend_matching"):
        monkeypatch.setattr(completion, name, counted(name))
    grid = grid_from_rows(1, 7, cyclic_rows(7, 3, 2, shift=2))
    result = complete_latin_rectangle(grid, 7)
    assert isinstance(result, PartialGrid)
    assert validate_partial(result).ok and extends(grid, result)
    assert colors == [4, 5]
    assert matchings == []


def test_corner_needs_joint_choice():
    # Column 1 misses only symbol 4, so the corner row must not take it.
    grid = grid_from_rows(2, 2, [[2], [3], [4]])
    verdict = complete(grid)
    assert verdict.completable
    assert extends(grid, verdict.certificate)
    assert brute_force_complete(embed_in_square(grid)).outcome == "found"


def test_corner_conflict_is_genuine():
    # Row 3 and column 3 both miss only symbol 4, which must occupy both
    # corner slots of the same big cell: incompletable.
    grid = grid_from_rows(2, 2, [[2, 4, 1], [3, 1, 2], [1, 2, 3]])
    assert validate_partial(grid).ok
    assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"
    verdict = complete(grid)
    assert not verdict.completable
    assert verify_obstruction(grid, verdict.certificate)


def test_matching_criterion_alone_misses_column_clash():
    # Both bands force symbols 5 and 6 into the single free column of big
    # column 1, so the rectangle is incompletable even though every side
    # matching exists.
    grid = grid_from_rows(2, 3, [[1, 2], [3, 4], [2, 1], [4, 3]])
    assert validate_partial(grid).ok
    assert matchings_exist(grid)
    assert matchings_exist(grid, strengthen=False)
    assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"
    verdict = complete(grid)
    assert not verdict.completable


def test_row_coverage_obstruction():
    # Symbols 5 and 6 are missing from both leftover rows but only one big
    # column is free, although all bottom matchings exist.
    grid = grid_from_rows(3, 2, [[2, 1, 4, 3], [4, 3, 6, 5], [5, 6, 2, 1],
                                 [1, 2, 3, 4], [3, 4, 1, 2]])
    assert validate_partial(grid).ok
    assert matchings_exist(grid)
    assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"
    verdict = complete(grid)
    assert not verdict.completable
    ob = verdict.certificate
    assert ob.kind == "row-coverage"
    assert verify_obstruction(grid, ob)


def test_plan_builds_band_and_coverage_graphs_only_to_certify(monkeypatch):
    # Full bands are matched without their replica graph, and placement
    # counts come from coverage graph sizes; a graph is built only for the
    # obstruction it certifies.
    built = []
    for name in ("_side_graph", "_coverage_graph"):
        def spy(*args, fn=getattr(completion, name), name=name):
            built.append(name)
            return fn(*args)
        monkeypatch.setattr(completion, name, spy)
    grid = gen_random_rectangle(3, 3, 7, 8, 4)  # full bands, full stacks and a corner
    assert isinstance(plan_medium_cells(grid), MediumCellPlan)
    assert built == []
    coverage = grid_from_rows(3, 2, [[2, 1, 4, 3], [4, 3, 6, 5], [5, 6, 2, 1],
                                     [1, 2, 3, 4], [3, 4, 1, 2]])
    assert plan_medium_cells(coverage).kind == "row-coverage"
    assert built == ["_coverage_graph"]


def test_corner_coverage_instance_completable_with_care():
    # Completable, but only if the corner choices respect both the column
    # deficiency and the leftover-row coverage.
    grid = grid_from_rows(3, 2, [[2, 4, 5], [5, 1, 6], [3, 6, 2],
                                 [1, 2, 3], [4, 5, 1]])
    assert validate_partial(grid).ok
    assert brute_force_complete(embed_in_square(grid)).outcome == "found"
    verdict = complete(grid)
    assert verdict.completable
    assert extends(grid, verdict.certificate)


def test_band_matching_violation_is_genuine():
    # (3,3) instance whose second band cannot complete its partially covered
    # big cell: a genuine side-matching Hall violation.
    grid = grid_from_rows(3, 3, [[6, 4, 2, 5, 3], [3, 8, 7, 1, 9], [1, 5, 9, 7, 8],
                                 [9, 7, 5, 2, 4], [2, 3, 4, 6, 5], [8, 6, 1, 3, 7],
                                 [4, 9, 3, 8, 1]])
    assert validate_partial(grid).ok
    verdict = complete(grid)
    assert not verdict.completable
    assert verdict.certificate.kind == "side-alpha"
    assert verify_obstruction(grid, verdict.certificate)
    assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"


def test_stack_matching_violation_is_genuine():
    grid = grid_from_rows(3, 3, [[4, 5, 2, 9, 7, 6, 8, 1], [7, 3, 1, 8, 4, 5, 9, 6],
                                 [6, 9, 8, 3, 2, 1, 7, 5], [3, 6, 4, 7, 5, 9, 2, 8],
                                 [9, 7, 5, 1, 8, 4, 6, 3]])
    assert validate_partial(grid).ok
    verdict = complete(grid)
    assert not verdict.completable
    assert verdict.certificate.kind == "bottom-beta"
    assert verify_obstruction(grid, verdict.certificate)
    assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"


def test_corner_flow_violation_is_genuine():
    grid = grid_from_rows(2, 4, [[2, 1, 6, 7, 8, 3], [3, 8, 5, 4, 2, 6],
                                 [6, 4, 7, 5, 3, 8], [1, 3, 8, 2, 5, 7],
                                 [8, 5, 2, 3, 4, 1]])
    assert validate_partial(grid).ok
    verdict = complete(grid)
    assert not verdict.completable
    assert verdict.certificate.kind == "corner-flow"
    assert verify_obstruction(grid, verdict.certificate)
    assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"


def test_tampered_obstructions_fail_verification():
    grid = grid_from_rows(3, 2, [[2, 1, 4, 3], [4, 3, 6, 5], [5, 6, 2, 1],
                                 [1, 2, 3, 4], [3, 4, 1, 2]])
    verdict = complete(grid)
    ob = verdict.certificate
    assert verify_obstruction(grid, ob)
    wrong_symbol = Obstruction(ob.stage, ob.detail, kind=ob.kind,
                               symbol=1 if ob.symbol != 1 else 2)
    assert not verify_obstruction(grid, wrong_symbol)

    latin = grid_from_rows(1, 3, [[1, 2], [2, 1]])
    ry = complete_latin_rectangle(latin, 3)
    assert verify_obstruction(latin, ry)
    fake = Obstruction("ryser", 1, kind="ryser", symbol=1)
    assert not verify_obstruction(latin, fake)

    violator = HallViolator(frozenset({0}), frozenset({0, 1}))
    bogus = Obstruction("corner-conflict", violator, kind="corner-flow")
    assert not verify_obstruction(grid_from_rows(2, 2, [[1, 2, 3]]), bogus)


def test_decide_matches_oracle_on_small_sweep():
    for r in range(0, 5):
        for s in range(0, 5):
            for seed in range(3):
                grid = gen_random_valid_rectangle(2, 2, r, s, seed)
                verdict = complete(grid)
                oracle = brute_force_complete(embed_in_square(grid))
                assert verdict.completable == (oracle.outcome == "found"), \
                    (r, s, seed, grid.cells)
                if verdict.completable:
                    assert validate_partial(verdict.certificate).ok
                    assert extends(grid, verdict.certificate)
                else:
                    assert verify_obstruction(grid, verdict.certificate)


def test_complete_unaligned_3_3_truncations():
    # Truncations of full squares are always completable, so the staged
    # pipeline must succeed on every (3,3) shape, aligned or not.
    rng = random.Random(14)
    for case in range(25):
        r = rng.randint(0, 9)
        s = rng.randint(0, 9)
        grid = gen_random_rectangle(3, 3, r, s, 777 + case)
        verdict = complete(grid)
        assert verdict.completable, (r, s, case)
        assert validate_partial(verdict.certificate).ok
        assert extends(grid, verdict.certificate)


def test_decide_matches_oracle_2_3():
    rng = random.Random(12)
    for case in range(30):
        r = rng.randint(0, 6)
        s = rng.randint(0, 6)
        maker = gen_random_rectangle if case % 2 else gen_random_valid_rectangle
        grid = maker(2, 3, r, s, case)
        verdict = complete(grid)
        oracle = brute_force_complete(embed_in_square(grid))
        assert verdict.completable == (oracle.outcome == "found"), (r, s, case)
        if verdict.completable:
            assert extends(grid, verdict.certificate)


def test_plan_fills_restricted_big_cells_exactly():
    # Preassigned plus planned symbols tile each fully covered restricted
    # big cell with 1..n exactly once; the corner cell stays duplicate free.
    rng = random.Random(6)
    checked = 0
    for _ in range(40):
        p, q = rng.choice([(2, 2), (2, 3), (3, 2)])
        n = p * q
        r = rng.randint(1, n)
        s = rng.randint(1, n)
        grid = gen_random_rectangle(p, q, r, s, rng.randint(0, 10_000))
        plan = plan_medium_cells(grid) if p > 1 and q > 1 else None
        if not isinstance(plan, MediumCellPlan):
            continue
        r_star = (r // p) * p
        s_star = (s // q) * q
        if s % q:
            for alpha in range(1, r_star // p + 1):
                symbols = []
                for i in range((alpha - 1) * p + 1, alpha * p + 1):
                    symbols.extend(grid.at(i, j) for j in range(s_star + 1, s + 1))
                    symbols.extend(plan.horizontal[(alpha, i - (alpha - 1) * p)])
                assert sorted(symbols) == list(range(1, n + 1))
                checked += 1
        if r % p and s % q:
            symbols = []
            for i in range(r_star + 1, r + 1):
                symbols.extend(grid.at(i, j) for j in range(s_star + 1, s + 1))
                symbols.extend(plan.horizontal[(r_star // p + 1, i - r_star)])
            for j in range(s_star + 1, s + 1):
                symbols.extend(plan.vertical[(s_star // q + 1, j - s_star)])
            assert len(symbols) == len(set(symbols))
            checked += 1
    assert checked > 10


def test_band_graph_symbol_degree_identity():
    # In a box-aligned rectangle every band misses each symbol from exactly
    # (n - s) / q of its rows.
    for seed in range(5):
        grid = gen_random_rectangle(2, 3, 2, 3, seed)
        n, p, q, s = 6, 2, 3, 3
        for k in range(1, n + 1):
            degree = sum(1 for i in (1, 2) if k not in grid.row_symbols(i))
            assert degree == (n - s) // q


def test_plan_obstruction_verifies_independently():
    grid = grid_from_rows(2, 3, [[1, 2], [3, 4], [2, 1], [4, 3]])
    verdict = complete(grid)
    assert not verdict.completable
    assert verdict.certificate.stage in ("side-matching", "bottom-matching",
                                         "corner-conflict")
    assert verify_obstruction(grid, verdict.certificate)


def transpose(grid):
    """The (q,p) rectangle whose rows are the columns of a (p,q) rectangle."""
    geom = grid.geometry
    cells = tuple(tuple(row[j] for row in grid.cells) for j in range(grid.cols))
    return PartialGrid(SudokuGeometry(geom.q, geom.p), grid.cols, grid.rows, cells)


def replica_graph(graph):
    """Edges and (index, replica) labels, without the row or column tag."""
    return [label[1:] for label in graph.left_labels], graph.right_labels, graph.edges


def test_transposition_swaps_rows_and_columns():
    # Transposing swaps rows with columns and bands with stacks, so the
    # verdict cannot change and each bottom graph is the side graph of the
    # transpose.  Kinds are not compared: when both sides fail, each grid
    # reports its own side first.  This sampler seed was once chosen to
    # avoid the n = 12 draws on which gen_random_valid_rectangle, then
    # without restarts, spent seconds; its restarts now end such draws.
    rng = random.Random(5)
    for p, q in ((2, 3), (3, 2), (3, 4), (4, 3), (2, 4), (4, 2)):
        n = p * q
        for case in range(12):
            r, s = rng.randint(1, n), rng.randint(1, n)
            grid = gen_random_valid_rectangle(p, q, r, s, case)
            flipped = transpose(grid)
            verdict, flipped_verdict = complete(grid), complete(flipped)
            assert verdict.completable == flipped_verdict.completable, (p, q, r, s, case)
            for g, v in ((grid, verdict), (flipped, flipped_verdict)):
                assert v.completable or verify_obstruction(g, v.certificate)
            if r % p:
                for beta in range(1, (s + q - 1) // q + 1):
                    for strengthen in (True, False):
                        assert (replica_graph(bottom_graph(grid, beta, strengthen=strengthen))
                                == replica_graph(side_graph(flipped, beta,
                                                            strengthen=strengthen)))


def test_band_matcher_agrees_with_hopcroft_karp():
    # Every full band and full stack of random valid rectangles, under both
    # edge rules: the capacitated matcher that plan_medium_cells and
    # matchings_exist run saturates exactly when Hopcroft-Karp saturates the
    # replica graph, gives every row (column) b symbols it lacks with no
    # symbol twice in the band, and otherwise returns a violator of the side
    # (bottom) graph.  Rectangles are drawn until 20 bands have failed.
    rng = random.Random(31)
    shapes = ((2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4))
    graph_of = (side_graph, bottom_graph)
    filled = failed = draws = 0
    while failed < 20:
        draws += 1
        assert draws <= 5000, (filled, failed)
        p, q = shapes[draws % len(shapes)]
        n = p * q
        grid = gen_random_valid_rectangle(p, q, rng.randint(1, n), rng.randint(1, n),
                                          rng.randrange(10_000))
        for side, ax in enumerate(completion._axes(grid)):
            lines = grid if side == 0 else transpose(grid)
            shape = ax.shape
            if shape.q_divides:
                continue
            for alpha in range(1, shape.full_bands + 1):
                rows = range((alpha - 1) * shape.p + 1, alpha * shape.p + 1)
                cell = {lines.at(i, j) for i in rows for j in range(shape.s_star + 1, shape.s + 1)}
                for strengthen in (True, False):
                    graph = graph_of[side](grid, alpha, strengthen=strengthen)
                    expected = saturating_matching(graph)
                    got = completion._match_band(ax, alpha, strengthen)
                    assert isinstance(got, HallViolator) == isinstance(expected, HallViolator)
                    if isinstance(got, HallViolator):
                        assert verify_violator(graph, got), (grid.cells, side, alpha)
                        failed += 1
                        continue
                    assert sorted(got) == list(rows)
                    placed = [k for i in rows for k in got[i]]
                    assert len(placed) == len(set(placed))
                    banned = cell if strengthen else set()
                    for i in rows:
                        assert len(got[i]) == shape.b
                        assert not set(got[i]) & (set(lines.row_symbols(i)) | banned)
                    filled += 1
    assert filled > failed
