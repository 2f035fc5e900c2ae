import dataclasses
import hashlib
import itertools
import random

import pytest

from sudoku_ryser import bipartite, cli, completion, outline
from sudoku_ryser.bipartite import (
    BipartiteMultigraph,
    HallViolator,
    Matching,
    saturating_matching,
    verify_violator,
)
from sudoku_ryser.completion import (
    Distribution,
    MediumCellPlan,
    Obstruction,
    assemble_outline,
    complete,
    complete_latin_rectangle,
    distribute_free,
    plan_medium_cells,
    verify_obstruction,
)
from sudoku_ryser.fixtures import (
    brute_force_complete,
    gen_random_rectangle,
    gen_random_valid_rectangle,
)
from sudoku_ryser.grid import (
    PartialGrid,
    SudokuGeometry,
    embed_in_square,
    empty_grid,
    extends,
    grid_from_rows,
    parse_grid,
    serialize_grid,
    validate_partial,
)
from sudoku_ryser.outline import validate_outline

WORKED = grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1], [2, 1, 4]])
WORKED_SQUARE = grid_from_rows(2, 2, [[1, 2, 3, 4], [3, 4, 1, 2],
                                      [2, 1, 4, 3], [4, 3, 2, 1]])


def replicas(grid, side, alpha):
    """Band (side 0) or stack (side 1) alpha's replica lists: the side or
    bottom graph's left vertices, each listing its 1-based symbols."""
    ax = completion._shape(grid).axes[side]
    return [[w + 1 for w in hood] for hood in completion._replicas(ax, alpha)]


def cyclic_rows(n, r, s, shift):
    """The r x s corner of a cyclic latin square of order n, symbol k + 1
    relabelled (k * shift) % n + 1; shift must be coprime to n."""
    relabel = [(k * shift) % n + 1 for k in range(n)]
    return [[relabel[(i + j) % n] for j in range(s)] for i in range(r)]


def test_side_graph_band_example():
    grid = grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1]])
    assert replicas(grid, 0, 1) == [[4], [2]]


def test_side_graph_replication_count():
    grid = gen_random_rectangle(2, 3, 2, 4, 0)
    lists = replicas(grid, 0, 1)
    assert len(lists) == 2 * 2  # q - (s - s*) = 3 - 1 copies of each row
    assert lists[0] == lists[1] and lists[2] == lists[3]


def test_side_graph_corner_only():
    grid = grid_from_rows(2, 2, [[1, 2, 3]])
    assert replicas(grid, 0, 1) == [[4]]


def test_bottom_graph_example():
    # A column's replicas lack the symbols of the column and those of the
    # stack's cells in the partially covered big row, here 1 and 2.
    grid = grid_from_rows(2, 2, [[1, 2, 3]])
    assert replicas(grid, 1, 1) == [[3, 4], [3, 4]]


def test_bottom_graph_replication():
    grid = gen_random_rectangle(3, 2, 4, 2, 1)
    lists = replicas(grid, 1, 1)
    assert len(lists) == 2 * 2  # p - (r - r*) = 3 - 1 copies of each column
    assert lists[0] == lists[1] and lists[2] == lists[3]


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


def _distributed_by_slices(grid, plan):
    """Distribution through one slice list per band (outline._block_slices):
    the reference for distribute_free, which writes each symbol straight
    from its colour.  The column side is the row side of the transpose."""
    dist = Distribution()
    for g, share, fills, block_fills in (
            (grid, plan.horizontal, dist.row_fills, dist.block_row_fills),
            (transpose(grid), plan.vertical, dist.col_fills, dist.block_col_fills)):
        p, q, n = g.geometry.p, g.geometry.q, g.n
        contents = [set()] + [g.row_symbols(i) for i in range(1, g.rows + 1)]
        for (alpha, x), syms in share.items():
            contents[(alpha - 1) * p + x].update(syms)
        targets = range(-(-g.cols // q) + 1, p + 1)
        for start in range(0, g.rows, p):
            rows = range(start + 1, min(start + p, g.rows) + 1)
            cells = [tuple(k for k in range(1, n + 1) if k not in contents[i]) for i in rows]
            leftover = len(rows) < p
            if leftover:
                missing = [sum(k in cell for cell in cells) for k in range(n + 1)]
                cells.append(tuple(k for k in range(1, n + 1)
                                   for _ in range(len(targets) - missing[k])))
            if not targets:
                continue
            for J, slice_ in zip(targets, outline._block_slices(tuple(cells), len(targets), n)):
                fills.update(((i, J), cell) for i, cell in zip(rows, slice_))
                if leftover:
                    block_fills[J] = slice_[-1]
    return dist


@pytest.mark.parametrize("p, q", ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)))
def test_distribution_colours_each_band_as_the_slice_split_does(monkeypatch, p, q):
    # distribute_free gives the slice-list reference's Distribution, dict
    # order included, from the same colourings in the same order: one per
    # band of each axis that has an empty big line.  The sides cover full
    # bands only, a leftover band, and axes with no empty big line.
    calls = []
    core = outline._color_cells

    def recording(cells, k, right):
        calls.append((k, tuple(map(tuple, cells))))
        return core(cells, k, right)

    monkeypatch.setattr(outline, "_color_cells", recording)
    rng = random.Random(10 * p + q)
    n = p * q
    sides = [(p, 0), (p + 1, 1), (n, n), (p + 1, n), (0, q + 1)]
    sides += [(rng.randint(0, n), rng.randint(0, n)) for _ in range(10)]
    seen = set()
    coloured = 0
    for r, s in sides:
        grid = gen_random_rectangle(p, q, r, s, rng.randrange(10 ** 9))
        plan = plan_medium_cells(grid)
        calls.clear()
        dist = distribute_free(grid, plan)
        made, calls[:] = calls[:], []
        assert repr(dist) == repr(_distributed_by_slices(grid, plan)), (r, s)
        assert made == calls, (r, s)
        bands = 0
        for lines, cross, height, width in ((r, s, p, q), (s, r, q, p)):
            if not lines:
                continue
            if -(-cross // width) == height:
                seen.add("no empty big line")
            else:
                bands += -(-lines // height)
                seen.add("leftover band" if lines % height else "full bands only")
        assert len(made) == bands, (r, s)
        assert all(any(cells) for _, cells in made), (r, s)
        coloured += len(made)
    assert seen == {"no empty big line", "leftover band", "full bands only"}
    assert coloured


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
    with pytest.raises(RuntimeError, match="construction bug"):
        assemble_outline(WORKED, tampered, dist)


def test_assembled_outlines_have_ascending_cells():
    # Each outline cell is read from one source, never sorted, so every
    # source must already be ascending for expansion to stay deterministic.
    rng = random.Random(16)
    checked = 0
    for p, q in ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)):
        n = p * q
        sides = [(0, rng.randint(0, n)), (rng.randint(0, n), 0)]
        sides += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(4)]
        for r, s in sides:
            grid = gen_random_rectangle(p, q, r, s, rng.randrange(10 ** 6))
            plan = plan_medium_cells(grid)
            o = assemble_outline(grid, plan, distribute_free(grid, plan))
            assert all(list(cell) == sorted(cell) for row in o.cells for cell in row)
            checked += 1
    assert checked == 36


def test_assemble_over_an_emptied_cell_is_a_construction_bug():
    # An empty given cell leaves its outline cell short: validation reports
    # it, rather than a None reaching the symbol counts.
    plan = plan_medium_cells(WORKED)
    dist = distribute_free(WORKED, plan)
    cells = [list(row) for row in WORKED.cells]
    cells[1][2] = None
    emptied = dataclasses.replace(WORKED, cells=tuple(map(tuple, cells)))
    with pytest.raises(RuntimeError, match="construction bug"):
        assemble_outline(emptied, plan, dist)


@pytest.mark.parametrize("side", ["horizontal", "vertical"])
@pytest.mark.parametrize("bad", [(9, 1), (0, 1), (-3, 2)])
def test_assemble_plan_entry_outside_the_outline_flags_outline(side, bad):
    # A plan entry whose big row or column lies outside the outline, at or
    # below 0 included, loses its symbols, and the outline fails validation.
    plan = plan_medium_cells(WORKED)
    dist = distribute_free(WORKED, plan)
    tampered = MediumCellPlan(dict(plan.horizontal), dict(plan.vertical))
    share = getattr(tampered, side)
    share[bad] = share.pop(next(iter(share)))
    with pytest.raises(RuntimeError, match="construction bug"):
        assemble_outline(WORKED, tampered, dist)


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
    # A repeated symbol, a hole, and empty rectangles with more rows or
    # columns than the order.  Then latin and gerechte rectangles that their
    # own flavor allows but that repeat a symbol in a 2 x 2 box, which no
    # Sudoku square extends, and a grid with filled cells below the square,
    # oversized whatever its flavor.  verify_obstruction accepts each.
    oversized = [parse_grid(f"sudoku v1\n{header}\n")
                 for header in ("2 2 5 0", "1 4 5 0", "2 2 0 5")]
    boxed = [grid_from_rows(2, 2, rows, flavor="latin") for rows in (
        [[1, 2], [2, 1]], [[1, 2, 3, 4], [2, 1, 4, 3]], [[1, 2], [2, 1], [3, 4]])]
    boxed.append(grid_from_rows(2, 2, [[1, 2], [2, 1]], partition=[[1, 1], [2, 2]]))
    assert all(validate_partial(grid).ok for grid in boxed)
    tall = [grid_from_rows(2, 2, [[1, 2], [3, 4], [2, 1], [4, 3], [1, 2]], flavor=flavor)
            for flavor in ("latin", "sudoku")]
    grids = [grid_from_rows(2, 2, [[1, 1]]), empty_grid(2, 2).with_cell(1, 1, 1)]
    grids += oversized + boxed + tall
    kinds = ("invalid", "not-filled") + ("oversized",) * 3 + ("invalid",) * 4 + ("oversized",) * 2
    assert len(grids) == len(kinds)
    for grid, kind in zip(grids, kinds):
        verdict = complete(grid)
        assert not verdict.completable
        assert verdict.certificate.stage == "input-invalid"
        assert verdict.certificate.kind == kind
        assert verify_obstruction(grid, verdict.certificate)


@pytest.mark.parametrize("value", [1.5, 1.0, "1", True])
def test_complete_reports_a_symbol_that_is_not_an_int(value):
    grid = grid_from_rows(2, 2, [[value, 2], [3, 4]])
    ob = complete(grid).certificate
    assert (ob.stage, ob.kind) == ("input-invalid", "invalid")
    assert verify_obstruction(grid, ob)


def test_verify_obstruction_rechecks_the_input_kind():
    # An input-invalid obstruction verifies only on a grid with the fault
    # its kind names, and an invalid one only with the grid's own report.
    faulty = {"invalid": grid_from_rows(2, 2, [[1, 1]]),
              "not-filled": empty_grid(2, 2).with_cell(1, 1, 1),
              "oversized": parse_grid("sudoku v1\n2 2 5 0\n")}
    replace = dataclasses.replace
    for kind, grid in faulty.items():
        own = complete(grid).certificate
        assert (own.stage, own.kind) == ("input-invalid", kind)
        for other in ("invalid", "not-filled", "oversized", "bogus"):
            assert verify_obstruction(grid, replace(own, kind=other)) == (other == kind), \
                (kind, other)
    invalid = complete(faulty["invalid"]).certificate
    other_report = validate_partial(grid_from_rows(2, 2, [[1, 2], [1, 2]]))
    assert not other_report.ok and other_report != invalid.detail
    assert not verify_obstruction(faulty["invalid"], replace(invalid, detail=other_report))
    valid = grid_from_rows(2, 2, [[1, 2]])
    for kind in ("invalid", "not-filled", "oversized"):
        assert not verify_obstruction(valid, replace(invalid, kind=kind))


def test_verify_obstruction_holds_an_input_kind_only_as_complete_answers_it():
    # A 5 x 1 empty (2,2) grid is oversized before it is not filled: only
    # complete()'s own obstruction verifies, and no other kind does.
    grid = empty_grid(2, 2, 5, 1)
    own = complete(grid).certificate
    assert (own.stage, own.kind) == ("input-invalid", "oversized")
    assert verify_obstruction(grid, own)
    not_filled = Obstruction("input-invalid", "rectangle is not fully filled", kind="not-filled")
    assert not verify_obstruction(grid, not_filled)
    assert not verify_obstruction(grid, dataclasses.replace(own, detail="too big"))
    assert not verify_obstruction(grid, Obstruction("ryser", 1, kind="ryser", symbol=1))


@pytest.mark.parametrize("rows", [[[1, 2], [3, 4]], [[1, 2, 3], [3, 4, 1]]])
def test_complete_builds_and_checks_one_square_on_either_path(monkeypatch, rows):
    # The latin path (p = 1) and the Sudoku one each build one square, and
    # the input and that square are each validated once.
    calls = []

    def counted(name):
        fn = getattr(completion, name)

        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for name in ("PartialGrid", "validate_partial", "extends"):
        monkeypatch.setattr(completion, name, counted(name))
    for p, q in ((1, 4), (2, 2)):
        calls.clear()
        grid = grid_from_rows(p, q, rows)
        verdict = complete(grid)
        assert verdict.completable and extends(grid, verdict.certificate)
        assert sorted(calls) == ["PartialGrid", "extends", "validate_partial", "validate_partial"]


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


def test_complete_latin_rectangle_raises_on_what_complete_finds_invalid():
    # It is complete() on the order-n latin view, so each input-invalid kind
    # raises, the oversized 5 x 0 rectangle at order 4 included, and the
    # grid's own geometry and flavor are not read.
    tall = PartialGrid(SudokuGeometry(1, 4), 5, 0, ((),) * 5, "latin", None)
    assert complete(tall).certificate.kind == "oversized"
    for grid, n, kind in ((tall, 4, "oversized"), (grid_from_rows(1, 3, [[1, 1]]), 3, "invalid"),
                          (grid_from_rows(1, 3, [[1, None]]), 3, "not-filled")):
        with pytest.raises(ValueError, match=f"order {n} \\({kind}\\)"):
            complete_latin_rectangle(grid, n)
    boxed = grid_from_rows(2, 2, [[1, 2], [2, 1]])  # a repeat in a 2 x 2 box
    assert complete(boxed).certificate.kind == "invalid"
    square = complete_latin_rectangle(boxed, 4)
    assert square.geometry == SudokuGeometry(1, 4) and square.flavor == "latin"
    assert validate_partial(square).ok and extends(boxed, square)


def matching_rows(n, rng):
    """A random latin square of order n built row by row: each row is a
    maximum matching of the columns to the symbols they still miss, with
    both sides in a random order.  That graph is regular, so the matching
    is perfect."""
    rows = []
    for _ in range(n):
        cols, syms = rng.sample(range(n), n), rng.sample(range(1, n + 1), n)
        used = [{row[j] for row in rows} for j in cols]
        edges = tuple((a, b) for a, taken in enumerate(used)
                      for b, k in enumerate(syms) if k not in taken)
        row = [0] * n
        for a, b in saturating_matching(BipartiteMultigraph(tuple(cols), tuple(syms),
                                                            edges)).pairs:
            row[cols[a]] = syms[b]
        assert 0 not in row
        rows.append(row)
    return rows


def test_random_latin_rectangles_complete():
    # Corners of latin squares that are neither cyclic nor pattern squares,
    # so the symbols of sorted cells do not rank alike.
    rng = random.Random(73)
    for n in (5, 8, 12, 17, 24):
        rows = matching_rows(n, rng)
        for _ in range(4):
            r, s = rng.randint(1, n), rng.randint(1, n)
            grid = grid_from_rows(1, n, [row[:s] for row in rows[:r]])
            verdict = complete(grid)
            assert verdict.completable, (n, r, s)
            square = verdict.certificate
            assert validate_partial(square).ok and extends(grid, square), (n, r, s)


@pytest.mark.parametrize("p, q, r, s, first_fit", [(1, 64, 32, 21, 630), (8, 8, 33, 22, 1014)])
def test_staggered_first_fit_flips_fewer_chains(monkeypatch, p, q, r, s, first_fit):
    # Corners of a relabelled cyclic square and of a (8,8) pattern square,
    # where sorted cells rank their symbols alike.  A first fit from colour 1
    # at every copy made first_fit chain flips in complete(); the staggered
    # start makes 127 on the latin corner and 799 on the Sudoku one.
    flips = []
    flip = bipartite._flip_chain

    def counted_flip(*args):
        flips.append(args[:3])
        return flip(*args)

    monkeypatch.setattr(bipartite, "_flip_chain", counted_flip)
    relabel = [(k * 5) % 64 + 1 for k in range(64)]
    rows = [[relabel[(q * (i % p) + i // p + j) % 64] for j in range(s)] for i in range(r)]
    assert complete(grid_from_rows(p, q, rows)).completable
    assert len(flips) < first_fit


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


def test_complete_never_splits_the_symbols_of_a_block(monkeypatch):
    # Every block complete() colours gives each symbol at most k entries, so
    # the kernel's relabelling of over-degree right vertices stays for
    # generic input: latin corners (p = 1 and q = 1) and Sudoku rectangles
    # with p < q and p > q, completable or not.
    splits, colorings = [], []
    split, core = bipartite._split_rights, outline._color_cells

    def counted_split(*args):
        splits.append(args)
        return split(*args)

    def counted_coloring(cells, k, right):
        colorings.append(k)
        return core(cells, k, right)

    monkeypatch.setattr(bipartite, "_split_rights", counted_split)
    monkeypatch.setattr(outline, "_color_cells", counted_coloring)
    rng = random.Random(26)
    verdicts = set()
    for p, q in ((1, 9), (9, 1), (2, 3), (3, 2), (2, 4), (4, 2), (3, 4), (4, 3)):
        n = p * q
        for _ in range(12):
            r, s = rng.randint(1, n), rng.randint(1, n)
            verdicts.add(complete(gen_random_valid_rectangle(p, q, r, s, rng.randrange(10 ** 9)))
                          .completable)
    assert splits == []
    assert len(colorings) > 100 and verdicts == {True, False}


def test_complete_latin_rectangle_colours_each_empty_cell_once(monkeypatch):
    # Ryser's order: an (n - s)-colouring extends the rows, then an
    # (n - r)-colouring adds the missing rows; no matching, no outline, and
    # one coloured edge per empty cell.
    colors, calls = [], []
    core = outline._color_cells

    def counted_coloring(cells, k, right):
        colors.append((k, sum(map(len, cells))))
        return core(cells, k, right)

    def counted(name):
        fn = getattr(completion, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(outline, "_color_cells", counted_coloring)
    for name in ("saturating_matching", "extend_matching", "expand_outline"):
        monkeypatch.setattr(completion, name, counted(name))
    grid = grid_from_rows(1, 7, cyclic_rows(7, 3, 2, shift=2))
    result = complete_latin_rectangle(grid, 7)
    assert isinstance(result, PartialGrid)
    assert validate_partial(result).ok and extends(grid, result)
    assert [k for k, _ in colors] == [5, 4]
    assert all(edges for _, edges in colors)
    assert sum(edges for _, edges in colors) == 7 * 7 - 3 * 2
    # The edge shapes, where one step or both are skipped, and the empty rectangle.
    for r, s in ((6, 2), (3, 6), (1, 6), (6, 1), (6, 6), (5, 5), (0, 0)):
        colors.clear()
        grid = grid_from_rows(1, 6, cyclic_rows(6, r, s, shift=5)) if r else empty_grid(1, 6, 0, 0)
        result = complete_latin_rectangle(grid, 6)
        assert isinstance(result, PartialGrid) and extends(grid, result)
        assert sum(edges for _, edges in colors) == 6 * 6 - r * s, (r, s)
    assert calls == []


def _first_copy_repeats_colour_2(classes):
    # a new line gets one symbol twice and loses one
    classes[0][0] = classes[1][0]


def _first_copy_swaps_colours(classes):
    # two new cells of a line swap symbols
    classes[0][0], classes[1][0] = classes[1][0], classes[0][0]


@pytest.mark.parametrize("corrupt", [_first_copy_repeats_colour_2, _first_copy_swaps_colours],
                         ids=["two-symbol-cell", "repeated-symbol"])
def test_latin_construction_bug_is_an_internal_error(monkeypatch, tmp_path, corrupt):
    # Both steps, then step 1 alone (r = n), then step 2 alone (s = n), so
    # that the last step's corruption reaches the final square check.  Each
    # step colours a block whose first cell is one copy of two symbols, and
    # the corruptions change the first entry of the kernel's two colour
    # classes, that copy's two colours: either symbol count goes wrong, or a
    # new column repeats a symbol.
    rectangles = ([[1, 2], [2, 1]], [[1, 2], [2, 1], [3, 4], [4, 3]],
                  [[1, 2, 3, 4], [2, 1, 4, 3]])
    block_colors = completion._block_colors

    def corrupted(block, m, symbols):
        classes = block_colors(block, m, symbols)
        corrupt(classes)
        return classes

    monkeypatch.setattr(completion, "_block_colors", corrupted)
    for (p, q), rows in itertools.product(((1, 4), (4, 1)), rectangles):
        grid = grid_from_rows(p, q, rows)
        with pytest.raises(RuntimeError, match="construction bug"):
            complete(grid)
        path = tmp_path / "latin.grid"
        path.write_text(serialize_grid(grid))
        assert cli.main(["complete", str(path)]) == cli.EXIT_INTERNAL


@pytest.mark.parametrize("split, rows", [
    ("row", [[1, 2], [3, 4]]),
    ("column", [[1, 2], [3, 4]]),
    ("row", [[1, 3, 2], [2, 4, 1]]),
    ("column", [[1, 2], [3, 4], [2, 1]]),
])
def test_sudoku_expansion_bug_is_an_internal_error(monkeypatch, tmp_path, split, rows):
    # In the first colouring that the writer's row split, or its column
    # split, makes, the first copy's colour-1 symbol takes colour 2 as well,
    # replacing that colour's symbol.  Either split then writes one symbol
    # too often and another too seldom, so the square is not latin.
    # complete() and the public expand_outline share the writer.
    grid = grid_from_rows(2, 2, rows)
    plan = plan_medium_cells(grid)
    o = assemble_outline(grid, plan, distribute_free(grid, plan))
    row_splits = sum(m >= 2 for m in o.row_comp)
    target = 0 if split == "row" else row_splits
    assert target < row_splits + sum(m >= 2 for m in o.col_comp)
    block_colors, write = outline._block_colors, outline._write_square
    state = {"writing": False, "calls": 0}

    def corrupted(block, m, symbols):
        classes = block_colors(block, m, symbols)
        if state["writing"]:
            if state["calls"] == target:
                classes[1][0] = classes[0][0]
            state["calls"] += 1
        return classes

    def writing(*args):
        state.update(writing=True, calls=0)
        try:
            return write(*args)
        finally:
            state["writing"] = False

    monkeypatch.setattr(outline, "_block_colors", corrupted)
    monkeypatch.setattr(outline, "_write_square", writing)
    monkeypatch.setattr(completion, "_write_square", writing)
    with pytest.raises(RuntimeError, match="construction bug"):
        outline.expand_outline(o)
    with pytest.raises(RuntimeError, match="construction bug"):
        complete(grid)
    path = tmp_path / "sudoku.grid"
    path.write_text(serialize_grid(grid))
    assert cli.main(["complete", str(path)]) == cli.EXIT_INTERNAL


def _expanded_by_slices(o):
    """Expansion as one slice list per merged row block, then one per column
    part: the reference for the writer, which reads the colour classes
    straight into cells."""
    n = o.n
    rows = []
    for m, line in zip(o.row_comp, o.cells):
        rows.extend(outline._block_slices(line, m, n) if m >= 2 else (line,))
    square = [[0] * n for _ in range(n)]
    offset = 0
    for m, column in zip(o.col_comp, zip(*rows)):
        for c, slice_ in enumerate(outline._block_slices(column, m, n) if m >= 2 else (column,)):
            for row, (k,) in zip(square, slice_):
                row[offset + c] = k
        offset += m
    return tuple(map(tuple, square))


@pytest.mark.parametrize("p, q", ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4)))
def test_complete_writes_the_outline_paths_square(monkeypatch, p, q):
    # complete() writes its square straight from plan and distribution; the
    # public outline path, assemble_outline then expand_outline, and an
    # expansion through slice lists are the references.  All three colour the
    # same graphs in the same order and give the same square, and complete()
    # builds and validates no outline square.
    calls = []
    core = outline._color_cells

    def recording(cells, k, right):
        calls.append((k, tuple(map(tuple, cells))))
        return core(cells, k, right)

    def forbidden(*args):
        raise AssertionError("complete() reached the outline path")

    monkeypatch.setattr(outline, "_color_cells", recording)
    rng = random.Random(100 * p + q)
    n = p * q
    coloured = 0
    for _ in range(12):
        r, s = rng.randint(0, n), rng.randint(0, n)
        grid = gen_random_rectangle(p, q, r, s, rng.randrange(10 ** 9))
        with monkeypatch.context() as m:
            for module, name in ((completion, "OutlineLatinSquare"),
                                 (completion, "validate_outline"),
                                 (outline, "validate_outline"), (outline, "_block_slices")):
                m.setattr(module, name, forbidden)
            verdict = complete(grid)
        assert verdict.completable, (r, s)
        written, calls[:] = calls[:], []
        coloured += len(written)
        plan = plan_medium_cells(grid)
        o = assemble_outline(grid, plan, distribute_free(grid, plan))
        staged = len(calls)  # the distribution's colourings
        assert verdict.certificate.cells == outline.expand_outline(o).cells, (r, s)
        assert written == calls, (r, s)
        del calls[staged:]
        assert verdict.certificate.cells == _expanded_by_slices(o), (r, s)
        assert written == calls, (r, s)
        calls.clear()
    assert coloured


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
    assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"
    verdict = complete(grid)
    assert not verdict.completable
    # A later stage fails, so every band and stack was matched.
    assert verdict.certificate.kind not in ("side-alpha", "bottom-beta")


def test_row_coverage_obstruction():
    # Symbols 5 and 6 are missing from both leftover rows but only one big
    # column is free, although all bottom matchings exist.
    grid = grid_from_rows(3, 2, [[2, 1, 4, 3], [4, 3, 6, 5], [5, 6, 2, 1],
                                 [1, 2, 3, 4], [3, 4, 1, 2]])
    assert validate_partial(grid).ok
    assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"
    verdict = complete(grid)
    assert not verdict.completable
    ob = verdict.certificate
    assert ob.kind not in ("side-alpha", "bottom-beta")
    assert ob.kind == "row-coverage"
    assert verify_obstruction(grid, ob)


def test_plan_builds_replica_and_coverage_lists_only_to_certify(monkeypatch):
    # Full bands are matched on one list per row, not on their replica
    # lists, and placement counts come from bit masks; a symbol's coverage
    # lists are read only for the obstruction they state.
    built = []
    for name in ("_replicas", "_coverage"):
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
    assert built == ["_coverage"]


ROW_COVERAGE = grid_from_rows(3, 2, [[2, 1, 4, 3], [4, 3, 6, 5], [5, 6, 2, 1],
                                    [1, 2, 3, 4], [3, 4, 1, 2]])
SIDE_ALPHA = grid_from_rows(3, 3, [[6, 4, 2, 5, 3], [3, 8, 7, 1, 9], [1, 5, 9, 7, 8],
                                   [9, 7, 5, 2, 4], [2, 3, 4, 6, 5], [8, 6, 1, 3, 7],
                                   [4, 9, 3, 8, 1]])


def count_axes(monkeypatch) -> list[str]:
    """Record the line label of every axis completion builds from now on:
    each set-up (_shape) builds the row axis and then the column axis."""
    built: list[str] = []
    shape_of = completion._shape

    def counted(grid):
        shape = shape_of(grid)
        built.extend(ax.line for ax in shape.axes)
        return shape

    monkeypatch.setattr(completion, "_shape", counted)
    return built


def test_complete_builds_each_axis_once(monkeypatch):
    # plan_medium_cells hands its axes on to distribute_free, which hands
    # them on to the layout, so one complete() builds the row axis and the
    # column axis once each, whether it completes or stops at a plan
    # obstruction.
    built = count_axes(monkeypatch)
    for grid, kind in ((WORKED, None), (gen_random_rectangle(3, 3, 7, 8, 4), None),
                       (gen_random_rectangle(4, 3, 5, 7, 2), None),
                       (ROW_COVERAGE, "row-coverage"), (SIDE_ALPHA, "side-alpha")):
        built.clear()
        verdict = complete(grid)
        assert verdict.completable == (kind is None)
        assert kind is None or verdict.certificate.kind == kind
        assert built == ["row", "col"]


def test_distribution_builds_axes_for_a_plan_without_them(monkeypatch):
    # A plan made by hand, or one used with another grid object (even an
    # equal one), carries no axes for that grid: distribution builds them and
    # gives what the plan's own axes give.  Assembly builds none: it reads
    # the axes the distribution kept.
    built = count_axes(monkeypatch)
    aligned = grid_from_rows(2, 2, [[1, 2], [3, 4]])
    for grid in (WORKED, aligned, gen_random_rectangle(3, 3, 7, 8, 4),
                 gen_random_rectangle(3, 4, 5, 7, 6)):
        plan = plan_medium_cells(grid)
        dist = distribute_free(grid, plan)
        expected = assemble_outline(grid, plan, dist)
        twin = dataclasses.replace(grid)
        assert twin == grid and twin is not grid
        for other_grid, other_plan in ((grid, MediumCellPlan(dict(plan.horizontal),
                                                             dict(plan.vertical))),
                                       (twin, plan)):
            built.clear()
            other_dist = distribute_free(other_grid, other_plan)
            assert other_dist == dist
            assert assemble_outline(other_grid, other_plan, other_dist) == expected
            assert built == ["row", "col"]
    assert plan_medium_cells(aligned) == MediumCellPlan()  # so a bare plan was tried too


def count_constructions(monkeypatch) -> dict[str, int]:
    """Count every _Shape, PartialGrid and BipartiteMultigraph built from now on."""
    counts = {"_Shape": 0, "PartialGrid": 0, "BipartiteMultigraph": 0}
    for cls, name, hook in ((completion._Shape, "_Shape", "__init__"),
                            (PartialGrid, "PartialGrid", "__post_init__"),
                            (BipartiteMultigraph, "BipartiteMultigraph", "__post_init__")):
        def counted(self, *args, fn=getattr(cls, hook), name=name):
            counts[name] += 1
            return fn(self, *args)
        monkeypatch.setattr(cls, hook, counted)
    return counts


def test_complete_sets_up_once_and_builds_no_graph_on_success(monkeypatch):
    # One complete() that succeeds builds one set-up (both axes) and the
    # square, and builds no graph object: the band and corner matchings run
    # on adjacency lists.  A grid already under the square's rules is
    # checked as it is; a latin-flavoured or partitioned one is copied under
    # them once (_as_built), so a repeat inside a box is still invalid.  The
    # (4,3) corner needs the corner solve, which the (2,2) example has too.
    corner = gen_random_rectangle(4, 3, 5, 7, 2)
    by_columns = ((1, 2, 3),) * 3
    copied = (dataclasses.replace(WORKED, flavor="latin"),
              dataclasses.replace(WORKED, flavor="gerechte", partition=by_columns))
    counts = count_constructions(monkeypatch)
    for grid, built in ((WORKED, 1), (corner, 1), *((grid, 2) for grid in copied)):
        assert grid.rows % grid.geometry.p and grid.cols % grid.geometry.q
        assert validate_partial(grid).ok
        for name in counts:
            counts[name] = 0
        assert complete(grid).completable
        assert counts == {"_Shape": 1, "PartialGrid": built, "BipartiteMultigraph": 0}
    for grid in copied:
        repeat = dataclasses.replace(grid, rows=2, cols=2, cells=((1, 2), (2, 1)),
                                     partition=grid.partition and ((1, 2), (1, 2)))
        assert validate_partial(repeat).ok
        verdict = complete(repeat)
        assert not verdict.completable and verdict.certificate.kind == "invalid"


def test_band_and_coverage_failures_build_no_graph(monkeypatch):
    # Side and bottom violators are stated and rechecked on the band's
    # replica lists, coverage violators on each leftover row's open slots,
    # so neither complete() nor verify_obstruction() builds a graph object
    # for them.  The transposes turn the row kinds into the column kinds.
    counts = count_constructions(monkeypatch)
    kinds = []
    for grid in (ROW_COVERAGE, SIDE_ALPHA, transpose(ROW_COVERAGE), transpose(SIDE_ALPHA)):
        verdict = complete(grid)
        assert not verdict.completable
        assert verify_obstruction(grid, verdict.certificate)
        assert counts["BipartiteMultigraph"] == 0, verdict.certificate
        kinds.append(verdict.certificate.kind)
    assert kinds == ["row-coverage", "side-alpha", "col-coverage", "bottom-beta"]


def test_corner_failures_build_no_graph(monkeypatch):
    # The corner kinds state their violators on the corner's adjacency
    # lists, or name a symbol, so neither a complete() that ends in one nor
    # its verify_obstruction() builds a graph object.  Draws cycle through
    # the corner-kind test's shapes, with no side a multiple of its box
    # side, until all three kinds have turned up.
    rng = random.Random(23)
    shapes = [(3, 3), (2, 4), (3, 4), (4, 3)]
    counts = count_constructions(monkeypatch)
    wanted = {"corner-double-must", "corner-must", "corner-flow"}
    seen = set()
    draws = 0
    while seen != wanted:
        assert draws < 4_000, f"only {sorted(seen)} after {draws} draws"
        p, q = shapes[draws % len(shapes)]
        draws += 1
        n = p * q
        r = rng.choice([side for side in range(1, n) if side % p])
        s = rng.choice([side for side in range(1, n) if side % q])
        grid = gen_random_valid_rectangle(p, q, r, s, rng.randrange(10 ** 9))
        counts["BipartiteMultigraph"] = 0
        verdict = complete(grid)
        if verdict.completable or verdict.certificate.kind not in wanted:
            continue
        assert verify_obstruction(grid, verdict.certificate)
        assert counts["BipartiteMultigraph"] == 0, verdict.certificate
        seen.add(verdict.certificate.kind)


def reference_lists(grid) -> dict:
    """Every allowed list the planning stage reads, straight from the cells
    with Python sets: per axis (0 rows, 1 columns), each band's replica
    lists (each line's allowed symbols, once per copy), each symbol's
    coverage sides, and, when there is a corner big cell, its slots'
    allowed lists."""
    p, q, n, r, s = grid.geometry.p, grid.geometry.q, grid.n, grid.rows, grid.cols
    views = ((grid.cells, p, q, s), ([[row[j] for row in grid.cells] for j in range(s)], q, p, r))
    out: dict = {}
    musts, corner_lines = [], []
    corner = {grid.cells[i][j] for i in range(r - r % p, r) for j in range(s - s % q, s)}
    for side, (lines, height, width, length) in enumerate(views):
        full = len(lines) - len(lines) % height
        cut = length - length % width
        targets = height - -(-length // width)
        if length % width:
            for top in range(0, len(lines), height):
                band = lines[top:top + height]
                cell = {line[j] for line in band for j in range(cut, length)}
                out[side, "band", top // height + 1] = [
                    [k - 1 for k in range(1, n + 1) if k not in set(line) | cell]
                    for line in band for _ in range(width - length % width)]
        must = set()
        for k in range(1, n + 1):
            rows = [i + 1 for i in range(full, len(lines)) if k not in lines[i]]
            slots = targets + (length % width > 0 and k not in corner)
            out[side, "coverage", k] = (rows, slots)
            if len(rows) == slots > targets:
                must.add(k)
        musts.append(must)
        corner_lines.append([(i + 1, set(lines[i])) for i in range(full, len(lines))])
    if r % p and s % q:
        slots = []
        for side, b in ((0, q - s % q), (1, p - r % p)):
            for i, line in corner_lines[side]:
                banned = line | corner | musts[1 - side]
                slots += [[k - 1 for k in range(1, n + 1) if k not in banned]] * b
        out["corner"] = slots
    return out


def pipeline_lists(grid) -> dict:
    """The same lists, from the set-up's bit masks."""
    axes = completion._shape(grid).axes
    out: dict = {}
    musts = []
    for side, ax in enumerate(axes):
        if not ax.q_divides:
            for alpha in range(1, len(ax.band_cells)):
                out[side, "band", alpha] = completion._replicas(ax, alpha)
        over, must = completion._placements(ax)
        for k in range(1, ax.n + 1):
            rows, slots = completion._coverage(ax, k)
            out[side, "coverage", k] = (rows, len(slots))
            assert bool(over >> k & 1) == (len(rows) > len(slots))
        musts.append(must)
    if not axes[0].p_divides and not axes[0].q_divides:
        out["corner"] = completion._corner_slots(axes, *musts)[1]
    return out


def test_set_up_masks_give_the_lists_python_sets_give():
    # The set-up's bit masks against a reference written here with Python
    # sets: every band's replica lists, every
    # symbol's coverage sides (and _placements' over-full symbols), and the
    # corner slots' allowed lists, on both axes of random valid rectangles.
    # p < q and p > q both occur, so each axis meets both box orientations.
    rng = random.Random(21)
    kinds = set()
    for p, q in ((2, 3), (3, 2), (3, 4), (4, 3), (2, 4), (4, 2)):
        n = p * q
        for _ in range(40):
            r, s = rng.randint(1, n), rng.randint(1, n)
            grid = gen_random_valid_rectangle(p, q, r, s, rng.randrange(10 ** 9))
            expected = reference_lists(grid)
            assert pipeline_lists(grid) == expected, (p, q, grid.cells)
            kinds.update(key[1] if isinstance(key, tuple) else key for key in expected)
    assert kinds == {"band", "coverage", "corner"}


def test_bits_lists_the_set_bits_of_masks_on_both_sides_of_the_cut():
    # _bits reads narrow masks bit by bit and wide ones in one call; both
    # against a plain loop over the binary digits, at every width 0..1025:
    # the mask 0, every single bit, all ones and seeded random masks, sparse
    # and dense, each with its top bit set.
    def reference(mask):
        return [i for i, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"]

    rng = random.Random(29)
    masks = [0]
    for width in range(1, 1026):
        top = 1 << width - 1
        masks += [top, (top << 1) - 1, top | rng.getrandbits(width),
                  top | sum(1 << b for b in rng.sample(range(width), min(3, width)))]
    widths = {mask.bit_length() for mask in masks}
    assert min(widths) <= completion._LOOP_WIDTH < max(widths)
    for mask in masks:
        assert completion._bits(mask) == reference(mask), mask


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

    # A symbol outside 1..n names no obstruction, whatever the kind.
    double = grid_from_rows(2, 2, [[2, 4, 1], [3, 1, 2], [1, 2, 3]])
    clash = complete(double).certificate
    assert clash.kind == "corner-double-must" and verify_obstruction(double, clash)
    for g, real in ((grid, ob), (latin, ry), (double, clash)):
        for symbol in (0, -1, g.n + 1, None, "1"):
            assert not verify_obstruction(g, dataclasses.replace(real, symbol=symbol))

    # A later stage's obstruction does not hold on a grid that fails
    # complete()'s input checks: out-of-range or repeated symbols, an empty
    # cell, a side longer than the order.
    cells = [list(row) for row in grid.cells]
    for i, j, v in ((0, 0, -1), (0, 0, 0), (0, 0, 7), (0, 0, 1), (4, 3, None)):
        bad = [row[:] for row in cells]
        bad[i][j] = v
        assert not verify_obstruction(dataclasses.replace(grid, cells=tuple(map(tuple, bad))), ob)
    tall = dataclasses.replace(grid, rows=7, cells=grid.cells + (grid.cells[0],) * 2)
    assert not verify_obstruction(tall, ob)

    violator = HallViolator(frozenset({0}), frozenset({0, 1}))
    bogus = Obstruction("corner-conflict", violator, kind="corner-flow")
    assert not verify_obstruction(grid_from_rows(2, 2, [[1, 2, 3]]), bogus)


MALFORMED_CASES = (  # (p, q, rows): one real obstruction of each kind, stated on index or symbol 1
    (3, 3, [[6, 4, 2, 5, 3], [3, 8, 7, 1, 9], [1, 5, 9, 7, 8], [9, 7, 5, 2, 4],
            [2, 3, 4, 6, 5], [8, 6, 1, 3, 7], [4, 9, 3, 8, 1]]),
    (3, 3, [[4, 5, 2, 9, 7, 6, 8, 1], [7, 3, 1, 8, 4, 5, 9, 6], [6, 9, 8, 3, 2, 1, 7, 5],
            [3, 6, 4, 7, 5, 9, 2, 8], [9, 7, 5, 1, 8, 4, 6, 3]]),
    (3, 2, [[1, 5, 4, 2], [3, 2, 1, 6], [6, 4, 5, 3], [2, 6, 3, 4], [4, 3, 6, 5]]),
    (2, 3, [[6, 3], [5, 2], [2, 6], [3, 5]]),
    (2, 3, [[3, 1, 6, 2], [2, 5, 4, 3], [1, 3, 5, 6], [6, 4, 2, 5], [5, 6, 3, 4]]),
    (2, 4, [[5, 2, 8], [3, 1, 7], [7, 3, 4], [6, 8, 2], [2, 7, 3]]),
    (2, 4, [[2, 1, 6, 7, 8, 3], [3, 8, 5, 4, 2, 6], [6, 4, 7, 5, 3, 8], [1, 3, 8, 2, 5, 7],
            [8, 5, 2, 3, 4, 1]]),
    (1, 3, [[2, 3], [3, 2]]),
)


def test_malformed_obstructions_are_refused_without_raising():
    # Each real obstruction re-verifies; with one field made malformed it
    # must be refused, and never raise: a detail that is no violator, a
    # bool for the symbol or index 1, and a band index outside the axis'
    # bands with a partially covered big line.
    kinds = []
    for p, q, rows in MALFORMED_CASES:
        grid = grid_from_rows(p, q, rows)
        ob = complete(grid).certificate
        assert verify_obstruction(grid, ob), ob
        kinds.append(ob.kind)
        bad = []
        if isinstance(ob.detail, HallViolator):  # corner-double-must and ryser read none
            bad.append(dataclasses.replace(ob, detail=3))
        if ob.symbol is not None:
            assert ob.symbol == 1
            bad.append(dataclasses.replace(ob, symbol=True))
        if ob.index is not None:
            assert ob.index == 1
            axis = completion._shape(grid).axes[ob.kind == "bottom-beta"]
            bad += [dataclasses.replace(ob, index=index)
                    for index in (99, 0, -1, None, True, 1.0, "1", len(axis.band_cells))]
        for tampered in bad:
            assert verify_obstruction(grid, tampered) is False, tampered
    assert kinds == ["side-alpha", "bottom-beta", "row-coverage", "col-coverage",
                     "corner-double-must", "corner-must", "corner-flow", "ryser"]

    # When q divides s (p divides r) there is no partially covered big
    # column (row), so no side (bottom) graph to state a violator on.
    aligned = grid_from_rows(2, 2, [[1, 2], [3, 4]])
    for kind in ("side-alpha", "bottom-beta"):
        for index in (1, 2):
            ob = Obstruction("side-matching", HallViolator(frozenset({0}), frozenset()),
                             kind=kind, index=index)
            assert verify_obstruction(aligned, ob) is False


def test_forged_violators_on_completable_grids_are_refused():
    # A side-alpha violator padded with vertices the side graph does not
    # have: vertex 0 and its neighbors, plus made-up vertices 10**6 ...
    grid = grid_from_rows(2, 3, [[5], [1], [6], [4], [3]])
    assert complete(grid).completable
    hood = frozenset(completion._replicas(completion._shape(grid).axes[0], 1)[0])
    padded = HallViolator(frozenset({0, *range(10 ** 6, 10 ** 6 + len(hood))}), hood)
    assert not verify_obstruction(grid, Obstruction("side-matching", padded,
                                                    kind="side-alpha", index=1))
    # A corner violator on a grid with no corner big cell: p divides r, so
    # the column slots of its leftover column are all that _corner_slots
    # lists, and they may take no symbol.
    full = grid_from_rows(2, 2, [[1, 2, 3], [3, 4, 1], [2, 1, 4], [4, 3, 2]])
    assert complete(full).completable
    for kind in ("corner-must", "corner-flow"):
        for left in ({0}, {0, 1}):
            ob = Obstruction("corner-conflict", HallViolator(frozenset(left), frozenset()),
                             kind=kind)
            assert not verify_obstruction(full, ob)


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


def test_transposition_swaps_rows_and_columns():
    # Transposing swaps rows with columns and bands with stacks, so the
    # verdict cannot change and each stack's replica lists (its bottom
    # graph) are the transpose's band replica lists (its side graph).
    # Kinds are not compared: when both sides fail, each grid reports its
    # own side first.  This sampler seed was once chosen to avoid the n = 12
    # draws on which gen_random_valid_rectangle, then without restarts,
    # spent seconds; its restarts now end such draws.
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
                cols = completion._shape(grid).axes[1]
                flipped_rows = completion._shape(flipped).axes[0]
                for beta in range(1, (s + q - 1) // q + 1):
                    assert (completion._replicas(cols, beta)
                            == completion._replicas(flipped_rows, beta))


def test_band_matcher_agrees_with_saturating_matching():
    # Every full band and full stack of random valid rectangles: the
    # capacitated matcher that plan_medium_cells runs saturates exactly when
    # saturating_matching saturates the replica graph (the side or bottom
    # graph, built here from the replica lists), gives every row (column) b
    # symbols absent from it and from the band's partially covered big
    # cell, with no symbol twice in the band, and otherwise returns a
    # violator of that graph.  Rectangles are drawn until 20 bands have failed.
    rng = random.Random(31)
    shapes = ((2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4))
    filled = failed = draws = 0
    while failed < 20:
        draws += 1
        assert draws <= 5000, (filled, failed)
        p, q = shapes[draws % len(shapes)]
        n = p * q
        grid = gen_random_valid_rectangle(p, q, rng.randint(1, n), rng.randint(1, n),
                                          rng.randrange(10_000))
        for side, ax in enumerate(completion._shape(grid).axes):
            lines = grid if side == 0 else transpose(grid)
            if ax.q_divides:
                continue
            s_star = lines.cols - lines.cols % ax.q
            for alpha in range(1, ax.full_bands + 1):
                rows = range((alpha - 1) * ax.p + 1, alpha * ax.p + 1)
                cell = {lines.at(i, j) for i in rows for j in range(s_star + 1, lines.cols + 1)}
                hoods = completion._replicas(ax, alpha)
                graph = BipartiteMultigraph(
                    tuple(range(len(hoods))), tuple(range(1, n + 1)),
                    tuple((u, w) for u, hood in enumerate(hoods) for w in hood))
                expected = saturating_matching(graph)
                got = completion._match_band(ax, alpha)
                assert isinstance(got, HallViolator) == isinstance(expected, HallViolator)
                if isinstance(got, HallViolator):
                    assert verify_violator(graph, got), (grid.cells, side, alpha)
                    failed += 1
                    continue
                assert sorted(got) == list(rows)
                placed = [k for i in rows for k in got[i]]
                assert len(placed) == len(set(placed))
                for i in rows:
                    assert len(got[i]) == ax.b
                    assert not set(got[i]) & (set(lines.row_symbols(i)) | cell)
                filled += 1
    assert filled > failed


CORNER_VERDICTS = (44, "a9fb8aee6d90443be2bde2e32fee59ad58b9fb5eb0cce568aab7a31199c37909")


def test_corner_kinds_verify_and_the_oracle_confirms_them():
    # The corner stages fail only from (3,3) up, and rarely: about one draw
    # in 300 ends in corner-must and one in 1,000 in corner-flow.  A corner
    # needs a partial band and a partial stack, so no side is a multiple of
    # its box side.  Draws cycle through the four shapes until every corner
    # kind has turned up; each corner verdict must re-verify, and the oracle
    # must find the embedded square incompletable.  Every corner verdict
    # drawn, with its violator's vertex sets (or corner-double-must's
    # symbol), is pinned by CORNER_VERDICTS.
    rng = random.Random(2024)
    shapes = [(3, 3), (2, 4), (3, 4), (4, 3)]
    wanted = {"corner-double-must", "corner-must", "corner-flow"}
    seen = set()
    records = []
    draws = 0
    while seen != wanted:
        assert draws < 4_000, f"only {sorted(seen)} after {draws} draws"
        p, q = shapes[draws % len(shapes)]
        draws += 1
        n = p * q
        r = rng.choice([side for side in range(1, n) if side % p])
        s = rng.choice([side for side in range(1, n) if side % q])
        grid = gen_random_valid_rectangle(p, q, r, s, rng.randrange(10 ** 9))
        verdict = complete(grid)
        if verdict.completable or verdict.certificate.kind not in wanted:
            continue
        assert verify_obstruction(grid, verdict.certificate)
        assert brute_force_complete(embed_in_square(grid)).outcome == "incompletable"
        seen.add(verdict.certificate.kind)
        detail = verdict.certificate.detail
        if isinstance(detail, HallViolator):
            detail = (sorted(detail.left_subset), sorted(detail.neighborhood))
        records.append((grid.cells, verdict.certificate.kind, detail))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert (len(records), digest) == CORNER_VERDICTS
