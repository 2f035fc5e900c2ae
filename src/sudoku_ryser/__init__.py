"""Completion of partial latin and Sudoku rectangles, with Hall's Condition checks."""

from .bipartite import (
    BipartiteMultigraph,
    EdgeColoring,
    HallViolator,
    Matching,
    equitable_edge_coloring,
    is_equitable,
    saturating_matching,
)
from .completion import (
    MediumCellPlan,
    Obstruction,
    Verdict,
    assemble_outline,
    complete,
    complete_latin_rectangle,
    distribute_free,
    plan_medium_cells,
    verify_obstruction,
)
from .fixtures import (
    OracleResult,
    RotatedBlockMatrix,
    brute_force_complete,
    gen_evans_big,
    gen_evans_small,
    gen_fig6,
    gen_random_rectangle,
    gen_random_valid_rectangle,
    random_latin_square,
)
from .grid import (
    Anchors,
    GridFormatError,
    PartialGrid,
    SudokuGeometry,
    ValidationReport,
    Violation,
    anchors,
    big_cell_of,
    embed_in_square,
    empty_grid,
    grid_from_rows,
    parse_grid,
    serialize_grid,
    validate_partial,
)
from .hall import (
    HallReport,
    RyserReport,
    alpha_cells,
    hall_condition,
    hall_condition_graph,
    hall_inequality,
    list_assignment,
    ryser_counts,
    whole_square_inequality,
)
from .outline import (
    OutlineLatinSquare,
    amalgamate,
    expand_outline,
    split_front,
    validate_outline,
)

__all__ = [name for name in dir() if not name.startswith("_")]
