"""No library module imports a name it never uses, unless the import line
says why in a comment (a name kept for the benchmark's tracer to rebind, or
a re-export).  The check reads the source with ast; nothing is imported."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sudoku_ryser"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def _annotation_names(node):
    """Names read by an annotation, string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def unused_imports(source):
    """(line number, name) of each imported name the module never reads and
    whose import line carries no comment."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], alias.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, alias.lineno) for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
    lines = source.splitlines()
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and "#" not in lines[line - 1])


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_names_it_uses(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_the_import_check_finds_an_unused_name_and_accepts_a_comment():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from typing import Optional, Union\n"
              "from .grid import (\n"
              "    extends,  # re-exported\n"
              "    validate_partial,\n"
              ")\n"
              "def f(x: 'Optional[int]') -> Union[int, None]:\n"
              "    return os.sep\n")
    assert unused_imports(source) == [(6, "validate_partial")]
    assert MODULES and "completion.py" in MODULES


# The package's public names, written out so that adding or removing one
# shows in this list's diff.  The subpackage modules are listed too: their
# imports in __init__ bind them, and __all__ takes every public name there.
PUBLIC_API = [
    "Anchors", "BipartiteMultigraph", "EdgeColoring", "GridFormatError", "HallReport",
    "HallViolator", "Matching", "MediumCellPlan", "Obstruction", "OracleResult",
    "OutlineLatinSquare", "PartialGrid", "RotatedBlockMatrix", "RyserReport",
    "SudokuGeometry", "ValidationReport", "Verdict", "Violation", "alpha_cells",
    "amalgamate", "anchors", "assemble_outline", "big_cell_of", "bipartite",
    "brute_force_complete", "complete", "complete_latin_rectangle", "completion",
    "distribute_free", "embed_in_square", "empty_grid", "equitable_edge_coloring",
    "expand_outline", "fixtures", "gen_evans_big", "gen_evans_small", "gen_fig6",
    "gen_random_rectangle", "gen_random_valid_rectangle", "grid", "grid_from_rows", "hall",
    "hall_condition", "hall_condition_graph", "hall_inequality", "is_equitable",
    "list_assignment", "outline", "parse_grid", "plan_medium_cells", "random_latin_square",
    "ryser_counts", "saturating_matching", "serialize_grid", "split_front",
    "validate_outline", "validate_partial", "verify_obstruction", "whole_square_inequality",
]


def test_public_api_is_the_pinned_list():
    import sudoku_ryser

    assert sudoku_ryser.__all__ == PUBLIC_API
