"""No library module imports a name it never uses, unless the import line
says why in a comment (a name kept for the benchmark's tracer to rebind, or
a re-export), and no private top-level name goes unread by the library.
The checks read the source with ast; nothing is imported."""
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


def _top_level_names(node):
    """The names a module-level statement defines: a function, a class or
    the plain names it assigns."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unread_private_names(sources):
    """(module, name) of each private top-level name of the modules (a
    mapping of module name to source) that no statement reads but the one
    defining it: by name, as another module's attribute, or in a string
    annotation."""
    defined, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            read = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute) and not isinstance(sub.ctx, ast.Store):
                    read.add(sub.attr)
                elif isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation is not None:
                    read.update(_annotation_names(sub.annotation))
                elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.returns:
                    read.update(_annotation_names(sub.returns))
            reads.append(read)
            defined += [(module, name, len(reads) - 1) for name in _top_level_names(node)
                        if name.startswith("_") and not name.startswith("__")]
    return sorted((module, name) for module, name, own in defined
                  if not any(name in read for at, read in enumerate(reads) if at != own))


def test_every_private_top_level_name_is_read_by_the_library():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_private_name_check_finds_a_dead_helper():
    sources = {
        "a.py": ("_LIMIT = 3\n"
                 "_UNUSED: int = 4\n"
                 "def _recursive(k):\n"
                 "    return _recursive(k - 1) if k else _LIMIT\n"
                 "def _remote():\n"
                 "    pass\n"
                 "class _Hint:\n"
                 "    pass\n"
                 "def f(x: '_Hint'):\n"
                 "    return x\n"),
        "b.py": "from . import a\nvalue = a._remote()\na._UNUSED = 5\n",
    }
    assert unread_private_names(sources) == [("a.py", "_UNUSED"), ("a.py", "_recursive")]


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
