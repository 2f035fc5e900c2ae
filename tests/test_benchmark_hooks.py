"""The names perfbench/run.py rebinds to trace the library must stay importable.

The benchmark's tracer wraps library functions by module attribute, so
renaming or removing one (or an import another module re-exports, such as
completion.equitable_edge_coloring) breaks every traced run.
"""
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from sudoku_ryser import bipartite, cli, completion, fixtures, grid, hall, outline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_library(monkeypatch):
    run = _run_module(monkeypatch)
    mods = SimpleNamespace(grid=grid, bipartite=bipartite, outline=outline,
                           completion=completion, hall=hall, fixtures=fixtures, cli=cli)
    assert set(vars(mods)) == set(run.MODULES)
    before = {name: dict(vars(module)) for name, module in vars(mods).items()}
    tracer = run.Tracer()
    try:
        run.install_tracing(tracer, mods)
        assert tracer._restore
        assert all(getattr(module, attr) is not fn for module, attr, fn in tracer._restore)
        verdict = completion.complete(grid.grid_from_rows(2, 2, [[1, 2], [3, 4], [2, 1]]))
        assert verdict.completable
        spans = tracer.spans
        names = {span[0] for span in spans}
        assert {"completion.plan", "completion.dist", "outline.expand"} <= names
        # distribution colours through the outline's block split
        assert any(name == "bipartite.coloring" and spans[parent][0] == "completion.dist"
                   for name, _, _, parent, _ in spans)
    finally:
        tracer.unwrap()
    for name, module in vars(mods).items():
        assert dict(vars(module)) == before[name], name
