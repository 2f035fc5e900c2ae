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
MODS = SimpleNamespace(grid=grid, bipartite=bipartite, outline=outline,
                       completion=completion, hall=hall, fixtures=fixtures, cli=cli)


def _run_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_the_library(monkeypatch):
    run = _run_module(monkeypatch)
    assert set(vars(MODS)) == set(run.MODULES)
    before = {name: dict(vars(module)) for name, module in vars(MODS).items()}
    tracer = run.Tracer()
    try:
        run.install_tracing(tracer, MODS)
        assert tracer._restore
        assert all(getattr(module, attr) is not fn for module, attr, fn in tracer._restore)
        # The colouring core is not rebound by the tracer: a spy records the
        # innermost open span of each call.  Distribution colours through
        # the outline's block colouring, and the writer's colourings are
        # complete()'s own.
        stages = []
        core = outline._color_cells

        def recording(cells, k, right):
            stages.append(tracer.spans[tracer._stack[-1]][0])
            return core(cells, k, right)

        with monkeypatch.context() as spy:
            spy.setattr(outline, "_color_cells", recording)
            verdict = completion.complete(grid.grid_from_rows(2, 2, [[1, 2], [3, 4], [2, 1]]))
        assert verdict.completable
        names = {span[0] for span in tracer.spans}
        assert {"completion.plan", "completion.dist"} <= names
        # complete() writes its square without assembling or expanding an outline
        assert not {"completion.assemble", "outline.expand"} & names
        assert {"completion.dist", "completion.complete"} <= set(stages)
    finally:
        tracer.unwrap()
    for name, module in vars(MODS).items():
        assert dict(vars(module)) == before[name], name


def test_tracer_counts_the_oracle_nodes(monkeypatch):
    run = _run_module(monkeypatch)
    tracer = run.Tracer()
    try:
        run.install_tracing(tracer, MODS)
        square = grid.embed_in_square(grid.grid_from_rows(2, 2, [[1, 2], [3, 4], [2, 1]]))
        result = fixtures.brute_force_complete(square)
    finally:
        tracer.unwrap()
    assert result.outcome == "found" and result.nodes_expanded > 0
    assert "fixtures.oracle" in {span[0] for span in tracer.spans}
    assert tracer.counts["fixtures.oracle.nodes"] == result.nodes_expanded
