"""Tests of the benchmark's own generators, checks and tracer.

Run with `python -m pytest perfbench -q` from the repository root.
"""
import random
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import generators  # noqa: E402
from generators import (  # noqa: E402
    corner,
    grid_text,
    is_completion,
    parse_square_text,
    pattern_square,
    random_valid_rectangle,
    sudoku_violations,
)
from tracing import Tracer  # noqa: E402
from workloads import fixed_sides  # noqa: E402

SHAPES = [(1, 5), (2, 2), (2, 3), (3, 2), (3, 4), (4, 4), (8, 12)]


@pytest.mark.parametrize("p,q", SHAPES)
def test_pattern_square_is_a_full_sudoku_square(p, q):
    n = p * q
    square = pattern_square(p, q, random.Random(7))
    assert len(square) == n and all(sorted(row) == list(range(1, n + 1)) for row in square)
    assert sudoku_violations(square, p, q) == 0


def test_pattern_square_depends_only_on_the_seed():
    assert pattern_square(3, 4, random.Random("a")) == pattern_square(3, 4, random.Random("a"))
    assert pattern_square(3, 4, random.Random("a")) != pattern_square(3, 4, random.Random("b"))


@pytest.mark.parametrize("p,q", SHAPES[:-1])
def test_random_valid_rectangle_obeys_the_rules(p, q):
    n = p * q
    rng = random.Random(f"{p}x{q}")
    for _ in range(20):
        r, s = rng.randint(1, n), rng.randint(1, n)
        rect = random_valid_rectangle(p, q, r, s, rng)
        assert len(rect) == r and all(len(row) == s for row in rect)
        assert sudoku_violations(rect, p, q) == 0


def test_random_valid_rectangle_is_seeded_and_bounded(monkeypatch):
    one = random_valid_rectangle(4, 4, 16, 15, random.Random(3))
    assert one == random_valid_rectangle(4, 4, 16, 15, random.Random(3))
    monkeypatch.setattr(generators, "ATTEMPTS", 0)
    began = time.perf_counter()
    fallback = random_valid_rectangle(4, 4, 16, 15, random.Random(3))
    assert time.perf_counter() - began < 1.0
    assert sudoku_violations(fallback, 4, 4) == 0 and len(fallback) == 16


def test_random_valid_rectangles_include_incompletable_ones():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from sudoku_ryser import complete, grid_from_rows

    rng = random.Random(11)
    verdicts = [complete(grid_from_rows(2, 3, random_valid_rectangle(2, 3, 5, 5, rng))).completable
                for _ in range(30)]
    assert 0 < verdicts.count(False) < len(verdicts)


def test_is_completion_accepts_extensions_and_rejects_changes():
    square = pattern_square(2, 3, random.Random(5))
    rect = corner(square, 3, 4)
    assert is_completion(square, rect, 2, 3)
    swapped = [row[:] for row in square]
    swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]
    assert not is_completion(swapped, rect, 2, 3)
    broken = [row[:] for row in square]
    broken[5][5] = broken[5][4]
    assert not is_completion(broken, corner(square, 1, 1), 2, 3)


def test_grid_text_round_trips():
    rect = corner(pattern_square(3, 2, random.Random(1)), 4, 5)
    assert parse_square_text(grid_text(3, 2, rect)) == (3, 2, rect)
    with pytest.raises(ValueError):
        parse_square_text("sudoku v1\n2 2 2 2\n1 2\n")


def test_fixed_sides_ignore_the_seed():
    sides = [(r, s) for r in range(1, 5) for s in range(1, 5)]
    assert fixed_sides("t", 10, sides) == fixed_sides("t", 10, sides)
    assert len(fixed_sides("t", 10, sides)) == 10


def test_tracer_records_nested_spans_and_restores():
    module = types.SimpleNamespace()

    def inner(x):
        time.sleep(0.01)
        return x

    def outer(x):
        time.sleep(0.02)
        return module.inner(x) + 1

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(module, "inner", "layer.inner",
                lambda counts, args, result: counts.update({"layer.items": args[0]}))
    tracer.wrap(module, "outer", "layer.outer")
    tracer.op = 0
    assert module.outer(4) == 5
    tracer.unwrap()
    assert module.inner is inner and module.outer is outer

    (name_in, s_in, e_in, parent_in, op_in), = [s for s in tracer.spans if s[0] == "layer.inner"]
    outer_index = next(i for i, s in enumerate(tracer.spans) if s[0] == "layer.outer")
    assert parent_in == outer_index and op_in == 0
    own = tracer.self_times()
    total = tracer.total_times()
    assert own["layer.inner"] == pytest.approx(total["layer.inner"])
    assert own["layer.outer"] == pytest.approx(total["layer.outer"] - (e_in - s_in))
    assert own["layer.outer"] >= 0.015
    assert tracer.counts == {"layer.inner.calls": 1, "layer.outer.calls": 1, "layer.items": 4}


def test_host_speed_takes_the_median_of_nearby_probes(monkeypatch):
    import hostspeed

    monkeypatch.setattr(hostspeed, "REFERENCE_S", 0.01)
    monkeypatch.setattr(hostspeed, "PROBE_WINDOW", 1.0)
    monkeypatch.setattr(hostspeed, "MIN_NEAR", 3)
    speed = hostspeed.HostSpeed()
    # slow probes (0.02 s) around t = 10, fast ones (0.01 s) around t = 20
    speed.at = [9.0, 9.5, 10.5, 11.0, 19.5, 20.5, 21.0]
    speed.took = [0.02, 0.02, 0.02, 0.02, 0.01, 0.01, 0.01]
    assert speed.slowness(10.0, 10.2) == pytest.approx(2.0)
    assert speed.normalised(10.0, 10.2) == pytest.approx(0.1)
    assert speed.normalised(20.0, 20.2) == pytest.approx(0.2)
    # no probe within the window: the MIN_NEAR nearest ones count
    assert speed.slowness(15.0, 15.1) == pytest.approx(2.0)


def test_host_speed_probe_is_fixed_work():
    import hostspeed

    assert hostspeed.probe_work() == hostspeed.probe_work()
    speed = hostspeed.HostSpeed()
    speed.probe()
    speed.probe_if_due()  # too soon after the last probe
    assert len(speed.took) == 1 and speed.took[0] > 0
