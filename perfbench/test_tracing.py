"""The tracer patches every binding of a name, restores them all, and
folds spans into counts and self times that add up.

Run from the repository root:

    python3 -m pytest perfbench/test_tracing.py -q
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def traced_call(tracer, tmp_path, config: dict, *argv: str) -> dict:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    tracer.clear_caches()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert tracer.modules["cli"].main([*argv, "--input", str(path)]) == 0
    tracer.end_call()
    return tracer.take_metrics()


def test_every_binding_is_patched_and_restored():
    tracer = tracing.Tracer()
    graphs, admissibility, counting = (tracer.modules[m] for m in ("graphs", "admissibility", "counting"))
    original = graphs.classify_edges
    tracer.install()
    try:
        assert graphs.classify_edges is not original
        assert admissibility.classify_edges is graphs.classify_edges
        assert counting.classify_edges is graphs.classify_edges
        number = tracer.modules["exactnum"].CyclotomicNumber
        assert number.__mul__ is number.__rmul__
    finally:
        tracer.uninstall()
    assert graphs.classify_edges is admissibility.classify_edges is counting.classify_edges is original


def test_fiber_count_counts(tracer, tmp_path):
    config = inputs.graph_config(Random(2), 6, [0, 1], [(0, 1), (0, 1), (1, 1)], [0])
    metrics = traced_call(tracer, tmp_path, config, "fiber-count")
    # three non-separating edges with d(6) = 4 orders each; the loop's
    # order does not enter the cycle count, so 16 of 64 lookups miss
    assert metrics["admissibility.decorations"] == 4**3
    assert metrics["counting.cycle_assignment.hit_ratio"] == 48 / 64
    assert metrics["counting.fiber_point_count.calls"] == 1
    assert metrics["cli.main.calls"] == 1
    assert metrics["exactnum.mul.calls"] == 0
    assert all(v >= 0 for k, v in metrics.items() if k.endswith(".self_s"))


def test_threaded_build_is_counted_once_per_key(tracer, tmp_path):
    config = inputs.gw_theory(Random(3), 3, 2, Fraction(1, 2))
    metrics = traced_call(tracer, tmp_path, config, "decompose", "--parallel", "2")
    # 2 classes of all multisets of at most 3 of the 18 gerbe variables
    assert metrics["gw.gerbe_invariant_rho.calls"] == 2 * math.comb(18 + 3, 3)
    assert metrics["gw.build_potential.gerbe.calls"] == 1
    assert metrics["gw.lookup.zero_fills"] == 2 * 84 - len(config["base_invariants"])
    assert 0.0 < metrics["gw.gerbe_keys_kept_ratio"] < 1.0
    assert metrics["gw.build_potential.gerbe.self_s"] >= 0.0


def test_union_within_merges_overlaps():
    assert tracing._union_within([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == 4.0
    assert tracing._union_within([(0.0, 2.0), (1.0, 3.0)], 0.5, 2.5) == 2.0
    assert tracing._union_within([], 0.0, 1.0) == 0.0
