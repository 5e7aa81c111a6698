"""Tests of the benchmark itself: references, checks, tracer, comparison."""

import json
import math
import sys
import time
from fractions import Fraction

import pytest

import bench_env
import bench_trace
import bench_workloads as bw
import compare
import run


def _library_modules():
    return {k: v for k, v in sys.modules.items()
            if k == "diophlab" or k.startswith("diophlab.")}


@pytest.fixture(autouse=True, scope="module")
def keep_library_modules():
    """The benchmark re-imports the library; give other tests theirs back."""
    saved = _library_modules()
    yield
    for name in _library_modules():
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.fixture(scope="module")
def references():
    return run.load_references()


@pytest.fixture(scope="module")
def library():
    lib, table, _ = bench_env.load_library(bw.table_limit("integral-fast"))
    return lib, table


def test_every_variant_has_references(references):
    for size in ("smoke", "full"):
        for workload in bw.WORKLOADS:
            assert sorted(references[size][workload], key=int) == [
                str(v) for v in range(bw.VARIANTS)]
    assert references["rel_tol"] <= 1e-6


def test_seed_gives_same_inputs_and_fixed_work():
    assert bw.inputs_for(11) == bw.inputs_for(11)
    assert bw.inputs_for(3) == bw.inputs_for(3 + bw.VARIANTS)
    for seed in range(bw.VARIANTS):
        inp = bw.inputs_for(seed)
        assert inp.b - inp.a == Fraction(1, 2) and 1 <= inp.a and inp.b <= 2


def test_smoke_passes_and_detects_a_corrupted_reference():
    lines = []
    assert run.smoke(seed=5, log=lines.append), lines
    assert len(lines) == len(bw.WORKLOADS)


def test_fast_references_agree_with_exact_path(references, library):
    """The stored fast-path integrals, checked once against the exact path."""
    lib, table = library
    cases = [("smoke", v) for v in range(bw.VARIANTS)] + [("full", 0)]
    for size_name, v in cases:
        inp = bw.inputs_for(v)
        d1, d2 = bw.instances(lib, inp)
        size = bw.SIZES[size_name]["integral-fast"]
        refs = references[size_name]["integral-fast"][str(v)]
        tags = (("d1", d1, size["d1_grid"]),)
        if size_name == "smoke":  # the exact d=2 path is slow at full size
            tags += (("d2", d2, size["d2_grid"]),)
        for tag, cfg, grid in tags:
            for row in refs[f"lbc-{tag}"]["rows"]:
                if size_name == "full" and row[0] != grid[0]:
                    continue
                exact = lib.counting.witness_integral(
                    float(inp.a), float(inp.b), cfg, row[0], table, method="exact")
                assert math.isclose(row[1], float(exact), rel_tol=bw.REL_TOL)


def test_mismatches_exact_and_tolerant():
    ref = {"n": 3, "x": 1.0, "q": {"q": "ab", "approx": 0.5}, "l": [True]}
    assert bw.mismatches({"n": 3, "x": 1.0 + 1e-9, "q": {"q": "ab", "approx": 9.0},
                          "l": [True]}, ref) == []
    assert bw.mismatches({"n": 4, "x": 1.0, "q": {"q": "ab", "approx": 0.5},
                          "l": [True]}, ref)
    assert bw.mismatches({"n": 3, "x": 1.0 + 1e-6, "q": {"q": "ab", "approx": 0.5},
                          "l": [True]}, ref)
    assert bw.mismatches({"n": 3, "x": 1.0, "q": {"q": "ab", "approx": 0.5},
                          "l": [False]}, ref)
    # tiny references get the relative tolerance too, not an absolute one
    assert bw.mismatches(1.36e-7 * (1 + 1e-6), 1.36e-7)
    assert bw.mismatches(1.36e-7 * (1 + 1e-8), 1.36e-7) == []


def test_tracer_self_times_cover_the_root():
    tracer = bench_trace.Tracer()
    tracer.set_workload("w")
    leaf = tracer.wrap("layer.leaf", lambda: time.sleep(0.002))
    t0 = time.perf_counter()
    with tracer.span("bench.op", new_trace=True):
        with tracer.span("layer.mid"):
            leaf()
            leaf()
    wall = time.perf_counter() - t0
    assert tracer.calls == {"layer.leaf": 2, "layer.mid": 1, "bench.op": 1}
    assert sum(tracer.self_time.values()) == pytest.approx(
        tracer.total["bench.op"], rel=1e-9)
    assert tracer.total["bench.op"] <= wall
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert set(tracer.trace_id) == {0}


def test_patched_restores_the_library(library):
    lib, table = library
    original = lib.harness.witness_integral
    method = lib.arith.ArithTable.__dict__["primes_between"]
    tracer = bench_trace.Tracer()
    with bench_trace.patched(lib, tracer):
        assert lib.harness.witness_integral is not original
        table.primes_between(2, 100)
    assert lib.harness.witness_integral is original
    assert lib.arith.ArithTable.__dict__["primes_between"] is method
    assert tracer.calls["arith.primes_between"] == 1


def test_time_setup_keeps_the_loaded_library():
    lib, _, _ = bench_env.load_library(1000)
    timings = bench_env.time_setup(1000)
    assert sys.modules["diophlab.arith"] is lib.arith
    assert timings["setup_s"] >= timings["import_s"] > 0


def test_fastest_keeps_each_operations_fastest_latency():
    ops = [bw.Op("a", None, None), bw.Op("b", None, None)]
    best = {}
    run.fastest(best, ops, [2.0, 5.0])
    run.fastest(best, ops, [3.0, 1.0])
    assert best == {"a": 2.0, "b": 1.0}


def test_query_percentiles_lie_within_the_samples():
    latencies = [1.0, 2.0, 3.0, 10.0]
    assert run.quantile(latencies, 50) == 2.5
    assert 3.0 < run.quantile(latencies, 95) <= 10.0


def test_compare_refuses_differing_environments(tmp_path, capsys):
    record = {"workload": "w", "trace": 0, "env": {"numba": False},
              "metrics": {"solve_s": [1.0, "s"]}}
    (tmp_path / "a.json").write_text(json.dumps(record))
    record["env"] = {"numba": True}
    (tmp_path / "b.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 2
    assert "numba" in capsys.readouterr().err
