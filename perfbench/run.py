"""diophlab benchmark: closed-loop workloads over the library's public API.

Usage (from the repository root):

    python3 perfbench/run.py --workload integral-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke

One client drives one workload in this process: it repeats the workload's
round of operations until ``--seconds`` have passed, checks every output
against the stored reference for the seed, and prints its metrics.  The
time metrics take each operation at its fastest over the run, because
slowdowns of a shared host only ever add to an operation's time.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import bench_env
import bench_trace
import bench_workloads as bw

#: Set-ups timed before the first round, and after every round, so that
#: the set-up samples are spread across the run.
SETUP_FIRST = 5
SETUP_PER_ROUND = 3
LAYERS = ("arith", "counting", "fourier", "vaughan", "harness", "parallel",
          "cli", "bench")
REFERENCES = bench_env.ROOT / "perfbench" / "references.json"
_clock = time.perf_counter


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------

def run_round(ops, tracer=None):
    """Run the operations once, in order; return wall time, latencies, results."""
    ctx, errors, latencies = {}, {}, []
    t0 = _clock()
    for op in ops:
        s = _clock()
        try:
            if tracer is None:
                ctx[op.key] = op.run(ctx)
            else:
                with tracer.span("bench.op", new_trace=True):
                    ctx[op.key] = op.run(ctx)
        except Exception as err:  # a failed operation is counted; the loop goes on
            errors[op.key] = f"{type(err).__name__}: {err}"
        latencies.append(_clock() - s)
    return _clock() - t0, latencies, ctx, errors


def check_round(ops, ctx, errors, refs) -> list[str]:
    """One line per failed operation: raised, no reference, or mismatch."""
    failures = []
    for op in ops:
        if op.key in errors:
            failures.append(f"{op.key}: raised {errors[op.key]}")
            continue
        if op.key not in refs:
            failures.append(f"{op.key}: no reference")
            continue
        try:
            result = ctx[op.key]
            problems = bw.mismatches(op.digest(result), refs[op.key], op.key)
            if op.check is not None:
                problems += op.check(result, ctx)
        except Exception as err:  # a malformed result is a failed operation
            problems = [f"{op.key}: checking raised {type(err).__name__}: {err}"]
        if problems:
            failures.append("; ".join(problems[:3]))
    return failures


def fastest(best: dict, ops, latencies) -> None:
    """Keep in ``best`` each operation's fastest latency so far."""
    for op, t in zip(ops, latencies):
        best[op.key] = min(t, best.get(op.key, t))


def quantile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    # inclusive: a percentile always lies within the observed latencies
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            references: dict, tracer=None, log=print,
            own_peak: bool = True) -> dict:
    """Run one workload for ``seconds``; ``own_peak`` is false when an
    earlier workload ran in this process, whose memory high-water mark
    would then stand in for this workload's peak."""
    inp = bw.inputs_for(seed)
    limit = bw.table_limit(workload)
    setups = []
    for _ in range(SETUP_FIRST):
        gc.collect()
        lib, table, timings = bench_env.load_library(limit)
        setups.append(timings)
    env = bench_env.environment(lib)
    bench_env.OUT_DIR.mkdir(exist_ok=True)
    out_dir = str(bench_env.OUT_DIR)
    refs = references["full"][workload][str(inp.variant)]
    ops = bw.build_ops(lib, workload, "full", inp, table, out_dir)
    attempted, failures = 0, []

    def account(ops, ctx, errors):
        nonlocal attempted
        attempted += len(ops)
        failures.extend(check_round(ops, ctx, errors, refs))

    # warm-up: round 0 fills the allocator's pools and any lazy state; its
    # outputs are checked, its time is not counted
    _, _, ctx, errors = run_round(ops)
    account(ops, ctx, errors)

    if trace:
        if lib.parallel.worker_count() != 1:
            raise SystemExit("the traced run needs DIOPH_LAB_THREADS unset or 1")
        tracer = tracer or bench_trace.Tracer()
        tracer.set_workload(workload)
        tracer.reset_aggregates()
    plain_walls, traced_walls = [], []
    best, traced_best = {}, {}
    deadline = _clock() + seconds
    r = 1
    while True:
        traced = trace and r % 2 == 0
        if traced:
            with bench_trace.patched(lib, tracer):
                wall, lat, ctx, errors = run_round(ops, tracer)
            traced_walls.append(wall)
            fastest(traced_best, ops, lat)
        else:
            wall, lat, ctx, errors = run_round(ops)
            plain_walls.append(wall)
            fastest(best, ops, lat)
        account(ops, ctx, errors)
        for _ in range(SETUP_PER_ROUND):
            gc.collect()
            setups.append(bench_env.time_setup(limit))
        r += 1
        # stop once less than half a round is left, so runs end near --seconds
        if _clock() + wall / 2 >= deadline and (traced_walls or not trace):
            break

    for line in failures[:5]:
        log(f"# FAILED {line}")
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the fastest set-up: host slowdowns only ever add to a set-up's time
    setup = {k: min(t[k] for t in setups) for k in setups[0]}
    result = {
        "workload": workload, "seed": seed, "variant": inp.variant,
        "trace": int(trace), "seconds": seconds, "env": env,
        "rounds": r - 1, "attempted": attempted, "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "setup_samples": len(setups),
        "round_walls": plain_walls, "traced_round_walls": traced_walls,
        "fastest_latencies": best,
    }
    if not trace:
        # solve_s: one round with every operation at its fastest
        solve = sum(best.values())
        latencies = (list(best.values()) if workload in bw.INTERACTIVE
                     else [solve])
        result["query_samples"] = len(latencies)
        result["metrics"] = {
            "setup_s": (setup["setup_s"], "s"),
            "solve_s": (solve, "s"),
            "query_p50_s": (quantile(latencies, 50), "s"),
            "query_p95_s": (quantile(latencies, 95), "s"),
        }
        if own_peak:
            result["metrics"]["peak_rss_mib"] = (peak_mib, "MiB")
        else:
            log(f"# peak_rss_mib not reported for {workload}: an earlier "
                "workload ran in this process; run it alone for its peak")
    else:
        result["metrics"] = layer_metrics(lib, table, tracer, setup,
                                          best, traced_best, traced_walls)
    return result


def layer_metrics(lib, table, tracer, setup, best, traced_best,
                  traced_walls) -> dict:
    n = len(traced_walls)
    total = {k: v / n for k, v in tracer.total.items()}
    own = {k: v / n for k, v in tracer.self_time.items()}
    calls = {k: v / n for k, v in tracer.calls.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    derived = bw.WorkCounter(table).count(lib, tracer.records)
    counts.update({k: v / n for k, v in derived.items()})
    fast_s = total.get("counting.fast", 0.0)
    layer_self = {layer: sum(v for k, v in own.items()
                             if k.split(".")[0] == layer) for layer in LAYERS}
    traced_s = statistics.fmean(traced_walls)
    self_sum = sum(layer_self.values())
    table_mib = (table.smallest_factor.nbytes + table.prime_flags.nbytes
                 + table.primes.nbytes) / 2**20
    s, c = "s", "count"
    m = {
        "arith.build_s": (setup["build_s"], s),
        "arith.table_mib": (table_mib, "MiB"),
        "arith.primes_between.calls": (calls.get("arith.primes_between", 0), c),
        "arith.primes_between.s": (total.get("arith.primes_between", 0.0), s),
        "arith.von_mangoldt_range.s": (total.get("arith.von_mangoldt_range", 0.0), s),
        "fixedreal.constants_s": (setup["constants_s"], s),
        "counting.exact.s": (total.get("counting.exact", 0.0), s),
        "counting.exact.primes": (counts.get("counting.exact.primes", 0), c),
        "counting.segments": (counts.get("counting.segments", 0), c),
        "counting.riemann_scan.s": (total.get("counting.riemann_scan", 0.0), s),
        "counting.fast.s": (fast_s, s),
        "counting.fast.pairs": (counts.get("counting.fast.pairs", 0), c),
        "counting.fast.pairs_per_s": (
            counts.get("counting.fast.pairs", 0) / fast_s if fast_s else 0.0, "1/s"),
        "counting.count_witnesses.s": (total.get("counting.count_witnesses", 0.0), s),
        "counting.primes_scanned": (counts.get("counting.primes_scanned", 0), c),
        "counting.witnesses": (counts.get("counting.witnesses", 0), c),
        "counting.sieve_error_sum.s": (total.get("counting.sieve_error_sum", 0.0), s),
        "counting.box_points": (counts.get("counting.box_points", 0), c),
        "fourier.frac_multiples.calls": (calls.get("fourier.frac_multiples", 0), c),
        "fourier.frac_multiples.elements": (
            counts.get("fourier.frac_multiples.elements", 0), c),
        "fourier.frac_multiples.s": (total.get("fourier.frac_multiples", 0.0), s),
        "fourier.psi_star.s": (total.get("fourier.psi_star", 0.0), s),
        "vaughan.b_array.s": (total.get("vaughan.b_array", 0.0), s),
        "harness.bound_audit.self_s": (own.get("harness.bound_audit", 0.0), s),
        "harness.lower_bound_check.self_s": (
            own.get("harness.lower_bound_check", 0.0), s),
        "parallel.workers": (lib.parallel.worker_count(), c),
        "parallel.map_ordered.self_s": (own.get("parallel.map_ordered", 0.0), s),
        "cli.write_csv.s": (total.get("cli.write_csv", 0.0), s),
        "cli.csv_bytes": (counts.get("cli.csv_bytes", 0), "bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], s)
    m["trace.solve_s"] = (traced_s, s)
    m["trace.self_sum_s"] = (self_sum, s)
    m["trace.coverage"] = (self_sum / traced_s, "ratio")
    m["trace.overhead"] = (sum(traced_best.values()) / sum(best.values()),
                           "ratio")
    m["trace.spans"] = (sum(tracer.calls.values()) / n, c)
    return m


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def summary_lines(res: dict) -> list[str]:
    lines = [f"# env {json.dumps(res['env'], sort_keys=True)}",
             f"# workload={res['workload']} seed={res['seed']} "
             f"variant={res['variant']} trace={res['trace']} rounds={res['rounds']}"
             f" attempted={res['attempted']} failed={res['failed']}"]
    lines.append(f"#   {'failed_ratio':34s} {res['failed_ratio']:.6g} ratio")
    for name, (value, unit) in res["metrics"].items():
        extra = (f"  (n={res['query_samples']}, fastest of "
                 f"{len(res['round_walls'])} rounds)" if name.startswith("query_")
                 else f"  (n={res['setup_samples']})" if name == "setup_s" else "")
        lines.append(f"#   {name:34s} {value:.6g} {unit}{extra}")
    return lines


def json_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for res in results:
        for name, (value, unit) in res["metrics"].items():
            key = f"{res['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0,
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": failed, "metrics": metrics})


def save_result(res: dict) -> None:
    results_dir = bench_env.OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / (f"{res['workload']}-seed{res['seed']}-trace{res['trace']}"
                          f"-{time.time_ns()}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)


# ----------------------------------------------------------------------
# Smoke mode
# ----------------------------------------------------------------------

def corrupt(ref):
    """A copy of a reference digest with its first compared leaf changed."""
    if isinstance(ref, dict):
        key = next(k for k in ref if k != "approx")
        return {**ref, key: corrupt(ref[key])}
    if isinstance(ref, list):
        return [corrupt(ref[0])] + ref[1:]
    if isinstance(ref, bool):
        return not ref
    if isinstance(ref, (int, float)):
        return ref + 1
    return ref + "x"


def smoke(seed: int, log=print) -> bool:
    """All four workloads at tiny sizes, against true and corrupted references."""
    references = load_references()
    inp = bw.inputs_for(seed)
    ok = True
    for workload in bw.WORKLOADS:
        lib, table, _ = bench_env.load_library(bw.table_limit(workload))
        bench_env.OUT_DIR.mkdir(exist_ok=True)
        ops = bw.build_ops(lib, workload, "smoke", inp, table,
                           str(bench_env.OUT_DIR))
        refs = references["smoke"][workload][str(inp.variant)]
        bad_refs = dict(refs)
        bad_refs[ops[0].key] = corrupt(refs[ops[0].key])
        t0 = _clock()
        _, _, ctx, errors = run_round(ops)
        clean = len(check_round(ops, ctx, errors, refs)) / len(ops)
        dirty = len(check_round(ops, ctx, errors, bad_refs)) / len(ops)
        good = clean == 0 and dirty > 0
        ok = ok and good
        log(f"# smoke {workload:16s} failed_ratio={clean:.3g} "
            f"corrupted-reference failed_ratio={dirty:.3g} "
            f"({_clock() - t0:.2f} s) {'ok' if good else 'FAIL'}")
    return ok


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=bw.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, true and corrupted references")
    args = parser.parse_args(argv)
    try:
        bench_env.use_source_tree()
        if args.smoke:
            return 0 if smoke(args.seed) else 1
        if args.workload is None:
            parser.error("--workload is required")
        references = load_references()
        names = bw.WORKLOADS if args.workload == "all" else (args.workload,)
        tracer = bench_trace.Tracer() if args.trace else None
        results = []
        for name in names:
            res = measure(name, args.seed, args.seconds, bool(args.trace),
                          references, tracer, own_peak=not results)
            save_result(res)
            print("\n".join(summary_lines(res)), flush=True)
            results.append(res)
    except bench_env.MissingLibrary as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.save(bench_env.OUT_DIR / f"trace-{args.workload}.npz")
    print(json_line(results, prefix=len(results) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
