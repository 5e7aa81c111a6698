"""Regenerate perfbench/references.json from the library in src/.

    python3 perfbench/make_refs.py

Runs every operation of every workload once per seed variant, at both the
smoke and the full sizes, and stores the digests the benchmark compares
against.  Before writing, it checks each operation's own invariants and
validates the fast-path integrals against the exact path at the smallest
N of the fast grid, where both paths run.  Regenerate only when the
library's outputs are meant to change, and say so in the change.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

import bench_env
import bench_workloads as bw
from run import REFERENCES, check_round, run_round


def validate_fast(lib, inp, table, size_name, digests) -> None:
    """Fast-path integrals agree with the exact path at the grid's smallest N."""
    size = bw.SIZES[size_name]["integral-fast"]
    d1, d2 = bw.instances(lib, inp)
    for tag, cfg, grid in (("d1", d1, size["d1_grid"]), ("d2", d2, size["d2_grid"])):
        n = grid[0]
        fast = digests[f"lbc-{tag}"]["rows"][0][1]
        exact = lib.counting.witness_integral(float(inp.a), float(inp.b), cfg, n,
                                              table, method="exact")
        assert isinstance(exact, Fraction)
        if not math.isclose(fast, float(exact), rel_tol=bw.REL_TOL):
            raise SystemExit(f"fast {fast!r} != exact {float(exact)!r} "
                             f"({size_name}, {tag}, N={n}, variant {inp.variant})")
        print(f"#   fast vs exact {tag} N={n}: rel diff "
              f"{abs(fast - float(exact)) / float(exact):.2e}", flush=True)


def main() -> int:
    bench_env.OUT_DIR.mkdir(exist_ok=True)
    refs = {"rel_tol": bw.REL_TOL, "variants": bw.VARIANTS, "smoke": {}, "full": {}}
    lib, table, _ = bench_env.load_library(
        max(bw.table_limit(w) for w in bw.WORKLOADS))
    for size_name in ("smoke", "full"):
        for workload in bw.WORKLOADS:
            per_variant = refs[size_name].setdefault(workload, {})
            for v in range(bw.VARIANTS):
                inp = bw.inputs_for(v)
                ops = bw.build_ops(lib, workload, size_name, inp, table,
                                   str(bench_env.OUT_DIR))
                _, _, ctx, errors = run_round(ops)
                digests = {op.key: op.digest(ctx[op.key]) for op in ops
                           if op.key not in errors}
                failures = check_round(ops, ctx, errors, digests)
                if failures:
                    raise SystemExit(f"{workload} variant {v}: {failures}")
                if workload == "integral-fast" and (size_name == "smoke" or v < 2):
                    validate_fast(lib, inp, table, size_name, digests)
                per_variant[str(v)] = digests
                print(f"# {size_name} {workload} variant {v}: {len(ops)} ops",
                      flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
