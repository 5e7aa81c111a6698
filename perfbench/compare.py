"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them, as run.py writes
them under .perfbench_out/results/.  Runs whose environment blocks differ
are not compared: the command says which fields differ and exits with 2.
For each end-to-end metric it prints the median and quartiles of each side
and flags a change worse than the metric's bound in BENCHMARK.json; it
exits with 1 if any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg: str) -> list[dict]:
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def env_conflicts(records: list[dict]) -> list[str]:
    first = records[0]["env"]
    out = []
    for rec in records[1:]:
        for key in sorted(set(first) | set(rec["env"])):
            if first.get(key) != rec["env"].get(key):
                out.append(f"{key}: {first.get(key)!r} vs {rec['env'].get(key)!r}")
    return sorted(set(out))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("compare: no result files", file=sys.stderr)
        return 2
    conflicts = env_conflicts(base + new)
    if conflicts:
        print("compare: refusing, environment blocks differ:", file=sys.stderr)
        for line in conflicts:
            print(f"  {line}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        print(f"{workload}:")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sides = [[r["metrics"][name][0] for r in recs
                      if r["workload"] == workload and r["trace"] == 0
                      and name in r["metrics"]]
                     for recs in (base, new)]
            if not all(sides):
                continue
            (b1, bm, b3), (n1, nm, n3) = quartiles(sides[0]), quartiles(sides[1])
            change = (nm - bm) / bm
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdict, regressed = "WORSE", True
            elif (b3 - b1) / bm > bound:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = "ok"
            print(f"  {name:14s} base {bm:.6g} [{b1:.4g}, {b3:.4g}] "
                  f"new {nm:.6g} [{n1:.4g}, {n3:.4g}] {metric['unit']} "
                  f"change {change:+.2%} (bound {bound:.0%}): {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
