"""Workload definitions: seeded inputs, operations, digests and checks.

Every workload is a fixed list of operations (one library call each) that
the runner repeats in a closed loop; one pass over the list is a round.
An operation returns a result; its digest is compared with the stored
reference for the seed's variant, and a few operations add an invariant
check of their own.  Exact values (the ``Fraction`` integrals, witness
counts, CSV bytes) must match exactly; float64 values must match within
``REL_TOL``.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

WORKLOADS = ("integral-exact", "integral-fast", "bound-audit", "witness-queries")

#: Workloads whose client waits on each operation.  On the others the
#: client waits for the whole round, one batch job, so that is the request
#: whose latency the query percentiles describe.
INTERACTIVE = ("witness-queries",)

#: Seeds map onto this many input variants; each variant has stored references.
VARIANTS = 8

#: Relative tolerance for float64 outputs: ten times tighter than the 1e-6
#: the library documents for its fast integral path.
REL_TOL = 1e-7

#: Left ends of the dyadic integration sub-windows [a, a + 1/2] of [1, 2].
WINDOW_STARTS = (Fraction(1), Fraction(9, 8), Fraction(5, 4), Fraction(11, 8),
                 Fraction(3, 2))
#: Slopes of the d=2 instance; all lie in (1, 2), so the fast path's
#: candidate count per coordinate is the same for every variant.
D2_SLOPES = (("sqrt2", "sqrt3"), ("sqrt3", "sqrt2"), ("sqrt2", "phi"),
             ("phi", "sqrt2"), ("sqrt3", "phi"), ("phi", "sqrt3"))

SIZES = {
    "full": {
        "integral-exact": {"d1_grid": [2**9, 2**10, 2**11, 2**12],
                           "d2_grid": [2**9, 2**10, 2**11],
                           "scan_n": 2**11, "scan_points": 10**6,
                           "method": "auto"},
        "integral-fast": {"d1_grid": [2**15, 2**16], "d2_grid": [2**15],
                          "method": "auto"},
        "bound-audit": {"d1_p": [2**10, 2**12, 2**13], "d2_p": [2**10, 2**12]},
        "witness-queries": {"n": 2**18, "alphas": 16},
    },
    "smoke": {
        "integral-exact": {"d1_grid": [2**6, 2**7, 2**8], "d2_grid": [2**6, 2**7],
                           "scan_n": 2**8, "scan_points": 10**4,
                           "method": "auto"},
        # below the auto switch point, so the fast kernels are forced
        "integral-fast": {"d1_grid": [2**9, 2**10], "d2_grid": [2**9],
                          "method": "fast"},
        "bound-audit": {"d1_p": [2**8], "d2_p": [2**8]},
        "witness-queries": {"n": 2**10, "alphas": 16},
    },
}


@dataclass(frozen=True)
class Inputs:
    """Everything a workload draws from the seed."""

    variant: int
    a: Fraction
    b: Fraction
    d2_slopes: tuple[str, str]


def inputs_for(seed: int) -> Inputs:
    v = seed % VARIANTS
    a = WINDOW_STARTS[v % len(WINDOW_STARTS)]
    return Inputs(variant=v, a=a, b=a + Fraction(1, 2),
                  d2_slopes=D2_SLOPES[v % len(D2_SLOPES)])


def table_limit(workload: str) -> int:
    """Arithmetic-table size the workload needs (B = 2 bounds every window)."""
    size = SIZES["full"][workload]
    top = max(size.get("d1_grid", []) + size.get("d2_grid", [])
              + size.get("d1_p", []) + size.get("d2_p", []) + [size.get("n", 0)])
    return 2 * top + 2


# ----------------------------------------------------------------------
# Instances and operations
# ----------------------------------------------------------------------

def instances(lib, inp: Inputs):
    """The d=1 golden instance and the seeded d=2 instance on [1, 2]."""
    fr = lib.fixedreal
    d1 = lib.counting.ApproxConfig(c=fr.CVector((fr.constant("phi"),), 1.0),
                                   epsilon=0.1, A=1.0, B=2.0)
    d2 = lib.counting.ApproxConfig(
        c=fr.CVector(tuple(fr.constant(n) for n in inp.d2_slopes), 2.0),
        epsilon=0.05, A=1.0, B=2.0)
    return d1, d2


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[dict], object]          # ctx -> result
    digest: Callable[[object], object]     # result -> JSON reference digest
    check: Callable[[object, dict], list[str]] | None = None


def fraction_digest(x: Fraction) -> dict:
    # hex, not decimal: the numerators run past int-to-str digit limits
    blob = f"{x.numerator:x}/{x.denominator:x}".encode()
    return {"q": hashlib.sha256(blob).hexdigest()[:32], "approx": float(x)}


def value_digest(x):
    return fraction_digest(x) if isinstance(x, Fraction) else float(x)


def report_digest(rep) -> dict:
    return {"rows": [[r.N, value_digest(r.integral), float(r.target_main),
                      float(r.ratio)] for r in rep.rows],
            "trend": [bool(rep.trend_nondecreasing),
                      bool(rep.trend_regression_ok)]}


def csv_digest(path: str) -> dict:
    with open(path, "rb") as fh:
        data = fh.read()
    # the package version line is not an output of the computation
    body = b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"# version="))
    return {"sha256": hashlib.sha256(body).hexdigest(), "bytes": len(data)}


def audit_digest(rows) -> list:
    return [[r.label, float(r.ratio), float(r.bound), int(r.parameters["J"]),
             float(r.parameters["u"]), int(r.parameters.get("L", 0))]
            for r in rows]


def build_ops(lib, workload: str, size_name: str, inp: Inputs, table,
              out_dir: str) -> list[Op]:
    """The operations of one round of the workload, in order."""
    size = SIZES[size_name][workload]
    d1, d2 = instances(lib, inp)
    a, b = float(inp.a), float(inp.b)
    harness, counting = lib.harness, lib.counting

    if workload in ("integral-exact", "integral-fast"):
        method = size["method"]

        def lbc(cfg, grid):
            return lambda ctx: harness.lower_bound_check(
                a, b, grid, cfg, table=table, method=method)

        ops = [Op("lbc-d1", lbc(d1, size["d1_grid"]), report_digest),
               Op("lbc-d2", lbc(d2, size["d2_grid"]), report_digest)]
        if workload == "integral-exact":
            ops += _exact_extras(lib, size, inp, d1, table, out_dir)
        return ops

    if workload == "bound-audit":
        w1 = lib.counting.ApproxConfig(c=d1.c, epsilon=d1.epsilon, A=a, B=b)
        w2 = lib.counting.ApproxConfig(c=d2.c, epsilon=d2.epsilon, A=a, B=b)

        def audit(cfg, P):
            return lambda ctx: harness.bound_audit(P, cfg, table)

        return ([Op(f"audit-d1-{P}", audit(w1, P), audit_digest)
                 for P in size["d1_p"]]
                + [Op(f"audit-d2-{P}", audit(w2, P), audit_digest)
                   for P in size["d2_p"]])

    if workload == "witness-queries":
        n = size["n"]
        alphas = harness.kronecker_samples(a, b, size["alphas"], inp.variant)

        def query(alpha):
            def run(ctx):
                count, _ = counting.count_witnesses(alpha, d1, n, table,
                                                    collect=False)
                return count, counting.sieve_error_sum(alpha, d1, n, table)
            return run

        return [Op(f"q{i}", query(al), lambda res: [int(res[0]), float(res[1])])
                for i, al in enumerate(alphas)]

    raise ValueError(f"unknown workload {workload!r}")


def _exact_extras(lib, size, inp, d1, table, out_dir):
    """riemann_scan against the exact integral, and the CSV emission."""
    a, b = float(inp.a), float(inp.b)
    scan_n, points = size["scan_n"], size["scan_points"]
    counting, cli = lib.counting, lib.cli

    def scan(ctx):
        return counting.riemann_scan(a, b, d1, scan_n, table, points)

    def scan_gap(result, ctx):
        exact = [r.integral for r in ctx["lbc-d1"].rows if r.N == scan_n]
        if not exact:
            return ["no exact integral at the scan's N"]
        riemann, intervals = result
        gap = abs(riemann - exact[0])
        allowed = (inp.b - inp.a) / points * intervals
        if gap > allowed:
            return [f"riemann gap {float(gap):.3e} > {float(allowed):.3e}"]
        return []

    def emit(tag, cfg_text, k, eps, grid):
        path = os.path.join(out_dir, f"integrate-{tag}.csv")

        def run(ctx):
            header = ["N", "a", "b", "integral_exact", "target_main",
                      "target_alt", "ratio"]
            rows = [[r.N, r.a, r.b, r.integral, r.target_main, r.target_alt,
                     r.ratio] for r in ctx[f"lbc-{tag}"].rows]
            pairs = {"c": cfg_text, "k": k, "eps": eps,
                     "Ngrid": ",".join(map(str, grid)), "a": str(a),
                     "b": str(b), "out": path}
            cli.write_csv(path, header, rows, pairs)
            return path
        return run

    return [
        Op("scan-d1", scan,
           lambda res: {"riemann": fraction_digest(res[0]),
                        "intervals": int(res[1])},
           scan_gap),
        Op("csv-d1", emit("d1", "phi", "1", "0.1", size["d1_grid"]),
           csv_digest),
        Op("csv-d2", emit("d2", ",".join(inp.d2_slopes), "2", "0.05",
                          size["d2_grid"]), csv_digest),
    ]


# ----------------------------------------------------------------------
# Reference comparison
# ----------------------------------------------------------------------

def mismatches(got, ref, path: str = "") -> list[str]:
    """Differences between a digest and its reference, as readable lines."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(ref)}"]
        out = []
        for key in ref:
            if key != "approx":  # diagnostic copy of an exact value
                out += mismatches(got[key], ref[key], f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: {got!r} != {ref!r}"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += mismatches(g, r, f"{path}[{i}]")
        return out
    if isinstance(ref, float):
        if (isinstance(got, float)
                and math.isclose(got, ref, rel_tol=REL_TOL)):
            return []
        return [f"{path}: {got!r} != {ref!r} (rel tol {REL_TOL})"]
    if type(got) is not type(ref) or got != ref:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


# ----------------------------------------------------------------------
# Work counts derived after a traced round
# ----------------------------------------------------------------------

DERIVED_COUNTS = {
    "counting.exact": "counting.exact.primes",
    "counting.fast": "counting.fast.pairs",
    "counting.count_witnesses": "counting.primes_scanned",
    "counting.sieve_error_sum": "counting.box_points",
}


class WorkCounter:
    """Turns the tracer's call records into work counts, with caching."""

    def __init__(self, table):
        self.table = table
        self._cache: dict = {}

    def _primes_upto(self, n: int) -> int:
        return int(np.searchsorted(self.table.primes, n, side="right"))

    def _pairs(self, a: float, b: float, n: int) -> int:
        """(p, r) pairs of the fast path: r prime in [a p - 1, b p + 1]."""
        primes = self.table.primes
        ps = primes[:self._primes_upto(n)].astype(np.float64)
        lo = np.searchsorted(primes, np.floor(a * ps - 1.0).astype(np.int64),
                             side="left")
        hi = np.searchsorted(primes, np.ceil(b * ps + 1.0).astype(np.int64),
                             side="right")
        return int((hi - lo).sum())

    def _box_points(self, lib, cfg, n: int) -> int:
        """Lattice points the sieve error sum enumerates, over all (t1, t2)."""
        qq = float(n) ** cfg.epsilon
        total = 0
        t1 = 1
        while t1 <= qq:
            t2 = 1
            while t1 * t2 <= qq:
                sp = lib.counting.SieveSideParams.from_config(cfg, n, t1, t2, Q=qq)
                l_int = int(math.floor(sp.L))
                if l_int >= 1:
                    total += (2 * l_int + 1) ** (cfg.d + 1) - 1
                t2 += 1
            t1 += 1
        return total

    def _compute(self, lib, name: str, args: tuple) -> int:
        if name == "counting.exact":
            return self._primes_upto(args[3])
        if name == "counting.fast":
            return self._pairs(float(args[0]), float(args[1]), args[3])
        if name == "counting.count_witnesses":
            return self._primes_upto(args[0])
        return self._box_points(lib, args[0], args[1])

    def count(self, lib, records) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, args in records:
            if name == "cli.write_csv":
                out["cli.csv_bytes"] += os.path.getsize(args[0])
                continue
            key = (name, args)
            if key not in self._cache:
                self._cache[key] = self._compute(lib, name, args)
            out[DERIVED_COUNTS[name]] += self._cache[key]
        return out
