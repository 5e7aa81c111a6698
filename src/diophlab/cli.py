"""Command-line front door: config parsing, subcommand dispatch, CSV emission.

Config files are flat ``key = value`` INI text with ``[instance]`` and
``[run]`` sections and no others, each holding only its own keys; any
command-line flag overrides the file.  All outputs are deterministic:
identical config and seed produce byte-identical CSV (header row, data
rows, then ``# config_hash=...`` / ``# version=...`` comment lines;
numbers carry 30 significant digits).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from . import __version__
from .arith import build_arith_table
from .counting import ApproxConfig, count_witnesses, sieve_side_rows
from .errors import ConfigError, ContractError, DiophLabError, ResourceCapError
from .fixedreal import CVector, FixedReal, dioph_certify, parse_real
from .harness import (
    average_error_check,
    bound_audit,
    lower_bound_check,
    upper_bound_check,
)
from .fourier import VaalerPolynomial, sawtooth_array
from .parallel import map_ordered
from .vaughan import VaughanParams, b_array, vaughan_decompose

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


def fmt30(value) -> str:
    """30-significant-digit decimal rendering for CSV round-tripping."""
    with localcontext() as ctx:
        ctx.prec = 30
        if isinstance(value, FixedReal):
            return value.decimal(30)
        if isinstance(value, Fraction):
            return format(Decimal(value.numerator) / Decimal(value.denominator))
        if isinstance(value, float):
            return format(Decimal(value) + 0)
        return str(value)


def _config_hash(pairs: dict) -> str:
    semantic = {k: v for k, v in pairs.items() if k != "out"}
    blob = "\n".join(f"{k}={semantic[k]}" for k in sorted(semantic))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def write_csv(path: str, header: list[str], rows: list[list], pairs: dict) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt30(v) for v in row))
    lines.append(f"# config_hash={_config_hash(pairs)}")
    lines.append(f"# version={__version__}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Config assembly
# ----------------------------------------------------------------------

_INSTANCE_KEYS = ("d", "c", "k", "eps", "A", "B")
_RUN_KEYS = ("alpha", "N", "Ngrid", "P", "Pgrid", "Q", "samples", "seed",
             "out", "Nbound", "a", "b", "J", "u", "points")


_SECTIONS = {"instance": _INSTANCE_KEYS, "run": _RUN_KEYS}


def _load_config_file(path: str) -> dict:
    """The values of a config file.  Only the sections [instance] and [run]
    are accepted, each with its own keys (the flag names); any other section
    or key raises ConfigError naming it, so a misspelt key cannot fall back
    to its default unnoticed."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: N, A, Ngrid, ...
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    values = {}
    if parser.defaults():  # its keys would show up in every section
        raise ConfigError(f"unknown section [{parser.default_section}] in "
                          f"{path!r}")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}] in {path!r}")
        for key, value in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            values[key] = value
    return values


def _merged(args: argparse.Namespace) -> dict:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    for key in _INSTANCE_KEYS + _RUN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


_REQUIRED = object()


def _get(values: dict, key: str, convert, default=None):
    """``convert`` of the flag or config-file value of ``key``, or
    ``default`` when it is absent or blank (an error if ``_REQUIRED``).  The
    one place values are converted: one that ``convert`` rejects raises
    ConfigError naming the key."""
    text = values.get(key)
    if text is None or not str(text).strip():
        if default is _REQUIRED:
            raise ConfigError(f"missing key {key!r}")
        return default
    try:
        return convert(str(text))
    except (ArithmeticError, ValueError) as err:
        raise ConfigError(f"bad value {key}={text!r}: {err}") from None


def _instance(values: dict) -> ApproxConfig:
    k = _get(values, "k", float, _REQUIRED)
    eps = _get(values, "eps", float, _REQUIRED)
    a_lo = _get(values, "A", float, 1.0)
    b_hi = _get(values, "B", float, 2.0)
    cvec = _get(values, "c", lambda text: CVector.parse(text, k), _REQUIRED)
    d = _get(values, "d", int)
    if d is not None and d != cvec.d:
        raise ConfigError(
            f"declared d={d} but c has {cvec.d} components"
        )
    try:
        return ApproxConfig(c=cvec, epsilon=eps, A=a_lo, B=b_hi)
    except ContractError as err:
        raise ConfigError(str(err)) from None


def _int_list(text) -> list[int]:
    """The ints of a comma-separated list such as ``Ngrid`` or ``Pgrid``."""
    return [int(t) for t in str(text).split(",") if t.strip()]


def _positive_int(text) -> int:
    """An int of at least 1, such as ``samples`` or ``points``."""
    value = int(text)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _n_grid(values: dict) -> list[int]:
    return _get(values, "Ngrid", _int_list, [2 ** e for e in range(10, 21)])


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_search(values: dict) -> int:
    cfg = _instance(values)
    alpha = _get(values, "alpha", parse_real, parse_real("sqrt3"))
    n_max = _get(values, "N", int, 100000)
    out = str(values.get("out", "tuples.csv"))
    table = build_arith_table(int(math.ceil(alpha.to_float() * n_max)) + 2)
    count, tuples = count_witnesses(alpha, cfg, n_max, table)
    d = cfg.d
    header = (["p", "r"] + [f"q_{i}" for i in range(1, d + 1)]
              + ["slack0"] + [f"slack_{i}" for i in range(1, d + 1)])
    rows = []
    for t in tuples:
        rows.append([t.p, t.r, *t.q, t.slack0, *t.slack])
    write_csv(out, header, rows, values)
    print(f"witnesses: {count} (p <= {n_max}); wrote {out}")
    return EXIT_OK


def _cmd_integrate(values: dict) -> int:
    cfg = _instance(values)
    grid = _n_grid(values)
    a = _get(values, "a", float, cfg.A)
    b = _get(values, "b", float, cfg.B)
    out = str(values.get("out", "integrate.csv"))
    report = lower_bound_check(a, b, grid, cfg)
    header = ["N", "a", "b", "integral_exact", "target_main", "target_alt",
              "ratio"]
    rows = [[r.N, r.a, r.b, r.integral, r.target_main, r.target_alt, r.ratio]
            for r in report.rows]
    write_csv(out, header, rows, values)
    print(f"rows: {len(rows)}; trend nondecreasing: "
          f"{report.trend_nondecreasing}; regression ok: "
          f"{report.trend_regression_ok}; wrote {out}")
    bad = any(not math.isfinite(r.ratio) or r.ratio < 0 for r in report.rows)
    return EXIT_CHECK_FAILED if bad else EXIT_OK


def _cmd_upper(values: dict) -> int:
    cfg = _instance(values)
    grid = _n_grid(values)
    samples = _get(values, "samples", int, 12)
    seed = _get(values, "seed", int, 7)
    out = str(values.get("out", "upper.csv"))
    report = upper_bound_check(grid, cfg, samples, seed)
    header = ["N", "v_n", "target_main", "vn_over_target", "k_estimate"]
    rows = [[N, v, g, vg, report.k_est] for (N, v, g, vg) in report.rows]
    write_csv(out, header, rows, values)
    print(f"K_est={report.k_est:.6g}; wrote {out}")
    return EXIT_OK


def _cmd_audit(values: dict) -> int:
    cfg = _instance(values)
    p_list = (_get(values, "Pgrid", _int_list)
              or [_get(values, "P", int, 2 ** 13)])
    out = str(values.get("out", "audit.csv"))
    degree = _get(values, "J", int)
    split = _get(values, "u", float)
    table = build_arith_table(int(math.ceil(cfg.B * max(p_list))) + 2)
    header = ["label", "P", "exact", "bound", "ratio", "J", "u"]
    per_p = map_ordered(
        lambda P: bound_audit(P, cfg, table, degree=degree, u=split), p_list)
    rows = []
    failed = False
    for P, audit_rows in zip(p_list, per_p):
        for row in audit_rows:
            rows.append([row.label, P, row.exact_value, row.bound,
                         row.ratio, row.parameters["J"], row.parameters["u"]])
            if not (row.ratio > 0 and math.isfinite(row.ratio)):
                failed = True
    write_csv(out, header, rows, values)
    print(f"audit rows: {len(rows)}; wrote {out}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_sieve_side(values: dict) -> int:
    cfg = _instance(values)
    alpha = _get(values, "alpha", parse_real, parse_real("sqrt3"))
    n_val = _get(values, "N", int, 10000)
    out = str(values.get("out", "sieve.csv"))
    q_cap = _get(values, "Q", float, float(n_val) ** cfg.epsilon)
    samples = _get(values, "samples", _positive_int, 8)
    seed = _get(values, "seed", int, 1)
    header = ["N", "t1", "t2", "S_exact", "main_term", "E_bound"]
    rows = [[n_val, t1, t2, res.s_exact, res.main_term, res.e_bound]
            for t1, t2, res in sieve_side_rows(alpha, cfg, n_val, q_cap)]
    write_csv(out, header, rows, values)
    grid = [n_val // 10, n_val] if n_val >= 100 else [n_val]
    avg = average_error_check(grid, cfg, alpha_samples=samples, seed=seed)
    for N, lhs, target, ratio in avg:
        print(f"avg-error N={N}: lhs={lhs:.6g} target={target:.6g} "
              f"ratio={ratio:.6g}")
    print(f"sieve rows: {len(rows)}; wrote {out}")
    return EXIT_OK


def _cmd_vaaler_check(values: dict) -> int:
    grid_points = _get(values, "points", _positive_int, 10000)
    xs = (np.arange(grid_points) + 0.5) / grid_points
    ok = True
    for degree in (1, 5, 10, 50):
        poly = VaalerPolynomial.build(degree)
        psi_star = poly.psi_star(xs)
        tau = poly.tau(xs)
        budget = 2.0 ** -40
        nonneg = bool(np.all(tau >= -budget))
        majorized = bool(np.all(np.abs(psi_star - sawtooth_array(xs))
                                <= tau + budget))
        ok = ok and nonneg and majorized
        print(f"J={degree}: tau nonnegative: {nonneg}; "
              f"|psi*-psi| <= tau: {majorized}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_vaughan_check(values: dict) -> int:
    n_max = _get(values, "N", int, 10000)
    table = build_arith_table(max(100000, n_max))
    ok = True
    for uv in (5.0, 10.0, 31.0):
        params = VaughanParams(u=uv, v=uv, x=float(n_max))
        worst = 0.0
        for n in range(1, n_max + 1):
            a1, a2, a3, a4 = vaughan_decompose(table, n, params)
            lam = table.von_mangoldt(n) if n >= 2 else 0.0
            worst = max(worst, abs(a1 + a2 + a3 + a4 - lam))
        good = worst <= 1e-9
        ok = ok and good
        print(f"u=v={uv}: max identity error {worst:.3e}: "
              f"{'ok' if good else 'FAIL'}")
    bl = b_array(100000, 31.0, table)
    dl = np.zeros(100001, dtype=np.int64)  # divisor counts by direct sieve
    for dd in range(1, 100001):
        dl[dd::dd] += 1
    bound_ok = bool(np.all(np.abs(bl[1:]) <= dl[1:]))
    print(f"|b(l)| <= d(l) for l <= 1e5: {bound_ok}")
    ok = ok and bound_ok
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_dioph_certify(values: dict) -> int:
    k = _get(values, "k", float, _REQUIRED)
    n_bound = _get(values, "Nbound", int, 50)
    cvec = _get(values, "c", lambda text: CVector.parse(text, k), _REQUIRED)
    cert = dioph_certify(cvec, n_bound)
    print(f"C_est (finite-range certificate, max|v| <= {n_bound}): "
          f"{cert.c_est:.12g}")
    print(f"v_min: {list(cert.v_min)}")
    print(f"plain min dist: {cert.min_dist:.12g} at v = {list(cert.min_dist_v)}")
    return EXIT_OK


_COMMANDS = {
    "search": _cmd_search,
    "integrate": _cmd_integrate,
    "upper": _cmd_upper,
    "audit": _cmd_audit,
    "sieve-side": _cmd_sieve_side,
    "vaaler-check": _cmd_vaaler_check,
    "vaughan-check": _cmd_vaughan_check,
    "dioph-certify": _cmd_dioph_certify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diophlab",
        description="Prime-constrained simultaneous approximation lab",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for key in ("config",) + _INSTANCE_KEYS + _RUN_KEYS:
            p.add_argument(f"--{key}")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_CONFIG
    if not args.command:
        parser.print_usage()
        return EXIT_CONFIG
    try:
        values = _merged(args)
        return _COMMANDS[args.command](values)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except DiophLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
