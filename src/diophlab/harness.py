"""Metric harness: finite-scale checks of the counting estimates and the
bound audit for the bilinear-sum machinery.

Asymptotic claims are operationalized as trend or regression checks over
geometric grids; every pinned tolerance is artifact-derived (recorded from a
pilot run of this code base, not a constant of the underlying mathematics).
All checks are deterministic: parameter sampling uses a seeded Kronecker
sequence and every reduction runs in a fixed order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import ArithTable, build_arith_table
from .counting import (
    ApproxConfig,
    WindowParams,
    _check_integral,
    count_witnesses,
    sieve_error_sum,
    target_growth,
    target_growth_alt,
    witness_integral,
)
from .errors import ContractError, RangeError
from .fixedreal import FixedReal
from .parallel import map_ordered
from .fourier import (
    VaalerPolynomial,
    _min_terms,
    fejer_tau,
    frac_multiples,
    min_sum,
    weighted_index_box,
)
from .vaughan import b_array

GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0


def kronecker_samples(a: float, b: float, count: int, seed: int) -> list[FixedReal]:
    """Deterministic low-discrepancy samples of [a, b] (exact dyadic values)."""
    if count < 1:
        raise ContractError("need at least one sample")
    offset = (seed * GOLDEN_FRAC) % 1.0
    out = []
    for i in range(count):
        t = (offset + i * GOLDEN_FRAC) % 1.0
        out.append(FixedReal.from_float(a + t * (b - a)))
    return out


# ----------------------------------------------------------------------
# Report types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AuditRow:
    """One audited inequality: exact side, bounding side, their ratio."""

    label: str
    exact_value: float
    bound: float
    ratio: float
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HarnessRow:
    N: int
    a: float
    b: float
    integral: Fraction | float
    target_main: float
    target_alt: float
    ratio: float


@dataclass(frozen=True)
class HarnessReport:
    rows: tuple[HarnessRow, ...]
    trend_nondecreasing: bool      # strict, over the top half of the grid
    trend_regression_ok: bool      # within the pinned per-step drift
    drift_tolerance: float


@dataclass(frozen=True)
class UpperBoundReport:
    k_est: float
    rows: tuple[tuple[int, float, float, float], ...]  # (N, V_N, G_N, V/G)

    @property
    def v_n_values(self) -> list[float]:
        return [r[1] for r in self.rows]


# ----------------------------------------------------------------------
# Integral lower-bound check
# ----------------------------------------------------------------------

#: Pinned per-step downward drift allowed in the top-half ratio trend.
#: Pilot (this artifact, golden-ratio instance): the ratio converges to its
#: limit from above with <= 1.8% decrease per grid step.
TREND_DRIFT_TOLERANCE = 0.035


def _check_grid(n_grid: list[int]) -> None:
    """The N grid check every grid check makes: nonempty, ascending."""
    if not n_grid:
        raise ContractError("N grid must not be empty")
    if sorted(n_grid) != list(n_grid):
        raise ContractError("N grid must be ascending")


def _grid_table(n_grid: list[int], table: ArithTable | None,
                reach: float) -> ArithTable:
    """Check the N grid; return ``table`` or one reaching reach * max(N) + 2."""
    _check_grid(n_grid)
    if table is None:
        table = build_arith_table(int(math.ceil(reach * max(n_grid))) + 2)
    return table


def lower_bound_check(a: float, b: float, n_grid: list[int], cfg: ApproxConfig,
                      table: ArithTable | None = None,
                      method: str = "auto",
                      drift_tolerance: float = TREND_DRIFT_TOLERANCE) -> HarnessReport:
    """Integral of the witness count versus the growth normalizer, per N.

    ratio = integral / ((b-a) * target).  The strict nondecreasing flag and
    the pinned-drift regression flag both cover the top half of the grid.
    The method and the window ends are checked before the table is built.
    """
    _check_integral(a, b, cfg, method)
    table = _grid_table(n_grid, table, b)

    def one_row(N: int) -> HarnessRow:
        integral = witness_integral(a, b, cfg, N, table, method=method)
        if N >= 2:
            g_main = target_growth(cfg, N)
            g_alt = target_growth_alt(cfg, N)
            ratio = float(integral) / ((b - a) * g_main)
        else:  # below the first prime: empty count, zero ratio
            g_main = g_alt = 0.0
            ratio = 0.0
        return HarnessRow(N=N, a=a, b=b, integral=integral,
                          target_main=g_main, target_alt=g_alt, ratio=ratio)

    rows = map_ordered(one_row, n_grid)
    ratios = [r.ratio for r in rows]
    top = ratios[len(ratios) // 2:]
    strict = all(top[i + 1] >= top[i] for i in range(len(top) - 1))
    regression = all(top[i + 1] >= top[i] * (1.0 - drift_tolerance)
                     for i in range(len(top) - 1))
    return HarnessReport(rows=tuple(rows), trend_nondecreasing=strict,
                         trend_regression_ok=regression,
                         drift_tolerance=drift_tolerance)


def upper_bound_check(n_grid: list[int], cfg: ApproxConfig, sample_count: int,
                      seed: int,
                      table: ArithTable | None = None) -> UpperBoundReport:
    """Pointwise count versus normalizer plus error functional, sampled.

    K_est = max over (N, alpha) of (F_N(alpha) - J_N(alpha))/G_N clamped at
    zero; V_N = (B-A) * mean over alpha of J_N(alpha) (J_N >= 0 so this is
    the quadrature of |J_N|).
    """
    if sample_count < 10:
        raise ContractError("need at least 10 samples")
    table = _grid_table(n_grid, table, cfg.B)
    alphas = kronecker_samples(cfg.A, cfg.B, sample_count, seed)
    k_est = 0.0
    rows = []
    for N in n_grid:
        g = target_growth(cfg, N)
        j_vals = []
        for alpha in alphas:
            j_val = sieve_error_sum(alpha, cfg, N, table)
            f_val, _ = count_witnesses(alpha, cfg, N, table, collect=False)
            j_vals.append(j_val)
            k_est = max(k_est, (f_val - j_val) / g)
        v_n = (cfg.B - cfg.A) * math.fsum(j_vals) / sample_count
        rows.append((N, v_n, g, v_n / g))
    return UpperBoundReport(k_est=k_est, rows=tuple(rows))


def limsup_track(alpha: FixedReal, cfg: ApproxConfig, n_grid: list[int],
                 table: ArithTable | None = None) -> list[tuple[int, float, float]]:
    """Ratio F_N(alpha)/G_N along the grid with its running maximum."""
    table = _grid_table(n_grid, table, alpha.to_float())
    out = []
    running = 0.0
    for N in n_grid:
        count, _ = count_witnesses(alpha, cfg, N, table, collect=False)
        ratio = count / target_growth(cfg, N) if N >= 2 else 0.0
        running = max(running, ratio)
        out.append((N, ratio, running))
    return out


# ----------------------------------------------------------------------
# Bound audit
# ----------------------------------------------------------------------

def _psi_from_frac(frac: np.ndarray) -> np.ndarray:
    """psi(-y) from frac(y): psi(-y) = frac(-y) - 1/2 = (1 - frac) % 1 - 1/2."""
    return np.where(frac > 0.0, 0.5 - frac, -0.5)


#: Multipliers per exact phase call in ``bound_audit``.  It bounds the limb
#: temporaries of ``frac_multiples`` (about 0.6 MiB at this size) whatever
#: the size of the batch.
_PHASE_CHUNK = 1 << 12


def bound_audit(P: int, cfg: ApproxConfig, table: ArithTable,
                degree: int | None = None,
                u: float | None = None) -> list[AuditRow]:
    """Evaluate each displayed inequality of the bilinear-sum chain exactly.

    The exact sides are direct summations over the full index box
    1 <= |j_i| <= J (all d coordinates); the bound sides are the displayed
    closed forms.  The sums U_tilde, Z1, Z2 and Z2(L) are invariant under
    j -> -j and share one pass over the half index box
    (``weighted_index_box``, each term doubled).  Since frac(m * (l*theta))
    = frac((l*m) * theta) exactly, each theta = j.c evaluates its phases
    once, on the products l*m of all l, by exact calls in chunks of
    ``_PHASE_CHUNK``.  The inner Lambda-sums are computed once: Z2 reads
    them as sum b(l) * inner, and each dyadic block [L, min(2L, l_max)] of
    Z2(L) as sum |b(l)| * |inner|.  Every sum adds in l order, as a loop
    over l would, so the rows do not depend on the batching.  Default
    parameters follow the final choices: degree J = floor(P**(1/(3k+2))),
    split u = P**(2/5); P >= 2, a nonempty ``WindowParams.lambda_window``
    and a finite u >= 1 are required.
    """
    k = cfg.c.k
    d = cfg.d
    a, b = cfg.A, cfg.B
    if P < 2:
        raise ContractError(f"P={P} must be at least 2")
    if u is not None and not (math.isfinite(u) and u >= 1.0):
        raise ContractError(f"split u={u} must be finite and at least 1")
    wp = WindowParams.from_config(cfg, P)
    n_lo, n_hi = wp.lambda_window
    if n_lo > n_hi:
        raise ContractError(f"P={P} has an empty Lambda window [{n_lo}, {n_hi}]")
    if b * P > table.limit:
        raise RangeError("table limit too small for this window")
    J = max(1, int(float(P) ** (1.0 / (3.0 * k + 2.0)))) if degree is None else degree
    uu = float(P) ** 0.4 if u is None else u
    mu, delta = wp.mu_window, wp.delta
    log2p = math.log(2.0 * P)
    eps = cfg.epsilon

    lam = table.von_mangoldt_range(n_lo, n_hi)
    support = np.nonzero(lam)[0]
    ns = (support + n_lo).astype(np.int64)
    lam_s = lam[support]

    # ---- T_A and U_A: sawtooth and polynomial product sums -------------
    poly = VaalerPolynomial.build(J)
    prod_psi = np.ones(ns.size)
    prod_star = np.ones(ns.size)
    for ci in cfg.c.entries:
        fr = frac_multiples(ci, ns)
        # frac(c n + delta) from exact frac(c n); delta is a float offset
        fr_delta = (fr + delta) % 1.0
        prod_psi *= _psi_from_frac(fr_delta) - _psi_from_frac(fr)
        prod_star *= (poly.psi_star(((-fr_delta) % 1.0))
                      - poly.psi_star((-fr) % 1.0))
    t_a = float(np.sum(lam_s * prod_psi))
    u_a = float(np.sum(lam_s * prod_star))

    # ---- V_A exact and V_d tilde ---------------------------------------
    all_n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    v_a = v_tilde = 0.0
    for ci in cfg.c.entries:
        fr = frac_multiples(ci, all_n)
        v_a += float(np.sum(fejer_tau(J, (-(fr + delta)) % 1.0)
                            + fejer_tau(J, (-fr) % 1.0)))
        v_tilde += min_sum(ci, P, J)
    v_a *= log2p

    # ---- the multipliers l*m of U_tilde, Z2 and Z1, built once ----------
    # Layout: ns (U_tilde, l = 1), then l*sub per Z2 term, then l*m per Z1
    # window, so the Lambda-weighted terms form one prefix.
    pieces = [ns]
    weights = [lam_s]

    # Z2: the l with b(l) != 0 in [l_min, l_max] and the prime powers m > u
    # of their windows.  Z2(L) sums the dyadic block [L, min(2L, l_max)] of
    # the same l; since a*mu/b < 1, l_min <= floor(u) <= L.
    l_min = int(math.floor(a * mu * uu / b))
    l_max = int(math.floor(b * P / uu))
    bl = b_array(max(2 * l_max + 1, 2), uu, table)
    # the m-sums below need Lambda on all of [1, bP]
    lam_all = table.von_mangoldt_range(1, n_hi)
    ns_lam = (np.nonzero(lam_all)[0] + 1).astype(np.int64)
    z2_terms = []  # (l, b(l), start, end) of its slice of the multipliers
    pos = ns.size
    for l in range(max(1, l_min), l_max + 1):
        coeff = int(bl[l])
        m1 = max(int(uu) + 1, int(math.ceil(P * a * mu / l)))
        m2 = int(math.floor(b * P / l))
        if coeff == 0 or m2 < m1:
            continue
        sub = ns_lam[np.searchsorted(ns_lam, m1, side="left"):
                     np.searchsorted(ns_lam, m2, side="right")]
        if sub.size:
            pieces.append(l * sub)
            weights.append(lam_all[sub - 1])
            z2_terms.append((l, coeff, pos, pos + sub.size))
            pos += sub.size
    n_weighted = pos
    term_ls = [term[0] for term in z2_terms]
    blocks = []  # (L, first and end index into z2_terms)
    L = max(int(uu), 1)
    while L <= l_max:
        blocks.append((L, bisect_left(term_ls, L),
                       bisect_right(term_ls, min(2 * L, l_max))))
        L *= 2

    # Z1: the m-window of each 1 <= l <= u**2; every window past l = bP is
    # empty.  A window's suffix sums are the cumsum of its reversed terms.
    # Windows of one power-of-two width W share a gather matrix whose rows
    # are the reversed windows padded with index -1, the trailing 0j of the
    # term buffer.  The padding comes after a window's last term and adds 0
    # to its total, so a row's cumsum holds the window's suffix sums bit for
    # bit.
    z1_starts, z1_lengths = [], []
    for l in range(1, int(min(uu * uu, n_hi)) + 1):
        m_lo = max(1, int(math.ceil(P * a * mu / l)))
        m_hi = int(math.floor(b * P / l))
        if m_hi >= m_lo:
            pieces.append(l * np.arange(m_lo, m_hi + 1, dtype=np.int64))
            z1_starts.append(pos)
            z1_lengths.append(m_hi - m_lo + 1)
            pos += m_hi - m_lo + 1
    mults = np.concatenate(pieces)
    lam_w = np.concatenate(weights)
    z1_groups = []  # (window numbers, gather matrix)
    index_type = np.min_scalar_type(-mults.size)  # holds -1 and every index
    lengths = np.array(z1_lengths, dtype=np.int64)
    lasts = np.array(z1_starts, dtype=np.int64) + lengths - 1
    widths = np.array([1 << (n - 1).bit_length() for n in z1_lengths],
                      dtype=np.int64)
    for width in np.unique(widths):
        rows = np.nonzero(widths == width)[0]
        cols = np.arange(width)
        gather = (lasts[rows, None] - cols).astype(index_type)
        gather[cols >= lengths[rows, None]] = -1
        z1_groups.append((rows, gather))

    # ---- U_tilde, Z1, Z2 and Z2(L): one pass over the half index box ---
    terms = np.zeros(mults.size + 1, dtype=np.complex128)  # last stays 0j
    weighted = terms[:n_weighted]
    maxima = np.empty(len(z1_lengths))
    u_tilde = z1 = z2 = 0.0
    block_sums = [0.0] * len(blocks)
    for weight, theta in weighted_index_box(J, cfg.c):
        for lo in range(0, mults.size, _PHASE_CHUNK):
            hi = min(lo + _PHASE_CHUNK, mults.size)
            np.exp(2j * np.pi * frac_multiples(theta, mults[lo:hi]),
                   out=terms[lo:hi])

        for rows, gather in z1_groups:
            suffix = np.cumsum(terms[gather], axis=1)
            maxima[rows] = np.abs(suffix).max(axis=1)
        acc = 0.0
        for m in maxima.tolist():  # in l order, as a sequential sum
            acc += m
        z1 += 2.0 * weight * acc

        np.multiply(lam_w, weighted, out=weighted)
        z = np.sum(weighted[:ns.size])
        u_tilde += 2.0 * weight * abs(z)  # |sum| is invariant under j -> -j

        acc_signed = 0j
        absolute = []
        for _, coeff, lo, hi in z2_terms:
            inner = np.sum(weighted[lo:hi])
            acc_signed += coeff * inner
            absolute.append(abs(coeff) * abs(inner))
        z2 += 2.0 * weight * abs(acc_signed)
        for i, (_, lo, hi) in enumerate(blocks):
            acc = 0.0
            for term in absolute[lo:hi]:
                acc += term
            block_sums[i] += 2.0 * weight * acc

    z2_l_best = 0.0
    z2_l_arg = max(int(uu), 1)  # the first L, kept if no block sum is positive
    for (L, _, _), val in zip(blocks, block_sums):
        if val > z2_l_best:
            z2_l_best, z2_l_arg = val, L

    # ---- bounds and rows ------------------------------------------------
    pf = float(P)
    z1_bound = log2p ** (d + 1) * (uu * uu + (pf * J) ** (1.0 - 1.0 / (k + 1.0)))
    z2_bound = (log2p ** (1.5 * d + 3.5)
                * (pf * uu ** -0.5
                   + pf ** (1.0 - 1.0 / (2 * (k + 1.0)))
                   * J ** (0.5 - 1.0 / (2 * (k + 1.0)))))
    z2_l_bound = (log2p ** (1.5 * d + 2.5)
                  * (pf ** 0.5 * z2_l_arg ** 0.5
                     + pf * z2_l_arg ** -0.5
                     + pf ** (1.0 - 1.0 / (2 * (k + 1.0)))
                     * J ** (0.5 - 1.0 / (2 * (k + 1.0)))))
    u_split_bound = log2p * z1 + z2
    u_tilde_bound = (pf ** eps
                     * (pf ** 0.8 + (pf * J) ** (1.0 - 1.0 / (k + 1.0))
                        + pf ** (1.0 - 1.0 / (2 * (k + 1.0)))
                        * J ** (0.5 - 1.0 / (2 * (k + 1.0)))))
    v_tilde_bound = log2p * (J + pf ** (1.0 - 1.0 / (k + 1.0)))
    v_a_bound = log2p * (pf / J + J + pf ** (1.0 - 1.0 / (k + 1.0)))
    t_a_bound = pf ** (1.0 - 1.0 / (3.0 * k + 2.0) + eps)

    base_params = {"J": J, "u": uu, "delta": delta, "P": P}

    def row(label, exact, bound, **extra):
        return AuditRow(label=label, exact_value=exact, bound=bound,
                        ratio=exact / bound if bound > 0 else math.inf,
                        parameters={**base_params, **extra})

    return [
        row("Z1", z1, z1_bound),
        row("Z2_L", z2_l_best, z2_l_bound, L=z2_l_arg),
        row("Z2", z2, z2_bound),
        row("U_tilde_vs_split", u_tilde, u_split_bound),
        row("U_tilde", u_tilde, u_tilde_bound),
        row("U_A_vs_U_tilde", abs(u_a), max(u_tilde, 1e-300)),
        row("V_tilde", v_tilde, v_tilde_bound),
        row("V_A", v_a, v_a_bound),
        row("T_A", abs(t_a), t_a_bound),
    ]


# ----------------------------------------------------------------------
# Distance-integral quadrature
# ----------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def min_dist_integral(a: float, b: float, big_k: float, x: float,
                      resolution: int = 2000) -> tuple[float, float]:
    """Quadrature of min(K, dist(alpha*x)^-1) over [a, b], with its bound.

    The integrand has period 1/|x| and kinks where |alpha*x - m| = 1/K;
    the quadrature splits at every breakpoint and applies Gauss panels
    sized to the requested resolution.  bound = min(K, max(1, 1/|x|)) log K.
    """
    if big_k < 2 or x == 0 or not (a < b):
        raise ContractError("need K >= 2, x != 0, a < b")
    if resolution < 10**3:
        raise ContractError("resolution must be >= 1000")
    ax = abs(x)
    # breakpoints: alpha*x at integers m, m +- 1/K, and half-integers
    breaks = {a, b}
    m_lo = math.floor(min(a * ax, b * ax)) - 1
    m_hi = math.ceil(max(a * ax, b * ax)) + 1
    for m in range(m_lo, m_hi + 1):
        for off in (-1.0 / big_k, 0.0, 0.5, 1.0 / big_k):
            alpha = (m + off) / ax
            if a < alpha < b:
                breaks.add(alpha)
    pts = sorted(breaks)
    n_panels = max(1, resolution // max(len(pts) - 1, 1) // _GL_NODES.size + 1)

    def integrand(alpha):
        y = alpha * ax
        return _min_terms(big_k, np.abs(y - np.round(y)))

    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        edges = np.linspace(lo, hi, n_panels + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            half = 0.5 * (e1 - e0)
            mid = 0.5 * (e0 + e1)
            total += half * float(np.sum(_GL_WEIGHTS * integrand(mid + half * _GL_NODES)))
    bound = min(big_k, max(1.0, 1.0 / ax)) * math.log(big_k)
    return total, bound


def average_error_check(n_grid: list[int], cfg: ApproxConfig,
                        alpha_samples: int = 24,
                        seed: int = 1) -> list[tuple[int, float, float, float]]:
    """Quadrature of the weighted error functional versus its decay target.

    Rows are (N, lhs, target, ratio) with lhs = quadrature over alpha of
    sum_{t1 t2 <= Q} (t1 t2)**eps * E-majorant and target = N mu**(d+1) /
    (log N)**2, on an N grid starting at 2 or above.
    """
    _check_grid(n_grid)
    if n_grid[0] < 2:
        raise ContractError(f"N={n_grid[0]} must be at least 2")
    alphas = kronecker_samples(cfg.A, cfg.B, alpha_samples, seed)
    rows = []
    for N in n_grid:
        vals = [sieve_error_sum(alpha, cfg, N, None) for alpha in alphas]
        lhs = (cfg.B - cfg.A) * math.fsum(vals) / len(vals)
        target = N * cfg.slack_threshold(N) ** (cfg.d + 1) / math.log(N) ** 2
        rows.append((N, lhs, target, lhs / target))
    return rows
