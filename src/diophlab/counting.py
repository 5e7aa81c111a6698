"""Counting objects: witness tuples, exact window integrals, sieve-side counts.

A witness for slope vector c, exponent window (gamma, eps) and parameter
alpha is a (d+2)-tuple (p, q_1..q_d, r) with p, r prime, q_i >= 1, and

    0 < p*alpha       - r   < p**(eps-gamma)
    0 < p*c_i*alpha   - q_i < p**(eps-gamma)   for every i.

All floor / fractional-part decisions are exact: alpha and the c_i are
128-bit fixed-point values, products c_i*alpha are carried exactly at 256
fractional bits, and thresholds p**(eps-gamma) are binary64 evaluations
treated as exact dyadic rationals.  The per-prime witness scan and the
product set first run a float64 prefilter whose stated error bound lets
it reject only the n that surely fail; the exact limb test decides the
rest, so the answers are those of the exact test alone.

The integral of the witness-count over alpha decomposes into measures of
unions of rational intervals; the exact path below computes it in integer
arithmetic with a per-prime common denominator, and a documented float64
fast path covers ranges where the exact path would be too slow.  For d = 1
both paths, and for d = 2 the fast path, sum each prime's interior (p, r)
pairs without visiting them: one sweep over the primes per ramp,
``_sweep``, in float64 or on exact integer ranks.  For every d >= 2 the
exact path skips them in the big-integer walk: one rank kernel decides
them on exact integer ranks in numpy, pair by pair.  The fast path for
d >= 3 visits every pair.  ``riemann_scan`` counts the interior pairs in
float64 with a stated error bound, for every d.  The walk serves only
each prime's boundary pairs, and the few pairs the scan's bound cannot
settle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction

import numpy as np

from .arith import ArithTable
from .errors import ContractError, RangeError, ResourceCapError
from .fixedreal import FRAC_BITS, FRAC_MASK, SCALE, CVector, FixedReal, half_box
from .fourier import (LIMB_MULTIPLIER_BOUND, _min_terms, fixed_limbs,
                      frac_multiples, limb_product, limbs_less)

#: Largest N for which witness_integral defaults to the exact integer path.
EXACT_INTEGRAL_DEFAULT_LIMIT = 20_000

#: Default cap on enumerated error-sum lattice points.
DEFAULT_SIEVE_CAP = 20_000_000

#: Most (p, r) pairs the fast path's box kernel holds at once.
PAIR_BUDGET = 1 << 14

#: Most (p, r) pairs the exact rank kernel (d >= 2) holds at once.  It keeps
#: about 75*d bytes per pair (measured 150, 240 and 310 at d = 2, 3 and 4),
#: so a chunk stays near 0.6 MiB at d = 2 and 0.9 MiB at d = 3.
EXACT_PAIR_BUDGET = 1 << 12

#: Most multipliers n one float64 prefilter of the fractional-part tests
#: holds at once; the limb test then takes only its survivors.
SCAN_CHUNK = 1 << 13


# ----------------------------------------------------------------------
# Configuration and result types
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxConfig:
    """Problem instance: slope vector, exponent margin, parameter interval.

    gamma = 1/(d*(3k+2)) is derived from the slope dimension and exponent;
    the margin must satisfy 0 < epsilon < gamma, and 0 < A < B.
    """

    c: CVector
    epsilon: float
    A: float
    B: float

    def __post_init__(self):
        if not (0.0 < self.A < self.B):
            raise ContractError("interval must satisfy 0 < A < B")
        if not (0.0 < self.epsilon < self.gamma):
            raise ContractError(
                f"margin must satisfy 0 < eps < 1/(d*(3k+2)) = {self.gamma:.6g}"
            )

    @property
    def d(self) -> int:
        return self.c.d

    @property
    def gamma(self) -> float:
        return 1.0 / (self.d * (3.0 * self.c.k + 2.0))

    @property
    def exponent(self) -> float:
        """eps - gamma, the (negative) exponent of the slack threshold."""
        return self.epsilon - self.gamma

    def slack_threshold(self, x):
        """x**(eps - gamma) by Python's binary64 ``pow``, for x > 0: at p for
        the witnesses, at mu*P for a window's eta, at N for the sieve's mu.
        numpy's ``**`` differs on some x, so arrays are mapped elementwise."""
        values = np.asarray(x, dtype=np.float64)
        if not np.all(values > 0.0):
            raise ContractError("the slack threshold needs x > 0")
        exponent = self.exponent
        thr = [v ** exponent for v in values.ravel().tolist()]
        return np.array(thr) if values.ndim else thr[0]


@dataclass(frozen=True)
class SolutionTuple:
    """One witness, with its exact slacks.

    slack0 = p*alpha - r is exactly a 128-bit fixed-point value; the
    slack_i = p*c_i*alpha - q_i live at 256 fractional bits and are stored
    truncated to 128 for reporting.  Revalidation recomputes them exactly.
    """

    p: int
    r: int
    q: tuple[int, ...]
    slack0: FixedReal
    slack: tuple[FixedReal, ...]


@dataclass(frozen=True)
class WindowParams:
    """Bookkeeping quantities of one dyadic prime window [P, mu*P).

    mu_window = (a+b)/(2a); eta = (mu*P)**(eps-gamma); delta = min(c)*eta/2;
    nu = eta/(mu*P) * min(1/2, 1/c_1, ..., 1/c_d); (a, b) = (A, B).
    """

    P: int
    a: float
    b: float
    mu_window: float
    eta: float
    delta: float
    nu: float

    @classmethod
    def from_config(cls, cfg: ApproxConfig, P: int) -> "WindowParams":
        a, b = cfg.A, cfg.B
        mu = (a + b) / (2.0 * a)
        eta = cfg.slack_threshold(mu * P)
        delta = min(cfg.c.floats()) * eta / 2.0
        nu = eta / (mu * P) * min(0.5, *(1.0 / ci for ci in cfg.c.floats()))
        return cls(P=P, a=a, b=b, mu_window=mu, eta=eta, delta=delta, nu=nu)

    @property
    def lambda_window(self) -> tuple[int, int]:
        """[ceil(P*a*mu), floor(b*P)], the n of the Lambda-weighted sums."""
        return (int(math.ceil(self.P * self.a * self.mu_window)),
                int(math.floor(self.b * self.P)))


@dataclass(frozen=True)
class WindowCounts:
    """Weighted and unweighted counts over one prime window."""

    weighted: float        # Lambda-weighted count over all n in the window
    prime_count: int       # same product evaluated over primes r only
    primes_in_window: int  # primes p in [P, mu*P)
    solutions: int         # primes_in_window * prime_count


@dataclass(frozen=True)
class SieveSideParams:
    """Upper-bound-side parameters at level N.

    mu_target = N**(eps-gamma), Q = N**eps, L = Q**3 / mu_target;
    (t1, t2) is the congruence pair under examination.
    """

    N: int
    mu_target: float
    Q: float
    L: float
    t1: int
    t2: int

    def __post_init__(self):
        if not 0.0 < self.mu_target <= 1.0:
            raise ContractError(f"mu_target={self.mu_target} must be in (0, 1]")
        if self.t1 < 1 or self.t2 < 1:
            raise ContractError("congruence moduli must be >= 1")
        if self.t1 * self.t2 > self.Q:
            raise ContractError("need t1*t2 <= Q")

    @classmethod
    def from_config(cls, cfg: ApproxConfig, N: int, t1: int = 1, t2: int = 1,
                    Q: float | None = None) -> "SieveSideParams":
        mu = cfg.slack_threshold(N)
        qq = float(N) ** cfg.epsilon if Q is None else Q
        return cls(N=N, mu_target=mu, Q=qq, L=qq**3 / mu, t1=t1, t2=t2)


@dataclass(frozen=True)
class SieveSideCounts:
    s_exact: int
    main_term: float
    e_bound: float


# ----------------------------------------------------------------------
# Witness counting
# ----------------------------------------------------------------------

def _float_prefilter(nf: np.ndarray, scale: float, thr, exact: int = 0):
    """The float64 prefilter of the test frac(n t) < thr, for an exact
    fixed-point t > 0 given correctly rounded as ``scale`` and integers 0 <
    n < 2**53 given as float64 ``nf``; ``thr`` may be an upper bound of the
    threshold.

    x = fl(n fl(t)) lies within x 2**-51 of n t (``count_witnesses`` gives
    the bound), and floor(x) and frac(x) are exact.  Where frac(x) is in
    [m, 1 - m], m = x 2**-48 + 2**-60, the error is below m / 8, so floor(n
    t) = floor(x) and frac(n t) > 0; there frac(x) >= thr + m proves frac(n
    t) >= thr.  The roundings of 1 - m and thr + m stay below 7 m / 8, as
    frac(x) near 1 needs x > 1/2 and frac(x) >= thr + m needs x > thr / 2.
    On the first ``exact`` n, fl(t) = t and n fl(t) is exact, so x = n t:
    there m = 0, every n is decided, and frac(x) = 0 rejects too, for the
    test 0 < frac(n t) < thr of ``count_witnesses``.  Returns the mask of
    the n the test does not reject, and floor(x) where it is proven and -1
    elsewhere.
    """
    x = nf * scale
    whole = np.floor(x)
    frac = x - whole
    m = x * 2.0**-48 + 2.0**-60
    m[:exact] = 0.0
    sure = (frac >= m) & (frac <= 1.0 - m)
    reject = sure & (frac >= thr + m)
    if exact:
        reject[:exact] |= frac[:exact] == 0.0
    return ~reject, np.where(sure, whole, -1.0)


def count_witnesses(alpha: FixedReal, cfg: ApproxConfig, N: int,
                    table: ArithTable,
                    collect: bool = True) -> tuple[int, list[SolutionTuple]]:
    """Count witnesses with p <= N; optionally return the tuples.

    Linear in the number of primes: r and the q_i are forced to be the
    floors of the respective products, so no inner search is needed.  Two
    stages, the second on the survivors of the first:

    1. A float64 prefilter (``_float_prefilter``), SCAN_CHUNK primes at a
       time, rejects the primes that surely fail.  x = fl(p alpha_f) and
       x_i = fl(p s_i), with alpha_f = alpha_raw / 2**128 and s_i = c_i_raw
       alpha_raw / 2**256 correctly rounded: two roundings of relative
       error u = 2**-53, with p exact, put x within x (2u + u**2) / (1 -
       u)**2 < x 2**-51 of p alpha, and x_i of p c_i alpha.  So where
       frac(x) is in [m, 1 - m], m = x 2**-48 + 2**-60, r = floor(x) and
       frac(p alpha) is within m of frac(x): the prime fails if r is not
       prime or frac(x) >= thr_up + m, where thr_up = np.power(p, eps -
       gamma) (1 + 2**-40) is above thr_p.  Likewise each x_i in turn, on
       the primes left, with floor(x_i) = 0 (q_i < 1) for r not prime.
       Where alpha_f = alpha and p times the numerator of alpha_f is at
       most 2**53, x = p alpha exactly and the alpha test needs no margin:
       an integer alpha rejects every such prime, as frac(p alpha) = 0.
    2. The limb kernel of ``fourier`` decides the survivors exactly: r
       prime first, then frac(p alpha) and each frac(p c_i alpha), q_i >=
       1 with it, against thr_p = ``cfg.slack_threshold(p)``, taken on the
       primes that pass the r test.

    Python ints are built only for the witnesses, and only when ``collect``.
    """
    if alpha.raw <= 0:
        raise ContractError("alpha must be positive")
    if N > table.limit:
        raise RangeError("N exceeds table limit")
    if N < 2:
        return 0, []
    r_max = (N * alpha.raw) >> FRAC_BITS
    if r_max > table.limit:
        raise RangeError(
            f"r up to floor(alpha*N)={r_max} exceeds table limit {table.limit}; "
            f"build the table up to ceil(alpha*N)+1"
        )
    slopes = [ci.raw * alpha.raw for ci in cfg.c.entries]  # 256 frac bits
    alpha_f, slope_fs = alpha.raw / SCALE, [s / (1 << 256) for s in slopes]
    # where alpha_f = alpha, p alpha_f is exact in float64 for p <= p_exact:
    # p times the numerator of alpha_f is then an integer up to 2**53
    p_exact = ((1 << 53) // alpha_f.as_integer_ratio()[0]
               if int(alpha_f * SCALE) == alpha.raw else 0)
    primes = table.primes_between(2, N)
    survivors = []
    for start in range(0, primes.size, SCAN_CHUNK):
        p = primes[start:start + SCAN_CHUNK]
        pf = p.astype(np.float64)
        thr_up = np.power(pf, cfg.exponent) * (1 + 2.0**-40)
        keep, r = _float_prefilter(pf, alpha_f, thr_up,
                                   np.searchsorted(p, p_exact, side="right"))
        # r = -1 where the prefilter leaves r open
        keep &= (r < 0) | table.prime_flags[np.maximum(r, 0).astype(np.int64)]
        for s in slope_fs:
            p, pf, thr_up = p[keep], pf[keep], thr_up[keep]
            keep, q = _float_prefilter(pf, s, thr_up)
            keep &= q != 0
        survivors.append(p[keep])
    survivors = np.concatenate(survivors)
    found: list[int] = []
    for start in range(0, survivors.size, SCAN_CHUNK):
        p = survivors[start:start + SCAN_CHUNK]
        prod = limb_product(alpha.raw, p, 6)
        r = prod[4] | (prod[5] << np.uint64(32))  # r <= table.limit < 2**64
        keep = np.any(prod[:4], axis=0) & (r >= 2)
        keep[keep] = table.prime_flags[r[keep]]
        p, frac = p[keep], [x[keep] for x in prod[:4]]
        thr = fixed_limbs(cfg.slack_threshold(p))
        keep = limbs_less(frac, thr)
        for s in slopes:
            p, thr = p[keep], [t[keep] for t in thr]
            # limbs 0-7 are the fraction, limbs 8 and up are q
            prod = limb_product(s, p, max(8, (s.bit_length() + 63) // 32))
            keep = (np.any(prod[:8], axis=0) & limbs_less(prod[4:8], thr)
                    & np.any(prod[8:], axis=0))
        found += p[keep].tolist()
    tuples = []
    for pr in found if collect else ():
        prod0 = pr * alpha.raw
        prods = [pr * s for s in slopes]
        tuples.append(SolutionTuple(
            p=pr, r=prod0 >> FRAC_BITS, q=tuple(x >> 256 for x in prods),
            slack0=FixedReal(prod0 & FRAC_MASK),
            slack=tuple(FixedReal((x >> FRAC_BITS) & FRAC_MASK) for x in prods),
        ))
    return len(found), tuples


def revalidate_tuple(tup: SolutionTuple, alpha: FixedReal,
                     cfg: ApproxConfig) -> bool:
    """Recheck a witness from scratch in exact rational arithmetic."""
    al = alpha.to_fraction()
    thr = Fraction(cfg.slack_threshold(tup.p))
    s0 = tup.p * al - tup.r
    if not (0 < s0 < thr):
        return False
    for ci, qi in zip(cfg.c.entries, tup.q):
        if qi < 1:
            return False
        si = tup.p * ci.to_fraction() * al - qi
        if not (0 < si < thr):
            return False
    return True


# ----------------------------------------------------------------------
# Exact integral over alpha
# ----------------------------------------------------------------------

def _check_integral(a, b, cfg: ApproxConfig, method: str = "auto"):
    """The checks of every integral entry, made before any work: a known
    method, and window ends with A <= a < b <= B that are dyadic, with
    denominators up to 2**128; then a times D = p 2**128 prod(c_raw), the
    scale of every exact path, is an integer.  Returns a, b as Fractions."""
    if method not in ("auto", "exact", "fast"):
        raise ContractError(f"unknown method {method!r}")
    a_fr, b_fr = Fraction(a), Fraction(b)
    if SCALE % a_fr.denominator or SCALE % b_fr.denominator:
        raise ContractError("window ends must be multiples of 2**-128")
    if not (Fraction(cfg.A) <= a_fr < b_fr <= Fraction(cfg.B)):
        raise ContractError("need A <= a < b <= B")
    return a_fr, b_fr


def _window_primes(a, b, cfg: ApproxConfig, N: int, table: ArithTable,
                   method: str = "auto", above: int = 0):
    """The primes above < p <= N and their slack thresholds, once
    ``_check_integral`` passes, and a table reaching every partner r <= b*N
    + 1."""
    b_fr = _check_integral(a, b, cfg, method)[1]
    need = int(math.ceil(float(b_fr) * N)) + 1
    if need > table.limit:
        raise RangeError(f"table limit {table.limit} too small; need >= {need}")
    ps = table.primes[np.searchsorted(table.primes, above, side="right"):
                      np.searchsorted(table.primes, N, side="right")]
    return ps, cfg.slack_threshold(ps)


def _exact_prime_segments(a, b, cfg: ApproxConfig, ps: np.ndarray,
                          eta: np.ndarray, primes: np.ndarray,
                          lo_idx: np.ndarray, hi_idx: np.ndarray):
    """Yield (p, D, segments) per prime p of ``ps`` (threshold: the same
    entry of ``eta``), over its partners r = primes[i], i in [lo_idx,
    hi_idx) of that entry; segments = [(lo, hi)] scaled by D.

    D = p * 2**128 * prod(craw_i); every admissible-alpha interval endpoint
    for the prime p is an exact multiple of 1/D.
    """
    craws = [ci.raw for ci in cfg.c.entries]
    pc = math.prod(craws)
    cofs = [pc // cr for cr in craws]
    base = pc << FRAC_BITS
    a_fr, b_fr = Fraction(a), Fraction(b)
    for p, eta_p, i, j in zip(ps.tolist(), eta.tolist(), lo_idx.tolist(),
                              hi_idx.tolist()):
        D = p * base
        aD = a_fr.numerator * D // a_fr.denominator
        bD = b_fr.numerator * D // b_fr.denominator
        eta_int = int(math.ldexp(eta_p, FRAC_BITS))
        eta_off = eta_int * pc
        segments = []
        for r in primes[i:j].tolist():
            lo = r * base
            hi = lo + eta_off
            if lo < aD:
                lo = aD
            if hi > bD:
                hi = bD
            if hi <= lo:
                continue
            segs = [(lo, hi)]
            for cof in cofs:
                unit = cof << (2 * FRAC_BITS)
                width = eta_int * (cof << FRAC_BITS)
                nxt = []
                for L, H in segs:
                    q_a = L // unit
                    q_b = (H - 1) // unit
                    for q in range(max(1, q_a), q_b + 1):
                        q_lo = q * unit
                        nl = L if L > q_lo else q_lo
                        nh = q_lo + width
                        if nh > H:
                            nh = H
                        if nh > nl:
                            nxt.append((nl, nh))
                segs = nxt
                if not segs:
                    break
            segments.extend(segs)
        yield p, D, segments


def _fraction_sum(terms, base: int) -> Fraction:
    """The sum of n / (p * base) over the (p, n) of ``terms`` as one
    Fraction, normalised once: neighbouring S1/P1 and S2/P2 merge to
    (S1 P2 + S2 P1)/(P1 P2), pairwise, so the products stay balanced."""
    parts = [(n, p) for p, n in terms if n]
    while len(parts) > 1:
        merged = [(n1 * p2 + n2 * p1, p1 * p2)
                  for (n1, p1), (n2, p2) in zip(parts[::2], parts[1::2])]
        parts = merged + parts[len(merged) * 2:]
    num, den = parts[0] if parts else (0, 1)
    return Fraction(num, den * base)


def _walk_sum(a, b, cfg: ApproxConfig, primes: np.ndarray, split,
              terms: dict) -> Fraction:
    """An exact integral as one Fraction: ``terms`` holds the integer sums
    of the interior pairs, per prime p, and the segment walk adds the
    boundary pairs of ``split`` = (ps, eta, lo, i0, i1, hi), the ranges of
    ``_boundary_ranges``; every sum is over the denominator p 2**128
    prod(c_raw)."""
    ps, eta, lo_idx, hi_idx = _boundary_ranges(*split)
    for p, _, segments in _exact_prime_segments(a, b, cfg, ps, eta, primes,
                                                lo_idx, hi_idx):
        terms[p] = terms.get(p, 0) + sum(h - l for l, h in segments)
    base = math.prod(ci.raw for ci in cfg.c.entries) << FRAC_BITS
    return _fraction_sum(terms.items(), base)


def _pair_ranges(primes: np.ndarray, pf: np.ndarray, a: float, b: float):
    """Index range [lo, hi) into primes of the r in [a*p - 1, b*p + 1], per p."""
    lo = np.searchsorted(primes, np.floor(a * pf - 1.0).astype(np.int64),
                         side="left")
    hi = np.searchsorted(primes, np.ceil(b * pf + 1.0).astype(np.int64),
                         side="right")
    return lo, hi


def _pair_chunks(lo_idx: np.ndarray, hi_idx: np.ndarray, pair_budget: int):
    """Yield (rows, reps, i) for chunks of at most pair_budget pairs.

    The pairs are (j, i) for the ranges j and i in [lo_idx[j], hi_idx[j]),
    in order of j then i.  A chunk holds reps[g] pairs of range rows.start
    + g (rows is a slice, reps may hold zeros), and i is their partner
    indices, so a per-range value v expands to the pairs as
    np.repeat(v[rows], reps).  A chunk may end inside one range, so memory
    stays flat in N however many r one p pairs with.
    """
    lens = hi_idx - lo_idx
    ends = np.cumsum(lens)
    begins = ends - lens
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, pair_budget):
        stop = min(start + pair_budget, total)
        first = int(np.searchsorted(ends, start, side="right"))
        last = int(np.searchsorted(ends, stop - 1, side="right")) + 1
        rows = slice(first, last)
        reps = np.minimum(ends[rows], stop) - np.maximum(begins[rows], start)
        # pair number g of range j has i = g + lo_idx[j] - begins[j]
        yield rows, reps, np.arange(start, stop) + np.repeat(
            lo_idx[rows] - begins[rows], reps)


def _box_sum(primes: np.ndarray, pf: np.ndarray, eta: np.ndarray,
             lo_idx: np.ndarray, hi_idx: np.ndarray, a: float, b: float,
             cfg: ApproxConfig) -> float:
    """Sum of the window-integral terms of the pairs (pf[j], primes[i]),
    i in [lo_idx[j], hi_idx[j]), for any d >= 1, streamed box by box;
    eta[j] is the slack threshold of pf[j], at most the one of p = 2, at
    which the candidates are counted.  It sums the boundary pairs of
    ``_band_sum`` (d <= 2), and every pair for d >= 3.

    A pair (p, r) admits alpha in [lo, hi) = [max(r/p, a), min((r + eta)/p,
    b)), empty when hi <= lo; dimension i admits the windows
    [q/(c_i p), (q + eta)/(c_i p)) with q >= 1.  As eta < 1 and
    hi - lo <= eta/p, only the n_cand_i = ``_window_count`` candidates
    q = floor(c_i p lo) + k can meet [lo, hi).  Each dimension's candidate
    windows are clipped to [lo, hi) once per chunk, and the pair's term is
    the sum over the candidate boxes (q_1..q_d) of
    max(0, min(h_1..h_d) - max(l_1..l_d)): the boxes of the first d - 1
    dimensions are walked one at a time, the last dimension's candidates
    side by side, in two reused buffers.  Memory is
    O(PAIR_BUDGET * sum n_cand_i), flat in N; the pairs are visited.
    """
    cs = cfg.c.floats()
    # the largest threshold, at p = 2
    e_max = int(math.ldexp(cfg.slack_threshold(2), FRAC_BITS))
    n_cand = [_window_count(ci.raw, e_max) for ci in cfg.c.entries]
    sums = []
    for rows, reps, i in _pair_chunks(lo_idx, hi_idx, PAIR_BUDGET):
        p_rep, eta_rep = (np.repeat(v[rows], reps) for v in (pf, eta))
        r = primes[i].astype(float)
        lo = np.maximum(r / p_rep, a)
        hi = np.minimum((r + eta_rep) / p_rep, b)
        lows, highs = [], []  # per dimension, one row per candidate q
        for ci, cand in zip(cs, n_cand):
            cp = ci * p_rep
            q = np.floor(cp * lo) + np.arange(cand, dtype=np.float64)[:, None]
            low = q / cp
            low[0, q[0] < 1.0] = np.inf  # floor-zero band: q < 1 only at k = 0
            lows.append(np.maximum(low, lo, out=low))
            q += eta_rep
            q /= cp
            highs.append(np.minimum(q, hi, out=q))
        top = np.empty_like(highs[-1])
        bottom = np.empty_like(lows[-1])
        for ks in itertools.product(*map(range, n_cand[:-1])):
            t, bo = highs[-1], lows[-1]
            for i, k in enumerate(ks):
                t = np.minimum(t, highs[i][k], out=top)
                bo = np.maximum(bo, lows[i][k], out=bottom)
            np.subtract(t, bo, out=top)
            np.maximum(top, 0.0, out=top)
            sums.append(float(top.sum()))
    return math.fsum(sums)


def _window_count(c_raw: int, e: int) -> int:
    """floor(c eta) + 2 for c = c_raw / 2**128 and eta = e / 2**128: the
    windows q = floor(c beta_0) + k, k below this count, of frac(c beta) <
    eta cover every beta in [beta_0, beta_0 + eta], as it exceeds 1 + c eta.
    The one count of the candidates, ramps and boxes of every kernel."""
    return (c_raw * e >> 2 * FRAC_BITS) + 2


def _boundary_ranges(ps: np.ndarray, eta: np.ndarray, lo: np.ndarray,
                     i0: np.ndarray, i1: np.ndarray, hi: np.ndarray):
    """The nonempty ranges [lo, i0) and [i1, hi) of the primes ps, lower
    ones first, as the (ps, eta, lo_idx, hi_idx) of a pair walk."""
    start, stop = np.concatenate((lo, i1)), np.concatenate((i0, hi))
    keep = np.nonzero(start < stop)[0]
    return ps[keep % ps.size], eta[keep % ps.size], start[keep], stop[keep]


def _d1_ramps(m_count: int):
    """The d = 1 pair term as ramps w (x - u)_+, u = m + sigma*eta -
    tau*c*eta: int64 rows w, m, sigma, tau, one column per ramp.

    For beta = p*alpha in [s, t), the measure of {frac(c beta) < eta,
    floor(c beta) >= 1} is (F(c t) - F(c s))/c minus the floor-zero band,
    where F(w) = floor(w)*eta + min(frac(w), eta).  An interior pair (r >=
    a p, r c >= eta, r + eta <= b p) has the term g(x_r)/(c p), with x_r =
    frac(c r) and g(x) = F(x + c eta) - min(x, eta); on [0, 1) that is
    -x + (x - eta)_+ + sum_m [(x - m + c eta)_+ - (x - m - eta + c eta)_+].
    Ramps with u >= 1 vanish there, so any m_count > 1 + c eta will do.
    Columns: u = 0, eta, every m - c eta, then every m + eta - c eta.  Over
    a range of r, w (x - u)_+ sums to w (S - u n), with n the count and S
    the sum of the x_r >= u: one ``_sweep`` per ramp.
    """
    ms = range(m_count)
    return np.array([(-1, 0, 0, 0), (1, 0, 1, 0)] + [(1, m, 0, 1) for m in ms]
                    + [(-1, m, 1, 1) for m in ms], dtype=np.int64).T


def _float_ranges(primes: np.ndarray, pf: np.ndarray, eta: np.ndarray,
                  a: float, b: float, cfg: ApproxConfig):
    """The interior test of the fast kernels in float64: lo <= i0 <= i1 <=
    hi per prime, as ``_exact_ranges`` gives them, and its three ends ia, ie
    and ib.  [i0, i1) holds the j with ia <= j (r >= a p), ie <= j (r >=
    eta/min c_i) and j < ib (r + eta <= b p).  The thresholds stay floats,
    as eta/c overflows int64 for tiny c."""
    lo, hi = _pair_ranges(primes, pf, a, b)
    ia = np.searchsorted(primes, a * pf, side="left")
    ie = np.searchsorted(primes, eta / min(cfg.c.floats()), side="left")
    ib = np.searchsorted(primes, b * pf - eta, side="right")
    i0 = np.minimum(np.maximum(ia, ie), hi)
    return lo, i0, np.maximum(ib, i0), hi, (ia, ie, ib)


def _below(t: np.ndarray, x):
    """[start, stop) of the i with t[i] < x, per key x, for a monotone t."""
    if t[0] <= t[-1]:
        return 0, np.searchsorted(t, x, side="left")
    return t.size - np.searchsorted(t[::-1], x, side="left"), t.size


def _interior_runs(ends, n: int):
    """Per r = primes[j], j < n, the runs (start, stop) of the primes on
    which each interior condition holds, from the ends (ia, ie, ib) of
    ``_float_ranges`` or ``_exact_ranges``: ia <= j, ie <= j and j < ib.
    With eta nonincreasing in p, ia and ib rise and ie falls with p, so
    each is a prefix or a suffix of the primes."""
    ia, ie, ib = ends
    j = np.arange(n)
    return [_below(ia, j + 1), _below(ie, j + 1), _below(-ib, -j)]


def _meet(runs, n: int, size: int):
    """[first, last) per key j < n: the primes, of range(size), in every
    run (start, stop) of ``runs``; an end may be one number for all j."""
    starts, stops = zip(*runs)
    return (reduce(np.maximum, starts, np.zeros(n, np.int64)),
            reduce(np.minimum, stops, np.full(n, size)))


def _sweep(first: np.ndarray, last: np.ndarray, t: np.ndarray, keys,
           values: np.ndarray):
    """Per prime p, of range(t.size): the count of the keys j with first[j]
    <= p < last[j] and t[p] < keys[j], and the sums of each row of
    ``values`` (one column per j) over them.

    t must be monotone in p.  Then t[p] < keys[j] holds on a prefix or a
    suffix of the primes, so each key counts for one run of primes, found
    by one searchsorted, and difference arrays over p, added up, give every
    prime's count and sums: O(n log t.size) time, O(n + t.size) memory.
    The sums keep the dtype of ``values``: np.add.at adds in order, so in
    int64 they are exact while every partial sum stays below 2**63, as for
    32-bit digits over fewer than 2**31 keys.
    """
    size = t.size
    start, stop = _below(t, keys)
    start, stop = np.maximum(first, start), np.minimum(last, stop)
    keep = start < stop
    start, stop = start[keep], stop[keep]
    count = (np.bincount(start, minlength=size + 1)
             - np.bincount(stop, minlength=size + 1))
    sums = np.zeros((values.shape[0], size + 1), values.dtype)
    for row, v in zip(sums, values[:, keep]):
        np.add.at(row, start, v)
        np.subtract.at(row, stop, v)
    return np.cumsum(count)[:size], np.cumsum(sums, axis=1)[:, :size]


def _band_sum(primes: np.ndarray, pf: np.ndarray, eta: np.ndarray,
              a: float, b: float, cfg: ApproxConfig) -> float:
    """The integral for d <= 2 over p in pf (thresholds eta, nonincreasing
    in p), interior pairs unvisited.

    An interior pair adds h(x)/p, x_i = frac(c_i r): the measure of the t
    in [0, eta) with frac(x_i + c_i t) < eta for every i.  With the ramps
    F(y) = sum_m [(y - m)_+ - (y - m - eta)_+] of ``_d1_ramps``, c_1 h =
    F(x_1 + c_1 eta) - F(x_1) at d = 1.  At d = 2, dimension 2's windows
    (k - x_2 + [0, eta))/c_2, expanded over their ends, give

      c_1 h = A(x_2) F(x_1 + c_1 eta) - [x_2 < eta] F(x_1) + sum over k
              and o in {0, eta} of (-1 at o = 0, +1 at o = eta) [k + o -
              c_2 eta < x_2 < k + o] F(w + (c_1/c_2)(k + o)),

    with w = x_1 - (c_1/c_2) x_2, A(x_2) = sum_k ([x_2 > k - c_2 eta] -
    [x_2 > k + eta - c_2 eta]) and k < floor(c_2 eta) + 2.  So c_1 h is a
    signed sum of J families [v < x_2 < V] (y - u)_+, y in {x_1, w}, with
    v, V and u affine in eta; those no prime meets are dropped, equal ones
    merged.  Keys x_i = 1.0 (``frac_multiples`` rounds up near 1) are read
    as 0, since h is 1-periodic.

    As eta falls with p, the runs of ``_interior_runs`` and every v, V and
    u are monotone in p, so each condition on a pair holds on a prefix or a
    suffix of the primes, and one ``_sweep`` per family and ramp gives each
    prime's S - u n: O(J pi(bN) log pi(N)) time and O(pi(bN)) memory.  The
    keys are taken in order of x_1, so every search of x_1 runs over sorted
    keys; the counts do not depend on that order, and the sums only in
    rounding.  The boundary pairs go to ``_box_sum``.
    """
    cs = cfg.c.floats()
    lo, i0, i1, hi, ends = _float_ranges(primes, pf, eta, a, b, cfg)
    edge = _box_sum(primes, *_boundary_ranges(pf, eta, lo, i0, i1, hi), a, b,
                    cfg)

    e_max = int(math.ldexp(eta.max(), FRAC_BITS))
    n_k = [_window_count(c.raw, e_max) for c in cfg.c.entries]
    n, size = int(i1.max()), pf.size
    xs = [frac_multiples(c, primes[:n]) % 1.0 for c in cfg.c.entries]
    order = np.argsort(xs[0], kind="stable")
    xs = [x[order] for x in xs]
    # (weight, y, s, v, V) is weight [v < x_2 < V] F(y + s), y = 0 for x_1
    # and 1 for w; a pair (e0, e1) stands for e0 + e1 eta, None for no bound
    if cfg.d == 1:
        ys = xs
        raw = [(1, 0, (0.0, cs[0]), None, None),
               (-1, 0, (0.0, 0.0), None, None)]
    else:
        rho = cs[0] / cs[1]
        ys = (xs[0], xs[0] - rho * xs[1])
        raw = [(-1, 0, (0.0, 0.0), None, (0.0, 1.0))]
        for k, sig in itertools.product(range(n_k[1]), (0, 1)):
            v = (k, sig - cs[1])
            raw += [(1 - 2 * sig, 0, (0.0, cs[0]), v, None),
                    (2 * sig - 1, 1, (rho * k, rho * sig), v, (k, sig))]
    families = {}
    for weight, y, s, v, V in raw:
        if v is not None:
            t = v[0] + v[1] * eta
            if t.min() >= 1.0:
                continue
            v = v if t.max() >= 0.0 else None
        if V is not None:
            t = V[0] + V[1] * eta
            if t.max() <= 0.0:
                continue
            V = V if t.min() < 1.0 else None
        group = families.setdefault((v, V), {})
        for m, tau in itertools.product(range(n_k[0]), (0, 1)):
            u = (m - s[0], tau - s[1])
            if (u[0] + u[1] * eta).min() < 1.0:  # y < 1, so u >= 1 adds 0
                group[y, u] = group.get((y, u), 0) + weight * (1 - 2 * tau)

    interior = [tuple(v[order] if np.ndim(v) else v for v in run)
                for run in _interior_runs(ends, n)]
    inner = np.zeros(size)
    for (v, V), group in families.items():
        runs = list(interior)
        if v is not None:
            runs.append(_below(v[0] + v[1] * eta, xs[1]))
        if V is not None:
            runs.append(_below(-V[0] - V[1] * eta, -xs[1]))
        first, last = _meet(runs, n, size)
        for (y, u), weight in group.items():
            if not weight:
                continue
            u_p = u[0] + u[1] * eta
            count, sums = _sweep(first, last, u_p, ys[y], ys[y][None])
            inner += weight * (sums[0] - u_p * count)
    return math.fsum(np.append(inner / (cs[0] * pf), edge))


def _exact_ranges(a, b, cfg: ApproxConfig, ps: np.ndarray, eta: np.ndarray,
                  primes: np.ndarray):
    """The interior test of the exact kernels, in integers.

    Returns e = [floor(eta_p 2**128)] over the primes p of ps, then lo <=
    i0 <= i1 <= hi per prime and the three ends ia, ie and ib, as
    ``_float_ranges`` gives them.  [lo, hi) is the prime's partner range of
    ``_pair_ranges`` and [i0, i1) holds its interior pairs, the j with ia
    <= j (r >= a p), ie <= j (r c_i >= eta for every i, read as r c_raw_i
    >= e) and j < ib (r + eta <= b p, read as r 2**128 + e <= b p 2**128).
    An interior pair's alpha window [r/p, (r + eta)/p) lies in [a, b] and
    clear of every floor-zero band q_i < 1.
    """
    a_fr, b_fr = Fraction(a), Fraction(b)
    lo, hi = _pair_ranges(primes, ps, float(a_fr), float(b_fr))
    c_min = min(ci.raw for ci in cfg.c.entries)
    p_list = ps.tolist()
    e = [int(math.ldexp(v, FRAC_BITS)) for v in eta.tolist()]
    beyond = int(primes[-1]) + 1  # past every prime: no interior pair
    ia = np.searchsorted(primes, [-(-a_fr.numerator * p // a_fr.denominator)
                                  for p in p_list], side="left")
    ie = np.searchsorted(primes, [min(-(-ej // c_min), beyond) for ej in e],
                         side="left")
    ib = np.searchsorted(primes, [
        ((b_fr.numerator * p << FRAC_BITS) - b_fr.denominator * ej)
        // (b_fr.denominator << FRAC_BITS) for p, ej in zip(p_list, e)],
        side="right")
    i0 = np.minimum(np.maximum(ia, ie), hi)
    return e, lo, i0, np.maximum(ib, i0), hi, (ia, ie, ib)


def _digits(values, count: int) -> np.ndarray:
    """Ints 0 <= v < 2**(32 count) as int64 rows of their 32-bit digits,
    least significant first."""
    buf = b"".join(v.to_bytes(4 * count, "little") for v in values)
    return np.frombuffer(buf, dtype="<u4").reshape(-1, count).astype(np.int64)


def _words(digits: np.ndarray) -> list[np.ndarray]:
    """Nonnegative numbers given as an even count of 32-bit digits along
    the last axis, in int64 and with carries pending, as uint64 columns of
    two digits each, most significant first.  The carries are settled in
    ``digits`` itself."""
    for k in range(digits.shape[-1] - 1):
        digits[..., k + 1] += digits[..., k] >> 32
        digits[..., k] &= 0xFFFFFFFF
    w = digits.view(np.uint64)
    return [w[..., k] | w[..., k + 1] << np.uint64(32)
            for k in range(w.shape[-1] - 2, -1, -2)]


def _rank(keys: list[np.ndarray], thresholds: list[np.ndarray]):
    """Exact ranks of big integers given as ``_words`` columns: each key's
    place among the keys (ties consecutive), and for each threshold T the
    count t of keys below T, so that key >= T iff rank >= t, both as int32.
    One lexsort over keys and thresholds, thresholds first on ties."""
    n = keys[0].size
    is_key = np.zeros(n + thresholds[0].size, dtype=bool)
    is_key[:n] = True
    order = np.lexsort([is_key] + [np.concatenate(pair) for pair in
                                   zip(keys[::-1], thresholds[::-1])])
    below = np.empty(is_key.size, dtype=np.int32)
    below[order] = np.cumsum(is_key[order]) - is_key[order]
    return below[:n], below[n:]


def _d1_exact_sum(a, b, cfg: ApproxConfig, ps: np.ndarray, eta: np.ndarray,
                  primes: np.ndarray) -> Fraction:
    """The exact d=1 integral over p in ps (thresholds eta, nonincreasing
    in p): the ramps of ``_d1_ramps`` in integer units, interior pairs
    unvisited.

    With D = p c_raw 2**128, alpha D = X = beta c_raw 2**128 for beta =
    p alpha, and frac(c beta) < eta, floor(c beta) >= 1 read X mod U < W,
    X >= U, where U = 2**256, W = e 2**128 and e = floor(eta 2**128): the
    ramp u = m + sigma eta - tau c eta of ``_d1_ramps`` sits at m U + sigma
    W - tau E, E = e c_raw, over y = x_r 2**128, x_r = frac(c r) 2**128 from
    ``limb_product``.  The interior pairs are those of ``_exact_ranges``.
    y >= u iff x_r >= T = ceil(u / 2**128) = m 2**128 + sigma e - tau
    floor(e c_raw / 2**128), and x_r >= T iff rank_r >= t, where t counts
    the keys below T.  T is a column shift of one base per prime and
    (sigma, tau), so ``_rank`` places only the bases' low 128 bits among
    the keys.  Each ramp's T is monotone in e, which falls with p:
    e - floor(e c_raw / 2**128) rises with e for c < 1 and falls for c >=
    1, and the other ramps hold e or floor(e c_raw / 2**128) alone.  So t
    is monotone in p, and one ``_sweep`` per ramp on the ranks, the integer
    twin of ``_band_sum``'s, gives each prime's count and sums of the
    32-bit limbs of x_r, added with np.add.at in int64: exact below 2**31
    keys.  The boundary pairs go to the segment walk.
    """
    c_raw = cfg.c.entries[0].raw
    e, lo, i0, i1, hi, ends = _exact_ranges(a, b, cfg, ps, eta, primes)

    n, size = int(i1.max()), ps.size
    limbs = np.array(limb_product(c_raw, primes[:n], 4), dtype=np.int64)
    ramps = _d1_ramps(_window_count(c_raw, max(e)))
    cols = ramps.T.tolist()  # (w, m, sigma, tau) of each ramp
    # T = m 2**128 + B, with one base B = h 2**128 + l, 0 <= l < 2**128, per
    # prime and (sigma, tau): t counts the x_r below T, so it is 0 for m + h
    # < 0, all n for m + h > 0, and the place of l among the keys for m + h
    # = 0 (then T = l, and l = 0 has place 0)
    kinds = sorted({(s, tau) for _, _, s, tau in cols})
    bases = [s * ej - tau * ec for ej in e for ec in [ej * c_raw >> FRAC_BITS]
             for s, tau in kinds]
    rank, places = _rank(_words(limbs.T),
                         _words(_digits([v & FRAC_MASK for v in bases], 4)))
    high = dict(zip(kinds, np.array([v >> FRAC_BITS for v in bases])
                    .reshape(size, -1).T))
    places = dict(zip(kinds, places.reshape(size, -1).T))

    first, last = _meet(_interior_runs(ends, n), n, size)
    # the sum of w (y - u)_+ is 2**128 sum w S - sum w u n, and sum w u n =
    # U sum w m n + W sum w sigma n - E sum w tau n
    x_sums = np.zeros((4, size), dtype=np.int64)
    u_sums = np.zeros((3, size), dtype=np.int64)  # m, sigma, tau
    for w, m, s, tau in cols:
        shift = m + high[s, tau]
        t_q = np.where(shift < 0, 0, np.where(shift > 0, n, places[s, tau]))
        count, sums = _sweep(first, last, t_q, rank + 1, limbs)
        x_sums += w * sums
        u_sums += np.outer([w * m, w * s, w * tau], count)
    terms = {}
    for p, ej, l0, l1, l2, l3, wm, ws, wt in zip(ps.tolist(), e,
                                                  *x_sums.tolist(),
                                                  *u_sums.tolist()):
        x_sum = l0 + (l1 << 32) + (l2 << 64) + (l3 << 96)
        terms[p] = (((x_sum - (wm << FRAC_BITS) - ej * ws) << FRAC_BITS)
                    + ej * c_raw * wt)
    return _walk_sum(a, b, cfg, primes, (ps, eta, lo, i0, i1, hi), terms)


def _boxes(craws: list[int], e: int) -> list[tuple[int, ...]]:
    """The boxes (k_1..k_d) whose windows can meet, for the raw slopes c_i
    and the largest e = eta 2**128 of a call: 0 <= k_i < floor(c_i eta) + 2
    and, for every i < j, c_j (k_i - 1)/c_i - eta < k_j < c_j (k_i + eta)/c_i
    + 1.

    Dimension i's window k_i is (k_i - f_i + [0, eta))/c_i in units of
    1/p, with f_i = frac(c_i r) in [0, 1), and the pair's window is [0,
    eta).  Two dimension windows meet only if (k_i - f_i)/c_i < (k_j - f_j +
    eta)/c_j and (k_j - f_j)/c_j < (k_i - f_i + eta)/c_i; as 0 <= f < 1,
    that puts k_j strictly inside the band of k_i.  A window meets [0, eta)
    only for 0 <= k_i < c_i eta + 1.  A smaller eta only narrows the bands.
    Each k_j is drawn from the bands of the k_i before it, so the product of
    the ranges is never built.
    """
    boxes = [()]
    for cj in craws:  # with u = c_i B: ceil(x / u) + 1 = 1 - x // -u
        boxes = [box + (kj,) for box in boxes for kj in range(max([0] + [
            (cj * ((ki - 1) << FRAC_BITS) - ci * e) // (ci << FRAC_BITS) + 1
            for ci, ki in zip(craws, box)]), min([_window_count(cj, e)] + [
                1 - cj * ((ki << FRAC_BITS) + e) // -(ci << FRAC_BITS)
                for ci, ki in zip(craws, box)]))]
    return boxes


def _rank_exact_sum(a, b, cfg: ApproxConfig, ps: np.ndarray, eta: np.ndarray,
                    primes: np.ndarray) -> Fraction:
    """The exact integral for any d >= 2 over p in ps (thresholds eta):
    interior pairs decided by exact integer ranks in numpy, boundary pairs
    by the walk.

    Units are the walk's, B = 2**128 and D = p C B for the product C of the
    raw slopes c_i.  An interior pair (p, r) of ``_exact_ranges`` admits the
    offsets y in [0, U_0 = e C) from r C B, and dimension i the windows
    [L_i, U_i) = A_i (k_i B + [0, e) - x_i), where x_i = frac(c_i r) B and
    A_i = (C / c_i) B.  Its term is the sum over the boxes k of ``_boxes``
    of (least upper end - greatest lower end)_+, the lower ends being 0 and
    the L_i, the upper ones U_0 and the U_i.  Tied ends are equal, so the
    choice among them does not change the term.  Every decision compares
    ranks:

    - an end against a constant one: U_i <= U_0 iff x_i >= k_i B + e - E_i,
      L_i <= U_0 iff x_i >= k_i B - E_i, U_i > 0 iff x_i < k_i B + e, with
      E_i = floor(e c_i / B), and L_i > 0 iff k_i >= 1.  As 0 <= x_i < B,
      x_i >= k B + o iff k < kappa = -floor(o / B) + [x_i >= o mod B]: one
      ranked threshold per prime and offset o, one small kappa per pair.
    - the ends of dimensions i < j compare z = c_j x_i - c_i x_j with tau =
      (c_j k_i - c_i k_j) B + e v: L_j >= L_i iff z >= tau at v = 0, U_i <=
      U_j at v = c_j - c_i, L_i <= U_j at v = -c_i, and L_j < U_i iff z <
      tau at v = c_j.  Each (i, j) ranks its thresholds in bulk, once per
      distinct (k_i, k_j) of the boxes.

    The least upper end is U_0 unless some U_i <= U_0, and then the least
    U_i, ties to the lower i; the greatest lower end is 0 unless some k_i >=
    1, and then the greatest of those L_i, ties to the higher i.  Per pair,
    small counters keep the boxes of positive term: n of them, n_i with
    least upper end U_i (n_0 = n - sum n_i with U_0), l_i with greatest
    lower end L_i, and kd_i, the k_i of the U_i boxes less those of the L_i
    boxes.  The prime's term is then e C n_0 + sum_i A_i (B kd_i + e n_i +
    sum_r (l_i - n_i) x_i), the last sum on the 32-bit digits of x_i in
    int64, reduced per prime: 1 + 6 d rows.  Pairs come EXACT_PAIR_BUDGET at
    a time, and only the rank tables grow with the primes.
    """
    craws = [ci.raw for ci in cfg.c.entries]
    d, pc = len(craws), math.prod(craws)
    e, lo, i0, i1, hi, _ = _exact_ranges(a, b, cfg, ps, eta, primes)
    rs = primes[:int(i1.max())].tolist()
    xs = [[r * c & FRAC_MASK for r in rs] for c in craws]
    digits = [_digits(x, 4) for x in xs]
    # per dimension, one row per offset o: -floor(o / B), then the ranks of
    # x_i, then the rank threshold of o mod B
    kappa = []
    for c, xd in zip(craws, digits):
        cut = [ej * c >> FRAC_BITS for ej in e]
        offsets = [ej - E for ej, E in zip(e, cut)] + [-E for E in cut] + e
        rank, t = _rank(_words(xd), _words(_digits(
            [o & FRAC_MASK for o in offsets], 4)))
        k0 = np.array([-(o >> FRAC_BITS) for o in offsets], dtype=np.int32)
        kappa.append((k0.reshape(3, -1), rank, t.reshape(3, -1)))
    boxes = _boxes(craws, max(e))
    # per (i, j), the ranks of z; per (i, j, k_i, k_j), the ranks of its
    # thresholds: one at v = 0, one per prime at each other v
    rz, tau = {}, {}
    for i, j in itertools.combinations(range(d), 2):
        ci, cj = craws[i], craws[j]
        kps = sorted({(box[i], box[j]) for box in boxes})
        # offsets that make every key and threshold positive, below 2 (box_off
        # + e_off): box_off >= |c_j k_i - c_i k_j| B and e_off > |e v|
        box_off = max(cj * ki + ci * kj for ki, kj in kps) << FRAC_BITS
        e_off = (ci + cj) << FRAC_BITS
        count = 2 * -(-(2 * (box_off + e_off)).bit_length() // 64)
        keys = _words(_digits([cj * x1 - ci * x2 + box_off + e_off
                               for x1, x2 in zip(xs[i], xs[j])], count))
        bases = _digits([((cj * ki - ci * kj) << FRAC_BITS) + box_off
                         for ki, kj in kps], count)[:, None]
        t = []  # one lexsort per v; v = 0 has one threshold per (k_i, k_j)
        for shifts in ([e_off], *([ej * v + e_off for ej in e]
                                  for v in (cj - ci, -ci, cj))):
            rz[i, j], tv = _rank(keys, [w.ravel() for w in _words(
                bases + _digits(shifts, count))])
            t.append(tv.reshape(len(kps), -1))
        tau.update(zip(((i, j, *kp) for kp in kps), zip(*t)))

    sums = np.zeros((1 + 6 * d, len(e)), dtype=np.int64)
    for rows, reps, idx in _pair_chunks(i0, i1, EXACT_PAIR_BUDGET):
        ka, kb, kc = zip(*(np.repeat(k0[:, rows], reps, axis=1) + (
            rank[idx] >= np.repeat(t[:, rows], reps, axis=1))
            for k0, rank, t in kappa))
        z = {ij: rank[idx] for ij, rank in rz.items()}

        # z >= tau of (i, j) and the box, at v = 0, c_j - c_i, -c_i, c_j for
        # v = 0, 1, 2, 3
        def above(box, i, j, v):
            tv = tau[i, j, box[i], box[j]]
            return z[i, j] >= (np.repeat(tv[v][rows], reps) if v
                               else tv[0][0])

        cnt = np.zeros((1 + 3 * d, idx.size), dtype=np.int64)
        for box in boxes:  # the counters n, n_i, kd_i and l_i of the pairs
            le = {ij: above(box, *ij, 1) for ij in rz}  # U_i <= U_j
            ups = [reduce(np.logical_and, [  # the least upper end is U_i
                le[i, j] if i < j else ~le[j, i] for j in range(d) if j != i],
                ka[i] > box[i]) for i in range(d)]
            up0 = ~reduce(np.logical_or, ups)
            lows = {}  # L_i > 0 is the greatest lower end, and below U
            for i in (i for i in range(d) if box[i]):
                meet = reduce(np.logical_or, [ups[j] & (
                    above(box, i, j, 2) if i < j else ~above(box, j, i, 3))
                    for j in range(d) if j != i],
                    ups[i] | (up0 & (kb[i] > box[i])))
                lows[i] = reduce(np.logical_and, [
                    ~above(box, i, j, 0) if i < j else above(box, j, i, 0)
                    for j in range(d) if box[j] and j != i], meet)
            pos = reduce(np.logical_or, lows.values()) if lows else reduce(
                np.logical_or, [u & (k <= 0) for u, k in zip(ups, kc)], up0)
            cnt[0] += pos
            for i in range(d):
                up = pos & ups[i]
                cnt[1 + i] += up
                if box[i]:  # else L_i is never the greatest
                    cnt[1 + d + i] += box[i] * up - box[i] * lows[i]
                    cnt[1 + 2 * d + i] += lows[i]
        # reduce per prime; a prime with no pairs here has no group
        held = np.flatnonzero(reps)
        starts = (np.cumsum(reps) - reps)[held]
        held += rows.start
        sums[:1 + 2 * d, held] += np.add.reduceat(cnt[:1 + 2 * d], starts,
                                                  axis=1)
        for i in range(d):
            m = cnt[1 + 2 * d + i] - cnt[1 + i]
            for k, limb in enumerate(digits[i].T):
                sums[1 + 2 * d + 4 * i + k, held] += np.add.reduceat(
                    limb[idx] * m, starts)
    n, ns, kd, x = np.split(sums.astype(object), [1, 1 + d, 1 + 2 * d])
    x = (x.reshape(d, 4, -1) << np.array([[0], [32], [64], [96]])).sum(axis=1)
    e_obj = np.array(e, dtype=object)
    areas = np.array([[pc // c << FRAC_BITS] for c in craws], dtype=object)
    total = e_obj * pc * (n[0] - ns.sum(axis=0)) + (
        areas * ((kd << FRAC_BITS) + e_obj * ns + x)).sum(axis=0)
    return _walk_sum(a, b, cfg, primes, (ps, eta, lo, i0, i1, hi),
                     dict(zip(ps.tolist(), total.tolist())))


def _integral_method(method: str, N: int) -> str:
    """The method an integral with p <= N runs: 'auto' is exact up to
    EXACT_INTEGRAL_DEFAULT_LIMIT and fast above it."""
    if method != "auto":
        return method
    return "exact" if N <= EXACT_INTEGRAL_DEFAULT_LIMIT else "fast"


def witness_integral(a, b, cfg: ApproxConfig, N: int, table: ArithTable,
                     method: str = "auto", *, above: int = 0):
    """Integral over alpha in [a, b] of the witness count with above < p <=
    N.

    method='exact' returns the integral as an exact Fraction (integer
    interval arithmetic, normalised once); method='fast' returns a float64
    evaluation with relative error well below 1e-6; 'auto' switches on N,
    not on ``above``.  Every prime's term is independent of N and of the
    other primes, so the integrals of disjoint blocks (N_0, N_1], (N_1,
    N_2], ... of one method add up to the integral with p <= N_k:
    ``harness.lower_bound_check`` takes each prime's term once per grid
    this way.  ``above`` is an int with 0 <= above <= N (0 for any N, the
    default), checked before any work.
    For d = 1 neither path, and for d = 2 the fast path, visits the
    interior pairs: ``_d1_exact_sum`` (d = 1, 128-bit integers) and
    ``_band_sum`` (d <= 2, float64) sum them by ``_sweep``, one pass over
    the primes per ramp, and visit only the nonempty boundary ranges.  For
    every d >= 2 the exact path,
    ``_rank_exact_sum``, visits the interior pairs in numpy on exact
    integer ranks, with no big-integer step per pair, and walks only the
    boundary ranges.  The fast path sums every pair with ``_box_sum`` for d
    >= 3.  Every path reads the thresholds of the primes above < p <= N,
    taken once.  A sweep needs them monotone in p, so the exact kernels and
    ``_band_sum`` take the primes in the maximal runs on which eta_p is
    nonincreasing, one call per run: one run on every tested exponent, as
    ``slack_threshold`` falls in p there.  ``_check_integral`` checks the
    method and the window ends before any work.
    """
    if (isinstance(above, bool) or not isinstance(above, int)
            or not 0 <= above <= max(N, 0)):
        raise ContractError(f"above={above!r} must be an int in [0, N={N}]")
    ps, eta = _window_primes(a, b, cfg, N, table, method, above)
    method = _integral_method(method, N)
    if not ps.size:  # no prime in (above, N]: every kernel below needs one
        return Fraction(0) if method == "exact" else 0.0
    primes = table.primes
    a_f, b_f = float(Fraction(a)), float(Fraction(b))
    cuts = [0, *np.flatnonzero(np.diff(eta) > 0.0) + 1, ps.size]
    runs = [slice(i, j) for i, j in zip(cuts, cuts[1:])]
    if method == "exact":
        kernel = _d1_exact_sum if cfg.d == 1 else _rank_exact_sum
        return sum((kernel(a, b, cfg, ps[s], eta[s], primes) for s in runs),
                   Fraction(0))
    pf = ps.astype(np.float64)
    if cfg.d <= 2:
        return math.fsum(_band_sum(primes, pf[s], eta[s], a_f, b_f, cfg)
                         for s in runs)
    return _box_sum(primes, pf, eta, *_pair_ranges(primes, pf, a_f, b_f), a_f,
                    b_f, cfg)


def _scan_interior(a, b, cfg: ApproxConfig, ps: np.ndarray, eta: np.ndarray,
                   primes: np.ndarray, i0: np.ndarray, i1: np.ndarray,
                   e_max: int, points: int, delta: float):
    """The grid hits and segments of the interior pairs [i0, i1) of each
    prime of ps (thresholds eta) in float64, and the pairs it leaves to the
    walk, as rows of ps and partner indices.

    An interior pair (p, r) admits y = beta - r in [0, eta), beta = p
    alpha, and dimension i the windows [k_i - x_i, k_i - x_i + eta)/c_i,
    x_i = frac(c_i r) from the exact 128-bit product; each box k of
    ``_boxes`` is the segment [max(0, lows), min(eta, highs)).  Grid point g
    sits at t = (r - a p + y) points / ((b - a) p) = g, so a segment from
    t_L to t_H holds ceil(t_H) - floor(t_L) - 1 points when neither end is
    an integer.  The float t are within delta/5 of the exact ones (see
    ``riemann_scan``); a pair with a t within delta of an integer, or a
    segment within 2 delta of zero length, is left to the walk.  Pairs come
    EXACT_PAIR_BUDGET at a time; with delta < 1/4, points < 2**46, so a
    chunk's count fits int64.
    """
    craws = [ci.raw for ci in cfg.c.entries]
    rs = primes[:int(i1.max())].tolist()
    xs = [np.array([(r * c & FRAC_MASK) / SCALE for r in rs]) for c in craws]
    ks = [np.arange(_window_count(c, e_max), dtype=np.float64)[:, None]
          for c in craws]
    # the boxes by all but their last k, which runs over one range
    groups = [(head, [k[-1] for k in box]) for head, box in itertools.groupby(
        _boxes(craws, e_max), key=lambda k: k[:-1])]
    pf = ps.astype(np.float64)
    a_f = float(Fraction(a))
    scale = points / (float(Fraction(b) - Fraction(a)) * pf)
    hits = intervals = 0
    walk_rows, walk_idx = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for rows, reps, idx in _pair_chunks(i0, i1, EXACT_PAIR_BUDGET):
        p, eta_r, s = (np.repeat(v[rows], reps) for v in (pf, eta, scale))
        off = primes[idx] - a_f * p
        lows, highs = [], []
        for c, x, k in zip(cfg.c.floats(), xs, ks):
            low = k - x[idx]
            highs.append((low + eta_r) / c)
            lows.append(np.divide(low, c, out=low))
        count = np.zeros(idx.size)
        segs = np.zeros(idx.size, dtype=np.int64)
        walk = np.zeros(idx.size, dtype=bool)
        for head, last in groups:
            y_lo = reduce(np.maximum, [lows[i][k] for i, k in enumerate(head)],
                          0.0)
            y_hi = reduce(np.minimum, [highs[i][k]
                                       for i, k in enumerate(head)], eta_r)
            tail = slice(last[0], last[-1] + 1)
            t_lo = (np.maximum(lows[-1][tail], y_lo) + off) * s
            t_hi = (np.minimum(highs[-1][tail], y_hi) + off) * s
            length = t_hi - t_lo
            live = length > 2.0 * delta
            near = ((np.abs(t_lo - np.rint(t_lo)) <= delta)
                    | (np.abs(t_hi - np.rint(t_hi)) <= delta))
            walk |= np.any((length > -2.0 * delta) & (~live | near), axis=0)
            count += np.where(live, np.ceil(t_hi) - np.floor(t_lo) - 1.0,
                              0.0).sum(axis=0)
            segs += live.sum(axis=0)
        keep = ~walk
        hits += int(count.astype(np.int64)[keep].sum())
        intervals += int(segs[keep].sum())
        walk_rows.append(np.repeat(np.arange(rows.start, rows.stop),
                                   reps)[walk])
        walk_idx.append(idx[walk])
    return hits, intervals, np.concatenate(walk_rows), np.concatenate(walk_idx)


def riemann_scan(a, b, cfg: ApproxConfig, N: int, table: ArithTable,
                 points: int) -> tuple[Fraction, int]:
    """Left-rule Riemann sum of the witness count on an exact dyadic grid.

    Grid: alpha_g = a + g*(b-a)/points, 0 <= g < points.  Returns the sum
    times the spacing (an exact Fraction) and the number of positive-length
    intervals scanned; |riemann - exact integral| <= spacing * intervals.
    A segment [L, H) of admissible alpha counts the grid points strictly
    inside it, L < alpha_g < H: open at both ends.  Needs an int points >=
    1, checked before any work, and the window of ``witness_integral``.

    ``_scan_interior`` counts the interior pairs of ``_exact_ranges`` in
    float64, with the error bound delta = 2**-48 points (1 + (a + b +
    1)/(b - a)) in grid steps.  With u = 2**-53, in units of 1/p, rounding
    costs r - a p at most u (2.01 a p + (b - a) p) and a window end, held
    in [0, eta], at most u x_i/c_i + 8u <= u (r + 8); with the last steps
    up to t <= points, every t is within u points (6 + (2.01 a + b + 4)/(b
    - a)) <= delta/5 of the exact one.  A pair with a t within delta of an
    integer or a segment within 2 delta of zero length is settled by the
    segment walk, in integers, as is every boundary pair, and every pair
    when delta >= 1/4.
    """
    if isinstance(points, bool) or not isinstance(points, int) or points < 1:
        raise ContractError(f"points={points!r} must be an int >= 1")
    ps, eta = _window_primes(a, b, cfg, N, table)
    if not ps.size:
        return Fraction(0), 0
    primes = table.primes
    a_fr, b_fr = Fraction(a), Fraction(b)
    width = b_fr - a_fr
    e, lo, i0, i1, hi, _ = _exact_ranges(a, b, cfg, ps, eta, primes)
    delta = math.inf if points >= 1 << 47 else math.ldexp(points, -48) * (
        1.0 + float(a_fr + b_fr + 1) / float(width))
    if not delta < 0.25:
        i0 = i1 = hi
    hits, intervals, rows, idx = _scan_interior(a, b, cfg, ps, eta, primes, i0,
                                                i1, max(e), points, delta)
    walk = [np.concatenate(v) for v in zip(
        _boundary_ranges(ps, eta, lo, i0, i1, hi),
        (ps[rows], eta[rows], idx, idx + 1))]
    for _, D, segments in _exact_prime_segments(a, b, cfg, *walk[:2], primes,
                                                *walk[2:]):
        aD = a_fr.numerator * D // a_fr.denominator
        # g > (L - aD) * points / (width * D);  g < (H - aD) * points / (...)
        den = width.numerator * D
        scale = points * width.denominator
        intervals += len(segments)
        for L, H in segments:
            g_min = max((L - aD) * scale // den + 1, 0)
            g_max = min(((H - aD) * scale - 1) // den, points - 1)
            hits += max(g_max - g_min + 1, 0)
    return hits * width / points, intervals


# ----------------------------------------------------------------------
# Growth normalizer
# ----------------------------------------------------------------------

def _growth(cfg: ApproxConfig, N: int, cap: float) -> float:
    """The growth normalizer with the slope minimum capped at ``cap``."""
    if N < 2:
        raise ContractError("need N >= 2")
    d = cfg.d
    m = min(*cfg.c.floats(), cap)
    return ((cfg.A / cfg.B) ** 2 * m ** (d - 1) / 2 ** (d + 1)
            * float(N) ** (1.0 - (d + 1) * (cfg.gamma - cfg.epsilon))
            / math.log(N) ** 2)


def target_growth(cfg: ApproxConfig, N: int) -> float:
    """The definition-level growth normalizer for the witness integral:
    (A/B)**2 * min(c_1..c_d, d)**(d-1) / 2**(d+1)
            * N**(1-(d+1)(gamma-eps)) / (log N)**2.
    """
    return _growth(cfg, N, float(cfg.d))


def target_growth_alt(cfg: ApproxConfig, N: int) -> float:
    """Variant normalizer with min(c_1..c_d, 2); equal to the main one
    for d = 2, reported alongside it as a diagnostic."""
    return _growth(cfg, N, 2.0)


# ----------------------------------------------------------------------
# Window counts
# ----------------------------------------------------------------------

def window_counts(wp: WindowParams, cfg: ApproxConfig,
                  table: ArithTable) -> WindowCounts:
    """Lambda-weighted and prime counts of lattice hits over one window.

    weighted = sum over n in wp.lambda_window of Lambda(n) * prod_i #(integers
    in [c_i n, c_i n + delta)); prime_count is the same product summed over
    primes r only; solutions = primes_in_window * prime_count.  One pass over
    the Lambda support serves both sums: every prime of the range is in it.
    """
    if wp.delta <= 0:
        raise ContractError("delta must be positive")
    D, g = divmod(int(math.ldexp(wp.delta, FRAC_BITS)), SCALE)  # delta = D + g
    P = wp.P
    n_lo, n_hi = wp.lambda_window
    if n_hi > table.limit:
        raise RangeError("window end exceeds table limit")
    # the primes p of the window [P, mu*P), mu*P itself excluded
    r_hi = math.ceil(wp.mu_window * P) - 1
    if r_hi > table.limit:
        raise RangeError("prime window end mu*P exceeds table limit")
    if n_lo > n_hi:
        return WindowCounts(0.0, 0, 0, 0)

    lam = table.von_mangoldt_range(n_lo, n_hi)
    ns = np.nonzero(lam)[0] + n_lo
    # a factor is at most D + 1: int64 holds the sums unless delta is huge
    dtype = np.int64 if ns.size * (D + 1) ** cfg.d < 1 << 63 else object
    prod = np.ones(ns.size, dtype=dtype)
    for ci in cfg.c.entries:
        # for f = frac(c n): ceil(c n + delta) - ceil(c n)
        # = D + [f + g > 0] + [f + g > 1] - [f > 0], which is D when g = 0
        if not g:
            prod *= D
            continue
        f = limb_product(ci.raw, ns, 4)
        # f + g > 1 iff 2**128 - g < f, in units of 2**-128
        over = limbs_less(limb_product(SCALE - g, np.ones(1, np.int64), 4), f)
        prod *= (D + 1) + (over.astype(np.int64) - np.any(f, axis=0)).astype(dtype)
    weighted = math.fsum((prod.astype(np.float64) * lam[ns - n_lo]).tolist())
    s_count = int(prod[table.prime_flags[ns]].sum())

    r_count = int(table.primes_between(P, r_hi).size) if r_hi >= P else 0
    return WindowCounts(weighted=weighted, prime_count=s_count,
                        primes_in_window=r_count,
                        solutions=r_count * s_count)


# ----------------------------------------------------------------------
# Product set and sieve-side counts
# ----------------------------------------------------------------------

def product_set(alpha: FixedReal, cfg: ApproxConfig, N: int,
                mu: float | None = None) -> list[tuple[int, int]]:
    """Members n <= N passing all d+1 fractional-part tests, with n*floor(n*alpha).

    mu defaults to the slack threshold at N; an explicit value supports
    degenerate diagnostics (mu >= 1 admits every n).  ``_float_prefilter``
    rejects the n whose tests surely fail; the limb test decides the rest.
    """
    if alpha.raw <= 0:
        raise ContractError("alpha must be positive")
    mu_val = cfg.slack_threshold(N) if mu is None else mu
    if not mu_val > 0:
        raise ContractError("mu must be positive")
    if N >= LIMB_MULTIPLIER_BOUND:
        raise ResourceCapError(f"N={N} exceeds the limb scan bound 2**32")
    a = alpha.raw
    # alpha at 128 fraction bits, then each slope c_i alpha at 256
    tests = [(a, 4)] + [(ci.raw * a, 8) for ci in cfg.c.entries]
    scales = [t / (1 << 32 * count) for t, count in tests]
    thr = fixed_limbs(np.array([mu_val])) if mu_val < 1.0 else None
    out = []
    for start in range(1, N + 1, SCAN_CHUNK):
        n = np.arange(start, min(start + SCAN_CHUNK, N + 1), dtype=np.int64)
        if thr is not None:  # mu >= 1 admits every n
            for s in scales:
                n = n[_float_prefilter(n.astype(np.float64), s, mu_val)[0]]
            for t, count in tests:
                # frac < mu reads the top four limbs of the fraction
                n = n[limbs_less(limb_product(t, n, count)[-4:], thr)]
        out.extend((m, m * ((m * a) >> FRAC_BITS)) for m in n.tolist())
    return out


def sieve_side_counts(alpha: FixedReal, sp: SieveSideParams, cfg: ApproxConfig,
                      cap: int = DEFAULT_SIEVE_CAP) -> SieveSideCounts:
    """Exact congruence-window count, its main term, and the error majorant.

    s_exact counts 1 <= n <= N/t1 with frac(n t1 alpha / t2) < mu/t2 and
    frac(n t1 c_i alpha) < mu for all i.  As mu <= 1, these are the members
    m = n t1 of ``product_set`` with t2 | floor(m alpha), so s_exact filters
    the product set by (t1, t2).  main_term = N mu**(d+1)/(t1 t2).  e_bound
    evaluates the min-form majorant of the exponential-sum error over the
    punctured box max|m| <= L, whose size is checked against ``cap`` first.
    """
    l_int = _box_half_width(sp.L, cfg.d, cap)
    return _sieve_side(alpha, sp, cfg, l_int,
                       product_set(alpha, cfg, sp.N, sp.mu_target))


def sieve_side_rows(alpha: FixedReal, cfg: ApproxConfig, N: int, Q: float,
                    cap: int = DEFAULT_SIEVE_CAP):
    """Yield (t1, t2, ``sieve_side_counts``) for every congruence pair t1 t2
    <= Q, in the order of ``congruence_pairs``.  The box cap check and the
    product set do not depend on the pair, so each is taken once, at the
    first pair."""
    members = None
    for t1, t2 in congruence_pairs(Q):
        sp = SieveSideParams.from_config(cfg, N, t1, t2, Q=Q)
        if members is None:
            l_int = _box_half_width(sp.L, cfg.d, cap)
            members = product_set(alpha, cfg, N, sp.mu_target)
        yield t1, t2, _sieve_side(alpha, sp, cfg, l_int, members)


def _sieve_side(alpha: FixedReal, sp: SieveSideParams, cfg: ApproxConfig,
                l_int: int, members: list[tuple[int, int]]) -> SieveSideCounts:
    """``sieve_side_counts`` from the product set at (sp.N, sp.mu_target)."""
    t1, t2, mu = sp.t1, sp.t2, sp.mu_target
    s_exact = sum(1 for m, v in members if m % t1 == 0 and v // m % t2 == 0)
    main = sp.N * mu ** (cfg.d + 1) / (t1 * t2)
    e_bound = _sieve_error_majorant(alpha, sp, cfg,
                                    _half_box_phases(cfg, l_int)(t2))
    return SieveSideCounts(s_exact=s_exact, main_term=main, e_bound=e_bound)


def congruence_pairs(Q: float):
    """The congruence pairs (t1, t2) with t1*t2 <= Q, in lexicographic order."""
    t1 = 1
    while t1 <= Q:
        t2 = 1
        while t1 * t2 <= Q:
            yield t1, t2
            t2 += 1
        t1 += 1


def _box_half_width(L: float, d: int, cap: int) -> int:
    """floor(L), once the full box of that radius in m_0..m_d fits ``cap``."""
    l_int = int(math.floor(L))
    count = (2 * l_int + 1) ** (d + 1)
    if count > cap:
        raise ResourceCapError(f"error-sum box of {count} points "
                               f"exceeds cap {cap}")
    return l_int


def _half_box_phases(cfg: ApproxConfig, l_int: int):
    """The function of t2 giving m_0/t2 + sum m_i c_i over the half box of
    max|m_i| <= l_int, in ``half_box`` order; the box is built once, for
    every t2.  The slope sums m_i c_i over (m_1..m_d) are one matrix product
    (an outer sum of the axes rounds otherwise, by 6e-12 rel. at d = 2, N =
    2**18); m_0/t2 is then added per call."""
    axes = np.meshgrid(*[np.arange(-l_int, l_int + 1, dtype=np.float64)] * cfg.d,
                       indexing="ij")
    slope = np.stack([m.ravel() for m in axes], axis=-1) @ np.array(cfg.c.floats())
    half = slope[slope.size // 2 + 1:]
    m0 = np.arange(1, l_int + 1, dtype=np.float64)[:, None]
    return lambda t2: np.concatenate((half, (m0 / t2 + slope).ravel()))


def _sieve_error_majorant(alpha: FixedReal, sp: SieveSideParams,
                          cfg: ApproxConfig, inner: np.ndarray) -> float:
    """The min-form majorant over a punctured box, as twice the sum over
    its half box, whose phases over alpha t1 are ``inner``, from
    ``_half_box_phases`` at t2."""
    t1, t2 = sp.t1, sp.t2
    val = alpha.to_float() * t1 * inner
    dist = np.abs(val - np.round(val))
    terms = _min_terms(sp.N / t1, dist)
    return float(sp.mu_target ** (cfg.d + 1) / t2 * 2.0 * np.sum(terms))


def sieve_side_error_raw(alpha: FixedReal, sp: SieveSideParams,
                         cfg: ApproxConfig,
                         cap: int = DEFAULT_SIEVE_CAP) -> float:
    """Error term via the raw sums S = sum_{n <= K} e(n theta), K = N // t1,
    for cross-checks; always bounded by the min-form majorant.

    Closed form: |S| = |sin(pi K theta)| / |sin(pi theta)|, and K at integer
    theta.  theta = w / M exactly, M = t2 * 2**256 and w = alpha_raw * t1 *
    (m_0 * 2**128 + t2 * sum m_i c_i_raw); w and K*w are reduced mod M and
    their distances to the nearest multiple of M taken in integers, so only
    those distances over M and the sines run in binary64.  |S(-m)| = |S(m)|,
    so the sum runs over the majorant's half box and cap, doubled.
    """
    l_int = _box_half_width(sp.L, cfg.d, cap)
    t1, t2 = sp.t1, sp.t2
    K = sp.N // t1
    modulus = t2 << 256
    a = alpha.raw * t1
    coeffs = [a << FRAC_BITS] + [a * t2 * ci.raw for ci in cfg.c.entries]

    def sine(v):  # sin(pi ||v / modulus||), the distance taken in integers
        return math.sin(math.pi * (min(v, modulus - v) / modulus))

    total = 0.0
    for m in half_box([range(-l_int, l_int + 1)] * (cfg.d + 1)):
        w = sum(mi * ci for mi, ci in zip(m, coeffs)) % modulus
        total += sine(K * w % modulus) / sine(w) if w else K
    return float(sp.mu_target ** (cfg.d + 1) / t2 * 2.0 * total)


def sieve_error_sum(alpha: FixedReal, cfg: ApproxConfig, N: int,
                    table: ArithTable, Q: float | None = None,
                    cap: int = DEFAULT_SIEVE_CAP) -> float:
    """Weighted error functional over all congruence pairs t1*t2 <= Q:
    sum (t1 t2)**eps * (N mu**d / L + e_bound(t1, t2)).

    L = Q**3 / mu does not depend on the pair: one cap check and one half
    box serve all.  The pairs are taken by t2, so that each t2's phases are
    built once and held alone; the terms are then added in pair order.
    ``table`` is not read; it stays a positional parameter for the callers
    that pass one.
    """
    mu = cfg.slack_threshold(N)
    qq = float(N) ** cfg.epsilon if Q is None else Q
    l_int = _box_half_width(qq ** 3 / mu, cfg.d, cap)
    pairs = list(congruence_pairs(qq))
    phases = _half_box_phases(cfg, l_int)
    terms = {}
    for t2 in sorted({t2 for _, t2 in pairs}):
        inner = phases(t2)
        for t1 in (t1 for t1, u2 in pairs if u2 == t2):
            sp = SieveSideParams.from_config(cfg, N, t1, t2, Q=qq)
            e_term = _sieve_error_majorant(alpha, sp, cfg, inner)
            terms[t1, t2] = ((t1 * t2) ** cfg.epsilon
                             * (N * sp.mu_target ** cfg.d / sp.L + e_term))
    total = 0.0
    for pair in pairs:
        total += terms[pair]
    return total
