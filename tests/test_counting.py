import dataclasses
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diophlab import counting
from diophlab.arith import build_arith_table
from diophlab.counting import (
    ApproxConfig,
    SieveSideParams,
    WindowParams,
    _pair_chunks,
    _pair_ranges,
    congruence_pairs,
    count_witnesses,
    product_set,
    revalidate_tuple,
    riemann_scan,
    sieve_error_sum,
    sieve_side_counts,
    sieve_side_error_raw,
    sieve_side_rows,
    target_growth,
    target_growth_alt,
    window_counts,
    witness_integral,
)
from diophlab.errors import ContractError, RangeError, ResourceCapError
from diophlab.fixedreal import SCALE, CVector, FixedReal, constant, half_box
from diophlab.fourier import fixed_limbs, limb_product, limbs_less
from diophlab.harness import kronecker_samples


def _trial_prime(m: int) -> bool:
    if m < 2:
        return False
    i = 2
    while i * i <= m:
        if m % i == 0:
            return False
        i += 1
    return True


def reference_d1_band_sum(primes, ps, a, b, cfg, pair_budget=4_000_000):
    """The pair-by-pair d=1 fast kernel the sweep kernel replaced: the
    closed form evaluated on every (p, r) pair, in bounded chunks."""
    chunks = []
    c = cfg.c.floats()[0]
    pf = ps.astype(np.float64)
    eta = cfg.slack_threshold(pf)
    for rows, reps, i in _pair_chunks(*_pair_ranges(primes, pf, a, b),
                                      pair_budget):
        p_rep, eta_rep = (np.repeat(v[rows], reps) for v in (pf, eta))
        r = primes[i].astype(float)
        s = np.maximum(r, a * p_rep)
        t = np.minimum(r + eta_rep, b * p_rep)
        np.maximum(t, s, out=t)  # clamp empty intervals to zero length
        cs = c * s
        ct = c * t
        fs = np.floor(cs)
        ft = np.floor(ct)
        contrib = (ft - fs) * eta_rep
        contrib += np.minimum(ct - ft, eta_rep)
        contrib -= np.minimum(cs - fs, eta_rep)
        contrib /= c
        # remove the floor(c*beta) == 0 band [0, eta/c)
        band = np.minimum(t, eta_rep / c)
        band -= s
        np.clip(band, 0.0, None, out=band)
        contrib -= band
        contrib /= p_rep
        chunks.append(float(np.sum(contrib)))
    return math.fsum(chunks)


def reference_exact_walk(a, b, cfg, N, table):
    """The exact integral over every (p, r) pair of the segment walk, one
    Fraction added per prime."""
    primes = table.primes
    ps = primes[primes <= N]
    ranges = _pair_ranges(primes, ps, float(a), float(b))
    total = Fraction(0)
    for _, D, segments in counting._exact_prime_segments(
            a, b, cfg, ps, cfg.slack_threshold(ps), primes, *ranges):
        total += Fraction(sum(h - l for l, h in segments), D)
    return total


def reference_riemann_scan(a, b, cfg, N, table, points):
    """The Riemann scan that walks every (p, r) pair with the segment walk
    and counts each segment's grid points in integers."""
    ps, eta = counting._window_primes(a, b, cfg, N, table)
    a_fr = Fraction(a)
    width = Fraction(b) - a_fr
    hits = intervals = 0
    ranges = _pair_ranges(table.primes, ps, float(a_fr), float(Fraction(b)))
    for _, D, segments in counting._exact_prime_segments(a, b, cfg, ps, eta,
                                                        table.primes, *ranges):
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


def spy_walk(monkeypatch):
    """Record the (p, r) pairs the segment walk visits, in a list."""
    walk = counting._exact_prime_segments
    walked = []

    def spy(a, b, cfg, ps, eta, primes, lo_idx, hi_idx):
        assert np.all(lo_idx < hi_idx)  # only nonempty ranges
        for p, i, j in zip(ps.tolist(), lo_idx.tolist(), hi_idx.tolist()):
            walked.extend((p, r) for r in primes[i:j].tolist())
        return walk(a, b, cfg, ps, eta, primes, lo_idx, hi_idx)

    monkeypatch.setattr(counting, "_exact_prime_segments", spy)
    return walked


def near_tie_config(p, r, side, eps=0.02):
    """A d = 2 instance on [1, 2] whose interior pair (p, r) has dimension
    1's lower end L_1 within e = eta_p 2**128 of dimension 0's upper end U_0.

    With raw slopes c_i and B = 2**128, dimension 0's window q_0 = floor(c_0
    r) ends at beta = (q_0 B + e)/c_0 and dimension 1's window q_1 starts at
    q_1 B/c_1; they differ by -delta/(c_0 c_1) for delta = c_1 (q_0 B + e) -
    c_0 q_1 B.  c_0 is sqrt(2), and q_1 and c_1 are the first that give 0 <
    side delta < e: a gap after U_0 for side -1, an overlap for side +1, both
    of 2**-128 eta_p/c_1 or less in units of 1/p.  Returns the config and
    delta / e."""
    big = 1 << 128
    c0 = constant("sqrt2")
    probe = ApproxConfig(c=CVector((c0, c0), 2.0), epsilon=eps, A=1.0, B=2.0)
    e = int(math.ldexp(probe.slack_threshold(p), 128))
    m = (c0.raw * r // big) * big + e
    for q1 in range(r, 4 * r):
        rest = c0.raw * q1 * big % m
        delta = -rest if side < 0 else m - rest
        if 0 < side * delta < e:
            break
    else:
        raise AssertionError("no near tie for this pair")
    c1 = (c0.raw * q1 * big + delta) // m
    assert c1 * m - c0.raw * q1 * big == delta
    c = CVector((c0, FixedReal(c1)), 2.0)
    return ApproxConfig(c=c, epsilon=eps, A=1.0, B=2.0), delta / e


def reference_fast_general(primes, ps, a, b, cfg, pair_budget=1 << 14):
    """The d >= 2 fast kernel the streamed one replaced: each dimension
    splits every interval piece over its q candidates, taken from the
    piece's lower end, and the pieces of all dimensions are kept at once."""
    cs = cfg.c.floats()
    eta_max = cfg.slack_threshold(2)
    n_cand = [int(math.floor(ci * eta_max)) + 2 for ci in cs]
    chunks = []
    pf = ps.astype(np.float64)
    eta = cfg.slack_threshold(pf)
    for rows, reps, i in _pair_chunks(*_pair_ranges(primes, pf, a, b),
                                      pair_budget):
        p_rep, eta_rep = (np.repeat(v[rows], reps) for v in (pf, eta))
        r = primes[i].astype(float)
        lo = np.maximum(r / p_rep, a)
        hi = np.minimum((r + eta_rep) / p_rep, b)
        live = hi > lo
        if not live.any():
            continue
        lo, hi = lo[live], hi[live]
        p_live = p_rep[live]
        eta_live = eta_rep[live]
        pieces_lo = lo[None, :]
        pieces_hi = hi[None, :]
        for ci, cand in zip(cs, n_cand):
            q0 = np.floor(ci * p_live * pieces_lo)
            new_lo, new_hi = [], []
            for k in range(cand):
                q = q0 + k
                ok = q >= 1.0
                l_k = np.maximum(pieces_lo, q / (ci * p_live))
                h_k = np.minimum(pieces_hi, (q + eta_live) / (ci * p_live))
                l_k = np.where(ok, l_k, np.inf)
                new_lo.append(l_k)
                new_hi.append(h_k)
            pieces_lo = np.concatenate(new_lo, axis=0)
            pieces_hi = np.concatenate(new_hi, axis=0)
        overlap = np.clip(pieces_hi - pieces_lo, 0.0, None)
        chunks.append(float(np.sum(overlap)))
    return math.fsum(chunks)


def _reference_punctured_box(sp, d_plus_1):
    """The full box max|m_i| <= L without its centre, as int64 rows."""
    l_int = int(math.floor(sp.L))
    axes = [np.arange(-l_int, l_int + 1)] * d_plus_1
    grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                    axis=-1)
    return grid[np.any(grid != 0, axis=1)]


def reference_majorant(alpha, sp, cfg):
    """The min-form error majorant summed over the full punctured box."""
    grid = _reference_punctured_box(sp, cfg.d + 1).astype(np.float64)
    inner = grid[:, 0] / sp.t2 + grid[:, 1:] @ np.array(cfg.c.floats())
    val = alpha.to_float() * sp.t1 * inner
    dist = np.abs(val - np.round(val))
    with np.errstate(divide="ignore"):
        terms = np.minimum(sp.N / sp.t1, 1.0 / dist)
    return float(sp.mu_target ** (cfg.d + 1) / sp.t2 * np.sum(terms))


def reference_error_raw(alpha, sp, cfg):
    """The raw exponential sums |S(m)| over the full punctured box."""
    n_max = sp.N // sp.t1
    modulus = sp.t2 << 256
    total = 0.0
    for m in _reference_punctured_box(sp, cfg.d + 1).tolist():
        inner = (m[0] << 128) + sp.t2 * sum(
            mi * ci.raw for mi, ci in zip(m[1:], cfg.c.entries))
        w = alpha.raw * sp.t1 * inner
        acc = 0j
        for n in range(1, n_max + 1):
            ph = (n * w) % modulus
            acc += complex(math.cos(2 * math.pi * ph / modulus),
                           math.sin(2 * math.pi * ph / modulus))
        total += abs(acc)
    return float(sp.mu_target ** (cfg.d + 1) / sp.t2 * total)


def reference_sieve_error_sum(alpha, cfg, N, Q=None):
    """The error functional with a full punctured box built per pair."""
    qq = float(N) ** cfg.epsilon if Q is None else Q
    total = 0.0
    t1 = 1
    while t1 <= qq:
        t2 = 1
        while t1 * t2 <= qq:
            sp = SieveSideParams.from_config(cfg, N, t1, t2, Q=qq)
            total += ((t1 * t2) ** cfg.epsilon
                      * (N * sp.mu_target ** cfg.d / sp.L
                         + reference_majorant(alpha, sp, cfg)))
            t2 += 1
        t1 += 1
    return total


#: Slopes for the d >= 2 kernel comparison: the named constants, a dyadic
#: below 1 (q < 1 band at small p) and one above 2 (n_cand >= 4).
GENERAL_SLOPES = ("phi", "sqrt2", "sqrt3", 0.1875, 3.25)


def _slope(name):
    if isinstance(name, FixedReal):
        return name
    return constant(name) if isinstance(name, str) else FixedReal.from_float(name)


#: 1 - 2**-128: frac(c r) = 1 - r 2**-128 rounds to 1.0 in float64.
ROUNDS_TO_ONE = FixedReal((1 << 128) - 1)

#: Slopes for the d=2 kernel comparison: the named constants, a dyadic
#: below 1 (eta/c above a p at small p), one with c*eta > 2, 2**-10, where
#: most pairs are boundary pairs, and one whose fractions round to 1.0.
D2_SLOPES = ("phi", "sqrt2", "sqrt3", 0.1875, 3.25, 2.0**-10, ROUNDS_TO_ONE)


def box_reference(primes, ps, a, b, cfg):
    """The fast integral by ``_box_sum`` over every pair, interior or not."""
    pf = ps.astype(np.float64)
    return counting._box_sum(primes, pf, cfg.slack_threshold(pf),
                             *_pair_ranges(primes, pf, a, b), a, b, cfg)


#: Slopes for the d=1 kernel comparison: the named constants, a dyadic
#: below 1/2 (floor-zero band, r < eta/c), one with c*eta > 2, where the
#: breakpoints of g_p wrap around [0, 1) more than once, and 2**-10, where
#: most pairs are boundary pairs.
D1_SLOPES = ("phi", "sqrt2", "sqrt3", 0.1875, 7.25, 2.0**-10)


@st.composite
def dyadic_windows(draw):
    j = draw(st.integers(0, 4))
    lo = draw(st.integers(0, 2**j - 1))
    hi = draw(st.integers(lo + 1, 2**j))
    return 1.0 + lo / 2**j, 1.0 + hi / 2**j


NAMED_SLOPES = st.sampled_from(("phi", "sqrt2", "sqrt3"))

#: Windows in [1, 5/2] whose ends are r/p for primes r, p: 1 = p/p for
#: every p, 3/2 and 5/2 for p = 2.  Pairs sit on their lower end exactly.
PRIME_END_WINDOWS = st.sampled_from(((1.0, 1.5), (1.0, 2.5), (1.5, 2.5),
                                     (1.0, 2.0), (1.5, 2.0)))


def dyadic_slopes():
    """Random dyadic slopes m / 2**e in [2**-8, 255]."""
    return st.builds(lambda m, e: m / 2**e, st.integers(1, 255),
                     st.integers(0, 8))


@st.composite
def random_configs(draw):
    """d in {1, 2}, named and dyadic slopes, k >= d, eps in (0, gamma), on
    [A, B] = [1, 2]."""
    d = draw(st.integers(1, 2))
    slopes = draw(st.lists(st.one_of(NAMED_SLOPES, dyadic_slopes()),
                           min_size=d, max_size=d))
    c = CVector(tuple(_slope(s) for s in slopes), d + draw(st.floats(0.0, 2.0)))
    gamma = 1.0 / (d * (3.0 * c.k + 2.0))
    eps_share = draw(st.floats(1e-3, 1.0, exclude_max=True))
    return ApproxConfig(c=c, epsilon=eps_share * gamma, A=1.0, B=2.0)


def naive_count(alpha, cfg, n_max):
    """Quadruple-loop oracle in exact rational arithmetic, fully independent
    of the table and of the floor shortcut."""
    al = alpha.to_fraction()
    cs = [ci.to_fraction() for ci in cfg.c.entries]
    count = 0
    witnesses = []
    for p in range(2, n_max + 1):
        if not _trial_prime(p):
            continue
        thr = Fraction(float(p) ** cfg.exponent)
        pa = p * al
        hit_r = None
        for r in range(1, int(pa) + 2):
            if 0 < pa - r < thr and _trial_prime(r):
                hit_r = r
                break
        if hit_r is None:
            continue
        qs = []
        for cfr in cs:
            pca = p * cfr * al
            hit_q = None
            for q in range(1, int(pca) + 2):
                if 0 < pca - q < thr:
                    hit_q = q
                    break
            if hit_q is None:
                qs = None
                break
            qs.append(hit_q)
        if qs is not None:
            count += 1
            witnesses.append((p, hit_r, tuple(qs)))
    return count, witnesses


def reference_count_witnesses(alpha, cfg, N, table):
    """The witnesses' p by the limb test of every prime <= N, with no
    float64 prefilter."""
    slopes = [ci.raw * alpha.raw for ci in cfg.c.entries]
    found = []
    primes = table.primes_between(2, N)
    for start in range(0, primes.size, 1 << 11):
        p = primes[start:start + (1 << 11)]
        prod = limb_product(alpha.raw, p, 6)
        r = prod[4] | (prod[5] << np.uint64(32))
        keep = np.any(prod[:4], axis=0) & (r >= 2)
        keep[keep] = table.prime_flags[r[keep]]
        p, frac = p[keep], [x[keep] for x in prod[:4]]
        thr = fixed_limbs(cfg.slack_threshold(p))
        keep = limbs_less(frac, thr)
        for s in slopes:
            p, thr = p[keep], [t[keep] for t in thr]
            prod = limb_product(s, p, max(8, (s.bit_length() + 63) // 32))
            keep = (np.any(prod[:8], axis=0) & limbs_less(prod[4:8], thr)
                    & np.any(prod[8:], axis=0))
        found += p[keep].tolist()
    return found


def reference_product_set(alpha, cfg, N, mu):
    """The product set for mu < 1 by the limb test of every n <= N, with no
    float64 prefilter."""
    a = alpha.raw
    thr = fixed_limbs(np.array([mu]))
    n = np.arange(1, N + 1, dtype=np.int64)
    for t, count in [(a, 4)] + [(ci.raw * a, 8) for ci in cfg.c.entries]:
        n = n[limbs_less(limb_product(t, n, count)[-4:], thr)]
    return [(m, m * ((m * a) >> 128)) for m in n.tolist()]


#: 2**-101: the prefilter boundary tests place products this far from 0, 1
#: and the threshold, on either side.
NEAR = Fraction(1, 2**101)


def placed(n, targets):
    """alpha and slopes c_i with n alpha and each n c_i alpha within 2**-110
    of ``targets`` (exact Fractions, alpha's first)."""
    alpha = FixedReal(round(targets[0] * SCALE / n))
    cs = tuple(FixedReal(round(t * 2**256 / (n * alpha.raw)))
               for t in targets[1:])
    products = [n * alpha.to_fraction()] + [n * c.to_fraction()
                                             * alpha.to_fraction() for c in cs]
    assert all(abs(x - t) < Fraction(1, 2**110)
               for x, t in zip(products, targets))
    return alpha, cs


def boundary_cases(d, thr):
    """(j, offset): coordinate j (0 for alpha, i for c_i) placed 2**-101 from
    0, 1 and ``thr``, on both sides, and every other in the middle of
    (0, thr)."""
    for j in range(d + 1):
        for t in (0, 1, thr):
            for side in (1, -1):
                yield j, t + side * NEAR


class TestConfig:
    def test_gamma_formula(self, golden_cfg, two_dim_cfg):
        assert golden_cfg.gamma == pytest.approx(1.0 / 5.0)
        assert two_dim_cfg.gamma == pytest.approx(1.0 / 16.0)

    def test_epsilon_window(self):
        with pytest.raises(ContractError):
            ApproxConfig(c=CVector((constant("phi"),), 1.0), epsilon=0.2,
                         A=1.0, B=2.0)
        with pytest.raises(ContractError):
            ApproxConfig(c=CVector((constant("phi"),), 1.0), epsilon=0.1,
                         A=2.0, B=1.0)


    def test_slack_threshold_is_python_pow(self, golden_cfg, two_dim_cfg,
                                           table_small):
        ps = table_small.primes_between(2, 2**16)
        for cfg in (golden_cfg, two_dim_cfg):
            want = [float(p) ** cfg.exponent for p in ps.tolist()]
            thr = cfg.slack_threshold(ps)
            assert thr.dtype == np.float64 and thr.tolist() == want
            scalar = cfg.slack_threshold(int(ps[-1]))
            assert type(scalar) is float and scalar == want[-1]
        assert golden_cfg.slack_threshold(np.array([], dtype=np.int64)).size == 0

    @pytest.mark.parametrize("x", [0, -1.0, math.nan, np.array([2.0, 0.0])])
    def test_slack_threshold_rejects_non_positive(self, golden_cfg, x):
        with pytest.raises(ContractError, match="x > 0"):
            golden_cfg.slack_threshold(x)


class TestCountWitnesses:
    def test_no_primes(self, golden_cfg, table_small):
        count, tuples = count_witnesses(constant("sqrt3"), golden_cfg, 1,
                                        table_small)
        assert count == 0 and tuples == []

    def test_matches_naive_oracle(self, table_small):
        rng = random.Random(2024)
        names = ["sqrt2", "sqrt3", "phi", "e", "pi"]
        for trial in range(6):
            d = rng.choice([1, 1, 2])
            k = d + rng.random()
            cs = tuple(constant(rng.choice(names)) * 1 for _ in range(d))
            cfg = ApproxConfig(c=CVector(cs, k),
                               epsilon=0.3 / (d * (3 * k + 2)),
                               A=0.5, B=2.5)
            alpha = FixedReal.from_float(0.5 + 2.0 * rng.random())
            n_max = rng.randint(200, 900)
            got, tuples = count_witnesses(alpha, cfg, n_max, table_small)
            want, wit = naive_count(alpha, cfg, n_max)
            assert got == want
            assert [(t.p, t.r, t.q) for t in tuples] == wit

    # alpha = 1 makes frac(p alpha) = 0, 1.25 and 0.75 are dyadic, a slope
    # of 4 makes frac(p c alpha) = 0 at alpha = 1.25, and a slope of 2**-20
    # keeps q = floor(p c alpha) at 0 for every p <= 2000
    @pytest.mark.parametrize("alpha,slopes", [
        (1.0, ("sqrt2",)),
        (1.25, ("phi",)),
        (1.25, (4.0,)),
        ("sqrt3", (2.0**-20,)),
        ("sqrt3", ("sqrt2", 2.0**-20)),
        (0.75, ("sqrt2", 1.5)),
    ])
    def test_edge_cases_match_naive_oracle(self, alpha, slopes, table_small):
        d = len(slopes)
        k = d + 0.5
        cfg = ApproxConfig(c=CVector(tuple(map(_slope, slopes)), k),
                           epsilon=0.3 / (d * (3 * k + 2)), A=0.5, B=2.5)
        n_max = random.Random(repr((alpha, slopes))).randint(600, 1200)
        got, tuples = count_witnesses(_slope(alpha), cfg, n_max, table_small)
        want, wit = naive_count(_slope(alpha), cfg, n_max)
        assert got == want
        assert [(t.p, t.r, t.q) for t in tuples] == wit

    @settings(max_examples=20)
    @given(cfg=random_configs(),
           alpha=st.one_of(
               st.integers(1 << 127, 5 << 127).map(FixedReal),
               st.builds(lambda m, e: FixedReal.from_float(m / 2**e),
                         st.integers(2, 10), st.integers(0, 2))),
           N=st.integers(2, 400))
    def test_matches_naive_oracle_on_random_instances(self, table_small, cfg,
                                                      alpha, N):
        # alpha in [0.5, 2.5]: random 128-bit values and dyadics m / 2**e,
        # which put frac(p alpha) and frac(p c alpha) on 0 for some p
        got, tuples = count_witnesses(alpha, cfg, N, table_small)
        want, wit = naive_count(alpha, cfg, N)
        assert got == want
        assert [(t.p, t.r, t.q) for t in tuples] == wit

    @pytest.mark.parametrize("d", [1, 2])
    def test_prefilter_boundaries_match_naive_oracle(self, table_small, d):
        # p alpha = r + t and p c_i alpha = q_i + t_i, with one t at
        # 2**-101 from 0, 1 or thr_p: that test alone decides whether p is a
        # witness.  q_i = 0 at the offsets from 1 puts the q_i >= 1 test on
        # the boundary; r + 1 is even, so r + 1 + t never passes.  At p = 79
        # p alpha_f rounds below r, and at p = 47 p c_1 alpha_f below q_1.
        k = d + 0.5
        eps = 0.3 / (d * (3 * k + 2))
        for p in (29, 47, 61, 79):
            thr = Fraction(float(p) ** (eps - 1.0 / (d * (3 * k + 2))))
            r = next(m for m in range(3 * p // 2, 2 * p) if _trial_prime(m))
            for j, t in boundary_cases(d, thr):
                ints = [r] + [p + i for i in range(1, d + 1)]
                if j and abs(t - 1) < 2 * NEAR:
                    ints[j] = 0
                offsets = [thr / 2] * (d + 1)
                offsets[j] = t
                alpha, cs = placed(p, [m + f for m, f in zip(ints, offsets)])
                cfg = ApproxConfig(c=CVector(cs, k), epsilon=eps, A=0.5, B=2.5)
                assert Fraction(cfg.slack_threshold(p)) == thr
                got, tuples = count_witnesses(alpha, cfg, p, table_small)
                want, wit = naive_count(alpha, cfg, p)
                assert got == want
                assert [(w.p, w.r, w.q) for w in tuples] == wit
                assert [w.p for w in tuples] == reference_count_witnesses(
                    alpha, cfg, p, table_small)
                inside = t in (NEAR, thr - NEAR) or (j and t == 1 + NEAR)
                assert any(w.p == p for w in tuples) == inside

    @pytest.mark.parametrize("alpha, N, p", [
        *((1 + Fraction(pow(p, -1, 1 << 52), 1 << 52), p, p)
          for p in (3, 11, 13, 37)),
        (1 + Fraction(1, 1 << 120), 2**12, 4091)], ids=str)
    def test_prefilter_keeps_the_margin_where_p_alpha_rounds(
            self, golden_cfg, table_small, alpha, N, p):
        # fl(p alpha_f) is the prime r, but frac(p alpha) > 0, so p is a
        # witness that only a margin (or the limb test) sees: the margin-free
        # alpha test must hold only where alpha_f = alpha and p alpha_f is
        # exact.  In the first cases alpha_f = alpha and p alpha_f needs 54
        # bits (frac(p alpha) = 2**-52); in the last alpha_f = 1 != alpha
        alpha = FixedReal.from_fraction(alpha)
        got, tuples = count_witnesses(alpha, golden_cfg, N, table_small)
        want = reference_count_witnesses(alpha, golden_cfg, N, table_small)
        assert p in want
        assert got == len(want) and [t.p for t in tuples] == want

    @settings(max_examples=30)
    @given(cfg=random_configs(),
           alpha=st.one_of(
               st.integers(1 << 128, (1 << 129) - 1).map(FixedReal),
               st.integers(0, 4).flatmap(lambda e: st.integers(
                   1 << e, 5 << e).map(lambda m: FixedReal(m << (128 - e))))),
           huge=st.booleans(),
           N=st.integers(2, 2**14))
    def test_prefilter_matches_limb_scan(self, table_small, cfg, alpha, huge,
                                         N):
        # random 129-bit alpha in [1, 2), dyadic alpha in [1, 5], and a last
        # slope of 2**50: then p c alpha > 2**51, its margin exceeds 1 and
        # the prefilter settles none of its tests
        if huge:
            cfg = dataclasses.replace(cfg, c=CVector(
                cfg.c.entries[:-1] + (FixedReal(1 << 178),), cfg.c.k))
        got, tuples = count_witnesses(alpha, cfg, N, table_small)
        assert got == len(tuples)
        assert [t.p for t in tuples] == reference_count_witnesses(
            alpha, cfg, N, table_small)

    def test_exact_stage_takes_few_primes(self, golden_cfg, table_big,
                                          monkeypatch):
        # the float64 prefilter settles almost every prime: at the benchmark
        # size the limb test multiplies fewer than 5% of them
        multiplied = set()
        product = counting.limb_product

        def spy(t, n, count):
            multiplied.update(n.tolist())
            return product(t, n, count)

        monkeypatch.setattr(counting, "limb_product", spy)
        primes = table_big.primes_between(2, 2**18).size
        for alpha in kronecker_samples(1.125, 1.625, 16, 1):
            multiplied.clear()
            count_witnesses(alpha, golden_cfg, 2**18, table_big, collect=False)
            assert 0 < len(multiplied) < 0.05 * primes
        # where p alpha is exact in float64 the alpha test needs no margin:
        # an integer alpha (frac(p alpha) = 0) sends no prime to the limbs
        for value in (1, 2, Fraction(3, 2)):
            alpha = FixedReal.from_fraction(value)
            multiplied.clear()
            got, _ = count_witnesses(alpha, golden_cfg, 2**18, table_big,
                                     collect=False)
            assert len(multiplied) < 0.05 * primes
            assert got == len(reference_count_witnesses(
                alpha, golden_cfg, 2**18, table_big))

    def test_table_checked_before_scan(self, golden_cfg, monkeypatch):
        from diophlab.arith import ArithTable, build_arith_table

        alpha = FixedReal.from_float(1.5)  # floor(alpha * 900) = 1350
        count_witnesses(alpha, golden_cfg, 900, build_arith_table(1350))
        short = build_arith_table(1349)

        def no_scan(*args):
            raise AssertionError("scan started")

        monkeypatch.setattr(ArithTable, "primes_between", no_scan)
        with pytest.raises(RangeError, match=r"ceil\(alpha\*N\)\+1"):
            count_witnesses(alpha, golden_cfg, 900, short)

    def test_golden_regression(self, golden_cfg, table_big):
        count, tuples = count_witnesses(constant("sqrt3"), golden_cfg, 10**6,
                                        table_big)
        assert count == 529  # pinned from the first run of this code base
        assert all(revalidate_tuple(t, constant("sqrt3"), golden_cfg)
                   for t in tuples[:100])

    def test_monotone_in_n_and_eps(self, golden_cfg, table_small):
        alpha = constant("sqrt3")
        counts = [count_witnesses(alpha, golden_cfg, n, table_small,
                                  collect=False)[0]
                  for n in (1000, 5000, 20000)]
        assert counts == sorted(counts)
        tighter = ApproxConfig(c=golden_cfg.c, epsilon=0.05, A=1.0, B=2.0)
        a, _ = count_witnesses(alpha, tighter, 20000, table_small,
                               collect=False)
        b, _ = count_witnesses(alpha, golden_cfg, 20000, table_small,
                               collect=False)
        assert a <= b

    def test_piecewise_constancy(self, golden_cfg, table_small):
        alpha = constant("sqrt3")
        base, _ = count_witnesses(alpha, golden_cfg, 10**4, table_small,
                                  collect=False)
        for bump in (1 << 28, -(1 << 28)):  # 2**-100 in raw units
            count, _ = count_witnesses(FixedReal(alpha.raw + bump), golden_cfg,
                                       10**4, table_small, collect=False)
            assert count == base

    def test_slacks_strictly_inside(self, golden_cfg, table_big):
        _, tuples = count_witnesses(constant("sqrt3"), golden_cfg, 10**5,
                                    table_big)
        for t in tuples:
            thr = float(t.p) ** golden_cfg.exponent
            assert 0 < t.slack0.to_float() < thr
            for s in t.slack:
                assert 0 <= s.to_float() < thr  # stored slack_i truncated


class TestWitnessIntegral:
    def test_empty(self, golden_cfg, table_small):
        assert witness_integral(1.0, 2.0, golden_cfg, 1, table_small,
                                method="exact") == 0

    @pytest.mark.parametrize("cfg_name, N, M", [
        ("golden_cfg", 3000, 1000), ("golden_cfg", 3000, 2999),
        ("golden_cfg", 3000, 3000), ("golden_cfg", 25_000, 20_000),
        ("two_dim_cfg", 1500, 700), ("two_dim_cfg", 40_000, 30_000)])
    def test_above_splits_the_primes(self, request, table_small, cfg_name, N,
                                     M):
        # (0, M] and (M, N] add up to (0, N]: exactly on the exact path
        cfg = request.getfixturevalue(cfg_name)
        method = "exact" if N <= 3000 else "fast"
        whole = witness_integral(1.125, 1.625, cfg, N, table_small,
                                 method=method)
        low = witness_integral(1.125, 1.625, cfg, M, table_small,
                               method=method)
        high = witness_integral(1.125, 1.625, cfg, N, table_small,
                                method=method, above=M)
        if method == "exact":
            assert low + high == whole
        else:
            assert math.isclose(low + high, whole, rel_tol=1e-12)
        # 'auto' resolves on N, not on above
        auto = witness_integral(1.125, 1.625, cfg, N, table_small, above=M)
        assert type(auto) is type(high) and auto == high

    @pytest.mark.parametrize("above", [True, False, 2.0, "3", None, -1, 3001],
                             ids=["true", "false", "float", "str", "none",
                                  "negative", "above-N"])
    def test_above_checked_before_any_work(self, golden_cfg, table_small,
                                           monkeypatch, above):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(counting, "_window_primes", no_work)
        with pytest.raises(ContractError, match="above="):
            witness_integral(1.0, 2.0, golden_cfg, 3000, table_small,
                             above=above)

    def test_above_zero_for_any_n(self, golden_cfg, table_small):
        # the default stays valid where there is no prime at all
        for N in (-3, 0, 1):
            assert witness_integral(1.0, 2.0, golden_cfg, N, table_small,
                                    above=0) == 0
        assert witness_integral(1.0, 2.0, golden_cfg, 1, table_small,
                                above=1) == 0

    def test_additivity_exact(self, golden_cfg, table_small):
        i1 = witness_integral(1.0, 1.25, golden_cfg, 3000, table_small,
                              method="exact")
        i2 = witness_integral(1.25, 2.0, golden_cfg, 3000, table_small,
                              method="exact")
        i12 = witness_integral(1.0, 2.0, golden_cfg, 3000, table_small,
                               method="exact")
        assert i1 + i2 == i12  # exact rational equality

    def test_fast_matches_exact_d1(self, golden_cfg, table_small):
        ex = witness_integral(1.0, 2.0, golden_cfg, 4096, table_small,
                              method="exact")
        fa = witness_integral(1.0, 2.0, golden_cfg, 4096, table_small,
                              method="fast")
        assert fa == pytest.approx(float(ex), rel=1e-9)

    @settings(max_examples=60)
    @given(slope=st.sampled_from(D1_SLOPES), window=dyadic_windows(),
           N=st.integers(2, 2**14),
           eps=st.floats(1e-3, 0.2, exclude_max=True))
    def test_fast_d1_matches_pair_kernel(self, table_small, slope, window, N,
                                         eps):
        c = _slope(slope)
        cfg = ApproxConfig(c=CVector((c,), 1.0), epsilon=eps, A=1.0, B=2.0)
        a, b = window
        got = witness_integral(a, b, cfg, N, table_small, method="fast")
        primes = table_small.primes
        want = reference_d1_band_sum(primes, primes[primes <= N], a, b, cfg)
        assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=80)
    @given(slope=st.one_of(st.sampled_from(D1_SLOPES), dyadic_slopes(),
                           st.sampled_from((2.0**-128, 2.0**-68))),
           window=st.one_of(dyadic_windows(), PRIME_END_WINDOWS),
           N=st.integers(2, 2**11),
           eps=st.floats(1e-3, 0.2, exclude_max=True))
    def test_exact_d1_matches_segment_walk(self, table_small, slope, window,
                                           N, eps):
        # dyadic slopes put frac(c r) on the breakpoints 0 and 1/2**e, and at
        # c = 2**-128 and 2**-68 every pair is a boundary pair
        cfg = ApproxConfig(c=CVector((_slope(slope),), 1.0), epsilon=eps,
                           A=1.0, B=2.5)
        a, b = window
        got = witness_integral(a, b, cfg, N, table_small, method="exact")
        assert got == reference_exact_walk(a, b, cfg, N, table_small)

    @pytest.mark.parametrize("slope, window", [
        ("phi", (1.0, 2.0)), ("sqrt2", (1.25, 1.75)), (0.1875, (1.0, 1.5)),
        (7.25, (1.5, 2.0)), (2.0**-68, (1.0, 2.0))],
        ids=["phi", "sqrt2", "dyadic", "wrapping", "tiny"])
    def test_exact_d1_walks_only_boundary_pairs(self, table_small,
                                                monkeypatch, slope, window):
        c = _slope(slope)
        cfg = ApproxConfig(c=CVector((c,), 1.0), epsilon=0.1, A=1.0, B=2.0)
        a, b = window
        N = 2**12
        walk = counting._exact_prime_segments
        walked = []

        box = counting._box_sum
        boxed = []

        def spy(a, b, cfg, ps, eta, primes, lo_idx, hi_idx):
            assert np.all(lo_idx < hi_idx)  # only nonempty ranges
            for p, e, i, j in zip(ps.tolist(), eta.tolist(), lo_idx.tolist(),
                                  hi_idx.tolist()):
                walked.extend((p, Fraction(e), r)
                              for r in primes[i:j].tolist())
            return walk(a, b, cfg, ps, eta, primes, lo_idx, hi_idx)

        def box_spy(primes, pf, eta, lo_idx, hi_idx, a, b, cfg):
            boxed.append(np.all(lo_idx < hi_idx))
            return box(primes, pf, eta, lo_idx, hi_idx, a, b, cfg)

        monkeypatch.setattr(counting, "_exact_prime_segments", spy)
        monkeypatch.setattr(counting, "_box_sum", box_spy)
        got = witness_integral(a, b, cfg, N, table_small, method="exact")
        witness_integral(a, b, cfg, N, table_small, method="fast")
        monkeypatch.undo()
        assert got == reference_exact_walk(a, b, cfg, N, table_small)
        assert boxed == [True]
        c_fr, a_fr, b_fr = c.to_fraction(), Fraction(a), Fraction(b)
        interior = [(p, r) for p, e, r in walked
                    if r >= a_fr * p and r * c_fr >= e and r + e <= b_fr * p]
        assert interior == []
        assert len(set((p, r) for p, _, r in walked)) == len(walked)
        if slope != 2.0**-68:  # there, every pair is a boundary pair
            primes = table_small.primes
            ps = primes[primes <= N]
            lo, hi = _pair_ranges(primes, ps, a, b)
            assert len(walked) < 0.05 * int((hi - lo).sum())

    @settings(max_examples=70)
    @given(slopes=st.lists(st.one_of(
               NAMED_SLOPES, dyadic_slopes(),
               st.integers(2**128, 2**129 - 1).map(FixedReal),
               st.sampled_from((3.25, 7.25, 2.0**-68))), min_size=2, max_size=2),
           window=st.one_of(dyadic_windows(), PRIME_END_WINDOWS),
           N=st.one_of(st.integers(2**8, 2**10), st.integers(2, 2**10)),
           eps_share=st.floats(1e-3, 1.0, exclude_max=True))
    def test_exact_d2_matches_segment_walk(self, table_small, slopes, window,
                                           N, eps_share):
        # dyadic slopes up to 255 put x_i = frac(c_i r) on the breakpoints,
        # and at c = 2**-68 every pair is a boundary pair
        c = CVector(tuple(s if isinstance(s, FixedReal) else _slope(s)
                          for s in slopes), 2.0)
        cfg = ApproxConfig(c=c, epsilon=eps_share / 16, A=1.0, B=2.5)
        # the walk's work grows like (1 + c1)(1 + c2) N**2
        size = math.prod(1 + math.ceil(ci) for ci in c.floats())
        N = max(2, min(N, math.isqrt(2**24 // size)))
        a, b = window
        got = witness_integral(a, b, cfg, N, table_small, method="exact")
        assert got == reference_exact_walk(a, b, cfg, N, table_small)

    @settings(max_examples=60)
    @given(slopes=st.lists(st.one_of(
               NAMED_SLOPES, dyadic_slopes(),
               st.integers(2**128, 2**129 - 1).map(FixedReal),
               st.sampled_from((3.25, 7.25, 2.0**-68))), min_size=3, max_size=3),
           window=st.one_of(dyadic_windows(), PRIME_END_WINDOWS),
           N=st.one_of(st.integers(2**8, 2**10), st.integers(2, 2**10)),
           eps_share=st.floats(1e-3, 1.0, exclude_max=True))
    def test_exact_d3_matches_segment_walk(self, table_small, slopes, window,
                                           N, eps_share):
        # the d = 2 draws with a third slope: every pair of dimensions meets
        # named, dyadic (ties at the breakpoints), 129-bit and tiny slopes
        c = CVector(tuple(s if isinstance(s, FixedReal) else _slope(s)
                          for s in slopes), 3.0)
        cfg = ApproxConfig(c=c, epsilon=eps_share / 33, A=1.0, B=2.5)
        # the walk's work grows like (1 + c1)(1 + c2)(1 + c3) N**2
        size = math.prod(1 + math.ceil(ci) for ci in c.floats())
        N = max(2, min(N, math.isqrt(2**24 // size)))
        a, b = window
        got = witness_integral(a, b, cfg, N, table_small, method="exact")
        assert got == reference_exact_walk(a, b, cfg, N, table_small)

    @pytest.mark.parametrize("slopes, window", [
        (("sqrt2", "sqrt3"), (1.0, 2.0)), (("phi", "sqrt2"), (1.25, 1.75)),
        ((3.25, 7.25), (1.0, 1.5)), ((2.0**-68, "phi"), (1.0, 2.0)),
        (("sqrt2", "sqrt3", "phi"), (1.125, 1.625)),
        ((3.25, 0.1875, 7.25), (1.0, 1.5))],
        ids=["sqrt2-sqrt3", "phi-sqrt2", "dyadic", "tiny", "d3-named",
             "d3-dyadic"])
    def test_exact_d2_walks_only_boundary_pairs(self, table_small,
                                                monkeypatch, slopes, window):
        # d = 2 at k = 2, eps = 0.05; d = 3 at k = 3, eps = 0.02 < 1/33
        d = len(slopes)
        c = CVector(tuple(_slope(s) for s in slopes), float(d))
        cfg = ApproxConfig(c=c, epsilon=0.05 if d == 2 else 0.02, A=1.0,
                           B=2.0)
        a, b = window
        N = 2**11
        walk = counting._exact_prime_segments
        walked = []

        def spy(a, b, cfg, ps, eta, primes, lo_idx, hi_idx):
            assert np.all(lo_idx < hi_idx)  # only nonempty ranges
            for p, e, i, j in zip(ps.tolist(), eta.tolist(), lo_idx.tolist(),
                                  hi_idx.tolist()):
                walked.extend((p, Fraction(e), r)
                              for r in primes[i:j].tolist())
            return walk(a, b, cfg, ps, eta, primes, lo_idx, hi_idx)

        monkeypatch.setattr(counting, "_exact_prime_segments", spy)
        got = witness_integral(a, b, cfg, N, table_small, method="exact")
        monkeypatch.undo()
        assert got == reference_exact_walk(a, b, cfg, N, table_small)
        cs = [ci.to_fraction() for ci in c.entries]
        a_fr, b_fr = Fraction(a), Fraction(b)
        interior = [(p, r) for p, e, r in walked
                    if r >= a_fr * p and all(r * ci >= e for ci in cs)
                    and r + e <= b_fr * p]
        assert interior == []
        assert len(set((p, r) for p, _, r in walked)) == len(walked)
        primes = table_small.primes
        lo, hi = _pair_ranges(primes, primes[primes <= N], a, b)
        if slopes[0] == 2.0**-68:  # every pair is a boundary pair
            assert len(walked) == int((hi - lo).sum())
        else:
            assert len(walked) < 0.05 * int((hi - lo).sum())

    @pytest.mark.parametrize("p, r", [(11, 13), (13, 17)])
    @pytest.mark.parametrize("side", [-1, 1], ids=["gap", "overlap"])
    def test_exact_rank_near_ties_of_lower_and_upper_ends(self, table_small,
                                                          p, r, side):
        # L_1 against U_0 within e of a tie, at an interior pair: the rank
        # kernel decides L_j < U_i (i < j) by its v = c_j thresholds, which
        # one e more or less would flip here
        cfg, share = near_tie_config(p, r, side)
        assert 0 < side * share < 1
        c0, c1 = (ci.to_fraction() for ci in cfg.c.entries)
        eta = Fraction(cfg.slack_threshold(p))
        assert r * c0 % 1 < eta  # U_0 > 0: the window k_0 = 0 meets [0, eta)
        assert p <= r and r + eta <= 2 * p and min(c0, c1) * r >= eta
        got = witness_integral(1.0, 2.0, cfg, p, table_small, method="exact")
        assert got == reference_exact_walk(1.0, 2.0, cfg, p, table_small)

    @settings(max_examples=100)
    @given(slopes=st.one_of(
               st.lists(st.one_of(dyadic_slopes(), st.floats(2.0**-8, 4.0)),
                        min_size=2, max_size=2),
               # one slope up to 255 in any place, two up to 4
               st.tuples(st.one_of(dyadic_slopes(), st.floats(2.0**-8, 4.0)),
                         *[st.one_of(st.floats(2.0**-8, 4.0),
                                     st.integers(1, 255).map(lambda m: m / 64))
                           ] * 2).flatmap(st.permutations)),
           data=st.data(),
           e=st.one_of(st.integers(2**127, 2**128 - 1),
                       st.integers(1, 2**128 - 1)),
           share=st.floats(2.0**-8, 1.0))
    def test_band_holds_every_meeting_box(self, slopes, data, e, share):
        # windows in y units: the pair's [0, e_p C) and dimension i's A_i
        # (k_i B + [0, e_p) - x_i), A_i = (C / c_i) B; the boxes come from
        # the larger e
        craws = [FixedReal.from_float(c).raw for c in slopes]
        big = 2**128
        xs = [data.draw(st.one_of(st.sampled_from((0, big - 1)),
                                  st.integers(0, big - 1))) for _ in craws]
        e_p = max(1, int(e * share))
        pc = math.prod(craws)
        boxes = counting._boxes(craws, e)
        assert len(set(boxes)) == len(boxes)
        # the boxes are those of the bands of every pair of dimensions
        eta = Fraction(e, big)
        in_bands = [k for k in itertools.product(*[
            range(c * e // big**2 + 2) for c in craws])
            if all(Fraction(cj * (ki - 1), ci) - eta < kj
                   < Fraction(cj, ci) * (ki + eta) + 1
                   for (ci, ki), (cj, kj) in itertools.combinations(
                       zip(craws, k), 2))]
        assert boxes == in_bands
        meeting = []
        for k in itertools.product(*[range(-2, c * e // big**2 + 4)
                                     for c in craws]):
            ends = [(pc // c * big * (ki * big - x),
                     pc // c * big * (ki * big + e_p - x))
                    for c, ki, x in zip(craws, k, xs)]
            if (max(0, *(lo for lo, _ in ends))
                    < min(e_p * pc, *(hi for _, hi in ends))):
                meeting.append(k)
        assert set(meeting) <= set(boxes)

    @staticmethod
    def _exact_peak(cfg, table):
        """The traced allocation peak of the exact integral on [9/8, 13/8]
        at N = 2**11, after a warm-up call at 2**10."""
        witness_integral(1.125, 1.625, cfg, 2**10, table, method="exact")
        tracemalloc.start()
        try:
            witness_integral(1.125, 1.625, cfg, 2**11, table, method="exact")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_exact_d2_memory(self, table_small):
        # the benchmark's seed-1 instance: (sqrt3, sqrt2) on [9/8, 13/8]
        c = CVector((constant("sqrt3"), constant("sqrt2")), 2.0)
        cfg = ApproxConfig(c=c, epsilon=0.05, A=1.0, B=2.0)
        assert self._exact_peak(cfg, table_small) < 1.5 * 2**20

    def test_exact_d3_memory(self, table_small):
        c = CVector(tuple(constant(s) for s in ("sqrt2", "sqrt3", "phi")), 3.0)
        cfg = ApproxConfig(c=c, epsilon=0.02, A=1.0, B=2.0)
        assert self._exact_peak(cfg, table_small) < 2 * 2**20

    def test_fraction_sum_repeats_a_prime(self):
        got = counting._fraction_sum([(3, 1), (5, 0), (3, 2), (2, 7)], 4)
        assert got == Fraction(1, 12) + Fraction(2, 12) + Fraction(7, 8)
        assert counting._fraction_sum([], 4) == 0

    def test_fast_matches_exact_d1_at_benchmark_sizes(self, golden_cfg,
                                                      table_small):
        # b = 3/2 keeps every partner r <= b N + 1 within the table
        for N in (2**15, 2**16):
            ex = witness_integral(1.0, 1.5, golden_cfg, N, table_small,
                                  method="exact")
            fa = witness_integral(1.0, 1.5, golden_cfg, N, table_small,
                                  method="fast")
            assert fa == pytest.approx(float(ex), rel=1e-9)

    def test_fast_d1_tiny_n(self, golden_cfg, table_small):
        for N in (0, 1):
            assert witness_integral(1.0, 2.0, golden_cfg, N, table_small,
                                    method="fast") == 0.0
        for N in (2, 3):
            ex = witness_integral(1.0, 2.0, golden_cfg, N, table_small,
                                  method="exact")
            fa = witness_integral(1.0, 2.0, golden_cfg, N, table_small,
                                  method="fast")
            assert ex > 0
            assert fa == pytest.approx(float(ex), rel=1e-9)

    def test_fast_d1_tiny_slopes(self, table_small):
        # eta/c runs past every prime, and past 2**63 at c = 2**-128
        for raw in (1, 1 << 60, 1 << 120):
            cfg = ApproxConfig(c=CVector((FixedReal(raw),), 1.0), epsilon=0.1,
                               A=1.0, B=2.0)
            ex = witness_integral(1.0, 2.0, cfg, 2000, table_small,
                                  method="exact")
            fa = witness_integral(1.0, 2.0, cfg, 2000, table_small,
                                  method="fast")
            assert fa == pytest.approx(float(ex), rel=1e-9, abs=1e-12)

    def test_fast_d1_memory_flat(self, table_small):
        # at c = 2**-68 every pair is a boundary pair
        cfg = ApproxConfig(c=CVector((FixedReal(1 << 60),), 1.0), epsilon=0.1,
                           A=1.0, B=2.0)
        witness_integral(1.0, 2.0, cfg, 2**10, table_small, method="fast")
        tracemalloc.start()
        try:
            witness_integral(1.0, 2.0, cfg, 2**14, table_small, method="fast")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_fast_matches_exact_d2(self, two_dim_cfg, table_small):
        for a, b, N in ((1.0, 2.0, 2000), (1.0, 2.0, 2**13),
                        (1.0, 1.5, 2**15)):
            ex = witness_integral(a, b, two_dim_cfg, N, table_small,
                                  method="exact")
            fa = witness_integral(a, b, two_dim_cfg, N, table_small,
                                  method="fast")
            assert fa == pytest.approx(float(ex), rel=1e-9)

    @settings(max_examples=60)
    @given(slopes=st.lists(st.sampled_from(D2_SLOPES), min_size=2,
                           max_size=2),
           window=dyadic_windows(), N=st.integers(2, 2**12),
           eps_share=st.floats(1e-3, 1.0, exclude_max=True))
    def test_fast_d2_matches_box_kernel(self, table_small, slopes, window, N,
                                        eps_share):
        cfg = ApproxConfig(c=CVector(tuple(map(_slope, slopes)), 2.0),
                           epsilon=eps_share / 16, A=1.0, B=2.0)
        a, b = window
        got = witness_integral(a, b, cfg, N, table_small, method="fast")
        primes = table_small.primes
        want = box_reference(primes, primes[primes <= N], a, b, cfg)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("slopes, N", [
        ((0.1875, "sqrt2"), 2**12), (("phi", 0.1875), 2**12),
        ((2.0**-10, "sqrt2"), 2**10), (("phi", 2.0**-10), 2**10),
        ((ROUNDS_TO_ONE, "sqrt3"), 2**12), (("sqrt2", ROUNDS_TO_ONE), 2**12)],
        ids=["small-first", "small-second", "tiny-first", "tiny-second",
             "rounded-first", "rounded-second"])
    def test_fast_d2_regressions(self, table_small, slopes, N):
        # small slopes put the interior's lower end max(p, eta/c_min) on
        # eta/c_min for the small primes, where it falls as p grows; with 1 -
        # 2**-128 every key frac(c r) is 1.0, which h reads as 0
        cfg = ApproxConfig(c=CVector(tuple(map(_slope, slopes)), 2.0),
                           epsilon=0.05 / 16, A=1.0, B=2.0)
        primes = table_small.primes
        ps = primes[primes <= N]
        if ROUNDS_TO_ONE not in slopes:
            lower = cfg.slack_threshold(ps) / min(cfg.c.floats())
            assert np.any(np.diff(np.maximum(ps, lower)) < 0.0)
        got = witness_integral(1.0, 2.0, cfg, N, table_small, method="fast")
        want = box_reference(primes, ps, 1.0, 2.0, cfg)
        assert got == pytest.approx(want, rel=1e-12)
        ex = witness_integral(1.0, 2.0, cfg, N, table_small, method="exact")
        assert got == pytest.approx(float(ex), rel=1e-9)

    @pytest.mark.parametrize("cfg_name", ["golden_cfg", "two_dim_cfg"],
                             ids=["d1", "d2"])
    def test_fast_at_2_18_under_a_second(self, table_big, request, cfg_name):
        # neither d <= 2 fast path visits the interior pairs: walking them
        # takes seconds here
        cfg = request.getfixturevalue(cfg_name)
        witness_integral(1.0, 2.0, cfg, 2**10, table_big, method="fast")
        start = time.perf_counter()
        witness_integral(1.0, 2.0, cfg, 2**18, table_big, method="fast")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("d, k, eps", [
        (1, 1.0, 0.1), (1, 1.0, 0.05), (1, 1.0, 0.1998), (2, 2.0, 0.05),
        (2, 2.0, 0.025), (3, 3.0, 0.02)])
    def test_slack_threshold_nonincreasing(self, table_big, d, k, eps):
        # the sweeps of the d <= 2 kernels take the primes in runs of
        # nonincreasing eta_p; on the exponents of the tests and of the
        # benchmark, over the primes below 2**21, there is one run
        cfg = ApproxConfig(c=CVector((constant("phi"),) * d, k), epsilon=eps,
                           A=1.0, B=2.0)
        eta = cfg.slack_threshold(table_big.primes[table_big.primes < 2**21])
        assert np.all(np.diff(eta) <= 0.0)

    @settings(max_examples=40)
    @given(cfg=random_configs(), window=dyadic_windows(),
           N=st.integers(2, 2**10))
    def test_exact_additive_and_fast_close(self, table_small, cfg, window, N):
        a, b = window
        mid = (a + b) / 2

        def exact(lo, hi):
            return witness_integral(lo, hi, cfg, N, table_small,
                                    method="exact")

        whole = exact(a, b)
        assert exact(a, mid) + exact(mid, b) == whole  # as Fractions
        fast = witness_integral(a, b, cfg, N, table_small, method="fast")
        if whole == 0:
            assert fast == 0.0
        else:
            assert fast == pytest.approx(float(whole), rel=1e-9, abs=0.0)

    @settings(max_examples=40)
    @given(slopes=st.integers(2, 3).flatmap(
               lambda d: st.lists(st.sampled_from(GENERAL_SLOPES),
                                  min_size=d, max_size=d)),
           window=dyadic_windows(), N=st.integers(2, 2**12),
           eps_share=st.floats(1e-3, 1.0, exclude_max=True))
    def test_fast_general_matches_expansion_kernel(self, table_small, slopes,
                                                   window, N, eps_share):
        d = len(slopes)
        c = CVector(tuple(_slope(s) for s in slopes), float(d))
        cfg = ApproxConfig(c=c, epsilon=eps_share / (d * (3 * d + 2)),
                           A=1.0, B=2.0)
        a, b = window
        got = witness_integral(a, b, cfg, N, table_small, method="fast")
        primes = table_small.primes
        want = reference_fast_general(primes, primes[primes <= N], a, b, cfg)
        assert got == pytest.approx(want, rel=1e-12)

    def test_fast_matches_exact_d3(self, table_small):
        c = CVector((constant("sqrt2"), constant("sqrt3"), constant("phi")), 3.0)
        cfg = ApproxConfig(c=c, epsilon=0.02, A=1.0, B=2.0)
        for a, b, N in ((1.0, 2.0, 1000), (1.125, 1.625, 2**11)):
            ex = witness_integral(a, b, cfg, N, table_small, method="exact")
            fa = witness_integral(a, b, cfg, N, table_small, method="fast")
            assert fa == pytest.approx(float(ex), rel=1e-9)

    def test_fast_d2_memory_flat(self, two_dim_cfg, table_small):
        witness_integral(1.0, 2.0, two_dim_cfg, 2**10, table_small, method="fast")
        tracemalloc.start()
        try:
            witness_integral(1.0, 2.0, two_dim_cfg, 2**14, table_small,
                             method="fast")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @settings(max_examples=80)
    @given(keys=st.lists(st.integers(0, 5), max_size=30),
           size=st.integers(1, 12), data=st.data())
    @example(keys=[], size=1, data=None)
    @example(keys=[3, 3, 0, 5], size=4, data=None)
    def test_sweep_matches_brute_force(self, keys, size, data):
        # tied integer keys; runs of primes anywhere, empty (first >= last)
        # and offset ones included; thresholds below, on and above every
        # key, increasing or decreasing; int64 weights up to 2**32, summed
        # exactly.  The examples fix the empty case and runs of all primes
        # against thresholds below, on and above every key.
        n = len(keys)
        if data is None:
            runs = [(0, size)] * n
            t = [-1, 3, 5, 6][:size]
            values = [[2**32 - 1] * n, list(range(n))]
        else:
            runs = data.draw(st.lists(st.tuples(st.integers(0, size),
                                                st.integers(0, size)),
                                      min_size=n, max_size=n))
            t = sorted(data.draw(st.lists(st.integers(-1, 6), min_size=size,
                                          max_size=size)),
                       reverse=data.draw(st.booleans()))
            values = [data.draw(st.lists(st.integers(0, 2**32 - 1),
                                         min_size=n, max_size=n))
                      for _ in range(2)]
        first, last = (np.array([r[k] for r in runs], dtype=np.int64)
                       for k in (0, 1))
        values = np.array(values, dtype=np.int64).reshape(2, n)
        count, sums = counting._sweep(first, last, np.array(t, np.int64),
                                      np.array(keys, np.int64), values)
        assert count.shape == (size,) and sums.shape == (2, size)
        assert sums.dtype == np.int64
        for p in range(size):
            hit = [j for j in range(n)
                   if first[j] <= p < last[j] and t[p] < keys[j]]
            assert count[p] == len(hit)
            assert sums[:, p].tolist() == [sum(v[j] for j in hit)
                                           for v in values.tolist()]

    @settings(max_examples=60)
    @given(size=st.integers(1, 12), n=st.integers(0, 20), data=st.data())
    def test_interior_runs_match_brute_force(self, size, n, data):
        # ia and ib rise and ie falls with p, as for nonincreasing eta
        def ends(reverse):
            return np.array(sorted(data.draw(st.lists(
                st.integers(0, n + 1), min_size=size, max_size=size)),
                reverse=reverse), dtype=np.int64)

        ia, ie, ib = ends(False), ends(True), ends(False)
        first, last = counting._meet(
            counting._interior_runs((ia, ie, ib), n), n, size)
        for j in range(n):
            want = [p for p in range(size)
                    if ia[p] <= j and ie[p] <= j and j < ib[p]]
            assert list(range(first[j], last[j])) == want

    def test_d1_kernels_search_the_same_thresholds(self, golden_cfg,
                                                   table_small, monkeypatch):
        # both kernels sweep the same ramps: per ramp, the count of the keys
        # above each prime's threshold, out of the same keys
        sweep = counting._sweep
        swept, sizes = [], set()

        def spy(first, last, t, keys, values):
            swept[-1].append((t[:, None] < keys).sum(axis=1).tolist())
            sizes.add(keys.size)
            return sweep(first, last, t, keys, values)

        monkeypatch.setattr(counting, "_sweep", spy)
        for method in ("exact", "fast"):
            swept.append([])
            witness_integral(1.0, 1.5, golden_cfg, 2**12, table_small,
                             method=method)
        exact, fast = swept
        # 564 primes, 8 ramps each (m count floor(c eta) + 2 = 3); the fast
        # kernel drops the one no key reaches, u = 2 + eta - c eta >= 1
        assert len(exact) == 8 and {len(r) for r in exact} == {564}
        assert len(fast) == 7
        assert sorted(fast) == sorted(r for r in exact if any(r))
        # the thresholds strictly inside the keys, those a search places
        n, = sizes
        assert sum(0 < c < n for r in exact for c in r) == 1692

    @pytest.mark.parametrize("d", [1, 2])
    def test_rising_threshold_swept_in_runs(self, golden_cfg, two_dim_cfg,
                                            table_small, monkeypatch, d):
        # eta_p read at p/2 for the primes p = 1 mod 4: it rises there, and
        # stays below eta(2), at which _box_sum counts its candidates
        slack = ApproxConfig.slack_threshold

        def rising(cfg, x):
            x = np.asarray(x)
            return slack(cfg, np.where(x % 4 == 1, x / 2, x))

        monkeypatch.setattr(ApproxConfig, "slack_threshold", rising)
        cfg = golden_cfg if d == 1 else two_dim_cfg
        a, b, N = 1.0, 1.5, 2**10
        primes = table_small.primes
        ps = primes[primes <= N]
        eta = cfg.slack_threshold(ps)
        assert np.any(np.diff(eta) > 0.0) and np.all(eta[1:] < eta[0])
        fast = witness_integral(a, b, cfg, N, table_small, method="fast")
        if d == 1:
            exact = witness_integral(a, b, cfg, N, table_small,
                                     method="exact")
            assert exact == reference_exact_walk(a, b, cfg, N, table_small)
            want = reference_d1_band_sum(primes, ps, a, b, cfg)
        else:
            want = box_reference(primes, ps, a, b, cfg)
        assert fast == pytest.approx(want, rel=1e-12)

    def test_pair_chunks_cover_every_pair_once(self, table_small):
        primes = table_small.primes
        ranges = [_pair_ranges(primes, primes[primes <= N].astype(np.float64),
                               a, b)
                  for N, a, b in ((2, 1.0, 2.0), (700, 1.0, 2.0),
                                  (1000, 1.25, 1.5))]
        # empty ranges inside a chunk, as the exact kernels' interior has
        ranges.append((np.array([0, 4, 4, 6, 9]), np.array([3, 4, 6, 6, 12])))
        for lo, hi in ranges:
            want = [(j, i) for j, (l, h) in enumerate(zip(lo, hi))
                    for i in range(l, h)]
            for budget in (1, 3, 100, 2**14):
                chunks = list(_pair_chunks(lo, hi, budget))
                assert all(0 < i.size == reps.sum() <= budget
                           and reps.size == rows.stop - rows.start
                           for rows, reps, i in chunks)
                got = list(itertools.chain.from_iterable(
                    zip(np.repeat(np.arange(len(lo))[rows], reps).tolist(),
                        i.tolist()) for rows, reps, i in chunks))
                assert got == want

    def test_interval_within_config(self, golden_cfg, table_small):
        with pytest.raises(ContractError):
            witness_integral(0.5, 2.0, golden_cfg, 100, table_small)

    def test_table_too_small(self, golden_cfg):
        from diophlab.arith import build_arith_table

        tiny = build_arith_table(500)
        with pytest.raises(RangeError):
            witness_integral(1.0, 2.0, golden_cfg, 400, tiny, method="exact")

    def test_table_checked_at_every_entry(self, golden_cfg, two_dim_cfg):
        from diophlab.arith import build_arith_table

        tiny = build_arith_table(500)
        for cfg in (golden_cfg, two_dim_cfg):
            for method in ("exact", "fast", "auto"):
                with pytest.raises(RangeError, match="need >= 601"):
                    witness_integral(1.0, 2.0, cfg, 300, tiny, method=method)
        with pytest.raises(RangeError, match="need >= 601"):
            riemann_scan(1.0, 2.0, golden_cfg, 300, tiny, 100)
        ok = build_arith_table(601)
        assert witness_integral(1.0, 2.0, golden_cfg, 300, ok, method="fast") > 0

    @settings(max_examples=20)
    @given(cfg=random_configs(), window=dyadic_windows(),
           N=st.integers(2, 2**10), points=st.integers(1, 2**12))
    def test_riemann_within_interval_bound(self, table_small, cfg, window, N,
                                           points):
        a, b = window
        riemann, intervals = riemann_scan(a, b, cfg, N, table_small, points)
        exact = witness_integral(a, b, cfg, N, table_small, method="exact")
        spacing = (Fraction(b) - Fraction(a)) / points
        assert abs(riemann - exact) <= spacing * intervals

    @pytest.mark.parametrize("a, b, points", [
        (1.0, 2.0, 0), (1.0, 2.0, -5), (0.5, 1.5, 100), (1.0, 2.5, 100),
        (1.5, 1.5, 100), (1.75, 1.25, 100), (1.0, 1.5, 1e4), (1.0, 1.5, 10.5),
        (1.0, 1.5, True)])
    def test_riemann_rejects_bad_input_before_any_work(self, golden_cfg,
                                                        table_small,
                                                        monkeypatch, a, b,
                                                        points):
        # a float or bool points would change the grid
        def no_walk(*args):
            raise AssertionError("segments walked")

        for name in ("_exact_ranges", "_scan_interior", "_exact_prime_segments"):
            monkeypatch.setattr(counting, name, no_walk)
        with pytest.raises(ContractError):
            riemann_scan(a, b, golden_cfg, 1000, table_small, points)

    @pytest.mark.parametrize("a", [Fraction(4, 3), 1 + Fraction(1, 2**129)],
                             ids=["third", "past-2**-128"])
    @pytest.mark.parametrize("call", ["exact", "fast", "auto", "riemann"])
    def test_non_dyadic_window_rejected_before_any_work(
            self, golden_cfg, two_dim_cfg, table_small, monkeypatch, a, call):
        def no_work(*args):
            raise AssertionError("a kernel ran")

        for name in ("_exact_ranges", "_pair_ranges", "_exact_prime_segments",
                     "_d1_exact_sum", "_rank_exact_sum", "_band_sum",
                     "_box_sum", "_scan_interior"):
            monkeypatch.setattr(counting, name, no_work)
        for cfg in (golden_cfg, two_dim_cfg):
            with pytest.raises(ContractError, match="multiples of 2"):
                if call == "riemann":
                    riemann_scan(a, 1.5, cfg, 1000, table_small, 100)
                else:
                    witness_integral(a, 1.5, cfg, 1000, table_small,
                                     method=call)
            # the end may be b as well
            with pytest.raises(ContractError, match="multiples of 2"):
                witness_integral(1.0, a, cfg, 1000, table_small,
                                 method="exact" if call == "riemann" else call)

    def test_riemann_within_provable_bound(self, golden_cfg, table_small):
        points = 10**5
        riemann, intervals = riemann_scan(1.0, 2.0, golden_cfg, 2000,
                                          table_small, points)
        exact = witness_integral(1.0, 2.0, golden_cfg, 2000, table_small,
                                 method="exact")
        assert abs(riemann - exact) <= Fraction(intervals, points)

    @settings(max_examples=70)
    @given(slopes=st.integers(1, 3).flatmap(lambda d: st.lists(st.one_of(
               NAMED_SLOPES, dyadic_slopes(),
               st.sampled_from((2.0**-68, 2.0**-10))), min_size=d, max_size=d)),
           window=st.one_of(dyadic_windows(), PRIME_END_WINDOWS),
           N=st.one_of(st.integers(2**8, 2**10), st.integers(2, 2**10)),
           points=st.one_of(st.integers(0, 40).map(lambda k: 2**k),
                            st.integers(0, 12).map(lambda k: 10**k)),
           eps_share=st.floats(1e-3, 1.0, exclude_max=True))
    def test_riemann_matches_segment_walk(self, table_small, slopes, window,
                                          N, points, eps_share):
        # dyadic slopes and windows and grids of 2**k and 10**k points put
        # segment ends on grid points; past about 2**40 points every pair is
        # walked
        d = len(slopes)
        c = CVector(tuple(_slope(s) for s in slopes), float(d))
        cfg = ApproxConfig(c=c, epsilon=eps_share / (d * (3 * d + 2)), A=1.0,
                           B=2.5)
        # the walk's work grows like (1 + c1)..(1 + cd) N**2
        size = math.prod(1 + math.ceil(ci) for ci in c.floats())
        N = max(2, min(N, math.isqrt(2**22 // size)))
        a, b = window
        got = riemann_scan(a, b, cfg, N, table_small, points)
        assert got == reference_riemann_scan(a, b, cfg, N, table_small, points)

    @pytest.mark.parametrize("points", [2**10, 2**20])
    def test_riemann_settles_grid_ties_exactly(self, table_small, monkeypatch,
                                               points):
        # on [1, 2] a pair r = p starts on grid point 0, and the slope 2
        # puts segment ends at (r + k/2)/p, on the grid for p = 2 (r = 3:
        # 3/2 and 7/4) and for p = 5 (r = 7: 3/2)
        cfg = ApproxConfig(c=CVector((FixedReal.from_float(2.0),), 1.0),
                           epsilon=0.1, A=1.0, B=2.0)
        a, b, N = 1.0, 2.0, 2**8
        walked = spy_walk(monkeypatch)
        got = riemann_scan(a, b, cfg, N, table_small, points)
        monkeypatch.undo()
        assert got == reference_riemann_scan(a, b, cfg, N, table_small, points)
        # the interior pairs with a segment end on a grid point 1 + g/points
        primes = table_small.primes
        ps, eta = counting._window_primes(a, b, cfg, N, table_small)
        _, _, i0, i1, _, _ = counting._exact_ranges(a, b, cfg, ps, eta, primes)
        rows = np.repeat(np.arange(ps.size), i1 - i0)
        idx = np.concatenate([np.arange(i, j) for i, j in zip(i0, i1)])
        ties = {(p, r) for (p, D, segments), r in zip(
                    counting._exact_prime_segments(a, b, cfg, ps[rows],
                                                   eta[rows], primes, idx,
                                                   idx + 1),
                    primes[idx].tolist())
                if any((end - D) * points % D == 0
                       for segment in segments for end in segment)}
        assert {(2, 2), (2, 3), (5, 5), (5, 7)} <= ties
        assert ties <= set(walked)  # settled by the walk, in integers

    @pytest.mark.parametrize("side", [-1, 1], ids=["gap", "overlap"])
    def test_riemann_settles_near_empty_segments(self, table_small, side):
        # a segment of length 2**-128 eta_p/c_1 or less at the pair (13, 17),
        # or none: float64 cannot tell, the walk can
        cfg, _ = near_tie_config(13, 17, side)
        for points in (10**6, 2**30):
            got = riemann_scan(1.0, 2.0, cfg, 13, table_small, points)
            assert got == reference_riemann_scan(1.0, 2.0, cfg, 13,
                                                 table_small, points)

    def test_riemann_walks_every_pair_past_float_grid(self, golden_cfg,
                                                      table_small,
                                                      monkeypatch):
        points = 2**60
        walked = spy_walk(monkeypatch)
        got = riemann_scan(1.0, 2.0, golden_cfg, 300, table_small, points)
        monkeypatch.undo()
        assert got == reference_riemann_scan(1.0, 2.0, golden_cfg, 300,
                                             table_small, points)
        primes = table_small.primes
        lo, hi = _pair_ranges(primes, primes[primes <= 300], 1.0, 2.0)
        assert len(walked) == len(set(walked)) == int((hi - lo).sum())

    def test_riemann_scan_memory(self, golden_cfg, table_small):
        # the benchmark's seed-1 scan, and at four times its N: the pairs
        # come in chunks, so the peak stays flat
        riemann_scan(1.125, 1.625, golden_cfg, 2**10, table_small, 10**6)
        for N in (2**11, 2**13):
            tracemalloc.start()
            try:
                riemann_scan(1.125, 1.625, golden_cfg, N, table_small, 10**6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * 2**20


class TestGrowthTarget:
    def test_d1_reduction(self, golden_cfg):
        n = 10**4
        want = (0.25 * 0.25 * n ** (1 - 2 * (golden_cfg.gamma - 0.1))
                / math.log(n) ** 2)
        assert target_growth(golden_cfg, n) == pytest.approx(want, rel=1e-12)
        # with d = 1 the min-power is an empty product for both variants
        assert target_growth_alt(golden_cfg, n) == pytest.approx(want, rel=1e-12)

    def test_exponent_limit(self, golden_cfg):
        # as eps -> gamma the exponent tends to 1
        near = ApproxConfig(c=golden_cfg.c, epsilon=golden_cfg.gamma * 0.999,
                            A=1.0, B=2.0)
        n = 10**6
        expected_exponent = 1 - 2 * (near.gamma - near.epsilon)
        assert math.log(target_growth(near, n) * math.log(n) ** 2 * 16,
                        n) == pytest.approx(expected_exponent, abs=1e-6)

    def test_d2_hand_formula(self, two_dim_cfg):
        n = 10**4
        c_min = min(two_dim_cfg.c.floats())
        want = ((1.0 / 4.0) * min(c_min, 2.0) / 8.0
                * n ** (1 - 3 * (two_dim_cfg.gamma - 0.05)) / math.log(n) ** 2)
        assert target_growth(two_dim_cfg, n) == pytest.approx(want, rel=1e-12)
        assert target_growth_alt(two_dim_cfg, n) \
            == pytest.approx(target_growth(two_dim_cfg, n), rel=1e-12)


class TestWindowCounts:
    def test_degenerate_wide_delta(self, golden_cfg, table_small):
        wp = WindowParams.from_config(golden_cfg, 1000)
        wc = window_counts(dataclasses.replace(wp, delta=1.5), golden_cfg,
                           table_small)
        lam_sum = sum(table_small.von_mangoldt(n)
                      for n in range(int(math.ceil(1500.0)), 2001))
        assert wc.weighted >= lam_sum - 1e-9

    def test_degenerate_tiny_delta(self, golden_cfg, table_small):
        wp = WindowParams.from_config(golden_cfg, 1000)
        wc = window_counts(dataclasses.replace(wp, delta=1e-30), golden_cfg,
                           table_small)
        assert wc.weighted == 0.0 and wc.prime_count == 0

    def test_golden_main_term(self, golden_cfg, table_big):
        P = 10**5
        wp = WindowParams.from_config(golden_cfg, P)
        wc = window_counts(wp, golden_cfg, table_big)
        main = wp.delta * (wp.b - wp.a * wp.mu_window) * P
        assert 0.5 <= wc.weighted / main <= 1.5

    def test_prime_window_checked_against_table(self, golden_cfg):
        # a < 1 puts the prime window's end mu*P = 1500 beyond b*P = 1000
        cfg = ApproxConfig(c=golden_cfg.c, epsilon=golden_cfg.epsilon,
                           A=0.5, B=1.0)
        wp = WindowParams.from_config(cfg, 1000)
        for limit in (1000, 1498):
            with pytest.raises(RangeError):
                window_counts(wp, cfg, build_arith_table(limit))
        for limit in (1499, 1600):
            wc = window_counts(wp, cfg, build_arith_table(limit))
            assert wc.primes_in_window == 71
            assert wc.solutions == 781

    # c = 3/2 puts frac(c n) at 0 (n = 1024) and 1/2 (odd n); delta = 1.0
    # and 2.0 have no fraction, 0.5 and 1.5 end exactly on an integer for
    # odd n, and 2**62 needs counts beyond int64
    @pytest.mark.parametrize("slopes", [(1.5,), (1.5, 0.75)])
    @pytest.mark.parametrize("delta", [1.0, 2.0, 0.5, 1.5, 2.0**62])
    def test_matches_fraction_oracle(self, slopes, delta, table_small):
        cfg = ApproxConfig(c=CVector(tuple(map(_slope, slopes)), 2.0),
                           epsilon=0.05, A=1.0, B=2.0)
        wp = WindowParams.from_config(cfg, 600)  # n in [900, 1200]
        n_lo, n_hi = wp.lambda_window
        cs = [ci.to_fraction() for ci in cfg.c.entries]
        terms, prime_count = [], 0
        for n in range(n_lo, n_hi + 1):
            lam = table_small.von_mangoldt(n)
            if not lam:
                continue
            prod = math.prod(math.ceil(c * n + Fraction(delta))
                             - math.ceil(c * n) for c in cs)
            terms.append(prod * lam)
            if table_small.is_prime(n):
                prime_count += prod
        wc = window_counts(dataclasses.replace(wp, delta=delta), cfg,
                           table_small)
        assert wc.prime_count == prime_count
        assert wc.weighted == pytest.approx(math.fsum(terms), rel=1e-12)

    def test_solution_product(self, golden_cfg, table_small):
        wp = WindowParams.from_config(golden_cfg, 5000)
        wc = window_counts(wp, golden_cfg, table_small)
        assert wc.solutions == wc.primes_in_window * wc.prime_count

    def test_window_parameters(self, golden_cfg):
        wp = WindowParams.from_config(golden_cfg, 10**4)
        assert wp.mu_window == pytest.approx(1.5)
        assert wp.eta == pytest.approx((1.5 * 10**4) ** (-0.1))
        assert wp.delta == pytest.approx(min(golden_cfg.c.floats()) * wp.eta / 2)
        assert wp.nu == pytest.approx(wp.eta / (1.5 * 10**4) * 0.5)


class TestProductSet:
    def test_mu_ge_one_admits_all(self, golden_cfg):
        out = product_set(constant("sqrt3"), golden_cfg, 50, mu=1.0)
        assert [n for n, _ in out] == list(range(1, 51))

    @pytest.mark.parametrize("mu", [math.nan, 0.0, -1.0])
    def test_rejects_non_positive_mu(self, golden_cfg, mu):
        with pytest.raises(ContractError):
            product_set(constant("sqrt3"), golden_cfg, 50, mu=mu)

    def test_rejects_n_beyond_limb_bound(self, golden_cfg):
        # the limb kernel takes multipliers below 2**32; the call fails
        # before any scan
        with pytest.raises(ResourceCapError):
            product_set(constant("sqrt3"), golden_cfg, 2**32)

    def test_infinite_mu_admits_all(self, golden_cfg):
        out = product_set(constant("sqrt3"), golden_cfg, 50, mu=math.inf)
        assert [n for n, _ in out] == list(range(1, 51))

    def test_naive_recheck(self, golden_cfg):
        alpha = constant("sqrt3")
        out = dict(product_set(alpha, golden_cfg, 10**4))
        mu = (10**4) ** golden_cfg.exponent
        af = alpha.to_fraction()
        cf = golden_cfg.c.entries[0].to_fraction()
        for n in range(1, 10**4 + 1):
            in_set = ((n * af) % 1 < Fraction(mu)
                      and (n * cf * af) % 1 < Fraction(mu))
            assert (n in out) == in_set
            if n in out:
                assert out[n] == n * int(n * af)

    @pytest.mark.parametrize("d", [1, 2])
    def test_prefilter_boundaries_match_naive_recheck(self, d):
        # n alpha and n c_i alpha placed as in the witness boundary test,
        # around 0, 1 and mu, for every n of a few
        cfg = ApproxConfig(c=CVector((constant("phi"),) * d, d + 0.5),
                           epsilon=0.02, A=0.5, B=2.5)
        N = 90
        mu = Fraction(cfg.slack_threshold(N))
        for n in (17, 60, 77, 90):
            for j, t in boundary_cases(d, mu):
                offsets = [mu / 2] * (d + 1)
                offsets[j] = t
                alpha, cs = placed(n, [n + i + f for i, f in enumerate(offsets)])
                cfg_n = dataclasses.replace(cfg, c=CVector(cs, cfg.c.k))
                out = product_set(alpha, cfg_n, N)
                fracs = [[(m * alpha.to_fraction()) % 1] + [
                    (m * c.to_fraction() * alpha.to_fraction()) % 1
                    for c in cs] for m in range(1, N + 1)]
                assert [m for m, _ in out] == [
                    m for m, f in zip(range(1, N + 1), fracs)
                    if all(x < mu for x in f)]
                assert out == reference_product_set(alpha, cfg_n, N, float(mu))
                inside = t in (NEAR, mu - NEAR, 1 + NEAR)
                assert any(m == n for m, _ in out) == inside

    def test_semiprime_members_are_witness_products(self, golden_cfg,
                                                    table_big):
        alpha = constant("sqrt3")
        n_max = 10**5
        members = product_set(alpha, golden_cfg, n_max)
        _, tuples = count_witnesses(alpha, golden_cfg, n_max, table_big)
        witness_products = {t.p * t.r for t in tuples}
        for n, value in members:
            r = value // n
            if (n <= table_big.limit and r >= 2 and r <= table_big.limit
                    and table_big.is_prime(n) and table_big.is_prime(r)
                    and all(q >= 1 for q in
                            [int((n * ci.raw * alpha.raw) >> 256)
                             for ci in golden_cfg.c.entries])):
                # value = n * r is a product of two primes
                assert value == n * r
                assert value in witness_products


class TestSieveSide:
    def test_rows_build_product_set_once(self, golden_cfg, two_dim_cfg,
                                         monkeypatch):
        built = []
        product = counting.product_set

        def spy(*args):
            built.append(args)
            return product(*args)

        alpha = constant("sqrt3")
        for cfg, N, Q in ((golden_cfg, 2000, 3.0), (two_dim_cfg, 5000, 2.5),
                          (golden_cfg, 500, 0.5)):
            monkeypatch.setattr(counting, "product_set", spy)
            rows = list(sieve_side_rows(alpha, cfg, N, Q))
            monkeypatch.undo()
            assert len(built) == min(1, len(rows))
            built.clear()
            assert rows == [
                (t1, t2, sieve_side_counts(alpha, SieveSideParams.from_config(
                    cfg, N, t1, t2, Q=Q), cfg))
                for t1, t2 in congruence_pairs(Q)]

    def test_trivial_when_mu_large(self, golden_cfg):
        sp = SieveSideParams(N=100, mu_target=1.0, Q=10.0, L=1.0, t1=1, t2=1)
        res = sieve_side_counts(constant("sqrt3"), sp, golden_cfg)
        assert res.s_exact == 100
        assert res.main_term == pytest.approx(100.0)

    def test_matches_naive_loop(self, golden_cfg):
        alpha = constant("sqrt3")
        sp = SieveSideParams.from_config(golden_cfg, 10**4, 2, 3, Q=6.0)
        res = sieve_side_counts(alpha, sp, golden_cfg)
        mu = sp.mu_target
        af = alpha.to_fraction()
        cf = golden_cfg.c.entries[0].to_fraction()
        naive = 0
        for n in range(1, 10**4 // 2 + 1):
            c1 = (n * 2 * af / 3) % 1 < Fraction(mu) / 3
            c2 = (n * 2 * cf * af) % 1 < Fraction(mu)
            naive += bool(c1 and c2)
        assert res.s_exact == naive

    @pytest.mark.parametrize("cfg_name", ["golden_cfg", "two_dim_cfg"])
    def test_every_pair_matches_fraction_oracle(self, cfg_name, request):
        # s_exact for every pair of congruence_pairs(6), against exact
        # rational tests; L = 1 keeps the error box small
        cfg = request.getfixturevalue(cfg_name)
        rng = random.Random(20262)
        cs = [ci.to_fraction() for ci in cfg.c.entries]
        for N in (500, 2000):
            for mu in (float(N) ** cfg.exponent, 1.0):
                mu_fr = Fraction(mu)
                for _ in range(2):
                    alpha = FixedReal((1 << 128) + rng.getrandbits(128))
                    af = alpha.to_fraction()
                    slopes_ok = [all((m * c * af) % 1 < mu_fr for c in cs)
                                 for m in range(N + 1)]
                    for t1, t2 in congruence_pairs(6.0):
                        sp = SieveSideParams(N=N, mu_target=mu, Q=6.0, L=1.0,
                                             t1=t1, t2=t2)
                        want = sum(1 for n in range(1, N // t1 + 1)
                                   if slopes_ok[n * t1]
                                   and (n * t1 * af / t2) % 1 < mu_fr / t2)
                        res = sieve_side_counts(alpha, sp, cfg)
                        assert res.s_exact == want, (N, mu, t1, t2)

    @pytest.mark.parametrize("call", [
        lambda cfg, table: sieve_error_sum(constant("sqrt3"), cfg, 0, table),
        lambda cfg, table: product_set(constant("sqrt3"), cfg, 0),
        lambda cfg, table: WindowParams.from_config(cfg, 0),
        lambda cfg, table: SieveSideParams.from_config(cfg, 0)])
    def test_level_zero_rejected(self, golden_cfg, table_small, call):
        with pytest.raises(ContractError, match="x > 0"):
            call(golden_cfg, table_small)

    @pytest.mark.parametrize("mu", [math.nan, 0.0, -1.0, 1.5])
    def test_params_reject_mu_outside_unit_interval(self, mu):
        with pytest.raises(ContractError, match="mu_target"):
            SieveSideParams(N=100, mu_target=mu, Q=10.0, L=1.0, t1=1, t2=1)

    @pytest.mark.parametrize("t1, t2", [(0, 1), (1, 0), (-1, 2), (3, 4)])
    def test_params_check_moduli_when_built_directly(self, t1, t2):
        with pytest.raises(ContractError):
            SieveSideParams(N=100, mu_target=0.5, Q=10.0, L=1.0, t1=t1, t2=t2)

    def test_error_bound_inequality(self, golden_cfg):
        alpha = constant("sqrt3")
        for (t1, t2) in [(1, 1), (1, 2), (2, 1), (2, 3)]:
            sp = SieveSideParams.from_config(golden_cfg, 4000, t1, t2, Q=8.0)
            res = sieve_side_counts(alpha, sp, golden_cfg)
            slack = sp.N * sp.mu_target ** golden_cfg.d / sp.L
            assert abs(res.s_exact - res.main_term) <= res.e_bound + slack

    def test_asymmetry_permitted(self, golden_cfg):
        alpha = constant("sqrt3")
        s12 = sieve_side_counts(alpha, SieveSideParams.from_config(
            golden_cfg, 10**4, 2, 3, Q=6.0), golden_cfg)
        s21 = sieve_side_counts(alpha, SieveSideParams.from_config(
            golden_cfg, 10**4, 3, 2, Q=6.0), golden_cfg)
        assert s12.s_exact != s21.s_exact  # congruence roles differ

    def test_raw_below_majorant(self, golden_cfg):
        alpha = constant("sqrt3")
        sp = SieveSideParams.from_config(golden_cfg, 500, 1, 2, Q=2.0)
        raw = sieve_side_error_raw(alpha, sp, golden_cfg)
        res = sieve_side_counts(alpha, sp, golden_cfg)
        assert raw <= res.e_bound * (1 + 1e-9)

    @settings(max_examples=40)
    @given(d=st.integers(1, 2), data=st.data(),
           kind=st.sampled_from(("named", "dyadic", "one", "half")),
           N=st.integers(1, 2000),
           pair=st.sampled_from(((1, 1), (1, 2), (2, 1))))
    def test_raw_closed_form_matches_reference(self, d, data, kind, N, pair):
        # "one": c = alpha = 1, every theta an integer and |S| = K;
        # "half": c = 1/2, alpha = 1, half-integer thetas
        if kind == "named":
            slopes = [constant(data.draw(NAMED_SLOPES)) for _ in range(d)]
        elif kind == "dyadic":
            slopes = [FixedReal.from_float(data.draw(dyadic_slopes()))
                      for _ in range(d)]
        else:
            slopes = [FixedReal.from_float(1.0 if kind == "one" else 0.5)] * d
        alpha = (FixedReal(data.draw(st.integers(1 << 128, (1 << 129) - 1)))
                 if kind in ("named", "dyadic") else FixedReal(1 << 128))
        cfg = ApproxConfig(c=CVector(tuple(slopes), float(d)),
                           epsilon=0.1 / d**2, A=1.0, B=2.0)
        # the reference costs box * N/t1 Python steps
        L = data.draw(st.integers(1, 3 if d == 1 else 1))
        sp = SieveSideParams(N=N, mu_target=float(N) ** cfg.exponent, Q=2.0,
                             L=float(L), t1=pair[0], t2=pair[1])
        assert sieve_side_error_raw(alpha, sp, cfg) == pytest.approx(
            reference_error_raw(alpha, sp, cfg), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("cfg_name, alpha_name", [
        ("golden_cfg", "sqrt3"), ("golden_cfg", "sqrt2"),
        ("two_dim_cfg", "phi")])
    def test_raw_below_majorant_at_benchmark_scale(self, cfg_name, alpha_name,
                                                   request):
        cfg = request.getfixturevalue(cfg_name)
        alpha = constant(alpha_name)
        N = 2**18
        qq = float(N) ** cfg.epsilon
        pairs = list(congruence_pairs(qq))
        assert len(pairs) == (5 if cfg.d == 1 else 1)
        for t1, t2 in pairs:
            sp = SieveSideParams.from_config(cfg, N, t1, t2, Q=qq)
            raw = sieve_side_error_raw(alpha, sp, cfg)
            res = sieve_side_counts(alpha, sp, cfg)
            assert 0.0 < raw <= res.e_bound * (1 + 1e-9), (t1, t2)

    def test_error_sum_trivialities(self, golden_cfg, table_small):
        alpha = constant("sqrt3")
        assert sieve_error_sum(alpha, golden_cfg, 100, table_small, Q=0.5) == 0.0
        assert list(congruence_pairs(0.5)) == []
        assert list(congruence_pairs(2.0)) == [(1, 1), (1, 2), (2, 1)]
        q = float(2**18) ** golden_cfg.epsilon  # 3.48...
        assert list(congruence_pairs(q)) == [(1, 1), (1, 2), (1, 3), (2, 1),
                                             (3, 1)]

    @pytest.mark.parametrize("dims", [2, 3, 4])
    @pytest.mark.parametrize("l_int", [0, 1, 2, 3])
    def test_half_box_grid_is_half_box(self, dims, l_int):
        # the grid the majorant builds from its axes is the half box: its
        # e_bound equals the same sum over the rows of fixedreal.half_box,
        # bit for bit at d = 1, where each phase is one product and one sum
        cfg = ApproxConfig(c=CVector(tuple(constant(n) for n in
                                           ("sqrt2", "sqrt3", "phi")[:dims - 1]),
                                     float(dims)),
                           epsilon=0.01, A=1.0, B=2.0)
        alpha = FixedReal.from_float(1.2345)
        sp = SieveSideParams(N=200, mu_target=0.5, Q=6.0, L=l_int + 0.5,
                             t1=2, t2=3)
        rows = np.array(list(half_box([range(-l_int, l_int + 1)] * dims)),
                        dtype=np.float64).reshape(-1, dims)
        val = alpha.to_float() * 2 * (rows[:, 0] / 3 + rows[:, 1:]
                                      @ np.array(cfg.c.floats()))
        with np.errstate(divide="ignore"):
            terms = np.minimum(100.0, 1.0 / np.abs(val - np.round(val)))
        want = 0.5 ** dims / 3 * 2.0 * np.sum(terms)
        got = sieve_side_counts(alpha, sp, cfg).e_bound
        assert got == want if dims == 2 else got == pytest.approx(want, rel=1e-12)

    def test_box_cap_checked_before_any_work(self, golden_cfg, table_small,
                                             monkeypatch):
        # L = 2 and d = 1: the full box max|m_i| <= 2 has 5**2 = 25 points
        alpha = constant("sqrt3")
        sp = SieveSideParams(N=100, mu_target=0.5, Q=1.0, L=2.5, t1=1, t2=1)
        q = 1.2  # floor(q**3 / 100**-0.1) = 2
        assert SieveSideParams.from_config(golden_cfg, 100, Q=q).L // 1 == 2
        sieve_error_sum(alpha, golden_cfg, 100, table_small, Q=q, cap=25)
        sieve_side_counts(alpha, sp, golden_cfg, cap=25)
        sieve_side_error_raw(alpha, sp, golden_cfg, cap=25)

        def no_scan(*args):
            raise AssertionError("product set scanned")

        monkeypatch.setattr(counting, "product_set", no_scan)
        for call in (
                lambda: sieve_error_sum(alpha, golden_cfg, 100, table_small,
                                        Q=q, cap=24),
                lambda: sieve_side_counts(alpha, sp, golden_cfg,
                                          cap=24),
                lambda: sieve_side_error_raw(alpha, sp, golden_cfg, cap=24)):
            with pytest.raises(ResourceCapError, match="box of 25 points"):
                call()

    @pytest.mark.parametrize("cfg_name", ["golden_cfg", "two_dim_cfg"])
    def test_half_box_sums_match_full_box_reference(self, cfg_name, request,
                                                     table_small):
        cfg = request.getfixturevalue(cfg_name)
        rng = random.Random(20260)
        for N in (100, 10**3, 10**4, 2**15):
            for q in (None, 1.5, 2.0):
                alpha = FixedReal((1 << 128) + rng.getrandbits(128))
                got = sieve_error_sum(alpha, cfg, N, table_small, Q=q)
                want = reference_sieve_error_sum(alpha, cfg, N, Q=q)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                qq = float(N) ** cfg.epsilon if q is None else q
                for t1, t2 in congruence_pairs(qq):
                    sp = SieveSideParams.from_config(cfg, N, t1, t2, Q=qq)
                    res = sieve_side_counts(alpha, sp, cfg)
                    assert res.e_bound == pytest.approx(
                        reference_majorant(alpha, sp, cfg), rel=1e-12, abs=0.0)
                    # the reference costs box * N/t1 Python steps
                    l_int = int(math.floor(sp.L))
                    if (2 * l_int + 1) ** (cfg.d + 1) * (N // t1) <= 200_000:
                        assert sieve_side_error_raw(alpha, sp, cfg) \
                            == pytest.approx(reference_error_raw(alpha, sp, cfg),
                                             rel=1e-12, abs=0.0)


class TestIntervalStructure:
    def test_segments_disjoint_within_prime(self, golden_cfg, table_small):
        from diophlab.counting import _exact_prime_segments, _window_primes

        ps, eta = _window_primes(1.0, 2.0, golden_cfg, 500, table_small)
        primes = table_small.primes
        for p, _, segments in _exact_prime_segments(
                1.0, 2.0, golden_cfg, ps, eta, primes,
                *_pair_ranges(primes, ps, 1.0, 2.0)):
            ordered = sorted(segments)
            for (l1, h1), (l2, h2) in zip(ordered, ordered[1:]):
                assert h1 <= l2  # disjoint: sum of lengths = measure of union
