import itertools
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diophlab import counting, harness
from diophlab.counting import (ApproxConfig, WindowParams, window_counts,
                               witness_integral)
from diophlab.errors import ContractError, RangeError
from diophlab.fixedreal import CVector, FixedReal, constant
from diophlab.fourier import dist_multiples, frac_multiples
from diophlab.harness import (
    average_error_check,
    bound_audit,
    kronecker_samples,
    limsup_track,
    lower_bound_check,
    min_dist_integral,
    upper_bound_check,
)
from diophlab.vaughan import b_array


class TestKronecker:
    def test_deterministic_and_in_range(self):
        a = kronecker_samples(1.0, 2.0, 32, 7)
        b = kronecker_samples(1.0, 2.0, 32, 7)
        assert [x.raw for x in a] == [x.raw for x in b]
        assert all(1.0 <= x.to_float() <= 2.0 for x in a)
        c = kronecker_samples(1.0, 2.0, 32, 8)
        assert [x.raw for x in a] != [x.raw for x in c]


class TestLowerBound:
    def test_trivial_grid(self, golden_cfg, table_small):
        report = lower_bound_check(1.0, 2.0, [1, 2], golden_cfg,
                                   table=table_small)
        assert report.rows[0].integral == 0
        assert report.rows[0].ratio == 0.0
        assert report.rows[1].integral > 0  # p = 2 already contributes

    def test_integral_column_additive(self, golden_cfg, table_small):
        left = lower_bound_check(1.0, 1.5, [2000], golden_cfg, table=table_small,
                                 method="exact")
        right = lower_bound_check(1.5, 2.0, [2000], golden_cfg, table=table_small,
                                  method="exact")
        whole = lower_bound_check(1.0, 2.0, [2000], golden_cfg, table=table_small,
                                  method="exact")
        assert (left.rows[0].integral + right.rows[0].integral
                == whole.rows[0].integral)

    def test_column_matches_witness_integral(self, golden_cfg, table_small):
        report = lower_bound_check(1.0, 2.0, [500, 1000], golden_cfg,
                                   table=table_small)
        for row in report.rows:
            direct = witness_integral(1.0, 2.0, golden_cfg, row.N, table_small)
            assert row.integral == direct

    GRIDS = {  # (cfg fixture, method, grid)
        "d1-auto": ("golden_cfg", "auto",
                    [0, 1, 2, 2**10, 2**13, 2**13, 20_000, 20_001, 2**15]),
        "d1-exact": ("golden_cfg", "exact", [1, 2**9, 2**10, 2**10, 2**11]),
        "d1-fast": ("golden_cfg", "fast", [2, 2**10, 2**12, 2**14, 2**14]),
        "d2-auto": ("two_dim_cfg", "auto",
                    [0, 1, 2**8, 2**9, 2**9, 2**10, 2**15]),
        "d2-fast": ("two_dim_cfg", "fast", [1, 2**8, 2**12, 2**14]),
    }

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_rows_equal_per_n_integrals(self, request, table_small, name):
        # the running block sums against one witness_integral call per N:
        # the same Fraction on the exact rows, rounding on the fast ones
        cfg_name, method, grid = self.GRIDS[name]
        cfg = request.getfixturevalue(cfg_name)
        report = lower_bound_check(1.125, 1.625, grid, cfg, table=table_small,
                                   method=method)
        assert [r.N for r in report.rows] == grid
        for row in report.rows:
            direct = witness_integral(1.125, 1.625, cfg, row.N, table_small,
                                      method=method)
            assert type(row.integral) is type(direct)
            if isinstance(direct, Fraction):
                assert row.integral == direct
                assert hash(row.integral) == hash(direct)
            else:
                assert math.isclose(row.integral, direct, rel_tol=1e-12)

    @pytest.mark.parametrize("name", ["d1-auto", "d2-fast"])
    def test_rows_equal_with_two_threads(self, request, table_small,
                                         monkeypatch, name):
        cfg_name, method, grid = self.GRIDS[name]
        cfg = request.getfixturevalue(cfg_name)
        serial = lower_bound_check(1.125, 1.625, grid, cfg, table=table_small,
                                   method=method)
        monkeypatch.setenv("DIOPH_LAB_THREADS", "2")
        threaded = lower_bound_check(1.125, 1.625, grid, cfg,
                                     table=table_small, method=method)
        assert threaded == serial

    @pytest.mark.parametrize("name", ["d1-auto", "d2-auto"])
    def test_kernels_see_each_prime_once(self, request, table_small,
                                         monkeypatch, name):
        # per grid, the exact kernels and the fast kernel each take a prime
        # at most once; the sum restarts once, where 'auto' turns fast
        seen = {"exact": [], "fast": []}

        def spy(kernel, kind, arg):
            def wrapped(*args):
                seen[kind] += args[arg].tolist()
                return kernel(*args)
            return wrapped

        for kernel, kind, arg in [("_d1_exact_sum", "exact", 3),
                                  ("_rank_exact_sum", "exact", 3),
                                  ("_band_sum", "fast", 1)]:
            monkeypatch.setattr(counting, kernel,
                                spy(getattr(counting, kernel), kind, arg))
        cfg_name, method, grid = self.GRIDS[name]
        lower_bound_check(1.125, 1.625, grid, request.getfixturevalue(
            cfg_name), table=table_small, method=method)
        for kind, top in (("exact", 20_000), ("fast", grid[-1])):
            primes = table_small.primes_between(2, max(
                n for n in grid if n <= top))
            assert sorted(seen[kind]) == primes.tolist()

    def test_small_grid_ratios_positive(self, golden_cfg, table_small):
        # drift per octave is larger at small N; widen the pinned slack here
        report = lower_bound_check(1.0, 2.0, [2**e for e in range(10, 14)],
                                   golden_cfg, table=table_small,
                                   drift_tolerance=0.06)
        assert all(r.ratio > 0 for r in report.rows)
        assert report.trend_regression_ok

    def test_grid_must_ascend(self, golden_cfg, table_small):
        with pytest.raises(ContractError):
            lower_bound_check(1.0, 2.0, [4096, 1024], golden_cfg,
                              table=table_small)

    def test_grid_must_not_be_empty(self, golden_cfg, table_small):
        for table in (None, table_small):
            with pytest.raises(ContractError):
                lower_bound_check(1.0, 2.0, [], golden_cfg, table=table)

    @pytest.mark.parametrize("a, method, message", [
        (1.0, "bogus", "unknown method"),
        (Fraction(4, 3), "fast", "multiples of 2"),
        (0.5, "exact", "need A <= a < b <= B")],
        ids=["method", "non-dyadic", "outside"])
    def test_input_checked_before_the_table(self, golden_cfg, monkeypatch, a,
                                            method, message):
        def no_build(limit):
            raise AssertionError("a table was built")

        monkeypatch.setattr(harness, "build_arith_table", no_build)
        with pytest.raises(ContractError, match=message):
            lower_bound_check(a, 2.0, [2**22], golden_cfg, method=method)


class TestGridChecks:
    CHECKS = {
        "lower": lambda grid, cfg, table: lower_bound_check(
            1.0, 2.0, grid, cfg, table=table),
        "upper": lambda grid, cfg, table: upper_bound_check(
            grid, cfg, 10, 3, table=table),
        "limsup": lambda grid, cfg, table: limsup_track(
            constant("sqrt3"), cfg, grid, table=table),
        "average": lambda grid, cfg, table: average_error_check(grid, cfg),
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("grid, message", [
        ([], "must not be empty"), ([4096, 1024], "must be ascending")])
    def test_shared_grid_validation(self, golden_cfg, table_small, check,
                                    grid, message):
        for table in (None, table_small):
            with pytest.raises(ContractError, match=message):
                self.CHECKS[check](grid, golden_cfg, table)

    @pytest.mark.parametrize("grid", [[1], [0, 1000], [-3, 1000]])
    def test_average_error_needs_n_at_least_2(self, golden_cfg, grid,
                                              monkeypatch):
        def no_build(limit):
            raise AssertionError("the average error check builds no table")

        monkeypatch.setattr(harness, "build_arith_table", no_build)
        with pytest.raises(ContractError, match="must be at least 2"):
            average_error_check(grid, golden_cfg)


class TestUpperBound:
    def test_k_est_zero_at_tiny_n(self, golden_cfg, table_small):
        report = upper_bound_check([64, 128], golden_cfg, 10, 3,
                                   table=table_small)
        assert report.k_est == 0.0
        assert all(v >= 0 for v in report.v_n_values)

    def test_stability_under_doubling(self, golden_cfg, table_small):
        r1 = upper_bound_check([1024, 4096], golden_cfg, 12, 5,
                               table=table_small)
        r2 = upper_bound_check([1024, 4096], golden_cfg, 24, 5,
                               table=table_small)
        scale = max(r1.k_est, r2.k_est, 1e-9)
        assert abs(r1.k_est - r2.k_est) <= 0.2 * scale

    def test_ratio_trend_pinned(self, golden_cfg, table_small):
        # Artifact-derived regression: with the min-majorant error path the
        # sampled V_N/G_N grows at desk scale (the alpha-average claim is
        # about the raw sums; the majorant has a heavy pointwise tail).
        report = upper_bound_check([2**10, 2**12, 2**14], golden_cfg, 12, 7,
                                   table=table_small)
        ratios = [r[3] for r in report.rows]
        assert ratios[0] < ratios[1] < ratios[2]


class TestLimsupTrack:
    def test_zero_counts(self, golden_cfg, table_small):
        # alpha chosen so frac(p*alpha) exceeds the threshold for p in {2, 3}
        alpha = FixedReal.from_decimal("1.975")
        rows = limsup_track(alpha, golden_cfg, [2, 4], table=table_small)
        assert [r[1] for r in rows] == [0.0, 0.0]

    def test_running_max_monotone(self, golden_cfg, table_small):
        rows = limsup_track(constant("sqrt3"), golden_cfg,
                            [2**e for e in range(10, 16)], table=table_small)
        run = [r[2] for r in rows]
        assert run == sorted(run)
        assert run[-1] > 0.3  # pilot-pinned, far above

    def test_ratio_definition(self, golden_cfg, table_small):
        from diophlab.counting import count_witnesses, target_growth

        rows = limsup_track(constant("sqrt3"), golden_cfg, [4096],
                            table=table_small)
        count, _ = count_witnesses(constant("sqrt3"), golden_cfg, 4096,
                                   table_small, collect=False)
        assert rows[0][1] == pytest.approx(count / target_growth(golden_cfg,
                                                                 4096))


class TestBoundAudit:
    def test_short_table_raises_range_error(self, golden_cfg):
        from diophlab.arith import build_arith_table

        with pytest.raises(RangeError, match="table limit too small") as err:
            bound_audit(1001, golden_cfg, build_arith_table(2000))
        assert not isinstance(err.value, ContractError)

    def test_rows_present_and_finite(self, golden_cfg, table_small):
        rows = bound_audit(2**10, golden_cfg, table_small)
        labels = [r.label for r in rows]
        for want in ("Z1", "Z2_L", "Z2", "U_tilde", "V_tilde", "V_A", "T_A"):
            assert want in labels
        for r in rows:
            assert math.isfinite(r.ratio) and r.ratio > 0

    def test_polynomial_sum_below_weighted_sum(self, golden_cfg, table_small):
        rows = {r.label: r for r in bound_audit(2**10, golden_cfg, table_small)}
        assert rows["U_A_vs_U_tilde"].ratio <= 1.0 + 1e-9

    def test_z1_geometric_sum_bound(self, golden_cfg, table_small):
        # with degree 1 the index range is a single dyad; the suffix maxima
        # are bounded by the geometric-sum estimate min(window, 1/(2 dist))
        P = 2**10
        rows = {r.label: r for r in bound_audit(P, golden_cfg, table_small,
                                                degree=1)}
        a, b = golden_cfg.A, golden_cfg.B
        mu = (a + b) / (2 * a)
        u_sq = int((float(P) ** 0.4) ** 2)
        theta = golden_cfg.c.entries[0]
        ls = np.arange(1, u_sq + 1, dtype=np.int64)
        dists = dist_multiples(theta, ls)
        windows = np.maximum(
            np.floor(b * P / ls) - np.ceil(P * a * mu / ls) + 1, 0)
        rhs = 2.0 * float(np.sum(np.minimum(windows, 1.0 / (2.0 * dists))))
        assert rows["Z1"].exact_value <= rhs + 1e-6

    def test_ratio_growth_between_scales(self, golden_cfg, table_small):
        small = {r.label: r for r in bound_audit(2**10, golden_cfg, table_small)}
        large = {r.label: r for r in bound_audit(2**13, golden_cfg, table_small)}
        for label in ("Z1", "Z2_L", "V_tilde", "T_A"):
            growth = large[label].ratio / small[label].ratio
            assert growth <= math.log(2.0**13) ** 3

    @pytest.mark.parametrize("P, u", [(0, None), (1, None), (-5, None),
                                      (2**10, 0.0), (2**10, 0.5),
                                      (2**10, math.nan), (2**10, math.inf)])
    def test_bad_input_raises_contract_error(self, golden_cfg, table_small,
                                             P, u):
        with pytest.raises(ContractError):
            bound_audit(P, golden_cfg, table_small, u=u)

    @pytest.mark.parametrize("P", [2, 3, 4, 5, 9])
    def test_empty_lambda_window_raises_contract_error(self, golden_cfg, P):
        # with B/A = 1.1 the window [ceil(1.05 P), floor(1.1 P)] is empty
        # for these P, although the table covers it
        from diophlab.arith import build_arith_table

        cfg = ApproxConfig(c=golden_cfg.c, epsilon=golden_cfg.epsilon,
                           A=1.0, B=1.1)
        table = build_arith_table(1000)
        with pytest.raises(ContractError, match="empty Lambda window"):
            bound_audit(P, cfg, table)
        wp = WindowParams.from_config(cfg, P)
        assert window_counts(wp, cfg, table).weighted == 0.0
        assert len(bound_audit(10, cfg, table)) == 9

    def test_huge_split_returns_quickly(self, golden_cfg, table_small):
        # the Z1 l-range stops at bP, past which every m-window is empty;
        # with u**2 > bP no Z2 term survives, and Z2(L) keeps L = floor(u)
        t0 = time.perf_counter()
        rows = {r.label: r for r in bound_audit(2**10, golden_cfg,
                                                table_small, u=1e9)}
        assert time.perf_counter() - t0 < 0.5
        assert rows["Z2"].exact_value == 0.0
        assert rows["Z2_L"].exact_value == 0.0
        assert rows["Z2_L"].parameters["L"] == 10**9
        assert rows["Z1"].exact_value > 0.0

    def test_one_phase_call_per_theta(self, golden_cfg, table_small,
                                      monkeypatch):
        sizes, layout_lines = [], []

        def spy(theta, n):
            sizes.append(len(n))
            return frac_multiples(theta, n)

        def trace_audit(frame, event, arg):
            if frame.f_code is not bound_audit.__code__:
                return None

            def count_lines(frame, event, arg):
                if event == "line" and len(sizes) <= golden_cfg.d:
                    layout_lines.append(frame.f_lineno)
                return count_lines
            return count_lines

        monkeypatch.setattr(harness, "frac_multiples", spy)
        outer = sys.gettrace()
        sys.settrace(trace_audit)
        try:
            bound_audit(2**13, golden_cfg, table_small)
        finally:
            sys.settrace(outer)
        # one call per slope over the Lambda window [12288, 16384], then one
        # per theta (J = 6) over the table of the distinct l*m, which is the
        # same window here.  Calls on a copy of every l*m made 205,695
        # elements in chunks; one call per (theta, l) pair made 9,218 calls.
        assert sizes == [4097] * (golden_cfg.d + 6)
        assert sum(sizes) == 28_679
        # the layout is built by array operations: a Python loop over the
        # l <= u**2 = 1351 of the Z1 windows made 14,779 line events here
        assert len(layout_lines) < 1000

    def test_audit_memory_bounded(self, golden_cfg, table_big):
        # one phase table per theta over the distinct l*m: about 9 MiB at
        # this size, against 18.4 MiB for a copy of every l*m in chunks
        bound_audit(2**10, golden_cfg, table_big)
        tracemalloc.start()
        try:
            bound_audit(2**16, golden_cfg, table_big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_doubling_exact_t_a(self, golden_cfg, table_big):
        # Two-point slope check, artifact-derived pin: T_A oscillates, and
        # at this particular pair the raw growth factor is ~3.9, above the
        # smooth-growth guess 2**(1-1/(3k+2)) * 1.5 but far below the
        # log-power slack the audit criterion allows.
        r1 = {r.label: r for r in bound_audit(10**4, golden_cfg, table_big)}
        r2 = {r.label: r for r in bound_audit(2 * 10**4, golden_cfg, table_big)}
        factor = r2["T_A"].exact_value / r1["T_A"].exact_value
        assert factor == pytest.approx(3.873, rel=0.05)
        assert factor <= math.log(2 * 10**4) ** 3


def reference_theta_sums(P, cfg, table, u=None):
    """U_tilde, Z1, Z2 and Z2(L) of ``bound_audit`` at its default J and
    split u (or the given u), in four separate loops over magnitudes then
    signs (the mirror image j -> -j skipped), each Z2(L) block recomputing
    its inner sums, every phase reduced by its own call.

    Returns (Z1, Z2, Z2_L, its L, U_tilde).
    """
    k, d = cfg.c.k, cfg.d
    a, b = cfg.A, cfg.B
    mu = (a + b) / (2.0 * a)
    J = max(1, int(float(P) ** (1.0 / (3.0 * k + 2.0))))
    uu = float(P) ** 0.4 if u is None else u
    n_lo = int(math.ceil(P * a * mu))
    n_hi = int(math.floor(b * P))
    lam = table.von_mangoldt_range(n_lo, n_hi)
    support = np.nonzero(lam)[0]
    ns = (support + n_lo).astype(np.int64)
    lam_s = lam[support]
    craws = [ci.raw for ci in cfg.c.entries]

    def half_index_box():
        for mags in itertools.product(range(1, J + 1), repeat=d):
            weight = 1.0
            for m in mags:
                weight /= m
            for signs in itertools.product((1, -1), repeat=d):
                v = [s * m for s, m in zip(signs, mags)]
                first = next(c for c in v if c != 0)
                if first < 0:
                    continue
                yield weight, sum(vi * cr for vi, cr in zip(v, craws))

    u_tilde = 0.0
    for weight, theta_raw in half_index_box():
        phases = frac_multiples(FixedReal(theta_raw), ns)
        z = np.sum(lam_s * np.exp(2j * np.pi * phases))
        u_tilde += 2.0 * weight * abs(z)

    u_sq = int(min(uu * uu, n_hi))  # every window past l = bP is empty
    z1 = 0.0
    for weight, theta_raw in half_index_box():
        acc = 0.0
        for l in range(1, u_sq + 1):
            m_lo = max(1, int(math.ceil(P * a * mu / l)))
            m_hi = int(math.floor(b * P / l))
            if m_hi < m_lo:
                continue
            ms = np.arange(m_lo, m_hi + 1, dtype=np.int64)
            phases = frac_multiples(FixedReal(theta_raw * l), ms)
            suffix = np.cumsum(np.exp(2j * np.pi * phases)[::-1])
            acc += float(np.max(np.abs(suffix)))
        z1 += 2.0 * weight * acc

    l_min = int(math.floor(a * mu * uu / b))
    l_max = int(math.floor(b * P / uu))
    bl = b_array(max(2 * l_max + 1, 2), uu, table)
    lam_all = table.von_mangoldt_range(1, n_hi)
    ns_lam = (np.nonzero(lam_all)[0] + 1).astype(np.int64)

    def z2_block(l_start, l_end, theta_raw, absolute_inside):
        acc_signed = 0j
        acc_abs = 0.0
        for l in range(max(1, l_start), l_end + 1):
            coeff = int(bl[l])
            if coeff == 0:
                continue
            m1 = max(int(uu) + 1, int(math.ceil(P * a * mu / l)))
            m2 = int(math.floor(b * P / l))
            if m2 < m1:
                continue
            lo_i = np.searchsorted(ns_lam, m1, side="left")
            hi_i = np.searchsorted(ns_lam, m2, side="right")
            if hi_i <= lo_i:
                continue
            sub = ns_lam[lo_i:hi_i]
            phases = frac_multiples(FixedReal(theta_raw * l), sub)
            inner = np.sum(lam_all[sub - 1] * np.exp(2j * np.pi * phases))
            if absolute_inside:
                acc_abs += abs(coeff) * abs(inner)
            else:
                acc_signed += coeff * inner
        return acc_abs if absolute_inside else abs(acc_signed)

    z2 = 0.0
    for weight, theta_raw in half_index_box():
        z2 += 2.0 * weight * z2_block(l_min, l_max, theta_raw, False)
    z2_l_best = 0.0
    z2_l_arg = L = max(int(uu), 1)
    while L <= l_max:
        val = 0.0
        for weight, theta_raw in half_index_box():
            val += 2.0 * weight * z2_block(L, min(2 * L, l_max), theta_raw,
                                           True)
        if val > z2_l_best:
            z2_l_best, z2_l_arg = val, L
        L *= 2
    return z1, z2, z2_l_best, z2_l_arg, u_tilde


class TestBoundAuditReference:
    # at 2**11 the block ends l = min(2L, l_max) have b(l) != 0, so a block
    # that drops or double-counts its end shows there
    @pytest.mark.parametrize("P", [2**8, 2**10, 2**11])
    @pytest.mark.parametrize("window", [(1.0, 1.5), (11 / 8, 15 / 8)])
    @pytest.mark.parametrize("cfg_name", ["golden_cfg", "two_dim_cfg"])
    def test_theta_sums_bit_identical(self, request, table_small, cfg_name,
                                      window, P):
        self.assert_theta_sums_match(request.getfixturevalue(cfg_name),
                                     window, P, table_small)

    def test_theta_sums_bit_identical_across_chunks(self, golden_cfg,
                                                    table_small):
        # the largest case (the name is from the chunked phase calls): at
        # 2**13 the phase table has 2,049 entries, the Z1 windows 13
        # power-of-two widths and the 139 Z2 terms 11 lengths
        self.assert_theta_sums_match(golden_cfg, (1.0, 1.5), 2**13,
                                     table_small)

    # On windows [e0/8, e1/8], P * a * mu = P * (e0 + e1) / 16 is an
    # integer where 16 divides P, so the float ceil of P * a * mu / l sits
    # on its edge for the l that divide it.  The phase table must reach
    # every multiplier, wherever that puts its ends.
    @settings(max_examples=8)
    @example(P=48, ends=[9, 12])  # fl(P * a * mu) is one ulp above 63
    @example(P=1000, ends=[11, 15])
    @given(P=st.integers(40, 700) | st.integers(3, 44).map(lambda q: 16 * q),
           ends=st.lists(st.integers(8, 16), min_size=2, max_size=2,
                         unique=True).map(sorted))
    @pytest.mark.parametrize("u", [None, 1.0, 2.5, 1e9])
    @pytest.mark.parametrize("d", [1, 2])
    def test_theta_sums_match_reference_random(self, table_small, d, u, P,
                                               ends):
        if d == 1:
            base = ApproxConfig(c=CVector((constant("phi"),), 1.0),
                                epsilon=0.1, A=1.0, B=2.0)
        else:
            base = ApproxConfig(c=CVector((constant("sqrt2"),
                                           constant("sqrt3")), 2.0),
                                epsilon=0.05, A=1.0, B=2.0)
        self.assert_theta_sums_match(base, (ends[0] / 8, ends[1] / 8), P,
                                     table_small, u)

    @staticmethod
    def assert_theta_sums_match(base, window, P, table, u=None):
        cfg = ApproxConfig(c=base.c, epsilon=base.epsilon,
                           A=window[0], B=window[1])
        z1, z2, z2_l, z2_l_arg, u_tilde = reference_theta_sums(P, cfg, table,
                                                               u)
        rows = {r.label: r for r in bound_audit(P, cfg, table, u=u)}
        assert rows["Z1"].exact_value == z1
        assert rows["Z2"].exact_value == z2
        assert rows["Z2_L"].exact_value == z2_l
        assert rows["Z2_L"].parameters["L"] == z2_l_arg
        assert rows["U_tilde"].exact_value == u_tilde
        assert rows["U_tilde_vs_split"].exact_value == u_tilde
        assert rows["U_tilde_vs_split"].bound \
            == math.log(2.0 * P) * z1 + z2


class TestMinDistIntegral:
    def test_tiny_x_trivial_case(self):
        # |x|(B-A) < 1/K: integrand is constantly K, ratio <= (B-A)/log K
        for K in (10.0, 100.0):
            integral, bound = min_dist_integral(1.0, 2.0, K, 1e-3)
            assert integral == pytest.approx(K, rel=1e-9)
            assert integral / bound <= (2.0 - 1.0) / math.log(K) + 1e-9

    def test_closed_form_oracle(self):
        # K=2 on [0,1]: dist <= 1/2 everywhere so the integrand is exactly 2
        integral, bound = min_dist_integral(0.0, 1.0, 2.0, 1.0)
        assert integral == pytest.approx(2.0, rel=1e-9)
        assert integral / bound <= 4.0

    def test_piecewise_oracle_k10(self):
        # one period: 2*(1 + log(K/2)) via the piecewise closed form
        integral, _ = min_dist_integral(0.0, 1.0, 10.0, 1.0)
        assert integral == pytest.approx(2.0 * (1.0 + math.log(5.0)), rel=1e-6)

    def test_additive_in_interval(self):
        i1, _ = min_dist_integral(1.0, 1.5, 50.0, 3.0)
        i2, _ = min_dist_integral(1.5, 2.0, 50.0, 3.0)
        i12, _ = min_dist_integral(1.0, 2.0, 50.0, 3.0)
        assert i1 + i2 == pytest.approx(i12, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ContractError):
            min_dist_integral(1.0, 2.0, 1.5, 1.0)
        with pytest.raises(ContractError):
            min_dist_integral(1.0, 2.0, 10.0, 0.0)
        with pytest.raises(ContractError):
            min_dist_integral(1.0, 2.0, 10.0, 1.0, resolution=10)


class TestAverageError:
    def test_nonnegative_and_pinned_trend(self, golden_cfg, monkeypatch):
        def no_build(limit):
            raise AssertionError("the average error check builds no table")

        monkeypatch.setattr(harness, "build_arith_table", no_build)
        rows = average_error_check([10**3, 10**4], golden_cfg,
                                   alpha_samples=16)
        assert all(lhs >= 0 for _, lhs, _, _ in rows)
        # Artifact-derived regression: with the majorant error path the
        # ratio grows over this range (see upper-bound trend note).
        assert rows[0][3] < rows[1][3]


class TestDeterminismInvariants:
    def test_audit_rows_bit_identical(self, golden_cfg, table_small):
        a = bound_audit(2**10, golden_cfg, table_small)
        b = bound_audit(2**10, golden_cfg, table_small)
        assert [(r.label, r.exact_value, r.bound) for r in a] \
            == [(r.label, r.exact_value, r.bound) for r in b]

    def test_growth_target_diverges_on_grid(self, golden_cfg):
        from diophlab.counting import target_growth

        grid = [2**e for e in range(10, 21)]
        values = [target_growth(golden_cfg, n) for n in grid]
        assert values[-1] > 10 * values[0]

    def test_thread_cap_does_not_change_results(self, golden_cfg, table_small,
                                                monkeypatch):
        base = lower_bound_check(1.0, 2.0, [512, 1024, 2048], golden_cfg,
                                 table=table_small)
        monkeypatch.setenv("DIOPH_LAB_THREADS", "4")
        threaded = lower_bound_check(1.0, 2.0, [512, 1024, 2048], golden_cfg,
                                     table=table_small)
        assert [r.integral for r in base.rows] \
            == [r.integral for r in threaded.rows]
