import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab.errors import ContractError, RangeError, ResourceCapError
from diophlab.fixedreal import SCALE, CVector, FixedReal, constant, dist_nearest_int
from diophlab.fourier import (
    VaalerPolynomial,
    box_min_sum,
    dist_multiples,
    dyadic_weighted_min_sum,
    exp_sum,
    fejer_tau,
    fixed_limbs,
    frac_multiples,
    frac_raw_parts,
    limb_product,
    limbs_less,
    min_sum,
    min_sum_with_bound,
    sawtooth,
    sawtooth_array,
    vaaler_weight,
    weighted_index_box,
)

BUDGET = 2.0**-40


class TestSawtooth:
    @pytest.mark.parametrize("x,val", [(0.25, -0.25), (3.5, 0.0), (-0.25, 0.25),
                                       (2.0, -0.5)])
    def test_values(self, x, val):
        assert sawtooth(x) == pytest.approx(val, abs=1e-15)


class TestWeight:
    def test_half(self):
        assert vaaler_weight(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_zero_limit(self):
        assert vaaler_weight(0.0) == 1.0
        assert vaaler_weight(1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_even(self):
        for t in (0.1, 0.25, 0.5, 0.9):
            assert vaaler_weight(-t) == pytest.approx(vaaler_weight(t), abs=1e-14)

    def test_domain(self):
        with pytest.raises(RangeError):
            vaaler_weight(1.0)


class TestVaalerPolynomial:
    def test_coefficient_identity(self):
        poly = VaalerPolynomial.build(7)
        for j in range(1, 8):
            want = -1.0 / (2j * math.pi * j) * vaaler_weight(j / 8)
            got = poly.psi_star_coeffs[j]
            assert got == pytest.approx(want, abs=1e-15)
        for j in range(8):
            assert poly.tau_coeffs[j] == pytest.approx((1 - j / 8) / 16)

    def test_tau_at_zero_is_half(self):
        for degree in (1, 5, 10, 50):
            poly = VaalerPolynomial.build(degree)
            assert poly.tau(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_psi_star_odd_symmetry_at_half(self):
        poly = VaalerPolynomial.build(1)
        assert poly.psi_star(0.5) == pytest.approx(0.0, abs=1e-14)

    def test_majorant_inequality_grid(self):
        xs = (np.arange(10**4) + 0.5) / 10**4
        for degree in (1, 5, 10, 50):
            poly = VaalerPolynomial.build(degree)
            psi_star = poly.psi_star(xs)
            tau = poly.tau(xs)
            assert np.all(tau >= -BUDGET)
            assert np.all(np.abs(psi_star - sawtooth_array(xs)) <= tau + BUDGET)

    def test_tau_mean_value(self):
        for degree in (1, 10, 50):
            poly = VaalerPolynomial.build(degree)
            m = 4 * degree + 2
            xs = (np.arange(m) + 0.5) / m
            mean = float(np.mean(poly.tau(xs)))
            assert mean == pytest.approx(1.0 / (2 * degree + 2), abs=1e-6)

    def test_fejer_closed_form_matches(self):
        xs = np.linspace(-1.3, 2.7, 1777)
        for degree in (1, 9, 33):
            poly = VaalerPolynomial.build(degree)
            assert np.max(np.abs(poly.tau(xs) - fejer_tau(degree, xs))) < 1e-10

    def test_degree_validation(self):
        with pytest.raises(ContractError):
            VaalerPolynomial.build(0)


class TestExpSum:
    def test_theta_zero(self):
        assert exp_sum(1, 7, FixedReal(0)) == pytest.approx(7.0)

    def test_alternating(self):
        val = exp_sum(1, 4, FixedReal.from_decimal("0.5"))
        assert abs(val) < 1e-12

    def test_empty_range_rejected(self):
        with pytest.raises(ContractError):
            exp_sum(5, 4, FixedReal(0))

    def test_exact_phase_vs_bigint_oracle(self):
        rng = random.Random(7)
        for _ in range(30):
            theta = FixedReal(rng.randrange(-(2**130), 2**130))
            ns = np.array([rng.randrange(-2**40, 2**40) for _ in range(16)],
                          dtype=np.int64)
            got = frac_multiples(theta, ns)
            for n, g in zip(ns, got):
                want = ((int(n) * theta.raw) % SCALE) / SCALE
                assert abs(want - g) < 1e-15

    def test_geometric_bound_random(self):
        rng = random.Random(13)
        for _ in range(1000):
            theta = FixedReal(rng.randrange(1, SCALE))
            lo = rng.randrange(1, 500)
            length = rng.randrange(0, 1500)
            s = exp_sum(lo, lo + length, theta)
            d = dist_nearest_int(theta).to_float()
            if d > 0:
                assert abs(s) <= min(length + 1, 1.0 / (2.0 * d)) + 1e-6

    def test_closed_form_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            theta = FixedReal(rng.randrange(1, SCALE))
            t = theta.to_float()
            z = cmath.exp(2j * math.pi * t)
            s = exp_sum(2, 400, theta)
            oracle = z**2 * (z**399 - 1) / (z - 1)
            assert abs(s - oracle) < 1e-6 * 400


class TestMinSum:
    def test_single_term(self):
        phi = constant("phi")
        lhs, rhs = min_sum_with_bound(1, 2.0, phi, (2, 1))
        # dist(phi) = 2 - phi ~ 0.382, so 1/dist ~ 2.618 and the x/l branch wins
        assert lhs == pytest.approx(2.0, abs=1e-12)
        assert rhs == pytest.approx((2.0 / 1 + 1 + 1) * math.log(2 * 1 * 1 * 2.0))

    def test_sqrt2_ratio_below_one(self):
        lhs, rhs = min_sum_with_bound(100, 100.0, constant("sqrt2"), (7, 5))
        assert 0 < lhs < rhs

    def test_monotone_in_length(self):
        phi = constant("phi")
        lhs10, _ = min_sum_with_bound(10, 50.0, phi, (8, 5))
        lhs20, _ = min_sum_with_bound(20, 50.0, phi, (8, 5))
        assert lhs20 >= lhs10

    def test_precondition_checked(self):
        with pytest.raises(ContractError):
            min_sum_with_bound(10, 50.0, constant("phi"), (3, 1))  # |c-3| > 1
        with pytest.raises(ContractError):
            min_sum_with_bound(10, 50.0, constant("phi"), (4, 2))  # not reduced

    def test_matches_exact_oracle(self):
        rng = random.Random(31)
        for _ in range(10):
            theta = FixedReal(rng.randrange(-(SCALE**2), SCALE**2))
            x, m_max = rng.uniform(1.5, 1e4), rng.randrange(1, 200)
            want = 0.0
            for m in range(1, m_max + 1):
                r = m * theta.raw % SCALE
                dd = min(r, SCALE - r) / SCALE
                want += min(x / m, 1.0 / dd if dd else math.inf)
            assert min_sum(theta, x, m_max) == pytest.approx(want, rel=1e-12)

    def test_integer_theta_gives_harmonic_sum(self):
        # every m*theta is an integer: each term is its cap x/m
        assert min_sum(FixedReal(3 * SCALE), 6.0, 3) == 6.0 + 3.0 + 2.0


class TestBoxMinSum:
    def test_two_term_example(self):
        cv = CVector((constant("phi"),), 1.0)
        val = box_min_sum((1,), 1, 5.0, cv)
        d = dist_nearest_int(constant("phi")).to_float()
        assert val == pytest.approx(2.0 * min(5.0, 1.0 / d), rel=1e-12)

    def test_empty_box(self):
        cv = CVector((constant("phi"),), 1.0)
        assert box_min_sum((0,), 5, 5.0, cv) == 0.0

    def test_matches_nested_loop_oracle(self, two_dim_cfg):
        cv = two_dim_cfg.c
        got = box_min_sum((2, 2), 10, 10.0, cv)
        total = 0.0
        raws = [c.raw for c in cv.entries]
        for j1 in range(-2, 3):
            for j2 in range(-2, 3):
                if j1 == 0 and j2 == 0:
                    continue
                theta = j1 * raws[0] + j2 * raws[1]
                for m in range(1, 11):
                    r = (m * theta) % SCALE
                    dd = min(r, SCALE - r) / SCALE
                    total += min(10.0 / m, 1.0 / dd if dd else math.inf)
        assert got == pytest.approx(total, rel=1e-12)

    def test_cap(self):
        cv = CVector((constant("phi"),), 1.0)
        with pytest.raises(ResourceCapError):
            box_min_sum((10**5,), 10**4, 5.0, cv)


class TestDyadicWeightedMinSum:
    def test_degenerate_single_dyad(self):
        cv = CVector((constant("phi"),), 1.0)
        exact, _ = dyadic_weighted_min_sum(1, 5.0, 1, cv)
        assert exact == pytest.approx(box_min_sum((1,), 1, 5.0, cv), rel=1e-12)

    def test_monotone_in_m(self):
        cv = CVector((constant("phi"),), 1.0)
        e10, _ = dyadic_weighted_min_sum(10, 100.0, 4, cv)
        e20, _ = dyadic_weighted_min_sum(20, 100.0, 4, cv)
        assert e20 >= e10

    def test_golden_ratio_below_bound(self):
        cv = CVector((constant("phi"),), 1.0)
        exact, bound = dyadic_weighted_min_sum(50, 100.0, 8, cv)
        assert 0 < exact < bound
        # pinned from the first run of this code base
        assert exact == pytest.approx(987.9327, rel=1e-4)


class TestWeightedIndexBox:
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_one_of_each_pair_in_order(self, two_dim_cfg, degree):
        cv = two_dim_cfg.c
        raws = [c.raw for c in cv.entries]
        signed = [s * j for j in range(1, degree + 1) for s in (1, -1)]
        want = [(1.0 / j1 / abs(j2), j1 * raws[0] + j2 * raws[1])
                for j1 in range(1, degree + 1) for j2 in signed]
        got = [(w, theta.raw) for w, theta in weighted_index_box(degree, cv)]
        assert got == want  # weights bit for bit, thetas exact
        assert len(got) == (2 * degree) ** 2 // 2

    def test_d1_is_the_positive_half(self):
        cv = CVector((constant("phi"),), 1.0)
        got = [(w, theta) for w, theta in weighted_index_box(4, cv)]
        assert got == [(1.0 / j, FixedReal(j * constant("phi").raw))
                       for j in range(1, 5)]


class TestDistMultiples:
    def test_matches_exact(self):
        rng = random.Random(23)
        for _ in range(20):
            theta = FixedReal(rng.randrange(1, SCALE))
            ns = np.arange(1, 50, dtype=np.int64)
            got = dist_multiples(theta, ns)
            for n, g in zip(ns, got):
                r = (int(n) * theta.raw) % SCALE
                want = min(r, SCALE - r) / SCALE
                assert abs(g - want) < 1e-14


class TestFracRawParts:
    # bound_audit evaluates frac(m * (l*theta)) as frac((l*m) * theta); the
    # raw halves must agree exactly, for negative theta (d = 2) as well
    @settings(max_examples=200)
    @given(t=st.integers(-(2**256) + 1, 2**256 - 1),
           l=st.integers(1, 2**20),
           m=st.lists(st.integers(1, 2**20), min_size=1, max_size=16))
    def test_product_multiplier_identity(self, t, l, m):
        ms = np.array(m, dtype=np.int64)
        hi_a, lo_a = frac_raw_parts(FixedReal(t * l), ms)
        hi_b, lo_b = frac_raw_parts(FixedReal(t), l * ms)
        assert np.array_equal(hi_a, hi_b) and np.array_equal(lo_a, lo_b)

    @pytest.mark.parametrize("ns, error", [
        (np.array([2**64 - 1], dtype=np.uint64), ResourceCapError),
        (np.array([2**63], dtype=np.uint64), ResourceCapError),
        ([2**63], ResourceCapError),
        ([-(2**63)], ResourceCapError),
        ([2**64, 1], ResourceCapError),
        (np.array([1.5]), ContractError),
        (np.array([True]), ContractError),
    ], ids=["uint64-max", "uint64-2**63", "list-2**63", "list--2**63",
            "list-2**64", "float", "bool"])
    def test_rejects_bad_multipliers(self, ns, error):
        # checked on the input's own dtype: no cast wraps or truncates first
        with pytest.raises(error):
            frac_raw_parts(constant("sqrt2"), ns)

    @pytest.mark.parametrize("ns", [
        np.array([0, 1, 2**63 - 1], dtype=np.uint64),
        np.array([-128, -1, 0, 127], dtype=np.int8),
        np.array([0, 1, 2**16 - 1], dtype=np.uint16),
        [-(2**63) + 1, 2**62, 5],
        np.array([3, -7], dtype=object),
    ], ids=["uint64", "int8", "uint16", "list", "object"])
    def test_integer_dtypes_agree(self, ns):
        theta = constant("sqrt2")
        want = [int(n) * theta.raw % SCALE for n in np.asarray(ns).tolist()]
        hi, lo = frac_raw_parts(theta, ns)
        got = [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]
        assert got == want


def _limbs_value(limbs) -> list[int]:
    """The Python ints a list of 32-bit limb arrays stands for."""
    return [sum(int(v) << (32 * i) for i, v in enumerate(col))
            for col in zip(*(limb.tolist() for limb in limbs))]


class TestLimbKernel:
    # the kernel against Python ints, limb by limb
    @settings(max_examples=300)
    @given(t=st.integers(0, 2**300),
           ns=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
           count=st.integers(1, 11))
    def test_product_matches_python(self, t, ns, count):
        limbs = limb_product(t, np.array(ns, dtype=np.int64), count)
        assert all(limb.dtype == np.uint64 for limb in limbs)
        for i, limb in enumerate(limbs):
            assert limb.tolist() == [(n * t) >> (32 * i) & 0xFFFFFFFF
                                     for n in ns]

    @settings(max_examples=300)
    @given(pairs=st.lists(st.tuples(st.integers(0, 2**128 - 1),
                                    st.integers(0, 2**128 - 1)),
                          min_size=1, max_size=8),
           shared_high=st.booleans())
    def test_less_matches_python(self, pairs, shared_high):
        if shared_high:  # equal high limbs send the decision down
            pairs = [(a, (a >> 40 << 40) | (b & (2**40 - 1))) for a, b in pairs]
        pairs += [(a, a) for a, _ in pairs]
        one = np.ones(1, dtype=np.int64)
        a = [limb_product(x, one, 4) for x, _ in pairs]
        b = [limb_product(y, one, 4) for _, y in pairs]
        for (x, y), la, lb in zip(pairs, a, b):
            assert bool(limbs_less(la, lb)[0]) == (x < y)

    @settings(max_examples=300)
    @given(xs=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1,
                       max_size=8))
    def test_float_conversion_is_exact(self, xs):
        xs += [0.0, 5e-324, 2.0**-1030, 2.0**-129, 1.0 - 2.0**-53]
        got = _limbs_value(fixed_limbs(np.array(xs)))
        assert got == [int(math.ldexp(x, 128)) for x in xs]

    @settings(max_examples=200)
    @given(t=st.integers(-(2**200), 2**200),
           ns=st.lists(st.integers(-(2**63) + 1, 2**63 - 1), min_size=1,
                       max_size=8))
    def test_frac_raw_parts_exact(self, t, ns):
        hi, lo = frac_raw_parts(FixedReal(t), np.array(ns, dtype=np.int64))
        assert [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())] \
            == [n * t % SCALE for n in ns]

    @pytest.mark.parametrize("ns", [[2**32], [-1], [0, 1, 2**40]])
    def test_rejects_multipliers_outside_32_bits(self, ns):
        with pytest.raises(ResourceCapError):
            limb_product(3, np.array(ns, dtype=np.int64), 4)
