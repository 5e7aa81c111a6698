import cmath
import math
import random

import numpy as np
import pytest

from diophlab.arith import build_arith_table
from diophlab.errors import ContractError, RangeError
from diophlab.fixedreal import SCALE, FixedReal, constant
from diophlab.vaughan import (
    VaughanParams,
    b_array,
    b_coeff,
    lambda_exp_sum,
    lambda_sum_via_identity,
    type_sums,
    vaughan_decompose,
)


def lam_of(table, n):
    return table.von_mangoldt(n) if n >= 2 else 0.0


class TestParams:
    def test_validation(self):
        with pytest.raises(ContractError):
            VaughanParams(u=0.5, v=2.0, x=10.0)
        with pytest.raises(ContractError):
            VaughanParams(u=5.0, v=5.0, x=20.0)  # uv > x

    def test_balanced_default(self):
        p = VaughanParams.balanced(10**5)
        assert p.u == p.v == pytest.approx(100.0)


class TestBCoeff:
    @pytest.mark.parametrize("l,v,val", [(1, 1.0, 1), (6, 2.0, 0), (4, 3.0, 0),
                                         (2, 1.0, 1), (15, 5.0, -1)])
    def test_examples(self, table_small, l, v, val):
        assert b_coeff(table_small, l, v) == val

    def test_vanishes_between_two_and_v(self, table_small):
        for l in range(2, 32):
            assert b_coeff(table_small, l, 31.0) == 0

    def test_array_matches_scalar(self, table_small):
        arr = b_array(500, 10.0, table_small)
        for l in range(1, 501):
            assert arr[l] == b_coeff(table_small, l, 10.0)

    def test_divisor_bound(self, table_small):
        arr = b_array(10**5, 31.0, table_small)
        dl = np.zeros(10**5 + 1, dtype=np.int64)
        for d in range(1, 10**5 + 1):
            dl[d::d] += 1
        assert np.all(np.abs(arr[1:]) <= dl[1:])

    def test_dyadic_square_sums(self, table_small):
        # sum over [L, 2L] of b(l)^2 <= sum d(l)^2 <= 40 L log(2L)^3
        dl = np.zeros(2 * 10**4 + 1, dtype=np.int64)
        for d in range(1, 2 * 10**4 + 1):
            dl[d::d] += 1
        for L in (10**2, 10**3, 10**4):
            bl = b_array(2 * L, float(int(math.isqrt(L))), table_small)
            b_sq = int(np.sum(bl[L:2 * L + 1].astype(np.int64)**2))
            d_sq = int(np.sum(dl[L:2 * L + 1]**2))
            assert b_sq <= d_sq
            assert d_sq <= 40 * L * math.log(2 * L)**3


class TestDecompose:
    def test_prime_case(self, table_small):
        p = 9973
        params = VaughanParams(10, 10, 10**4)
        a1, a2, a3, a4 = vaughan_decompose(table_small, p, params)
        assert a1 == 0.0 and a2 == 0.0 and a4 == 0.0
        assert a3 == pytest.approx(math.log(p), abs=1e-12)

    def test_one(self, table_small):
        assert vaughan_decompose(table_small, 1, VaughanParams(5, 5, 100)) \
            == (0.0, 0.0, 0.0, 0.0)

    def test_identity_sweep(self, table_small):
        for uv in (5.0, 10.0, 31.0):
            params = VaughanParams(uv, uv, 2000.0)
            worst = 0.0
            for n in range(1, 2001):
                a1, a2, a3, a4 = vaughan_decompose(table_small, n, params)
                worst = max(worst, abs(a1 + a2 + a3 + a4 - lam_of(table_small, n)))
            assert worst <= 1e-9


class TestTypeSums:
    def test_constant_f(self, table_small):
        t1, t2, lhs = type_sums(table_small, lambda n: 1.0,
                                VaughanParams(2, 2, 20))
        oracle = sum(lam_of(table_small, n) for n in range(3, 21))
        assert lhs.real == pytest.approx(oracle, abs=1e-12)
        assert lhs.real == pytest.approx(18.5725111, abs=1e-6)

    def test_zero_f(self, table_small):
        t1, t2, lhs = type_sums(table_small, lambda n: 0.0,
                                VaughanParams(2, 2, 20))
        assert t1 == 0.0 and t2 == 0.0 and lhs == 0.0

    def test_bilinear_bound_phase_f(self, table_small):
        phi = constant("phi").to_float()

        def f(n):
            return cmath.exp(2j * math.pi * ((n * phi) % 1.0))

        params = VaughanParams(10, 10, 10**4)
        t1, t2, lhs = type_sums(table_small, f, params)
        assert abs(lhs) <= 5.0 * (math.log(2 * 10**4) * t1 + t2)


class TestLambdaExpSum:
    def test_theta_zero(self, table_small):
        val = lambda_exp_sum(table_small, 100, 200, FixedReal(0))
        oracle = sum(lam_of(table_small, n) for n in range(100, 201))
        assert val.real == pytest.approx(oracle) and abs(val.imag) < 1e-12

    def test_single_term(self, table_small):
        theta = constant("sqrt2")
        val = lambda_exp_sum(table_small, 2, 2, theta)
        phase = (2 * theta.raw) % SCALE / SCALE
        want = math.log(2) * cmath.exp(2j * math.pi * phase)
        assert val == pytest.approx(want, abs=1e-12)

    def test_triangle_inequality(self, table_small):
        rng = random.Random(4)
        bound = sum(lam_of(table_small, n) for n in range(500, 1001))
        for _ in range(20):
            theta = FixedReal(rng.randrange(0, SCALE))
            assert abs(lambda_exp_sum(table_small, 500, 1000, theta)) <= bound + 1e-9

    def test_reassembly_from_identity(self, table_small):
        rng = random.Random(8)
        params = VaughanParams(10, 10, 10**4)
        for _ in range(20):
            theta = FixedReal(rng.randrange(1, SCALE))
            tf = theta.to_float()

            def f(n):
                return cmath.exp(2j * math.pi * ((n * tf) % 1.0))

            direct = sum(lam_of(table_small, n) * f(n) for n in range(11, 10**4 + 1))
            reassembled = lambda_sum_via_identity(table_small, f, params)
            assert abs(direct - reassembled) <= 1e-6 * max(1.0, abs(direct))

    def test_reassembly_checks_table_before_any_call(self):
        calls = []
        with pytest.raises(RangeError):
            lambda_sum_via_identity(build_arith_table(1000), calls.append,
                                    VaughanParams(5, 5, 3000))
        assert not calls
