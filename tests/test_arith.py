import math
import random

import numpy as np
import pytest

from diophlab.arith import build_arith_table
from diophlab.errors import RangeError, ResourceCapError


class TestBuild:
    def test_first_primes(self):
        tab = build_arith_table(10)
        assert tab.primes.tolist() == [2, 3, 5, 7]

    def test_minimal(self):
        tab = build_arith_table(2)
        assert tab.primes.tolist() == [2]

    def test_rejects_tiny_and_huge(self):
        with pytest.raises(RangeError):
            build_arith_table(1)
        with pytest.raises(ResourceCapError):
            build_arith_table(10**6, cap=10**5)

    def test_block_size_irrelevant(self):
        a = build_arith_table(10_000, block_size=256)
        b = build_arith_table(10_000)
        assert np.array_equal(a.smallest_factor, b.smallest_factor)

    def test_factor_divides_random(self, table_big):
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(2, 10**6)
            p = int(table_big.smallest_factor[n])
            assert n % p == 0
            assert table_big.is_prime(p)
            # trial-division oracle: no smaller prime divides n
            for q in range(2, p):
                assert n % q != 0 or q * q > n

    def test_reconstruction(self, table_small):
        rng = random.Random(1)
        for _ in range(500):
            n = rng.randint(2, table_small.limit)
            prod = 1
            for p, e in table_small.factorize(n):
                prod *= p**e
            assert prod == n

    def test_arrays_read_only(self, table_small):
        for arr in (table_small.smallest_factor, table_small.prime_flags,
                    table_small.primes):
            with pytest.raises(ValueError):
                arr[2] = 0
        assert table_small.primes[:3].tolist() == [2, 3, 5]


class TestVonMangoldt:
    def test_prime_power(self, table_small):
        assert table_small.von_mangoldt(9) == pytest.approx(math.log(3))
        assert table_small.von_mangoldt(12) == 0.0
        assert table_small.von_mangoldt(2) == pytest.approx(math.log(2))

    def test_sum_to_100(self, table_small):
        # direct oracle: sum log p over prime powers <= 100
        oracle = 0.0
        for p in range(2, 101):
            if table_small.is_prime(p):
                pk = p
                while pk <= 100:
                    oracle += math.log(p)
                    pk *= p
        got = sum(table_small.von_mangoldt(n) for n in range(2, 101))
        assert got == pytest.approx(oracle)
        assert got == pytest.approx(94.0453112293574)

    def test_range_error(self, table_small):
        with pytest.raises(RangeError):
            table_small.von_mangoldt(1)
        with pytest.raises(RangeError):
            table_small.von_mangoldt(table_small.limit + 1)

    def test_range_array_matches_scalar(self, table_small):
        arr = table_small.von_mangoldt_range(900, 1100)
        for n in range(900, 1101):
            assert arr[n - 900] == pytest.approx(table_small.von_mangoldt(n))


class TestMoebius:
    @pytest.mark.parametrize("n,mu", [(1, 1), (12, 0), (30, -1), (6, 1), (7, -1)])
    def test_examples(self, table_small, n, mu):
        assert table_small.moebius(n) == mu

    def test_divisor_sum_identity(self, table_small):
        # sum_{d | n} mu(d) = [n == 1], swept n <= 10**4 via a sieve
        acc = np.zeros(10**4 + 1, dtype=np.int64)
        for d in range(1, 10**4 + 1):
            mu = table_small.moebius(d)
            if mu:
                acc[d::d] += mu
        assert acc[1] == 1
        assert not acc[2:].any()


class TestPrimesBetween:
    def test_examples(self, table_small):
        assert table_small.primes_between(10, 20).tolist() == [11, 13, 17, 19]
        assert table_small.primes_between(14, 16).tolist() == []

    def test_window_count(self, table_big):
        assert table_big.primes_between(10**5, 2 * 10**5).size == 8392

    def test_pnt_window_sanity(self, table_big):
        for P in (10**4, 10**5, 10**6):
            hi = math.ceil(1.5 * P) - 1  # [P, 1.5P)
            count = table_big.primes_between(P, hi).size
            expect = P * 0.5 / math.log(2 * P)
            assert 0.8 <= count / expect <= 1.2

    def test_range_error(self, table_small):
        with pytest.raises(RangeError):
            table_small.primes_between(10, table_small.limit + 1)


class TestDivisorCount:
    @pytest.mark.parametrize("n,d", [(1, 1), (12, 6), (30, 8), (64, 7)])
    def test_examples(self, table_small, n, d):
        assert table_small.divisor_count(n) == d
