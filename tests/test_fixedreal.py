import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diophlab.errors import ContractError, ResourceCapError
from diophlab.fixedreal import (
    FRAC_BITS,
    SCALE,
    CVector,
    FixedReal,
    constant,
    convergents,
    dioph_certify,
    dirichlet_approx,
    dist_nearest_int,
    half_box,
    inner_product,
    parse_real,
    scaled_floor_frac,
)


def fr(text):
    return FixedReal.from_decimal(text)


class TestRepresentation:
    def test_parse_roundtrip(self):
        x = fr("2.3")
        assert abs(x.to_fraction() - Fraction(23, 10)) < Fraction(1, 2**120)
        assert x.decimal(10).startswith("2.3")

    def test_truncation_is_floor(self):
        third = FixedReal.from_fraction(Fraction(1, 3))
        assert third.to_fraction() < Fraction(1, 3)
        assert Fraction(1, 3) - third.to_fraction() < Fraction(1, 2**127)
        neg = fr("-0.3")
        assert neg.to_fraction() <= Fraction(-3, 10)

    def test_sign_magnitude_fields(self):
        x = fr("-2.25")
        assert x.sign == -1
        assert x.integer_part == 2
        assert x.frac_bits_value == SCALE // 4
        assert x.frac_bits_value < SCALE

    def test_rational_literal(self):
        x = fr("7/5")
        assert abs(x.to_float() - 1.4) < 1e-15

    def test_malformed(self):
        # ContractError, not the ValueError or ZeroDivisionError of int()
        for text in ("abc", "", "1/0", "1/x", "1.5/2", "x/3", "1/2/3", "/4"):
            with pytest.raises(ContractError):
                fr(text)
            with pytest.raises(ContractError):
                parse_real(text)

    def test_malformed_slope_component(self):
        with pytest.raises(ContractError):
            CVector.parse("sqrt2,1/0", 2)
        with pytest.raises(ContractError):
            CVector.parse("sqrt2,1.5/2", 2)

    def test_exact_integer_multiples(self):
        x = fr("1.625")  # dyadic, exactly representable
        assert (x * 8).to_fraction() == Fraction(13)
        assert (3 * x - x - x - x).raw == 0

    def test_constants_against_mpmath(self):
        import mpmath

        with mpmath.workprec(300):
            for name, ref in [("sqrt2", mpmath.sqrt(2)), ("sqrt3", mpmath.sqrt(3)),
                              ("phi", (1 + mpmath.sqrt(5)) / 2),
                              ("e", mpmath.e + 0), ("pi", mpmath.pi + 0)]:
                want = int(mpmath.floor(mpmath.ldexp(ref, FRAC_BITS)))
                assert constant(name).raw == want, name

    def test_series_constants_pinned(self):
        # floor(e * 2**128) and floor(pi * 2**128), from integer series
        assert constant("e").raw == 0x2b7e151628aed2a6abf7158809cf4f3c7
        assert constant("pi").raw == 0x3243f6a8885a308d313198a2e03707344

    def test_parse_real_named(self):
        assert parse_real("phi").raw == constant("phi").raw
        assert parse_real(" 0.5 ").raw == SCALE // 2


class TestScaledFloorFrac:
    def test_basic(self):
        floor, frac = scaled_floor_frac(fr("0.75"), 2)
        assert floor == 1 and frac.to_fraction() == Fraction(1, 2)

    def test_truncated_third(self):
        third = FixedReal.from_fraction(Fraction(1, 3))
        floor, frac = scaled_floor_frac(third, 3)
        assert floor == 0
        assert frac.raw == SCALE - 1  # 0.999... just below 1

    def test_matches_higher_precision_oracle(self):
        # frac(n * trunc(sqrt2)) vs the 256-bit value of n*sqrt2
        n = 10**6
        x = constant("sqrt2")
        _, frac = scaled_floor_frac(x, n)
        hi = math.isqrt(2 << 512)  # sqrt2 at 256 fractional bits
        oracle = (n * hi) % (1 << 256)
        assert abs(frac.to_fraction() - Fraction(oracle, 1 << 256)) < Fraction(1, 2**64)

    def test_additivity_property(self):
        rng = random.Random(11)
        for _ in range(300):
            x = FixedReal(rng.randrange(0, 4 * SCALE))
            n1 = rng.randrange(1, 10**9)
            n2 = rng.randrange(1, 10**9)
            f1 = scaled_floor_frac(x, n1)[1].to_fraction()
            f2 = scaled_floor_frac(x, n2)[1].to_fraction()
            f12 = scaled_floor_frac(x, n1 + n2)[1].to_fraction()
            assert f1 + f2 - f12 in (0, 1)

    def test_multiplier_cap(self):
        with pytest.raises(ResourceCapError):
            scaled_floor_frac(fr("0.5"), 2**63 + 1)
        with pytest.raises(ContractError):
            scaled_floor_frac(fr("0.5"), 0)


class TestDistNearestInt:
    @pytest.mark.parametrize("text,expect", [
        ("2.3", "0.3"), ("-0.5", "0.5"), ("7.999", "0.001"),
    ])
    def test_examples(self, text, expect):
        got = dist_nearest_int(fr(text)).to_fraction()
        want = Fraction(expect.replace(".", "")) / 10**(len(expect) - 2)
        assert abs(got - want) < Fraction(1, 2**120)

    def test_range(self):
        rng = random.Random(5)
        for _ in range(200):
            x = FixedReal(rng.randrange(-4 * SCALE, 4 * SCALE))
            d = dist_nearest_int(x).to_fraction()
            assert 0 <= d <= Fraction(1, 2)


class TestInnerProduct:
    def test_zero_vector(self, golden_cfg):
        assert inner_product((0,), golden_cfg.c).raw == 0

    def test_identity(self):
        c = CVector((constant("phi"),), 1.0)
        assert inner_product((1,), c).raw == constant("phi").raw

    def test_linearity(self):
        s2 = constant("sqrt2")
        c = CVector((s2, s2), 2.0)
        assert inner_product((2, -1), c).raw == s2.raw

    def test_component_cap(self):
        c = CVector((constant("phi"),), 1.0)
        with pytest.raises(ResourceCapError):
            inner_product((2**41,), c)


class TestDirichlet:
    def test_sqrt2(self):
        a, q = dirichlet_approx(constant("sqrt2"), 10)
        assert (a, q) == (7, 5)
        # brute-force oracle over all q <= 10
        x = constant("sqrt2").to_fraction()
        best = min(((abs(x - Fraction(round(x * qq), qq)), qq) for qq in range(1, 11)))
        assert abs(x - Fraction(7, 5)) <= Fraction(1, 5 * 10)

    def test_half(self):
        a, q = dirichlet_approx(fr("0.5"), 100)
        assert (a, q) == (1, 2)
        assert fr("0.5").to_fraction() == Fraction(1, 2)

    def test_phi_convergent(self):
        assert dirichlet_approx(constant("phi"), 100) == (144, 89)

    def test_postcondition_random(self):
        rng = random.Random(99)
        for _ in range(1000):
            x = FixedReal(rng.randrange(-(2**130), 2**130))
            big_x = rng.randrange(1, 10**6)
            a, q = dirichlet_approx(x, big_x)
            assert 1 <= q <= big_x and math.gcd(a, q) == 1
            err = abs(x.to_fraction() - Fraction(a, q))
            assert err <= Fraction(1, q * big_x)

    def test_scaled_dist_bound(self):
        rng = random.Random(3)
        for _ in range(200):
            x = FixedReal(rng.randrange(0, 2**130))
            big_x = rng.randrange(1, 10**4)
            a, q = dirichlet_approx(x, big_x)
            qx = (q * x.raw) % SCALE
            dist = Fraction(min(qx, SCALE - qx), SCALE)
            assert dist <= Fraction(1, big_x)

    def test_convergents_are_reduced(self):
        for a, q in convergents(constant("pi")):
            assert math.gcd(a, q) == 1
            if q > 10**12:
                break


def _first_nonzero_positive(v):
    nonzero = [comp for comp in v if comp != 0]
    return bool(nonzero) and nonzero[0] > 0


SPANS = st.one_of(
    st.integers(0, 3).map(lambda h: range(-h, h + 1)),          # symmetric
    st.tuples(st.integers(-3, 0), st.integers(0, 3))
      .map(lambda t: range(t[0], t[1] + 1)),                   # holds 0
    st.integers(1, 3).map(lambda h: range(1, h + 1)),           # positive
    st.integers(1, 3).map(lambda h: range(-h, 0)),              # negative
    st.integers(1, 3).map(                                       # 1, -1, ...
        lambda h: tuple(s * j for j in range(1, h + 1) for s in (1, -1))),
)


class TestHalfBox:
    @settings(max_examples=150)
    @given(spans=st.lists(SPANS, min_size=1, max_size=3))
    def test_filtered_product_in_order(self, spans):
        want = [v for v in itertools.product(*spans)
                if _first_nonzero_positive(v)]
        assert list(half_box(spans)) == want

    @settings(max_examples=60)
    @given(h=st.lists(st.integers(0, 3), min_size=1, max_size=3))
    def test_symmetric_box_one_of_each_pair(self, h):
        spans = [range(-hi, hi + 1) for hi in h]
        half = list(half_box(spans))
        assert len(set(half)) == len(half)
        mirrored = {tuple(-comp for comp in v) for v in half}
        assert not mirrored & set(half)
        nonzero = {v for v in itertools.product(*spans) if any(v)}
        assert set(half) | mirrored == nonzero


class TestDiophCertify:
    def test_phi_range_certificate(self):
        cert = dioph_certify(CVector((constant("phi"),), 1.0), 100)
        assert cert.c_est >= 0.27
        # independent exhaustive oracle in exact arithmetic
        x = constant("phi").to_fraction()
        best = min(
            (min((v * x) % 1, 1 - (v * x) % 1) * v, v) for v in range(1, 101)
        )
        assert abs(cert.c_est - float(best[0])) < 1e-9
        assert cert.v_min == (best[1],)

    def test_rational_degenerates(self):
        cert = dioph_certify(CVector((fr("0.5"),), 1.0), 4)
        assert cert.c_est == 0.0
        assert cert.v_min == (2,)

    def test_two_dim_positive(self):
        c = CVector((constant("sqrt2"), constant("sqrt3")), 2.0)
        cert = dioph_certify(c, 50)
        assert cert.c_est > 0.0
        assert max(abs(t) for t in cert.v_min) <= 50

    def test_cap(self):
        c = CVector((constant("sqrt2"), constant("sqrt3")), 2.0)
        with pytest.raises(ResourceCapError):
            dioph_certify(c, 10**6)


class TestCVector:
    def test_validation(self):
        with pytest.raises(ContractError):
            CVector((fr("-1.0"),), 1.0)
        with pytest.raises(ContractError):
            CVector((constant("sqrt2"), constant("sqrt3")), 1.0)  # k < d
        with pytest.raises(ContractError):
            CVector((), 1.0)

    def test_parse(self):
        c = CVector.parse("sqrt2, sqrt3", 2.0)
        assert c.d == 2
        assert c.entries[0].raw == constant("sqrt2").raw
