"""Sawtooth approximation, exact exponential sums, and min-sum estimators.

Exactness policy: phases of exponential sums are reduced modulo 1 in the
128-bit fixed-point domain (vectorized 32-bit limb arithmetic, exact), and
only the final trigonometric step runs in binary64.  Inequality tests
downstream budget 2**-40 per polynomial evaluation for that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, RangeError, ResourceCapError
from .fixedreal import (FRAC_MASK, SCALE, CVector, FixedReal, half_box,
                        inner_product)

TWO_PI = 2.0 * math.pi

#: Default cap on enumerated terms in box-shaped min-sums.
DEFAULT_TERM_CAP = 20_000_000

_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def sawtooth(x: float) -> float:
    """psi(x) = x - floor(x) - 1/2; equals -1/2 at integers."""
    return x - math.floor(x) - 0.5


def sawtooth_array(x: np.ndarray) -> np.ndarray:
    return x - np.floor(x) - 0.5


def vaaler_weight(t: float) -> float:
    """W(t) = pi*t*(1-|t|)*cot(pi*t) + |t| on (-1, 1), with W(0) = 1."""
    if abs(t) >= 1.0:
        raise RangeError(f"weight argument |t|={abs(t)} must be < 1")
    if t == 0.0:
        return 1.0
    at = abs(t)
    return math.pi * t * (1.0 - at) / math.tan(math.pi * t) + at


@dataclass(frozen=True)
class VaalerPolynomial:
    """Degree-J trigonometric approximation of the sawtooth with error majorant.

    ``psi_star_coeffs[j]`` (1 <= j <= J) is the coefficient at e(jx); the
    coefficient at e(-jx) is its conjugate, so the polynomial is real.
    ``tau_coeffs[j]`` (0 <= j <= J) is the shared coefficient at e(+-jx) of
    the nonnegative majorant.
    """

    degree: int
    psi_star_coeffs: np.ndarray  # complex128, index 0 unused
    tau_coeffs: np.ndarray       # float64

    @classmethod
    def build(cls, degree: int) -> "VaalerPolynomial":
        if degree < 1:
            raise ContractError("degree must be a positive integer")
        j = np.arange(degree + 1, dtype=np.float64)
        weights = np.array(
            [0.0] + [vaaler_weight(t / (degree + 1)) for t in range(1, degree + 1)]
        )
        psi_coeffs = np.zeros(degree + 1, dtype=np.complex128)
        psi_coeffs[1:] = 1j * weights[1:] / (TWO_PI * j[1:])  # = -(2*pi*i*j)^-1 W
        tau_coeffs = (1.0 - j / (degree + 1)) / (2 * degree + 2)
        return cls(degree=degree, psi_star_coeffs=psi_coeffs, tau_coeffs=tau_coeffs)

    def psi_star(self, x) -> np.ndarray | float:
        """Real evaluation via the conjugate pairing of the coefficients.

        The pair at +-j contributes -W(j/(J+1)) sin(2 pi j x)/(pi j), i.e.
        -2 Im(coeff_j) sin(2 pi j x).
        """
        xa = np.asarray(x, dtype=np.float64)
        acc = np.zeros_like(xa)
        for j in range(1, self.degree + 1):
            acc -= 2.0 * self.psi_star_coeffs[j].imag * np.sin(TWO_PI * j * xa)
        return acc if acc.shape else float(acc)

    def tau(self, x) -> np.ndarray | float:
        xa = np.asarray(x, dtype=np.float64)
        acc = np.full_like(xa, self.tau_coeffs[0])
        for j in range(1, self.degree + 1):
            acc += 2.0 * self.tau_coeffs[j] * np.cos(TWO_PI * j * xa)
        return acc if acc.shape else float(acc)


def fejer_tau(degree: int, x: np.ndarray) -> np.ndarray:
    """Closed-form evaluation of the majorant via the nonnegative kernel.

    Agrees with ``VaalerPolynomial.tau`` up to binary64 roundoff; O(1) per
    point, used by the bound audits on large grids.
    """
    xr = x - np.round(x)  # reduce to [-1/2, 1/2]; sinc is safe there
    num = np.sinc((degree + 1) * xr)
    den = np.sinc(xr)
    return ((degree + 1) / (2 * degree + 2)) * (num / den) ** 2


# ----------------------------------------------------------------------
# Exact phase reduction (vectorized 32-bit limb arithmetic)
# ----------------------------------------------------------------------

#: Multipliers of ``limb_product`` lie in [0, LIMB_MULTIPLIER_BOUND).
LIMB_MULTIPLIER_BOUND = 1 << 32


def limb_product(t: int, n: np.ndarray, count: int) -> list[np.ndarray]:
    """The low ``count`` 32-bit limbs of n * t, least significant first, as
    uint64 arrays, for an integer t >= 0 and 0 <= n < 2**32.

    Each partial product n * limb plus its carry is below 2**64, so every
    limb is exact; the limbs above ``count`` drop.
    """
    if n.size and not 0 <= int(n.min()) <= int(n.max()) < LIMB_MULTIPLIER_BOUND:
        raise ResourceCapError("limb products need multipliers in [0, 2**32)")
    return _limbs(t, n.astype(np.uint64), count)


def _limbs(t: int, n64: np.ndarray, count: int) -> list[np.ndarray]:
    """``limb_product`` without its check, for uint64 n known below 2**32."""
    limbs = []
    carry = np.uint64(0)
    for i in range(count):
        s = n64 * np.uint64((t >> (32 * i)) & 0xFFFFFFFF) + carry
        limbs.append(s & _MASK32)
        carry = s >> _SHIFT32
    return limbs


def limbs_less(a, b):
    """Elementwise a < b for two numbers given as limb lists of one length,
    least significant first; a limb may be an array or a scalar."""
    less = np.False_
    for ai, bi in zip(a, b):
        less = (ai < bi) | ((ai == bi) & less)
    return less


def fixed_limbs(x: np.ndarray) -> list[np.ndarray]:
    """The four 32-bit limbs of floor(x * 2**128), least significant first,
    for a float64 array x in [0, 1).

    floor(ldexp(x, 32 k)) is exact, and each limb is the difference of two
    neighbouring floors, exact by Sterbenz's lemma.
    """
    floors = [np.floor(np.ldexp(np.asarray(x, dtype=np.float64), 32 * k))
              for k in range(5)]
    return [(floors[k] - np.ldexp(floors[k - 1], 32)).astype(np.uint64)
            for k in range(4, 0, -1)]


def frac_raw_parts(theta: FixedReal, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact frac(n * theta) as (hi, lo) uint64 halves of the 128-bit raw.

    Integer n of any dtype with |n| < 2**63, split into 32-bit pieces; the
    checks read the input's own dtype before any cast: non-integers raise
    ``ContractError``, |n| >= 2**63 ``ResourceCapError``.
    """
    t = theta.raw & FRAC_MASK
    n = np.asarray(n)
    # object arrays hold the Python ints that fit no 64-bit dtype
    if not (n.dtype.kind in "iu" or all(isinstance(v, int) for v in n.flat)):
        raise ContractError(f"multipliers must be integers, not {n.dtype}")
    if n.size and (int(n.min()) <= -(1 << 63) or int(n.max()) >= 1 << 63):
        raise ResourceCapError("multipliers beyond 2**63 void exactness")
    n = n.astype(np.int64)  # exact, as every |n| < 2**63
    mag = np.abs(n).astype(np.uint64)
    limbs = _limbs(t, mag & _MASK32, 4)
    hi32 = mag >> _SHIFT32
    if bool((hi32 != 0).any()):
        # add hi32 * t * 2**32 mod 2**128: the low three limbs of hi32 * t
        carry = np.uint64(0)
        for i, u in enumerate(_limbs(t, hi32, 3), start=1):
            s = limbs[i] + u + carry
            limbs[i] = s & _MASK32
            carry = s >> _SHIFT32
    hi = (limbs[3] << _SHIFT32) | limbs[2]
    lo = (limbs[1] << _SHIFT32) | limbs[0]
    neg = n < 0
    if bool(neg.any()):
        # -r mod 2**128 on the wrapping uint64 halves; r == 0 stays 0
        hi = np.where(neg, np.uint64(0) - hi - (lo != 0), hi)
        lo = np.where(neg, np.uint64(0) - lo, lo)
    return hi, lo


def frac_multiples(theta: FixedReal, n: np.ndarray) -> np.ndarray:
    """frac(n * theta) as float64, after exact reduction: in [0, 1], as a
    fraction within 2**-54 of 1 rounds to 1.0."""
    hi, lo = frac_raw_parts(theta, n)
    return hi.astype(np.float64) * 2.0**-64 + lo.astype(np.float64) * 2.0**-128


def dist_multiples(theta: FixedReal, n: np.ndarray) -> np.ndarray:
    """Distance of n*theta to the nearest integer, exact reduction first."""
    f = frac_multiples(theta, n)
    return np.minimum(f, 1.0 - f)


def exp_sum(n_lo: int, n_hi: int, theta: FixedReal) -> complex:
    """Sum of e(n*theta) over n_lo <= n <= n_hi with exact phase reduction."""
    if n_lo > n_hi:
        raise ContractError("empty summation range")
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    phases = frac_multiples(theta, ns)
    return complex(np.exp(2j * np.pi * phases).sum())


# ----------------------------------------------------------------------
# Min-sum estimators
# ----------------------------------------------------------------------

def _min_terms(cap, dists: np.ndarray) -> np.ndarray:
    """min(cap, 1/dist), with dist == 0 giving cap (1/0 is inf)."""
    with np.errstate(divide="ignore"):
        return np.minimum(cap, 1.0 / dists)


def min_sum(theta: FixedReal, x: float, m_max: int) -> float:
    """sum_{1<=m<=m_max} min(x/m, dist(m*theta)^-1), dist 0 giving x/m,
    with the phases m*theta reduced exactly before the binary64 step."""
    ms = np.arange(1, m_max + 1, dtype=np.int64)
    dists = dist_multiples(theta, ms)
    return float(np.sum(_min_terms(x / ms.astype(np.float64), dists)))


def min_sum_with_bound(L: int, x: float, c: FixedReal,
                       approx: tuple[int, int]) -> tuple[float, float]:
    """Left side sum_{l<=L} min(x/l, dist(l*c)^-1) and its denominator bound.

    Requires the rational approximation a/q to satisfy gcd(a,q)=1 and
    |c - a/q| <= q**-2 (checked exactly on the fixed-point value).
    """
    a, q = approx
    if q < 1 or math.gcd(a, q) != 1:
        raise ContractError("approximation must be a reduced fraction q >= 1")
    if abs(c.raw * q * q - a * q * SCALE) > SCALE:
        raise ContractError("|c - a/q| <= q**-2 does not hold")
    if L < 1 or x <= 1.0:
        raise ContractError("need L >= 1 and x > 1")
    lhs = min_sum(c, x, L)
    rhs = (x / q + L + q) * math.log(2.0 * L * q * x)
    return lhs, rhs


def box_min_sum(h: tuple[int, ...], m_max: int, x: float, c: CVector,
                cap: int = DEFAULT_TERM_CAP) -> float:
    """Exact double sum over the punctured box |j_i| <= h_i and 1 <= m <= M
    of min(x/m, dist(m * (j.c))^-1).

    Symmetric in j -> -j, so only canonical representatives are enumerated
    and doubled.
    """
    if len(h) != c.d:
        raise ContractError("box shape must match slope dimension")
    if any(hi < 0 for hi in h):
        raise ContractError("box bounds must be nonnegative")
    n_terms = m_max * math.prod(2 * hi + 1 for hi in h)
    if n_terms > cap:
        raise ResourceCapError(f"{n_terms} terms exceed cap {cap}")
    total = 0.0
    for v in half_box([range(-hi, hi + 1) for hi in h]):
        total += min_sum(inner_product(v, c), x, m_max)
    return 2.0 * total


def weighted_index_box(degree: int, c: CVector):
    """(1/|j_1...j_d|, j.c) for one of each {j, -j} with 1 <= |j_i| <= degree:
    j_1 > 0, the other coordinates in the order 1, -1, 2, -2, ..., -degree."""
    signed = tuple(s * j for j in range(1, degree + 1) for s in (1, -1))
    for v in half_box([range(1, degree + 1)] + [signed] * (c.d - 1)):
        weight = 1.0
        for vi in v:
            weight /= abs(vi)
        yield weight, inner_product(v, c)


def dyadic_weighted_min_sum(m_max: int, x: float, degree: int, c: CVector,
                            cap: int = DEFAULT_TERM_CAP) -> tuple[float, float]:
    """Weighted min-sum over the full index box, with its closed-form bound.

    Exact side: sum over 1 <= |j_i| <= degree (all d coordinates) of
    1/|j_1...j_d| * sum_{m<=M} min(x/m, dist(m * j.c)^-1), one of each
    {j, -j} doubled.  Bound side:
    (log 2x)**(d+1) * (M + (x*degree)**(1 - 1/(k+1))).
    """
    d = c.d
    n_terms = m_max * (2 * degree) ** d
    if n_terms > cap:
        raise ResourceCapError(f"{n_terms} terms exceed cap {cap}")
    exact = 0.0
    for weight, theta in weighted_index_box(degree, c):
        exact += 2.0 * weight * min_sum(theta, x, m_max)
    bound = math.log(2.0 * x) ** (d + 1) * (
        m_max + (x * degree) ** (1.0 - 1.0 / (c.k + 1.0))
    )
    return exact, bound
