"""Vaughan's identity as an exact four-term decomposition of Lambda.

The classical generating-function identity splits the von Mangoldt function
into a head term, two smooth convolution terms, and a bilinear tail whose
coefficient b(l) is the truncated Moebius divisor sum.  Committing to the
explicit four terms makes the identity itself testable, not just the
resulting Type I / Type II upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import ArithTable
from .errors import ContractError, RangeError
from .fixedreal import FixedReal
from .fourier import frac_multiples


@dataclass(frozen=True)
class VaughanParams:
    """Split points of the decomposition: u >= 1, v >= 1, u*v <= x."""

    u: float
    v: float
    x: float

    def __post_init__(self):
        if self.u < 1 or self.v < 1:
            raise ContractError("split points must satisfy u >= 1 and v >= 1")
        if self.u * self.v > self.x:
            raise ContractError("need u*v <= x")

    @classmethod
    def balanced(cls, x: float) -> "VaughanParams":
        """The u = v = x**(2/5) split."""
        uu = x ** 0.4
        return cls(u=uu, v=uu, x=x)


def b_coeff(table: ArithTable, l: int, v: float) -> int:
    """b(l) = sum of mu(d) over divisors d <= v of l.

    Only squarefree divisors contribute, so the sum runs over subsets of the
    distinct prime factors.
    """
    if l < 1 or l > table.limit:
        raise RangeError(f"l={l} outside table range")
    primes = [p for p, _ in table.factorize(l)]
    total = 0
    for mask in range(1 << len(primes)):
        d, mu = 1, 1
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d *= p
                mu = -mu
        if d <= v:
            total += mu
    return total


def b_array(limit: int, v: float, table: ArithTable) -> np.ndarray:
    """b(l) for 0 <= l <= limit as an int64 array (index 0 unused)."""
    if limit > table.limit:
        raise RangeError("limit exceeds table range")
    out = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, min(int(v), limit) + 1):
        mu = table.moebius(d)
        if mu:
            out[d::d] += mu
    return out


def vaughan_decompose(table: ArithTable, n: int,
                      params: VaughanParams) -> tuple[float, float, float, float]:
    """The four terms whose sum reproduces Lambda(n).

    a1 = Lambda(n) [n <= u]
    a2 = -sum_{m*d*r = n, m <= u, d <= v} Lambda(m) mu(d)
    a3 =  sum_{h*d = n, d <= v} mu(d) log h
    a4 = -sum_{m*k = n, m > u, k > v} Lambda(m) b(k)
    """
    if n < 1 or n > table.limit:
        raise RangeError(f"n={n} outside table range")
    u, v = params.u, params.v
    if n == 1:
        return 0.0, 0.0, 0.0, 0.0

    divisors = [1]
    for p, e in table.factorize(n):
        divisors = [d * p**i for d in divisors for i in range(e + 1)]

    a1 = table.von_mangoldt(n) if n <= u else 0.0

    a2 = 0.0
    for m in divisors:
        if m > u or m < 2:
            continue
        lam = table.von_mangoldt(m)
        if lam == 0.0:
            continue
        rest = n // m
        for d in divisors:
            if d <= v and rest % d == 0:
                a2 -= lam * table.moebius(d)

    a3 = 0.0
    for d in divisors:
        if d <= v:
            mu = table.moebius(d)
            if mu:
                a3 += mu * math.log(n // d)

    a4 = 0.0
    for m in divisors:
        if m <= u or m < 2:
            continue
        lam = table.von_mangoldt(m)
        if lam == 0.0:
            continue
        k = n // m
        if k > v:
            a4 -= lam * b_coeff(table, k, v)

    return a1, a2, a3, a4


def type_sums(table: ArithTable, f, params: VaughanParams):
    """Type I / Type II sums of the identity plus the direct left side.

    T1 = sum_{l <= uv} max_w |sum_{w <= m <= x/l} f(m l)|
    T2 = |sum_{u < m <= x/v} sum_{v < l <= x/m} Lambda(m) b(l) f(m l)|
    lhs = sum_{u < n <= x} f(n) Lambda(n)

    The max over w is exact: every integer break point is scanned.
    """
    x = int(params.x)
    if x > table.limit:
        raise RangeError("x exceeds table range")
    u, v = params.u, params.v
    uv = int(u * v)

    t1 = 0.0
    for l in range(1, uv + 1):
        hi = x // l
        suffix = 0j
        best = 0.0
        for m in range(hi, 0, -1):
            suffix += f(m * l)
            a = abs(suffix)
            if a > best:
                best = a
        t1 += best

    t2_acc = 0j
    m = int(u) + 1
    while m <= x / v:
        lam = table.von_mangoldt(m)
        if lam:
            l_lo = int(v) + 1
            l_hi = x // m
            for l in range(l_lo, l_hi + 1):
                b = b_coeff(table, l, v)
                if b:
                    t2_acc += lam * b * f(m * l)
        m += 1
    t2 = abs(t2_acc)

    lhs = 0j
    for n in range(int(u) + 1, x + 1):
        lam = table.von_mangoldt(n)
        if lam:
            lhs += lam * f(n)

    return t1, t2, complex(lhs)


def lambda_exp_sum(table: ArithTable, n_lo: int, n_hi: int,
                   theta: FixedReal) -> complex:
    """Lambda-weighted exponential sum with exact phase reduction."""
    if n_hi > table.limit:
        raise RangeError("range end exceeds table limit")
    if n_lo > n_hi:
        raise ContractError("empty summation range")
    n_lo = max(n_lo, 1)
    lam = table.von_mangoldt_range(n_lo, n_hi)
    support = np.nonzero(lam)[0]
    if support.size == 0:
        return 0j
    ns = (support + n_lo).astype(np.int64)
    phases = frac_multiples(theta, ns)
    z = np.exp(2j * np.pi * phases)
    return complex(np.sum(lam[support] * z))


def lambda_sum_via_identity(table: ArithTable, f, params: VaughanParams) -> complex:
    """Reassemble sum_{u < n <= x} f(n) Lambda(n) from the four identity terms.

    Independent evaluation order from the direct sum: each term is summed by
    iterating its own convolution structure.
    """
    x = int(params.x)
    if x > table.limit:
        raise RangeError("x exceeds table range")
    u, v = params.u, params.v
    total = 0j

    # a2 over (m, d, r): m <= u prime powers, d <= v squarefree, n = m*d*r > u
    for m in range(2, int(u) + 1):
        lam = table.von_mangoldt(m)
        if not lam:
            continue
        for d in range(1, int(v) + 1):
            mu = table.moebius(d)
            if not mu:
                continue
            md = m * d
            if md > x:
                break
            for r in range(1, x // md + 1):
                n = md * r
                if n > u:
                    total -= lam * mu * f(n)

    # a3 over (h, d): d <= v squarefree, n = h*d > u
    for d in range(1, int(v) + 1):
        mu = table.moebius(d)
        if not mu:
            continue
        for h in range(1, x // d + 1):
            n = h * d
            if n > u:
                total += mu * math.log(h) * f(n)

    # a4 over (m, k): m > u prime powers, k > v, n = m*k
    m = int(u) + 1
    while m <= x:
        lam = table.von_mangoldt(m)
        if lam:
            for k in range(int(v) + 1, x // m + 1):
                b = b_coeff(table, k, v)
                if b:
                    total -= lam * b * f(m * k)
        m += 1

    return complex(total)
