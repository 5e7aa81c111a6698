"""Segmented smallest-prime-factor sieve and the standard arithmetic functions.

One table answers primality, von Mangoldt Lambda(n), Moebius mu(n) and the
divisor count d(n) in O(log n) per query, which is what the counting and
bilinear-sum machinery needs on shared ranges.  The table is immutable after
construction and safe to share between readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import RangeError, ResourceCapError

DEFAULT_BLOCK_SIZE = 1 << 20
DEFAULT_LIMIT_CAP = 200_000_000


@dataclass(frozen=True)
class ArithTable:
    """Smallest-prime-factor table for 2..limit plus derived prime data.

    ``build_arith_table`` marks every array read-only, so one table can be
    shared between readers and threads.
    """

    limit: int
    smallest_factor: np.ndarray  # int32/int64, smallest_factor[n] | n, prime
    prime_flags: np.ndarray      # bool, prime_flags[n] == (smallest_factor[n] == n)
    primes: np.ndarray = field(repr=False)  # ascending int64

    # --- queries ---------------------------------------------------------

    def _check(self, n: int, lo: int = 2) -> None:
        if not (lo <= n <= self.limit):
            raise RangeError(f"n={n} outside table range [{lo}, {self.limit}]")

    def is_prime(self, n: int) -> bool:
        self._check(n)
        return bool(self.prime_flags[n])

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization [(p, e), ...] by repeated smallest-factor division."""
        self._check(n, lo=1)
        out = []
        spf = self.smallest_factor
        while n > 1:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def von_mangoldt(self, n: int) -> float:
        """log p if n = p**m, else 0."""
        self._check(n)
        p = int(self.smallest_factor[n])
        while n % p == 0:
            n //= p
        return math.log(p) if n == 1 else 0.0

    def moebius(self, n: int) -> int:
        self._check(n, lo=1)
        if n == 1:
            return 1
        spf = self.smallest_factor
        sign = 1
        while n > 1:
            p = int(spf[n])
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        return sign

    def divisor_count(self, n: int) -> int:
        self._check(n, lo=1)
        count = 1
        for _, e in self.factorize(n):
            count *= e + 1
        return count

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """Exactly the primes p with lo <= p <= hi, ascending."""
        if not (1 <= lo <= hi <= self.limit):
            raise RangeError(
                f"window [{lo}, {hi}] outside table range [1, {self.limit}]"
            )
        i = np.searchsorted(self.primes, lo, side="left")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]

    def von_mangoldt_range(self, lo: int, hi: int) -> np.ndarray:
        """Lambda(n) for lo <= n <= hi as a float64 array of length hi-lo+1."""
        if not (1 <= lo <= hi <= self.limit):
            raise RangeError(
                f"window [{lo}, {hi}] outside table range [1, {self.limit}]"
            )
        out = np.zeros(hi - lo + 1, dtype=np.float64)
        in_window = self.primes_between(lo, hi)
        out[in_window - lo] = np.log(in_window.astype(np.float64))
        # prime powers p**m <= hi need p <= sqrt(hi)
        for p in self.primes[self.primes <= math.isqrt(hi)]:
            p = int(p)
            logp = math.log(p)
            pk = p * p
            while pk <= hi:
                if pk >= lo:
                    out[pk - lo] = logp
                pk *= p
        return out


def build_arith_table(n_max: int,
                      block_size: int = DEFAULT_BLOCK_SIZE,
                      cap: int = DEFAULT_LIMIT_CAP) -> ArithTable:
    """Segmented smallest-prime-factor sieve up to n_max inclusive."""
    if n_max < 2:
        raise RangeError("table limit must be >= 2")
    if n_max > cap:
        raise ResourceCapError(f"limit {n_max} exceeds memory cap {cap}")
    dtype = np.int32 if n_max < 2**31 else np.int64
    root = math.isqrt(n_max)

    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if base[i]:
            base[i * i:: i] = False
    base_primes = np.nonzero(base)[0]

    spf = np.zeros(n_max + 1, dtype=dtype)
    for lo in range(2, n_max + 1, block_size):
        hi = min(lo + block_size, n_max + 1)
        for p in base_primes:
            p = int(p)
            if p * p >= hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            seg = spf[start:hi:p]
            seg[seg == 0] = p
        seg = spf[lo:hi]
        untouched = np.nonzero(seg == 0)[0]
        seg[untouched] = (untouched + lo).astype(dtype)

    prime_flags = np.zeros(n_max + 1, dtype=bool)
    idx = np.arange(n_max + 1, dtype=dtype)
    prime_flags[2:] = spf[2:] == idx[2:]
    primes = np.nonzero(prime_flags)[0].astype(np.int64)
    for arr in (spf, prime_flags, primes):
        arr.flags.writeable = False
    return ArithTable(limit=n_max, smallest_factor=spf,
                      prime_flags=prime_flags, primes=primes)
