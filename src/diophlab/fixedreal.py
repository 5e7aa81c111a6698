"""Exact signed fixed-point reals with 128 fractional bits.

A ``FixedReal`` stores an arbitrary-precision integer ``raw`` and denotes the
dyadic rational ``raw / 2**128``.  Sums, differences and products with machine
integers are exact, so every floor / fractional-part decision taken downstream
is reproducible: irrational inputs (sqrt2, phi, pi, ...) are *defined* as their
128-bit truncations, and all later computations are exact with respect to
those truncations.

The module also provides the rational-approximation toolkit built on top of
the exact representation: continued-fraction convergents, Dirichlet
approximation with the ``|x - a/q| <= 1/(qX)`` guarantee, and a finite-range
certificate for the Diophantine quality of a slope vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import ContractError, ResourceCapError

FRAC_BITS = 128
SCALE = 1 << FRAC_BITS
FRAC_MASK = SCALE - 1

#: Largest multiplier for which the widened-product contract is advertised.
MAX_EXACT_MULTIPLIER = 1 << 63

#: Default cap on lattice points enumerated by :func:`dioph_certify`.
DEFAULT_ENUM_CAP = 50_000_000


def _isqrt_scaled(n: int) -> int:
    """floor(sqrt(n) * 2**128) for a nonnegative integer n."""
    return math.isqrt(n << (2 * FRAC_BITS))


#: Guard bits below 2**-128 at which the series constants are summed.
_GUARD_BITS = 64


def _atan_inv(x: int, one: int) -> tuple[int, int]:
    """(s, err) with |atan(1/x)*one - s| < err, from the Taylor series.

    Each truncated power is short by less than 2 and each term by less
    than 3; the alternating tail after the last nonzero power is below 2.
    """
    power, total, k = one // x, 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= x * x
        k += 1
    return total, 3 * k + 2


def _series_constant(name: str) -> int:
    """floor(const * 2**128) for e or pi, by integer series.

    e = sum 1/k!, pi = 16 atan(1/5) - 4 atan(1/239) (Machin), both summed
    at 64 guard bits with a bound err on the truncation error.  The floor
    is taken only when both ends of [s - err, s + err] give it.
    """
    one = 1 << (FRAC_BITS + _GUARD_BITS)
    if name == "e":
        # each truncated term is short by less than 2; the tail after the
        # first zero term is below 4
        s, term, k = 0, one, 0
        while term:
            s += term
            k += 1
            term //= k
        err = 2 * k + 4
    else:
        s5, err5 = _atan_inv(5, one)
        s239, err239 = _atan_inv(239, one)
        s, err = 16 * s5 - 4 * s239, 16 * err5 + 4 * err239
    lo, hi = (s - err) >> _GUARD_BITS, (s + err) >> _GUARD_BITS
    if lo != hi:
        raise ArithmeticError(f"{name}: error band straddles a 2**-128 step")
    return lo


@dataclass(frozen=True, order=True, slots=True)
class FixedReal:
    """Dyadic rational ``raw / 2**128`` with exact integer arithmetic."""

    raw: int

    # --- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "FixedReal":
        """Truncation of an exact rational: floor(fr * 2**128) / 2**128."""
        return cls((fr.numerator << FRAC_BITS) // fr.denominator)

    @classmethod
    def from_float(cls, x: float) -> "FixedReal":
        """Exact embedding of a binary64 value (floats are dyadic)."""
        if not math.isfinite(x):
            raise ContractError("cannot represent a non-finite float")
        return cls.from_fraction(Fraction(x))

    @classmethod
    def from_decimal(cls, text: str) -> "FixedReal":
        """Parse a decimal literal with exact truncation semantics.

        The denoted rational value is truncated downward (floor) to the
        nearest multiple of 2**-128.  Accepts optional sign, 'int.frac'
        and 'p/q' forms.
        """
        s = text.strip()
        if not s:
            raise ContractError("empty numeric literal")
        if "/" in s:
            num, _, den = s.partition("/")
            try:
                value = Fraction(int(num), int(den))
            except (ValueError, ZeroDivisionError):
                raise ContractError(
                    f"malformed rational literal: {text!r}") from None
            return cls.from_fraction(value)
        sign = 1
        if s[0] in "+-":
            if s[0] == "-":
                sign = -1
            s = s[1:]
        int_part, _, frac_part = s.partition(".")
        if not (int_part or frac_part) or not (int_part + frac_part).isdigit():
            raise ContractError(f"malformed decimal literal: {text!r}")
        num = int((int_part or "0") + (frac_part or ""))
        den = 10 ** len(frac_part)
        return cls.from_fraction(Fraction(sign * num, den))

    # --- canonical field views ----------------------------------------

    @property
    def sign(self) -> int:
        return -1 if self.raw < 0 else 1

    @property
    def integer_part(self) -> int:
        return abs(self.raw) >> FRAC_BITS

    @property
    def frac_bits_value(self) -> int:
        """The 128-bit fraction of the sign-magnitude decomposition."""
        return abs(self.raw) & FRAC_MASK

    # --- arithmetic ----------------------------------------------------

    def __add__(self, other: "FixedReal") -> "FixedReal":
        return FixedReal(self.raw + other.raw)

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        return FixedReal(self.raw - other.raw)

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.raw)

    def __mul__(self, n: int) -> "FixedReal":
        if not isinstance(n, int):
            return NotImplemented
        return FixedReal(self.raw * n)

    __rmul__ = __mul__

    def __abs__(self) -> "FixedReal":
        return FixedReal(abs(self.raw))

    # --- conversions ------------------------------------------------------

    def to_fraction(self) -> Fraction:
        return Fraction(self.raw, SCALE)

    def to_float(self) -> float:
        i, f = divmod(self.raw, SCALE)
        return i + math.ldexp(float(f), -FRAC_BITS)

    def decimal(self, digits: int = 30) -> str:
        """Decimal string with the given number of significant digits."""
        with localcontext() as ctx:
            ctx.prec = digits
            d = Decimal(self.raw) / Decimal(SCALE)
            return format(d)

    def __float__(self) -> float:
        return self.to_float()

    def __str__(self) -> str:
        return self.decimal()

    def __repr__(self) -> str:
        return f"FixedReal({self.decimal(25)})"


def _build_constants() -> dict:
    sqrt5 = _isqrt_scaled(5)
    return {
        "sqrt2": FixedReal(_isqrt_scaled(2)),
        "sqrt3": FixedReal(_isqrt_scaled(3)),
        "sqrt5": FixedReal(sqrt5),
        # (1 + sqrt5)/2 floors correctly because sqrt5*2**128 is irrationally placed
        "phi": FixedReal((SCALE + sqrt5) // 2),
        "e": FixedReal(_series_constant("e")),
        "pi": FixedReal(_series_constant("pi")),
    }


_CONSTANTS: dict | None = None


def constant(name: str) -> FixedReal:
    """Named irrational constants, each a 128-bit truncation."""
    global _CONSTANTS
    if _CONSTANTS is None:
        _CONSTANTS = _build_constants()
    try:
        return _CONSTANTS[name]
    except KeyError:
        raise ContractError(f"unknown constant {name!r}") from None


CONSTANT_NAMES = ("sqrt2", "sqrt3", "sqrt5", "phi", "e", "pi")


def parse_real(text: str) -> FixedReal:
    """Resolve a named constant or parse a decimal / rational literal."""
    s = text.strip().lower()
    if s in CONSTANT_NAMES:
        return constant(s)
    return FixedReal.from_decimal(text)


# ----------------------------------------------------------------------
# Elementary exact operations
# ----------------------------------------------------------------------

def scaled_floor_frac(x: FixedReal, n: int) -> tuple[int, FixedReal]:
    """Exact floor and fractional part of ``n * x``.

    ``n*x == floor + frac`` holds exactly in the fixed-point model.
    """
    if n <= 0:
        raise ContractError("multiplier must be positive")
    if n > MAX_EXACT_MULTIPLIER:
        raise ResourceCapError(
            f"multiplier {n} exceeds the exact widening bound 2**63"
        )
    prod = x.raw * n
    return prod >> FRAC_BITS, FixedReal(prod & FRAC_MASK)


def dist_nearest_int(x: FixedReal) -> FixedReal:
    """Distance to the nearest integer, a value in [0, 1/2]."""
    return FixedReal(dist_raw(x.raw))


def dist_raw(raw: int) -> int:
    """Distance to the nearest integer of raw/2**128, returned as a raw."""
    f = raw & FRAC_MASK
    return min(f, SCALE - f)


# ----------------------------------------------------------------------
# Slope vectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CVector:
    """Positive slope vector together with its Diophantine exponent.

    ``entries`` are the line's direction components, ``k`` the exponent of
    the quality condition ``dist(v . c) > C / max|v|**k``.
    """

    entries: tuple[FixedReal, ...]
    k: float

    def __post_init__(self):
        if not self.entries:
            raise ContractError("slope vector must have dimension >= 1")
        if any(c.raw <= 0 for c in self.entries):
            raise ContractError("all slope components must be positive")
        if self.k < self.d:
            raise ContractError(
                f"exponent k={self.k} must be >= dimension d={self.d}"
            )

    @property
    def d(self) -> int:
        return len(self.entries)

    @classmethod
    def parse(cls, text: str, k: float) -> "CVector":
        parts = [p for p in text.split(",") if p.strip()]
        return cls(tuple(parse_real(p) for p in parts), float(k))

    def floats(self) -> list[float]:
        return [c.to_float() for c in self.entries]


def inner_product(v, c: CVector) -> FixedReal:
    """Exact fixed-point inner product of an integer vector with a slope."""
    if len(v) != c.d:
        raise ContractError("vector length does not match slope dimension")
    raw = 0
    for vi, ci in zip(v, c.entries):
        if abs(vi) > (1 << 40):
            raise ResourceCapError("components above 2**40 void exactness")
        raw += vi * ci.raw
    return FixedReal(raw)


# ----------------------------------------------------------------------
# Dirichlet approximation via continued fractions
# ----------------------------------------------------------------------

def convergents(x: FixedReal):
    """Continued-fraction convergents of the exact rational x.

    Yields coprime pairs (a, q) with q ascending; terminates because the
    fixed-point value is rational.
    """
    num, den = x.raw, SCALE
    p0, q0 = 1, 0
    p1, q1 = x.raw >> FRAC_BITS, 1  # a0 = floor(x)
    num -= p1 * den
    yield p1, q1
    while num:
        num, den = den, num
        a = num // den
        num -= a * den
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        yield p1, q1


def dirichlet_approx(x: FixedReal, big_x: int) -> tuple[int, int]:
    """Best rational a/q with q <= X and |x - a/q| <= 1/(qX).

    Realized through the continued-fraction convergents of the exact
    fixed-point value: the last convergent with denominator <= X already
    satisfies the Dirichlet guarantee.
    """
    if big_x < 1:
        raise ContractError("approximation bound must be >= 1")
    best = None
    for a, q in convergents(x):
        if q > big_x:
            break
        best = (a, q)
    assert best is not None  # q=1 convergent always qualifies
    return best


# ----------------------------------------------------------------------
# Finite-range Diophantine certification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DiophCertificate:
    """Finite-range certificate for the quality of a slope vector.

    ``c_est`` is min over 0 < max|v| <= n_bound of dist(v.c) * max|v|**k,
    attained at ``v_min``; ``min_dist`` is the plain minimum of dist(v.c)
    over the same range, attained at ``min_dist_v``.  Both are range
    certificates, not global constants.
    """

    n_bound: int
    c_est: float
    v_min: tuple[int, ...]
    min_dist: float
    min_dist_v: tuple[int, ...]


def half_box(spans):
    """The v of ``itertools.product(*spans)`` whose first nonzero component
    is positive, in product order.

    For spans symmetric about 0 this keeps exactly one of each {v, -v} with
    v != 0: the canonical half of the index box that the sums symmetric
    under j -> -j enumerate and double.
    """
    for v in itertools.product(*spans):
        for comp in v:
            if comp > 0:
                yield v
                break
            if comp < 0:
                break


def dioph_certify(c: CVector, n_bound: int,
                  cap: int = DEFAULT_ENUM_CAP) -> DiophCertificate:
    """Exhaustive shell search for the worst Diophantine quality in range.

    Shells of increasing sup-norm are scanned in order so partial results
    are meaningful; within a shell the lexicographically smallest canonical
    representative wins ties.  dist values are exact; the k-th power uses
    binary64.
    """
    if n_bound < 1:
        raise ContractError("n_bound must be >= 1")
    d = c.d
    total = (2 * n_bound + 1) ** d
    if total > cap:
        raise ResourceCapError(
            f"enumerating {total} lattice points exceeds cap {cap}"
        )
    raws = [ci.raw for ci in c.entries]
    k = c.k
    best_val = None
    best_v = None
    best_dist_raw = None
    best_dist_v = None
    span = range(-n_bound, n_bound + 1)
    shells: dict[int, list] = {}
    for v in half_box([span] * d):
        shells.setdefault(max(abs(t) for t in v), []).append(v)
    for s in sorted(shells):
        weight = float(s) ** k
        for v in sorted(shells[s]):
            raw = sum(vi * ri for vi, ri in zip(v, raws))
            dr = dist_raw(raw)
            val = math.ldexp(float(dr), -FRAC_BITS) * weight
            if best_val is None or val < best_val:
                best_val, best_v = val, v
            if best_dist_raw is None or dr < best_dist_raw:
                best_dist_raw, best_dist_v = dr, v
    return DiophCertificate(
        n_bound=n_bound,
        c_est=best_val,
        v_min=tuple(best_v),
        min_dist=math.ldexp(float(best_dist_raw), -FRAC_BITS),
        min_dist_v=tuple(best_dist_v),
    )
