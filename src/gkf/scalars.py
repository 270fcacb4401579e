"""Exact scalar arithmetic for the valuation calculus.

Values are finite rational combinations of pi^(m/2) * sqrt(r) with m an
integer and r a squarefree positive integer.  The sqrt(r) factors are needed
because the t <-> u and tau <-> sigma basis bridges scale coefficients by
(4N)^(k/2), which is irrational for most ambient dimensions N.  Multiplying
two terms adds the half-exponents of pi and merges the radicands after
extracting square factors, so the representation is closed under ring
arithmetic and equality is structural.

Also provides the named geometric constants: omega(n), the volume of the
n-dimensional unit ball, alpha(n) = (n+1)*omega(n+1), the surface measure of
the unit n-sphere, Gamma at half-integers, and generalized binomial
coefficients, plus log-scale float versions used by the large-dimension
evaluation paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Fraction

# sqrt(pi) to 90 digits; float_of truncates this to the requested precision
# so the only float rounding happens in the final conversion.
_SQRT_PI_DIGITS = (
    "1"
    "77245385090551602729816748334114518279754945612238712821380778985291"
    "128459103218137495066"
)
_SQRT_PI_MAX_DIGITS = len(_SQRT_PI_DIGITS) - 1

ScalarLike = Union["PiScalar", Fraction, int]


@lru_cache(maxsize=None)
def _square_split(n: int) -> tuple[int, int]:
    """Write n = s**2 * r with r squarefree; returns (s, r)."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, r = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                r *= p
        p += 1 if p == 2 else 2
    return s, r * n


class PiScalar:
    """Immutable exact number: sum of q * pi^(m/2) * sqrt(r) terms.

    Terms are keyed by (m, r) with r squarefree; zero coefficients are never
    stored, so equality is term-wise.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (m, r), q in terms.items():
                if q:
                    clean[(m, r)] = q
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PiScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "PiScalar":
        return cls({(0, 1): Fraction(q)})

    @classmethod
    def pi_power(cls, m: int) -> "PiScalar":
        """pi^(m/2); m may be negative."""
        return cls({(m, 1): Fraction(1)})

    @classmethod
    def sqrt_int(cls, n: int) -> "PiScalar":
        """Exact sqrt(n) for a positive integer n."""
        s, r = _square_split(n)
        return cls({(0, r): Fraction(s)})

    @classmethod
    def zero(cls) -> "PiScalar":
        return cls()

    @classmethod
    def one(cls) -> "PiScalar":
        return cls.from_rational(1)

    # -- inspection ---------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[int, int, Fraction], ...]:
        return tuple(sorted((m, r, q) for (m, r), q in self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(k == (0, 1) for k in self._terms)

    def as_fraction(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return self._terms[(0, 1)]

    # -- ring arithmetic ----------------------------------------------

    @staticmethod
    def _coerce(x: ScalarLike) -> "PiScalar":
        if isinstance(x, PiScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return PiScalar.from_rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: ScalarLike) -> "PiScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for k, q in other._terms.items():
            terms[k] = terms.get(k, Fraction(0)) + q
        return PiScalar(terms)

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return PiScalar({k: -q for k, q in self._terms.items()})

    def __sub__(self, other: ScalarLike) -> "PiScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "PiScalar":
        return self._coerce(other) - self

    def __mul__(self, other: ScalarLike) -> "PiScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return PiScalar()
        terms: dict[tuple[int, int], Fraction] = {}
        for (m1, r1), q1 in a.items():
            for (m2, r2), q2 in b.items():
                if r1 == r2:
                    key = (m1 + m2, 1)
                    q = q1 * q2 * r1
                else:
                    s, r = _square_split(r1 * r2)
                    key = (m1 + m2, r)
                    q = q1 * q2 * s
                if key in terms:
                    terms[key] += q
                else:
                    terms[key] = q
        return PiScalar(terms)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "PiScalar":
        if k < 0:
            return self.reciprocal() ** (-k)
        out = PiScalar.one()
        for _ in range(k):
            out = out * self
        return out

    def reciprocal(self) -> "PiScalar":
        """Exact inverse; only single-term values are invertible here."""
        if len(self._terms) != 1:
            raise ValueError(f"cannot invert multi-term scalar: {self}")
        ((m, r), q), = self._terms.items()
        # 1/(q pi^(m/2) sqrt(r)) = (1/(q r)) pi^(-m/2) sqrt(r)
        return PiScalar({(-m, r): Fraction(1) / (q * r)})

    def __truediv__(self, other: ScalarLike) -> "PiScalar":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PiScalar.from_rational(other)
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # rational values equal their Fraction, so they must hash like it
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- numeric conversion --------------------------------------------

    def __float__(self) -> float:
        return float_of(self)

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for m, r, q in self.terms:
            factors = [str(q)]
            if m:
                factors.append("pi" if m == 2 else f"pi^{Fraction(m, 2)}")
            if r != 1:
                factors.append(f"sqrt({r})")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PiScalar({self})"


def float_of(x: ScalarLike, digits: int = 50) -> float:
    """Numeric value of an exact scalar.

    The sum is assembled as one exact Fraction using sqrt(pi) and integer
    square roots truncated to `digits` decimal digits, then converted to
    float, so only the final conversion rounds.
    """
    x = PiScalar._coerce(x)
    if x.is_rational():
        return float(x.as_fraction())
    digits = max(1, min(digits, _SQRT_PI_MAX_DIGITS))
    scale = 10 ** digits
    sqrt_pi = Fraction(int(_SQRT_PI_DIGITS[: digits + 1]), scale)
    total = Fraction(0)
    for m, r, q in x.terms:
        value = q * sqrt_pi ** m
        if r != 1:
            value *= Fraction(math.isqrt(r * scale * scale), scale)
        total += value
    return float(total)


# -- gamma function at half-integers, omega, alpha ----------------------


@lru_cache(maxsize=None)
def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def gamma_half(two_x: int) -> PiScalar:
    """Gamma(two_x / 2) exactly, for two_x >= 1.

    Gamma(k) = (k-1)!; Gamma(k + 1/2) = (2k)!/(4^k k!) * sqrt(pi).
    """
    if two_x < 1:
        raise ValueError("argument must be a positive half-integer")
    if two_x % 2 == 0:
        return PiScalar.from_rational(math.factorial(two_x // 2 - 1))
    k = (two_x - 1) // 2
    q = Fraction(math.factorial(2 * k), 4**k * math.factorial(k))
    return PiScalar({(1, 1): q})


@lru_cache(maxsize=None)
def omega(n: int) -> PiScalar:
    """Volume of the unit ball in dimension n: pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n % 2 == 0:
        k = n // 2
        return PiScalar({(n, 1): Fraction(1, math.factorial(k))})
    k = (n - 1) // 2
    return PiScalar({(n - 1, 1): Fraction(2 ** (k + 1), _double_factorial(n))})


@lru_cache(maxsize=None)
def alpha(n: int) -> PiScalar:
    """Surface measure of the unit n-sphere: (n+1) * omega(n+1)."""
    return omega(n + 1) * (n + 1)


def generalized_binomial(top, j: int) -> Fraction:
    """binom(top, j) = top (top-1) ... (top-j+1) / j! for half-integer top."""
    if j < 0:
        raise ValueError("lower index must be nonnegative")
    top = Fraction(top)
    if top.denominator not in (1, 2):
        raise ValueError("upper index must be an integer or half-integer")
    num = Fraction(1)
    for i in range(j):
        num *= top - i
    return num / math.factorial(j)


# -- float/log-scale companions used by the large-N evaluation paths ----


def log_omega(n: int) -> float:
    """log of the unit-ball volume omega(n), via lgamma."""
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1)


def log_alpha(n: int) -> float:
    """log of the unit-sphere surface measure alpha(n)."""
    return math.log(n + 1) + log_omega(n + 1)


def omega_float(n: int) -> float:
    return math.exp(log_omega(n))
