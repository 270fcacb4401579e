"""Truncated power series over the exact scalar ring.

The invariant valuation algebra on a sphere of dimension N is a truncated
polynomial ring (any generator to the power N+1 vanishes), so every basis
relation is a substitution of one truncated series into another.  Series are
plain coefficient lists of PiScalar, truncated at degree N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .scalars import PiScalar, generalized_binomial

ZERO = PiScalar.zero()
ONE = PiScalar.one()


@dataclass(frozen=True)
class SeriesU:
    """Coefficients of a series in one formal variable, modulo degree N+1."""

    N: int
    coeffs: tuple[PiScalar, ...]

    def __post_init__(self):
        if len(self.coeffs) > self.N + 1:
            raise ValueError("series degree exceeds truncation order")

    @classmethod
    def from_coeffs(cls, N: int, coeffs) -> "SeriesU":
        padded = [PiScalar._coerce(c) for c in coeffs[: N + 1]]
        return cls(N, tuple(padded))

    def coeff(self, k: int) -> PiScalar:
        return self.coeffs[k] if k < len(self.coeffs) else ZERO

    def padded(self) -> list[PiScalar]:
        out = list(self.coeffs)
        out.extend(ZERO for _ in range(self.N + 1 - len(out)))
        return out


def series_add(a: SeriesU, b: SeriesU) -> SeriesU:
    if a.N != b.N:
        raise ValueError("truncation orders differ")
    return SeriesU(a.N, tuple(a.coeff(k) + b.coeff(k) for k in range(a.N + 1)))


def series_mul(a: SeriesU, b: SeriesU) -> SeriesU:
    if a.N != b.N:
        raise ValueError("truncation orders differ")
    n = a.N
    out = [ZERO] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j, bj in enumerate(b.coeffs):
            if i + j > n:
                break
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return SeriesU(n, tuple(out))


def series_scale(a: SeriesU, c) -> SeriesU:
    c = PiScalar._coerce(c)
    return SeriesU(a.N, tuple(c * x for x in a.coeffs))


def substitute(f: SeriesU, g: SeriesU) -> SeriesU:
    """f(g(x)) truncated; g must have zero constant term."""
    if g.coeff(0):
        raise ValueError("substitution requires zero constant term")
    n = f.N
    out = SeriesU(n, (f.coeff(0),))
    power = SeriesU(n, (ONE,))
    for k in range(1, n + 1):
        power = series_mul(power, g)
        ck = f.coeff(k)
        if ck:
            out = series_add(out, series_scale(power, ck))
    return out


def binomial_x2_series(N: int, exponent: Fraction, inner: Fraction) -> SeriesU:
    """(1 + inner * x^2)^exponent truncated at degree N; rational coefficients."""
    coeffs = [ZERO] * (N + 1)
    for j in range(N // 2 + 1):
        q = generalized_binomial(exponent, j) * inner**j
        coeffs[2 * j] = PiScalar.from_rational(q)
    return SeriesU(N, tuple(coeffs))


def _shift(series: SeriesU, by: int) -> SeriesU:
    coeffs = [ZERO] * by + list(series.coeffs)
    return SeriesU(series.N, tuple(coeffs[: series.N + 1]))


# -- generator expansions -------------------------------------------------
#
# The algebra generators satisfy
#   t   = phi (1 - phi^2/4N)^(-1/2)
#   phi = t (1 + t^2/4N)^(-1/2) = sqrt(4N) u (1 + u^2)^(-1/2)
#   u   = t / sqrt(4N)
# and the curvature-integral element of index m expands as
#   sigma_m = u^(N-m) (1 + u^2)^(-((N-m)/2 + 1)).


@lru_cache(maxsize=None)
def sqrt_pow(n: int, k: int) -> PiScalar:
    """n^(k/2) exactly (k may be negative)."""
    if k >= 0:
        half, rem = divmod(k, 2)
        out = PiScalar.from_rational(n**half)
        if rem:
            out = out * PiScalar.sqrt_int(n)
        return out
    return sqrt_pow(n, -k).reciprocal()


@lru_cache(maxsize=None)
def t_in_phi(N: int) -> SeriesU:
    return _shift(binomial_x2_series(N, Fraction(-1, 2), Fraction(-1, 4 * N)), 1)


@lru_cache(maxsize=None)
def phi_in_t(N: int) -> SeriesU:
    return _shift(binomial_x2_series(N, Fraction(-1, 2), Fraction(1, 4 * N)), 1)


@lru_cache(maxsize=None)
def u_in_phi(N: int) -> SeriesU:
    return series_scale(t_in_phi(N), sqrt_pow(4 * N, -1))


@lru_cache(maxsize=None)
def sigma_as_u_series(m: int, N: int) -> SeriesU:
    """sigma_m written as a truncated series in u."""
    if not 0 <= m <= N:
        raise ValueError("index out of range")
    k = N - m
    return _shift(binomial_x2_series(N, Fraction(-k - 2, 2), Fraction(1)), k)


@lru_cache(maxsize=None)
def u_power_in_sigma(k: int, N: int) -> tuple[tuple[int, Fraction], ...]:
    """u^k = sum_j binom(j + k/2, j) sigma_(N - k - 2j); pairs (index, coeff)."""
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    out = []
    for j in range((N - k) // 2 + 1):
        out.append((N - k - 2 * j, generalized_binomial(Fraction(k, 2) + j, j)))
    return tuple(out)


@lru_cache(maxsize=None)
def contraction_power_series(i: int, N: int) -> SeriesU:
    """(u / sqrt(1 + u^2))^i truncated: the left legs of the kinematic
    expansion of the Euler characteristic."""
    return _shift(binomial_x2_series(N, Fraction(-i, 2), Fraction(1)), i)


# -- named composition rules ------------------------------------------------

# rule -> (basis the input coefficients index, basis of the result)
_RULES = {
    "PhiOfU": ("PHI", "U"),
    "UOfPhi": ("U", "PHI"),
    "SigmaFromU": ("SIGMA", "U"),
    "UFromSigma": ("U", "SIGMA"),
    "MuFromT": ("T", "MU"),
    "TFromMu": ("MU", "T"),
}


def series_compose(f, rule: str):
    """Apply one of the named basis expansions.

    Rules (column = what the input coefficients index, result type):
      PhiOfU:    series in phi  -> series in u
      UOfPhi:    series in u    -> series in phi
      SigmaFromU: sigma coefficient list -> series in u
      UFromSigma: series in u   -> sigma coefficient list
      MuFromT:   series in t    -> intrinsic-volume coefficient list
      TFromMu:   intrinsic-volume coefficient list -> series in t

    Each rule is the exact change of basis between the two named bases.
    Results in a generator power (phi, t, u) are series; the others are
    returned as ValuationVector (imported lazily to keep this module
    dependency-free).
    """
    from .bases import Basis, ValuationVector, _apply, conversion_matrix

    if isinstance(f, ValuationVector):
        series = SeriesU(f.N, f.coeffs)
    elif isinstance(f, SeriesU):
        series = f
    else:
        raise TypeError("expected SeriesU or ValuationVector")
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    src, dst = (Basis[name] for name in _RULES[rule])
    N = series.N
    coeffs = _apply(conversion_matrix(N, src, dst), tuple(series.padded()))
    if dst in (Basis.PHI, Basis.T, Basis.U):
        return SeriesU(N, coeffs)
    return ValuationVector(N, dst, coeffs)
