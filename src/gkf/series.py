"""Sparse rational columns of the binomial series behind the exact bridges.

The invariant valuation algebra on a sphere of dimension N is a truncated
polynomial ring (any generator to the power N+1 vanishes).  Every bridge
between a generator basis and a curvature basis expands one basis element
as a single binomial series x^a (1 + c x^2)^e truncated at degree N, so a
bridge column is a short list of (index, Fraction) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .scalars import PiScalar

# -- generator expansions -------------------------------------------------
#
# The algebra generators satisfy
#   t   = phi (1 - phi^2/4N)^(-1/2)
#   phi = t (1 + t^2/4N)^(-1/2) = sqrt(4N) u (1 + u^2)^(-1/2)
#   u   = t / sqrt(4N)
# and the curvature-integral element of index m expands as
#   sigma_m = u^(N-m) (1 + u^2)^(-((N-m)/2 + 1)),
# so tau_k = (4N)^(k/2) sigma_(N-k) = t^k (1 + t^2/4N)^(-(k+2)/2).


def binomial_x2_series(
    N: int, shift: int, exponent: Fraction, inner: Fraction
) -> tuple[tuple[int, Fraction], ...]:
    """x^shift (1 + inner x^2)^exponent truncated at degree N, as
    (index, coefficient) pairs in ascending index with zero terms left out.
    exponent and inner are int or Fraction."""
    a, b = exponent.numerator, exponent.denominator
    n, d = inner.numerator, inner.denominator
    out = []
    q = Fraction(1)
    for j in range((N - shift) // 2 + 1):
        # q = binom(exponent, j) * inner^j, one reduced Fraction per term
        # (left unreduced, the integers blow up on long series)
        if not q:
            break
        out.append((shift + 2 * j, q))
        q = Fraction(q.numerator * (a - j * b) * n, q.denominator * (j + 1) * b * d)
    return tuple(out)


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
def u_power_in_sigma(k: int, N: int) -> tuple[tuple[int, Fraction], ...]:
    """u^k = sum_j binom(j + k/2, j) sigma_(N - k - 2j); pairs (index, coeff)."""
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    # x^k (1 - x^2)^(-(k+2)/2), read at index N - i
    series = binomial_x2_series(N, k, Fraction(-k - 2, 2), Fraction(-1))
    return tuple((N - i, q) for i, q in series)
