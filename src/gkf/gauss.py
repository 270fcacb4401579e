"""Gaussian measures of tubes and their derivatives at zero radius.

The standard Gaussian measure (density (2 pi)^(-d/2) exp(-|x|^2/2)) of the
r-tube around a supported set is a closed form in each case: a shifted
normal CDF for half-spaces and a chi CDF for centered balls and the origin.
Its derivatives at r = 0 are exact apart from one Gaussian factor:
gamma_k = F exp(-x^2/2) R_k(x) for k >= 1, with F an exact monomial and R_k
a Hermite polynomial (half-space, x = u) or a Leibniz sum of them (ball or
origin, x = rho).  A float x is a dyadic rational, so one integer Hermite
table gives every R_k exactly.  An independent finite-difference oracle
cross-checks the family.

The prediction operator assembles the expected generator-power value of a
random excursion on the unit sphere out of these derivatives, the exact
bridging coefficients and the unit-sphere valuation numbers.  On a sphere or
a great subsphere it is one exact fold that rounds once.  On a cap the terms
are floats; their sum is returned only while its condition number stays at
most _MAX_CONDITION, and refused past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from scipy.special import gammainc, ndtr

from .evaluate import t_power_unit
from .kinematics import gkf_coefficient
from .model_sets import UNIT_SIDE, ModelSet, UnitCap, UnitSphere
from .scalars import PiScalar, float_of, float_times_exp, gamma_half
from .series import sqrt_pow


@dataclass(frozen=True)
class HalfSpace:
    """{x : x_1 >= u} in d dimensions."""

    d: int
    u: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not math.isfinite(self.u):
            raise ValueError("threshold must be finite")


@dataclass(frozen=True)
class CenteredBall:
    d: int
    rho: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if not 0 < self.rho < math.inf:
            raise ValueError("radius must be positive and finite")


@dataclass(frozen=True)
class Origin:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class FullSpace:
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")


GaussSet = Union[HalfSpace, CenteredBall, Origin, FullSpace]


@dataclass(frozen=True)
class GammaVector:
    """Tube-measure derivatives gamma_0 ... gamma_kmax at radius zero."""

    d: int
    values: tuple[float, ...]

    def __getitem__(self, k: int) -> float:
        return self.values[k]


def _chi_cdf(t: float, d: int) -> float:
    if t <= 0:
        return 0.0
    return float(gammainc(d / 2.0, t * t / 2.0))


def gauss_measure_tube(D: GaussSet, r: float) -> float:
    """Standard Gaussian measure of the set of points within distance r of D."""
    if r < 0:
        raise ValueError("tube radius must be nonnegative")
    return _tube_measure_extended(D, r)


def _tube_measure_extended(D: GaussSet, r: float) -> float:
    """Analytic extension of the tube measure to small negative radii,
    used by the finite-difference oracle (central stencils)."""
    if isinstance(D, FullSpace):
        return 1.0
    if isinstance(D, HalfSpace):
        return float(ndtr(r - D.u))
    if isinstance(D, CenteredBall):
        if D.rho + r < 0:
            raise ValueError("erosion beyond the ball center")
        return _chi_cdf(D.rho + r, D.d)
    if isinstance(D, Origin):
        # the radial integral has parity (-1)^d under r -> -r
        if r >= 0:
            return _chi_cdf(r, D.d)
        return (-1) ** D.d * _chi_cdf(-r, D.d)
    raise TypeError(f"unknown set {D!r}")


# -- exact derivatives -------------------------------------------------------
#
# For k >= 1, gamma_k = F exp(-x^2/2) R_k(x):
#   half-space: measure'(r) = phi(r - u), so F = 1/sqrt(2 pi), x = u and
#     R_k = He_(k-1)(u);
#   ball or origin: measure'(r) = C_d g(rho + r) with g(s) = s^(d-1) e^(-s^2/2)
#     and C_d = 2^(1-d/2)/Gamma(d/2), so x = rho and by Leibniz
#     R_k = sum_(i <= min(k-1, d-1)) binom(k-1, i) (d-1)!/(d-1-i)!
#           rho^(d-1-i) (-1)^(k-1-i) He_(k-1-i)(rho).
# With x = a / 2^e and the integer table h_j = 2^(e j) He_j(x), every R_(j+1)
# is an integer r_j over 2^(e j); the ball's further 2^(e (d-1)) joins F.


def _hermite_table(a: int, e: int, j_max: int) -> list[int]:
    """h_j = 2^(e j) He_j(a / 2^e) for j = 0 .. j_max, from
    He_(j+1)(x) = x He_j(x) - j He_(j-1)(x)."""
    h = [1, a]
    for j in range(1, j_max):
        h.append(a * h[j] - (j * h[j - 1] << 2 * e))
    return h[: j_max + 1]


def _derivative_numerators(
    D: Union[HalfSpace, CenteredBall, Origin], j_max: int
) -> tuple[PiScalar, float, int, list[int]]:
    """(F, x, e, r) with gamma_(j+1)(D) = F exp(-x^2/2) r[j] / 2^(e j) for
    j = 0 .. j_max; F is an exact monomial and every r[j] an integer."""
    if isinstance(D, HalfSpace):
        x = D.u
    else:
        x = D.rho if isinstance(D, CenteredBall) else 0.0
    a, den = x.as_integer_ratio()
    e = den.bit_length() - 1
    h = _hermite_table(a, e, j_max)
    if isinstance(D, HalfSpace):
        return PiScalar.pi_power(-1) * sqrt_pow(2, -1), x, e, h
    d = D.d
    # c_i = (-1)^i (d-1)!/(d-1-i)! a^(d-1-i) 4^(e i): rho^(d-1-i) over
    # 2^(e (d-1)), with the 2^(e i) that He_(j-i) is short of against 2^(e j)
    c = [
        (-1) ** i * math.perm(d - 1, i) * a ** (d - 1 - i) << 2 * e * i
        for i in range(d)
    ]
    # r_j = (-1)^j sum_i binom(j, i) c_i h_(j-i)
    r = [c[0] * v for v in h]
    for i in range(1, d):
        for j in range(i, j_max + 1):
            r[j] += math.comb(j, i) * c[i] * h[j - i]
    r[1::2] = [-v for v in r[1::2]]
    c_d = sqrt_pow(2, 2 - d) * gamma_half(d).reciprocal()
    return c_d * Fraction(1, 1 << e * (d - 1)), x, e, r


def gamma(D: GaussSet, k_max: int) -> GammaVector:
    """One-sided derivatives of the tube measure at radius zero; the tube
    measure is analytic there for every supported set, so these are the
    coefficients of its power series.  Each gamma_k with k >= 1 is its exact
    part rounded once; a value beyond the float range raises ValueError."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if isinstance(D, FullSpace):
        return GammaVector(D.d, (1.0,) + (0.0,) * k_max)
    values = [gauss_measure_tube(D, 0.0)]
    if k_max >= 1:
        F, x, e, r = _derivative_numerators(D, k_max - 1)
        values.extend(
            float_times_exp(F * Fraction(r[j], 1 << e * j), -0.5 * x * x)
            for j in range(k_max)
        )
    return GammaVector(D.d, tuple(values))


# -- finite-difference oracle -------------------------------------------------


def _fd_weights(nodes: tuple[float, ...], m: int) -> list[float]:
    """Weights of the m-th derivative at 0 for arbitrary nodes (classical
    recursive construction; row i must be filled from row i-1 before that
    row is itself updated)."""
    n = len(nodes)
    if m >= n:
        raise ValueError("not enough nodes for the requested derivative")
    c = [[0.0] * (m + 1) for _ in range(n)]
    c[0][0] = 1.0
    c1 = 1.0
    c4 = nodes[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i]
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return [c[i][m] for i in range(n)]


_FD_STEP = {0: 0.0, 1: 0.02, 2: 0.03, 3: 0.05, 4: 0.06, 5: 0.08, 6: 0.1, 7: 0.12, 8: 0.14}


def gamma_fd_oracle(D: GaussSet, k: int, one_sided: bool = False) -> float:
    """k-th derivative of the tube measure at 0 estimated from a high-order
    stencil with a fixed step per order; independent of the exact
    differentiation route.  Central stencils on the analytic extension by
    default; one-sided on request.  Reliable for k <= 8."""
    if k < 0 or k > 8:
        raise ValueError("oracle supports derivative orders up to 8")
    if k == 0:
        return _tube_measure_extended(D, 0.0)
    h = _FD_STEP[k]
    if isinstance(D, CenteredBall):
        h = min(h, D.rho / 8)
    if one_sided:
        offsets = range(0, k + 6)
    else:
        half = (k + 1) // 2 + 3
        offsets = range(-half, half + 1)
    nodes = tuple(i * h for i in offsets)
    weights = _fd_weights(nodes, k)
    return sum(
        w * _tube_measure_extended(D, x) for w, x in zip(weights, nodes) if w
    )


# -- the closed-form prediction ------------------------------------------------

# A float sum of terms t_i with condition number sum|t_i| / |sum t_i| = c
# can lose all but -log10(c * eps) of its digits to cancellation; past 1e8
# fewer than about eight remain, so the sum is refused rather than returned.
_MAX_CONDITION = 1e8


def _conditioned_sum(terms) -> tuple[float, float]:
    """The sum of float terms and its condition number sum|t_i| / |sum t_i|:
    1.0 for a sum of zeros, inf for nonzero terms that cancel exactly."""
    terms = list(terms)
    total = math.fsum(terms)
    magnitude = math.fsum(abs(t) for t in terms)
    if not magnitude:
        return total, 1.0
    return total, magnitude / abs(total) if total else math.inf


def gkf_predict(A: ModelSet, D: GaussSet, m: int) -> float:
    """Expected degree-m generator power of the excursion A intersect F^(-1)D
    under the Gaussian ensemble of linear maps:

        sum_k w_k gamma_k(D),  w_k = (pi/2)^(k/2) / (k! omega_k) * t^(k+m)(A),

    a finite sum since the unit-side powers vanish above the dimension.

    On a sphere or great subsphere of dimension s, w_k is nonzero only for
    k = s - m (mod 2), and w_(k+2) / w_k = (s-k-m) / ((k+1)(k+m+2)).  With
    gamma_k = F exp(-x^2/2) r_(k-1) / 2^(e (k-1)) for k >= 1, the sum is

        t^m(A) gamma_0(D) + w_k1 F S exp(-x^2/2),

    k1 the first such k >= 1 and S one Fraction from a backward integer
    Horner pass, so the result rounds once.  On a cap t^(k+m) is a float:
    the terms are summed in floats, and the sum is refused (ValueError)
    when its condition number exceeds _MAX_CONDITION."""
    if not isinstance(A, UNIT_SIDE):
        raise ValueError("prediction takes a unit-side set")
    if not 0 <= m <= A.n:
        raise ValueError("degree must lie between 0 and the dimension of the set")
    if isinstance(A, UnitCap):
        return _cap_prediction(A, D, m)
    s = A.n if isinstance(A, UnitSphere) else A.m
    gamma_0 = Fraction(gauss_measure_tube(D, 0.0))
    head = float_times_exp(t_power_unit(A, m) * gamma_0, 0.0)
    k_top = s - m
    k1 = 2 - k_top % 2
    if isinstance(D, FullSpace) or k1 > k_top:
        return head
    F, x, e, r = _derivative_numerators(D, k_top - 1)
    # S 2^(e (k_top-1)) = acc_k1, where acc_k_top = r_(k_top-1) and
    # acc_k = r_(k-1) 2^(e (k_top-k)) + (s-k-m) / ((k+1)(k+m+2)) acc_(k+2)
    num, den = r[k_top - 1], 1
    for k in range(k_top - 2, k1 - 1, -2):
        q = (k + 1) * (k + m + 2)
        num = (r[k - 1] * den * q << e * (k_top - k)) + (s - k - m) * num
        den *= q
    S = Fraction(num, den << e * (k_top - 1))
    w = gkf_coefficient(k1) * t_power_unit(A, k1 + m)
    return head + float_times_exp(w * F * S, -0.5 * x * x)


def _cap_prediction(A: UnitCap, D: GaussSet, m: int) -> float:
    """The float sum of the prediction terms on a cap, or ValueError where
    it is too ill-conditioned to keep its digits."""
    k_top = A.n - m
    gammas = gamma(D, k_top)
    try:
        total, condition = _conditioned_sum(
            float_of(gkf_coefficient(k)) * t_power_unit(A, k + m) * gammas[k]
            for k in range(k_top + 1)
            if gammas[k]
        )
    except OverflowError:
        raise ValueError(f"prediction terms on {A} exceed the float range") from None
    if condition > _MAX_CONDITION:
        raise ValueError(
            f"prediction on {A} refused: its float sum has condition number "
            f"{condition:.3g} > {_MAX_CONDITION:g}, so too few digits survive"
        )
    return total
