"""Gaussian measures of tubes and their derivatives at zero radius.

The standard Gaussian measure (density (2 pi)^(-d/2) exp(-|x|^2/2)) of the
r-tube around a supported set is a closed form in each case: a shifted
normal CDF for half-spaces and a chi CDF for centered balls and the origin.
The derivative family at r = 0 comes from exact differentiation of those
forms (Hermite recursion for the half-space; a polynomial recursion on the
radial integrand for balls), with an independent finite-difference oracle
for cross-checking.

The prediction operator assembles the expected generator-power value of a
random excursion on the unit sphere out of these derivatives, the exact
bridging coefficients and the unit-sphere valuation numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from scipy.special import gammainc, ndtr

from .evaluate import t_power_unit
from .kinematics import gkf_coefficient
from .model_sets import UNIT_SIDE, ModelSet
from .scalars import PiScalar, float_of


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


def _hermite_values(x: float, k_max: int) -> list[float]:
    """Probabilists' Hermite polynomial values He_0..He_kmax at x."""
    values = [1.0, x]
    for j in range(1, k_max):
        values.append(x * values[j] - j * values[j - 1])
    return values[: k_max + 1]


@lru_cache(maxsize=None)
def _radial_derivative_polys(d: int, j_max: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient arrays of P_j with d^j/ds^j [s^(d-1) e^(-s^2/2)]
    = P_j(s) e^(-s^2/2); P_{j+1} = P_j' - s P_j."""
    polys = []
    p = [0] * (d - 1) + [1]  # s^(d-1)
    polys.append(tuple(p))
    for _ in range(j_max):
        deriv = [i * c for i, c in enumerate(p)][1:] or [0]
        shifted = [0] + p
        m = max(len(deriv), len(shifted))
        deriv += [0] * (m - len(deriv))
        shifted += [0] * (m - len(shifted))
        p = [a - b for a, b in zip(deriv, shifted)]
        polys.append(tuple(p))
    return tuple(polys)


def _poly_eval(coeffs, x: float) -> float:
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def gamma(D: GaussSet, k_max: int) -> GammaVector:
    """One-sided derivatives of the tube measure at radius zero; the tube
    measure is analytic there for every supported set, so these are the
    coefficients of its power series."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if isinstance(D, FullSpace):
        return GammaVector(D.d, (1.0,) + (0.0,) * k_max)
    if isinstance(D, HalfSpace):
        values = [float(ndtr(-D.u))]
        if k_max >= 1:
            density = math.exp(-D.u * D.u / 2) / math.sqrt(2 * math.pi)
            hermite = _hermite_values(D.u, k_max - 1)
            values.extend(hermite[k - 1] * density for k in range(1, k_max + 1))
        return GammaVector(D.d, tuple(values))
    if isinstance(D, (CenteredBall, Origin)):
        d = D.d
        rho = D.rho if isinstance(D, CenteredBall) else 0.0
        values = [_chi_cdf(rho, d)]
        if k_max >= 1:
            # measure'(r) = C_d g(rho + r) with g(s) = s^(d-1) e^(-s^2/2)
            log_c = (1 - d / 2.0) * math.log(2) - math.lgamma(d / 2.0)
            c_d = math.exp(log_c)
            polys = _radial_derivative_polys(d, k_max - 1)
            weight = c_d * math.exp(-rho * rho / 2)
            values.extend(
                weight * _poly_eval(polys[k - 1], rho) for k in range(1, k_max + 1)
            )
        return GammaVector(d, tuple(values))
    raise TypeError(f"unknown set {D!r}")


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


_DEFAULT_STEP = {0: 0.0, 1: 0.02, 2: 0.03, 3: 0.05, 4: 0.06, 5: 0.08, 6: 0.1, 7: 0.12, 8: 0.14}


def gamma_fd_oracle(
    D: GaussSet, k: int, h: float | None = None, one_sided: bool = False
) -> float:
    """k-th derivative of the tube measure at 0 estimated from a high-order
    stencil; independent of the exact differentiation route.  Central
    stencils on the analytic extension by default; one-sided on request.
    Reliable for k <= 8."""
    if k < 0 or k > 8:
        raise ValueError("oracle supports derivative orders up to 8")
    if k == 0:
        return _tube_measure_extended(D, 0.0)
    if h is None:
        h = _DEFAULT_STEP[k]
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


def gkf_predict(A: ModelSet, D: GaussSet, m: int) -> float:
    """Expected degree-m generator power of the excursion A intersect F^(-1)D
    under the Gaussian ensemble of linear maps:

        sum_k (pi/2)^(k/2) / (k! omega_k) * t^(k+m)(A) * gamma_k(D),

    a finite sum since the unit-side powers vanish above the dimension."""
    if not isinstance(A, UNIT_SIDE):
        raise ValueError("prediction takes a unit-side set")
    n = A.n
    if m > n:
        raise ValueError("degree exceeds the dimension of the set")
    k_top = n - m
    gammas = gamma(D, k_top)
    total = 0.0
    for k in range(k_top + 1):
        if gammas[k] == 0.0:
            continue
        t_val = t_power_unit(A, k + m)
        t_val = float_of(t_val) if isinstance(t_val, PiScalar) else float(t_val)
        if t_val:
            total += float_of(gkf_coefficient(k)) * t_val * gammas[k]
    return total
