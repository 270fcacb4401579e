"""Evaluation of invariant valuations on model sets.

Sphere-side evaluation factors through the curvature basis: the index-k
curvature element of a domain is a normalized boundary integral of the
(N-k-1)-th elementary symmetric function of the principal curvatures, and
every supported boundary is isoparametric, so the integrals are closed
forms.  Everything is assembled in signed log scale because the raw
curvature-basis values scale like (4N)^(k/2) and overflow floats well below
the dimensions we need.

Unit-sphere-side values come from the euclidean tube expansion of the unit
sphere (exact) together with the degree-k dilation homogeneity for caps.
"""

from __future__ import annotations

import math

from .bases import Basis, EXACT_N_CAP, ValuationVector, change_basis
from .model_sets import (
    AmbientSphere,
    GeodesicBall,
    GreatSubsphere,
    ModelSet,
    PrincipalCurvatureProfile,
    SubsphereTube,
    UNIT_SIDE,
    UnitCap,
    UnitGreatSubsphere,
    UnitSphere,
    ball_volume_fraction,
    curvature_profile,
    tube_volume_fraction,
)
from .scalars import PiScalar, float_of, log_alpha, log_omega, omega
from .series import sqrt_pow

NEG_INF = float("-inf")

# -- signed log-scale arithmetic -----------------------------------------


def _slog(x: float) -> tuple[int, float]:
    if x == 0:
        return 0, NEG_INF
    return (1 if x > 0 else -1), math.log(abs(x))


def _slog_sum(terms) -> tuple[int, float]:
    terms = [(s, l) for s, l in terms if s != 0]
    if not terms:
        return 0, NEG_INF
    top = max(l for _, l in terms)
    acc = sum(s * math.exp(l - top) for s, l in terms)
    if acc == 0:
        return 0, NEG_INF
    return (1 if acc > 0 else -1), top + math.log(abs(acc))


def _slog_value(sign: int, log: float) -> float:
    return 0.0 if sign == 0 else sign * math.exp(log)


def _log_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def profile_sym_slog(
    profile: PrincipalCurvatureProfile, j: int, absolute: bool = False
) -> tuple[int, float]:
    """Elementary symmetric function of degree j of the (possibly repeated)
    principal curvatures, in signed log scale."""
    blocks = profile.curvatures
    if j == 0:
        return 1, 0.0
    if len(blocks) == 1:
        kappa, mult = blocks[0]
        if j > mult:
            return 0, NEG_INF
        if kappa == 0:
            return 0, NEG_INF
        sign = 1 if absolute else (1 if kappa > 0 else -1) ** j
        return sign, _log_binom(mult, j) + j * math.log(abs(kappa))
    if len(blocks) == 2:
        (k1, m1), (k2, m2) = blocks
        terms = []
        for j1 in range(max(0, j - m2), min(j, m1) + 1):
            j2 = j - j1
            if (k1 == 0 and j1 > 0) or (k2 == 0 and j2 > 0):
                continue
            sign = 1
            if not absolute:
                sign = (1 if k1 >= 0 else -1) ** j1 * (1 if k2 >= 0 else -1) ** j2
            log = _log_binom(m1, j1) + _log_binom(m2, j2)
            if j1:
                log += j1 * math.log(abs(k1))
            if j2:
                log += j2 * math.log(abs(k2))
            terms.append((sign, log))
        return _slog_sum(terms)
    raise ValueError("profiles with more than two blocks are not supported")


# -- curvature-basis values on sphere-side sets ---------------------------


def _log_sphere_volume(N: int) -> float:
    return log_alpha(N) + 0.5 * N * math.log(N)


def _volume_fraction(model_set) -> float:
    if isinstance(model_set, GeodesicBall):
        return ball_volume_fraction(model_set.N, model_set.r)
    if isinstance(model_set, SubsphereTube):
        return tube_volume_fraction(model_set.N, model_set.d, model_set.s)
    if isinstance(model_set, AmbientSphere):
        return 1.0
    raise ValueError(f"no volume for {type(model_set).__name__}")


def _tau_slog(k: int, model_set) -> tuple[int, float]:
    """Curvature-basis value tau_k in signed log scale, for domains."""
    N = model_set.N
    if k == N:
        # top element is (2^(N+1)/alpha_N) * volume
        vf = _volume_fraction(model_set)
        if vf == 0:
            return 0, NEG_INF
        return 1, (N + 1) * math.log(2) + 0.5 * N * math.log(N) + math.log(vf)
    profile = curvature_profile(model_set)
    sign, log_sym = profile_sym_slog(profile, N - k - 1)
    if sign == 0:
        return 0, NEG_INF
    log = (
        (k + 1) * math.log(2)
        - log_alpha(k)
        - log_alpha(N - k - 1)
        + profile.log_area
        + log_sym
    )
    return sign, log


def tau_evaluate(k: int, model_set: ModelSet):
    """tau_k of a sphere-side model set; exact where the set is a great
    subsphere or the whole sphere, float otherwise."""
    if isinstance(model_set, UNIT_SIDE):
        raise ValueError("curvature-basis evaluation is sphere-side only")
    N = model_set.N
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    if isinstance(model_set, GreatSubsphere):
        if k == model_set.j:
            return 2 * sqrt_pow(4 * N, k)
        return PiScalar.zero()
    if isinstance(model_set, AmbientSphere):
        if k == N:
            return 2 * sqrt_pow(4 * N, N)
        return PiScalar.zero()
    if isinstance(model_set, SubsphereTube) and model_set.s == 0:
        return tau_evaluate(k, GreatSubsphere(N, N - model_set.d))
    if isinstance(model_set, GeodesicBall) and model_set.r == 0:
        # single point: chi-consistent degenerate values
        return PiScalar.one() if k == 0 else PiScalar.zero()
    return _slog_value(*_tau_slog(k, model_set))


def _sigma_value(k: int, model_set: ModelSet, absolute: bool) -> float:
    if isinstance(model_set, UNIT_SIDE):
        raise ValueError("curvature-basis evaluation is sphere-side only")
    N = model_set.N
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    if isinstance(model_set, GreatSubsphere):
        return 2.0 if k == N - model_set.j else 0.0
    if isinstance(model_set, AmbientSphere):
        return 2.0 if k == 0 else 0.0
    if isinstance(model_set, SubsphereTube) and model_set.s == 0:
        return _sigma_value(k, GreatSubsphere(N, N - model_set.d), absolute)
    if isinstance(model_set, GeodesicBall) and model_set.r == 0:
        return 0.0
    if k == 0:
        return 2.0 * _volume_fraction(model_set)
    profile = curvature_profile(model_set)
    sign, log_sym = profile_sym_slog(profile, k - 1, absolute=absolute)
    if sign == 0:
        return 0.0
    log = (
        math.log(2)
        - 0.5 * (N - k) * math.log(N)
        - log_alpha(N - k)
        - log_alpha(k - 1)
        + profile.log_area
        + log_sym
    )
    return _slog_value(sign, log)


def sigma_evaluate(k: int, model_set: ModelSet) -> float:
    """Rescaled curvature value sigma_k; stays order-one for large N."""
    return _sigma_value(k, model_set, absolute=False)


def abs_sigma(k: int, model_set: ModelSet) -> float:
    """sigma_k computed with absolute values of the principal curvatures.

    Agrees with sigma_evaluate on geodesically convex sets; differs on
    subsphere tubes, whose core-parallel curvatures are negative."""
    return _sigma_value(k, model_set, absolute=True)


# -- generator powers on geodesic balls at any N ---------------------------


def u_power_on_ball(k: int, N: int, r: float) -> float:
    """u^k evaluated on the geodesic ball of radius r, valid at any N.

    Expands u^k over the curvature basis (coefficients are partial sums of a
    binomial series, independent of the ball) and pairs with the closed-form
    curvature values, all in log scale.  Requires r <= hemisphere so that all
    the terms are positive.
    """
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    if r == 0:
        return 1.0 if k == 0 else 0.0
    if r > 0.5 * math.pi * math.sqrt(N) + 1e-12:
        raise ValueError("log-scale ball expansion requires r <= hemisphere")
    log4n = math.log(4 * N)
    # A_p = sum_{j <= p} binom(k/2 + j - 1, j), accumulated as floats
    b = 1.0
    a = 1.0
    logs = []
    p_max = (N - k) // 2
    for p in range(p_max + 1):
        if p > 0:
            b *= (k / 2 + p - 1) / p
            a += b
        sign, log_tau = _tau_slog(k + 2 * p, GeodesicBall(N, r))
        if sign <= 0:
            continue
        logs.append(log_tau - (k / 2 + p) * log4n + math.log(a))
    if not logs:
        return 0.0
    top = max(logs)
    return math.exp(top) * sum(math.exp(l - top) for l in logs)


def mu_on_euclidean_ball(k: int, N: int, radius: float = 1.0) -> float:
    """Intrinsic volume of the euclidean N-ball: (omega_N/omega_{N-k}) binom(N,k),
    scaled by radius^k."""
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    log = log_omega(N) - log_omega(N - k) + _log_binom(N, k)
    return math.exp(log + k * math.log(radius)) if radius > 0 else (1.0 if k == 0 else 0.0)


def u_power_on_euclidean_ball(k: int, N: int, radius: float = 1.0) -> float:
    """u^k of the euclidean N-ball via the intrinsic-volume closed form."""
    mu_log = log_omega(N) - log_omega(N - k) + _log_binom(N, k) + k * math.log(radius)
    t_log = mu_log + math.lgamma(k + 1) + log_omega(k) - k * math.log(math.pi)
    return math.exp(t_log - 0.5 * k * math.log(4 * N))


# -- unit-sphere side -------------------------------------------------------


def lk_unit_sphere(n: int, k: int) -> PiScalar:
    """t^k of the unit n-sphere, from the euclidean tube expansion.

    The tube of radius rho about the unit sphere in (n+1)-space has volume
    omega_{n+1} ((1+rho)^{n+1} - (1-rho)^{n+1}); matching the Steiner
    expansion gives the intrinsic volumes, and e^(pi t) = sum omega_i mu_i
    converts them to generator powers.
    """
    if not 0 <= k <= n:
        raise ValueError("index out of range")
    if (n - k) % 2 == 1:
        return PiScalar.zero()
    mu_k = 2 * omega(n + 1) * omega(n + 1 - k).reciprocal() * math.comb(n + 1, k)
    return (
        mu_k
        * math.factorial(k)
        * omega(k)
        * PiScalar.pi_power(-2 * k)
    )


def t_power_unit(model_set: ModelSet, j: int):
    """t^j of a unit-side model set; exact for spheres and great subspheres,
    float for caps (which go through the geodesic-ball machinery on the
    rescaled sphere and degree-j homogeneity)."""
    if isinstance(model_set, UnitSphere):
        if j > model_set.n:
            return PiScalar.zero()
        return lk_unit_sphere(model_set.n, j)
    if isinstance(model_set, UnitGreatSubsphere):
        if j > model_set.m:
            return PiScalar.zero()
        return lk_unit_sphere(model_set.m, j)
    if isinstance(model_set, UnitCap):
        n, theta = model_set.n, model_set.theta
        if j > n:
            return 0.0
        return 2.0**j * u_power_on_ball(j, n, theta * math.sqrt(n))
    raise ValueError("unit-side evaluation requires a unit-side set")


# -- the general evaluator --------------------------------------------------


def evaluate(v: ValuationVector, model_set: ModelSet):
    """Pair an invariant valuation with a model set.

    Sphere-side evaluation converts to the curvature basis; the result is an
    exact scalar when every curvature value is (great subspheres, the whole
    sphere) and a float otherwise.  Unit-side sets take vectors in the T
    basis interpreted as intrinsic generator powers of the unit sphere.
    """
    if isinstance(model_set, UNIT_SIDE):
        n = model_set.n
        if v.N != n:
            raise ValueError("vector dimension must match the unit sphere")
        if v.basis != Basis.T:
            raise ValueError(
                "unit-side sets pair with T-basis vectors (intrinsic powers)"
            )
        values = [t_power_unit(model_set, j) for j in range(n + 1)]
        if all(isinstance(val, PiScalar) for val in values):
            out = PiScalar.zero()
            for c, val in zip(v.coeffs, values):
                out = out + c * val
            return out
        return sum(float_of(c) * float(val) for c, val in zip(v.coeffs, values))

    N = model_set.N
    if v.N != N:
        raise ValueError("vector and set dimensions differ")

    # dedicated large-N route for generator powers on balls
    if N > EXACT_N_CAP:
        if (
            isinstance(model_set, GeodesicBall)
            and v.basis == Basis.U
            and sum(1 for c in v.coeffs if c) <= 1
        ):
            for k, c in enumerate(v.coeffs):
                if c:
                    return float_of(c) * u_power_on_ball(k, N, model_set.r)
            return 0.0
        raise ValueError(
            f"exact evaluation capped at N = {EXACT_N_CAP}; "
            "use the dedicated large-N helpers"
        )

    if isinstance(model_set, GeodesicBall) and model_set.r == 0:
        return change_basis(v, Basis.T).coeff(0)

    in_tau = change_basis(v, Basis.TAU)
    values = [tau_evaluate(k, model_set) for k in range(N + 1)]
    if all(isinstance(val, PiScalar) for val in values):
        out = PiScalar.zero()
        for c, val in zip(in_tau.coeffs, values):
            out = out + c * val
        return out
    total = 0.0
    for c, val in zip(in_tau.coeffs, values):
        if c:
            total += float_of(c) * float(val)
    return total
