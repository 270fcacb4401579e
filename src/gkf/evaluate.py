"""Evaluation of invariant valuations on model sets.

Sphere-side evaluation factors through the curvature basis: sigma_k of a
domain is a normalized boundary integral of the (k-1)-th elementary
symmetric function of the principal curvatures (twice the volume fraction
at k = 0), and every supported boundary is isoparametric, so the integrals
are closed forms.  sigma is the one closed form; tau and the generator
powers u^k on balls are read off it.  Everything is assembled in signed log
scale because tau_k = (4N)^(k/2) sigma_(N-k) overflows floats well below
the dimensions we need.

Unit-sphere-side values come from the euclidean tube expansion of the unit
sphere (exact) together with the degree-k dilation homogeneity for caps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .bases import Basis, ValuationVector, change_basis
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
    top_degree,
    tube_volume_fraction,
)
from .scalars import PiScalar, _double_factorial, _integer, float_of, log_alpha, log_omega
from .series import sqrt_pow, u_power_in_sigma

NEG_INF = float("-inf")

# -- signed log-scale arithmetic -----------------------------------------


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
    if len(blocks) > 2:
        raise ValueError("profiles with more than two blocks are not supported")
    (k1, m1), (k2, m2) = (*blocks, (0.0, 0))[:2]  # one block: an empty second
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


# -- curvature-basis values on sphere-side sets ---------------------------
#
# sigma_k is the one closed form; tau_k = (4N)^(k/2) sigma_(N-k) and the
# generator powers u^k = sum_p binom(k/2 + p, p) sigma_(N-k-2p) are read off
# it through the SIGMA -> TAU and U -> SIGMA bridges of `bases`/`series`.


def _volume_fraction(model_set: GeodesicBall | SubsphereTube) -> float:
    """The volume fraction of a set with a hypersurface boundary; every other
    set has an exact sigma (`_exact_sigma`) and never gets here."""
    if isinstance(model_set, GeodesicBall):
        return ball_volume_fraction(model_set.N, model_set.r)
    return tube_volume_fraction(model_set.N, model_set.d, model_set.s)


def _sphere_dim(model_set: ModelSet) -> int:
    if isinstance(model_set, UNIT_SIDE):
        raise ValueError("curvature-basis evaluation is sphere-side only")
    return model_set.N


def _exact_sigma(k: int, model_set: ModelSet) -> int | None:
    """sigma_k where it is an integer (sets without a hypersurface
    boundary), else None."""
    N = _sphere_dim(model_set)
    _integer(k, "index out of range", 0, N)
    if isinstance(model_set, SubsphereTube) and model_set.s == 0:
        model_set = GreatSubsphere(N, N - model_set.d)
    if isinstance(model_set, GreatSubsphere):
        return 2 if k == N - model_set.j else 0
    if isinstance(model_set, AmbientSphere):
        return 2 if k == 0 else 0
    if isinstance(model_set, GeodesicBall) and model_set.r == 0:
        # the point: chi = 1 = tau_0 = sigma_N, the r -> 0 limit of a ball
        return 1 if k == N else 0
    return None


def _sigma_slog(k: int, model_set: ModelSet, absolute: bool) -> tuple[int, float]:
    """sigma_k of a set with a hypersurface boundary, in signed log scale:
    twice the volume fraction at k = 0, a boundary curvature integral
    otherwise."""
    N = model_set.N
    if k == 0:
        vf = _volume_fraction(model_set)
        return (1, math.log(2.0 * vf)) if vf else (0, NEG_INF)
    profile = curvature_profile(model_set)
    sign, log_sym = profile_sym_slog(profile, k - 1, absolute=absolute)
    if sign == 0:
        return 0, NEG_INF
    log = (
        math.log(2)
        - 0.5 * (N - k) * math.log(N)
        - log_alpha(N - k)
        - log_alpha(k - 1)
        + profile.log_area
        + log_sym
    )
    return sign, log


def _sigma_value(k: int, model_set: ModelSet, absolute: bool) -> float:
    exact = _exact_sigma(k, model_set)
    if exact is not None:
        return float(exact)
    if k == 0:  # direct, not exp(log(...)), so sigma_0 is 2.0 * vf to the bit
        return 2.0 * _volume_fraction(model_set)
    return _slog_value(*_sigma_slog(k, model_set, absolute))


def sigma_evaluate(k: int, model_set: ModelSet) -> float:
    """Rescaled curvature value sigma_k; stays order-one for large N."""
    return _sigma_value(k, model_set, absolute=False)


def abs_sigma(k: int, model_set: ModelSet) -> float:
    """sigma_k computed with absolute values of the principal curvatures.

    Agrees with sigma_evaluate on geodesically convex sets; differs on
    subsphere tubes, whose core-parallel curvatures are negative."""
    return _sigma_value(k, model_set, absolute=True)


def tau_evaluate(k: int, model_set: ModelSet):
    """tau_k = (4N)^(k/2) sigma_(N-k) of a sphere-side model set; exact where
    sigma is (great subspheres, the whole sphere, the point), float
    otherwise.  Raises ValueError where the float overflows."""
    N = _sphere_dim(model_set)
    k = _integer(k, "index out of range", 0, N)
    exact = _exact_sigma(N - k, model_set)
    if exact is not None:
        return exact * sqrt_pow(4 * N, k)
    sign, log = _sigma_slog(N - k, model_set, absolute=False)
    try:
        return _slog_value(sign, log + 0.5 * k * math.log(4 * N))
    except OverflowError:
        raise ValueError(
            f"tau_{k} exceeds the float range at N = {N}; "
            f"use sigma_evaluate({N - k}, ...) times (4N)^({k}/2)"
        ) from None


# -- generator powers on geodesic balls at any N ---------------------------


def _section_u_power(k: int, n: int, model_set: ModelSet) -> float:
    """sum_p binom(k/2 + p, p) sigma_(n-k-2p)(S) in signed log scale: u^k(S)
    at n = N, and at n < N the rotation average of u^k over the sections of
    S by a great n-subsphere.  The exact weights (`series.u_power_in_sigma`)
    enter through the logs of numerator and denominator, so none overflows."""
    terms = []
    for i, q in u_power_in_sigma(k, n):
        exact = _exact_sigma(i, model_set)
        if exact is None:
            sign, log = _sigma_slog(i, model_set, absolute=False)
        else:
            sign, log = (1, math.log(exact)) if exact else (0, NEG_INF)
        terms.append((sign, log + math.log(q.numerator) - math.log(q.denominator)))
    return _slog_value(*_slog_sum(terms))


def u_power_on_ball(k: int, N: int, r: float) -> float:
    """u^k on the geodesic ball of radius r at any N, as the positive sum
    sum_p binom(k/2 + p, p) sigma_(N-k-2p)(ball); requires r <= hemisphere."""
    N = _integer(N, "dimension must be positive", 1)
    k = _integer(k, "index out of range", 0, N)
    if not 0 <= r <= 0.5 * math.pi * math.sqrt(N) + 1e-12:
        raise ValueError("log-scale ball expansion requires 0 <= r <= hemisphere")
    # u^0 is chi, exactly 1 on every ball accepted here; the log-scale sum rounds it
    if k == 0 or r == 0:
        return float(k == 0)
    return _section_u_power(k, N, GeodesicBall(N, r))


def mu_on_euclidean_ball(k: int, N: int) -> float:
    """Intrinsic volume of the euclidean unit N-ball:
    (omega_N/omega_{N-k}) binom(N,k); the ball of radius r has r^k times it."""
    N = _integer(N, "dimension must be nonnegative")
    k = _integer(k, "index out of range", 0, N)
    return math.exp(log_omega(N) - log_omega(N - k) + _log_binom(N, k))


# -- unit-sphere side -------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def lk_unit_sphere(n: int, k: int) -> PiScalar:
    """t^k of the unit n-sphere: 2^(k+1) n!! / ((n-k)!! k!!) for even n - k,
    and 0 for odd n - k.

    The tube of radius rho about the unit sphere in (n+1)-space has volume
    omega_{n+1} ((1+rho)^{n+1} - (1-rho)^{n+1}); matching the Steiner
    expansion gives mu_k = 2 binom(n+1, k) omega_{n+1} / omega_{n+1-k}, and
    e^(pi t) = sum omega_i mu_i gives t^k = k! omega_k pi^(-k) mu_k.  With
    omega_j = pi^(j/2) / Gamma(j/2 + 1) and Gamma(j/2 + 1) = j!! 2^(-j/2)
    for even j, j!! 2^(-j/2) sqrt(pi/2) for odd j, the powers of pi cancel
    and the double factorials telescope to the rational above.
    """
    n = _integer(n, "dimension must be nonnegative")
    k = _integer(k, "index out of range", 0, n)
    if (n - k) % 2 == 1:
        return PiScalar.zero()
    return PiScalar.from_rational(
        Fraction(
            2 ** (k + 1) * _double_factorial(n),
            _double_factorial(n - k) * _double_factorial(k),
        )
    )


def t_power_unit(model_set: ModelSet, j: int):
    """t^j of a unit-side model set; exact for spheres and great subspheres,
    float for caps (which go through the geodesic-ball machinery on the
    rescaled sphere and degree-j homogeneity)."""
    j = _integer(j, "index must be nonnegative")
    if isinstance(model_set, (UnitSphere, UnitGreatSubsphere)):
        s = top_degree(model_set)
        return lk_unit_sphere(s, j) if j <= s else PiScalar.zero()
    if isinstance(model_set, UnitCap):
        n, theta = model_set.n, model_set.theta
        if j > n:
            return 0.0
        return 2.0**j * u_power_on_ball(j, n, theta * math.sqrt(n))
    raise ValueError("unit-side evaluation requires a unit-side set")


# -- the general evaluator --------------------------------------------------


def _pair(coeffs, value, exact: bool):
    """sum c_k * value(k) over the nonzero coefficients c_k, so a value the
    vector does not contain is never computed: an exact scalar on a set
    whose values are exact, a float otherwise (0.0 for a zero vector)."""
    terms = [(c, value(k)) for k, c in enumerate(coeffs) if c]
    if exact:
        out = PiScalar.zero()
        for c, val in terms:
            out = out + c * val
        return out
    total = 0.0
    for c, val in terms:
        total += float_of(c) * float_of(val)
    return total


def evaluate(v: ValuationVector, model_set: ModelSet):
    """Pair an invariant valuation with a model set.

    Sphere-side evaluation converts to the curvature basis; the result is an
    exact scalar when every curvature value is (great subspheres, the whole
    sphere, the point) and a float otherwise.  The exact conversion to TAU is
    capped at N = 64 by `bases`; a TAU vector needs none and pairs at any N,
    up to `tau_evaluate`'s refusal of a tau_k past the float range for a k
    whose coefficient is nonzero.
    Unit-side sets take vectors in the T basis interpreted as intrinsic
    generator powers of the unit sphere.
    """
    if isinstance(model_set, UNIT_SIDE):
        if v.N != model_set.n:
            raise ValueError("vector dimension must match the unit sphere")
        if v.basis != Basis.T:
            raise ValueError(
                "unit-side sets pair with T-basis vectors (intrinsic powers)"
            )
        exact = isinstance(model_set, (UnitSphere, UnitGreatSubsphere))
        return _pair(v.coeffs, lambda j: t_power_unit(model_set, j), exact)

    if v.N != model_set.N:
        raise ValueError("vector and set dimensions differ")
    in_tau = change_basis(v, Basis.TAU)
    # sigma is exact at every index of a set or at none
    exact = _exact_sigma(0, model_set) is not None
    return _pair(in_tau.coeffs, lambda k: tau_evaluate(k, model_set), exact)
