"""Seeded Monte Carlo drivers and their closed-form predictions.

Each driver draws i.i.d. random maps in fixed-size chunks with one child
stream per chunk and merges the chunk moments in chunk order.  A chunk
returns its moments alone, and the map over the chunk plan returns them in
plan order, so results are bit-reproducible for a fixed (seed, stream_id,
n_samples) and the same at any worker count: chunks can be farmed out to
worker processes without changing the reduction.

The z-score divides the gap between estimate and prediction by the
standard error, floored at a bound on the rounding of the mean, so a run
of equal samples gets a finite z.  To first order a float sum in which no
value passes through more than h additions is off by at most
h (eps / 2) sum |x_i| (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., sec. 4.2).  numpy's pairwise sum of a chunk has
h = 24 at CHUNK_SIZE = 8192 (`_pairwise_roundings`); C chunk sums merged
in order add C - 1 roundings and the division one.  Counting one eps per
rounding (a margin for the rounding of the values and of the prediction)
and with values bounded by the functional's unit u (1 for chi, t^top(A)
for the top degree), the floor is (h + C) eps u: 3.3e-14 u at n = 10^6.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .evaluate import _section_u_power, abs_sigma, sigma_evaluate, t_power_unit
from .functionals import _hit_fractions, chi_values
from .gauss import CenteredBall, FullSpace, GaussSet, HalfSpace, gamma, gkf_predict
from .kinematics import gkf_coefficient, nu_values_on_set
from .model_sets import (
    AmbientSphere,
    GeodesicBall,
    ModelSet,
    SubsphereTube,
    UnitGreatSubsphere,
    UnitSphere,
    ball_volume_fraction,
    top_degree,
)
from .rng import RngStream
from .sampling import pi_infinity_batch, pi_n_batch, uniform_sphere_batch
from .scalars import float_of

CHUNK_SIZE = 8192

Z_PASS = 3.0
Z_WARN = 4.0

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class McReport:
    """A Monte Carlo estimate bundle with its closed-form prediction."""

    estimate: float
    stderr: float
    n_samples: int
    prediction: float
    z_score: float
    seed: int
    stream_id: int

    @property
    def gate(self) -> str:
        z = abs(self.z_score)
        if z < Z_PASS:
            return "PASS"
        return "WARN" if z < Z_WARN else "FAIL"


def _chunk_moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, sum, sum of squared deviations from the mean) of one chunk."""
    total = float(values.sum())
    deviations = values - total / len(values)
    return len(values), total, float((deviations * deviations).sum())


@lru_cache(maxsize=None)
def _pairwise_roundings(n: int) -> int:
    """Additions on the longest chain of numpy's pairwise sum of n values
    (`pairwise_sum` in numpy/_core/src/umath/loops_utils.h.src): one running
    sum below 8 values; up to 128, eight running sums, three additions
    joining them and the n % 8 left over; else two parts, the first n / 2
    rounded down to a multiple of 8."""
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 + 2 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(_pairwise_roundings(half), _pairwise_roundings(n - half))


def _make_report(parts, prediction: float, unit: float, rng: RngStream) -> McReport:
    """The report of a sequence of chunk moments (count, sum, M2), merged
    in order by the pairwise update of Chan, Golub & LeVeque ("Algorithms
    for computing the sample variance", Amer. Statist. 37, 1983): M2 =
    M2_a + M2_b + delta^2 n_a n_b / (n_a + n_b), delta the gap between the
    two means.  No sum of squares is formed, so a large common mean costs
    no digits of the spread, and the chunk plan fixes the order, hence the
    result, at any worker count.  z divides by the standard error floored
    at (h + C) eps unit, h the longest chain of additions in one chunk's
    sum and C the number of chunks (module docstring)."""
    n, total, m2 = 0, 0.0, 0.0
    for n_i, total_i, m2_i in parts:
        delta = total_i / n_i - (total / n if n else 0.0)
        m2 += m2_i + delta * delta * n * n_i / (n + n_i)
        n += n_i
        total += total_i
    mean = total / n
    stderr = math.sqrt(m2 / max(n - 1, 1) / n)
    chain = max(_pairwise_roundings(n_i) for n_i, _, _ in parts)
    z = (mean - prediction) / max(stderr, (chain + len(parts)) * _EPS * unit)
    return McReport(
        estimate=mean,
        stderr=stderr,
        n_samples=n,
        prediction=prediction,
        z_score=z,
        seed=rng.seed,
        stream_id=rng.stream_id,
    )


# -- finite-N closed-form prediction ------------------------------------------


def pull_back_set(D: GaussSet, N: int):
    """The sphere-side trace of a euclidean set: a subsphere tube for a
    centered ball, a cap for a half-space threshold, the whole sphere for
    the full space."""
    R = math.sqrt(N)
    if isinstance(D, CenteredBall):
        if D.rho >= R:
            raise ValueError("ball must fit inside the projected disk")
        return SubsphereTube(N, D.d, R * math.asin(D.rho / R))
    if isinstance(D, HalfSpace):
        if D.d != 1 or abs(D.u) >= R:
            raise ValueError("half-space trace needs d = 1 and |u| < sqrt(N)")
        return GeodesicBall(N, R * math.acos(D.u / R))
    if isinstance(D, FullSpace):
        return AmbientSphere(N)
    raise ValueError(f"no sphere-side trace for {type(D).__name__}")


def pi_n_prediction(A: ModelSet, D: GaussSet, N: int, m: int) -> float:
    """Exact finite-N expectation of the degree-m functional: the kinematic
    pairing 2^m sum_k u^(m+k)(A embedded in S^N) nu_k(trace of D), folded in
    the exact ring to the positive-weight sum
    2^m sum_p binom(m/2 + p, p) sigma_(n-m-2p)(trace of D), n = dim A."""
    if not isinstance(A, (UnitSphere, UnitGreatSubsphere)):
        raise ValueError("finite-N prediction supports spheres and subspheres")
    n_embed = top_degree(A)
    if n_embed > N:
        raise ValueError(f"a {n_embed}-sphere does not embed in S^{N}")
    if m > n_embed:
        return 0.0
    return 2.0**m * _section_u_power(m, n_embed, pull_back_set(D, N))


# -- the main estimator ---------------------------------------------------------


def _resolve_degree(A: ModelSet, m) -> int:
    if m == "top":
        return top_degree(A)
    if m in (0, "0"):
        return 0
    if isinstance(m, int) and m == top_degree(A):
        return m
    raise ValueError("degree must be 0 or 'top'")


def _chunk_plan(n_samples: int) -> list[int]:
    """The size of each fixed-size chunk; chunk i draws from rng.child(i)."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    offsets = range(0, n_samples, CHUNK_SIZE)
    return [min(CHUNK_SIZE, n_samples - offset) for offset in offsets]


def _chunk_task(A, D, t_top, law_n, n_points, rng, index, size):
    """The moments of chunk index: its maps, drawn from rng.child(index),
    scored by chi of the excursion when t_top is None, else by t_top times
    the hit-or-miss volume fraction."""
    gen = rng.child(index).generator()
    if law_n is None:
        F_batch = pi_infinity_batch(A.n, D.d, size, gen)
    else:
        F_batch = pi_n_batch(A.n, D.d, law_n, size, gen)
    if t_top is None:
        values = chi_values(A, D, F_batch).astype(float)
    else:
        values = t_top * _hit_fractions(A, D, F_batch, n_points, gen)
    return _chunk_moments(values)


def estimate_lhs(
    A: ModelSet,
    D: GaussSet,
    m,
    n_samples: int,
    rng: RngStream,
    law_n: int | None = None,
    n_points: int = 1,
    workers: int = 1,
) -> McReport:
    """Monte Carlo estimate of the expected degree-m functional of the
    excursion A intersect F^(-1) D, with the matching closed-form prediction:
    the limit-theorem formula for the Gaussian ensemble, the exact kinematic
    pairing for the finite-N ensemble (where supported)."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    degree = _resolve_degree(A, m)
    # the prediction rejects unsupported pairs, so it runs before any draw
    if law_n is None:
        prediction = gkf_predict(A, D, degree)
    else:
        prediction = pi_n_prediction(A, D, law_n, degree)
    # t^top(A) is exact algebra, so it is evaluated once, not per chunk
    t_top = None if degree == 0 else float_of(t_power_unit(A, degree))
    sizes = _chunk_plan(n_samples)
    task = partial(_chunk_task, A, D, t_top, law_n, n_points, rng)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(task, range(len(sizes)), sizes))
    else:
        parts = list(map(task, range(len(sizes)), sizes))
    unit = 1.0 if t_top is None else abs(t_top)
    return _make_report(parts, prediction, unit, rng)


# -- convergence tables ----------------------------------------------------------


def nu_limit_constant(k: int) -> float:
    """(2 pi)^(k/2) / (k! omega_k), the large-N limit scaling."""
    return 2.0**k * float_of(gkf_coefficient(k))


def nu_convergence(
    d: int, rho: float, k_max: int, N_list: tuple[int, ...]
) -> list[dict]:
    """Tabulate nu_k of the pulled-back ball against the limit values."""
    D = CenteredBall(d, rho)
    gammas = gamma(D, k_max)
    rows = []
    for N in N_list:
        values = nu_values_on_set(pull_back_set(D, N), min(k_max, N))
        for k, value in enumerate(values):
            limit = nu_limit_constant(k) * gammas[k]
            # when the limit vanishes exactly (it does for the unit ball in
            # the plane at k = 2), fall back to the natural coefficient scale
            scale = abs(limit) if limit else nu_limit_constant(k)
            rows.append(
                {
                    "N": N,
                    "k": k,
                    "value": value,
                    "limit": limit,
                    "limit_is_zero": limit == 0.0,
                    "abs_err": abs(value - limit),
                    "rel_err": abs(value - limit) / scale,
                }
            )
    return rows


# -- the kinematic inequality ------------------------------------------------------


def kinematic_inequality_check(
    C: ModelSet,
    D: ModelSet,
    k: int,
    N: int,
    n_rotations: int,
    rng: RngStream,
) -> dict:
    """Check that the rotation average of |sigma_k| of an intersection stays
    below the diagonal product bound.

    Both sets are sphere-side sets of dimension N.  Supported configurations
    (the ones whose intersection functional has an exact route): the whole
    sphere as one factor (the intersection is the other factor, by
    invariance), and the volume case k = 0 for cap pairs, where the left
    side is the expected normalized intersection volume, by hit-or-miss.
    """
    if any(getattr(S, "N", None) != N for S in (C, D)):  # unit-side sets have no N
        raise ValueError("dimension mismatch")
    if isinstance(C, AmbientSphere) or isinstance(D, AmbientSphere):
        fixed = D if isinstance(C, AmbientSphere) else C
        lhs = abs(sigma_evaluate(k, fixed))
        rhs = 0.5 * sum(
            abs_sigma(i, fixed) * abs_sigma(k - i, AmbientSphere(N))
            for i in range(k + 1)
        )
        return {
            "mode": "ambient-exact",
            "k": k,
            "N": N,
            "lhs": float(lhs),
            "rhs": float(rhs),
            "stderr": 0.0,
            "n_samples": 0,
            "passed": bool(lhs <= rhs * (1 + 1e-12) + 1e-12),
        }
    if k == 0 and isinstance(C, GeodesicBall) and isinstance(D, GeodesicBall):
        R = math.sqrt(N)
        if C.r > 0.5 * math.pi * R or D.r > 0.5 * math.pi * R:
            raise ValueError("caps must be geodesically convex")
        if n_rotations < 2:
            raise ValueError("the volume estimate needs at least 2 rotations")
        gen = rng.generator()
        theta_c, theta_d = C.r / R, D.r / R
        clamp = lambda a: np.clip(a, -1.0, 1.0)
        x = uniform_sphere_batch(N, n_rotations, gen)
        centers = uniform_sphere_batch(N, n_rotations, gen)
        in_c = np.arccos(clamp(x[:, 0])) <= theta_c
        in_d = np.arccos(clamp(np.einsum("ij,ij->i", x, centers))) <= theta_d
        values = 2.0 * (in_c & in_d)
        mean = float(values.mean())
        stderr = float(values.std(ddof=1)) / math.sqrt(n_rotations)
        vf_c = ball_volume_fraction(N, C.r)
        vf_d = ball_volume_fraction(N, D.r)
        rhs = 0.5 * (2 * vf_c) * (2 * vf_d)
        return {
            "mode": "volume-mc",
            "k": k,
            "N": N,
            "lhs": float(mean),
            "rhs": float(rhs),
            "stderr": stderr,
            "n_samples": n_rotations,
            "passed": bool(mean <= rhs + 3 * stderr + 1e-12),
        }
    raise ValueError(
        "supported configurations: one ambient-sphere factor (any k), or "
        "k = 0 with two convex caps"
    )
