"""Seeded Monte Carlo drivers and their closed-form predictions.

Each driver draws i.i.d. random maps in fixed-size chunks with one child
stream per chunk, so results are bit-reproducible for a fixed (seed,
stream_id, n_samples, worker count) and chunks can be farmed out to worker
processes without changing the reduction.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .evaluate import abs_sigma, sigma_evaluate, t_power_unit
from .functionals import _chi_values, gauss_set_membership, sample_uniform_on
from .gauss import CenteredBall, FullSpace, GaussSet, HalfSpace, gamma, gkf_predict
from .kinematics import gkf_coefficient, nu_values_on_set, u_power_on_great_subsphere
from .model_sets import (
    AmbientSphere,
    GeodesicBall,
    ModelSet,
    SubsphereTube,
    UnitGreatSubsphere,
    UnitSphere,
    ball_volume_fraction,
)
from .rng import RngStream
from .sampling import pi_infinity_batch, pi_n_batch
from .scalars import PiScalar, float_of

CHUNK_SIZE = 8192

Z_PASS = 3.0
Z_WARN = 4.0


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


def _make_report(
    total: float, total_sq: float, n: int, prediction: float, rng: RngStream
) -> McReport:
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / max(n - 1, 1)
    stderr = math.sqrt(var / n)
    diff = mean - prediction
    if stderr > 0:
        z = diff / stderr
    else:
        z = 0.0 if diff == 0 else math.copysign(math.inf, diff)
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
    pairing 2^m sum_k u^(m+k)(embedded A) nu_k(trace of D)."""
    if isinstance(A, UnitSphere):
        n_embed = A.n
    elif isinstance(A, UnitGreatSubsphere):
        n_embed = A.m
    else:
        raise ValueError("finite-N prediction supports spheres and subspheres")
    nu_vals = nu_values_on_set(N, pull_back_set(D, N), n_embed - m)
    total = 0.0
    for k in range(0, n_embed - m + 1):
        u_val = u_power_on_great_subsphere(m + k, N, n_embed)
        if u_val:
            total += float(u_val) * nu_vals[k]
    return 2.0**m * total


# -- the main estimator ---------------------------------------------------------


def _top_degree(A: ModelSet) -> int:
    if isinstance(A, UnitGreatSubsphere):
        return A.m
    return A.n


def _resolve_degree(A: ModelSet, m) -> int:
    if m == "top":
        return _top_degree(A)
    if m in (0, "0"):
        return 0
    if isinstance(m, int) and m == _top_degree(A):
        return m
    raise ValueError("degree must be 0 or 'top'")


def _draw_maps(A, D, law_n, size, gen):
    n = A.n
    d = D.d
    if law_n is None:
        return pi_infinity_batch(n, d, size, gen)
    return pi_n_batch(n, d, law_n, size, gen)


def _chunk_plan(n_samples: int):
    """(index, size) of each fixed-size chunk; chunk i draws from
    rng.child(i)."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    for index, offset in enumerate(range(0, n_samples, CHUNK_SIZE)):
        yield index, min(CHUNK_SIZE, n_samples - offset)


def _chunk_values(A, D, degree, law_n, n_points, rng, chunk_index, size) -> np.ndarray:
    gen = rng.child(chunk_index).generator()
    F_batch = _draw_maps(A, D, law_n, size, gen)
    if degree == 0:
        return _chi_values(A, D, F_batch).astype(float)
    top = _top_degree(A)
    top_value = t_power_unit(A, top)
    t_top = (
        float_of(top_value) if isinstance(top_value, PiScalar) else float(top_value)
    )
    points = sample_uniform_on(A, len(F_batch) * n_points, gen)
    points = points.reshape(len(F_batch), n_points, -1)
    images = np.einsum("bij,bpj->bpi", F_batch, points)
    hits = gauss_set_membership(D, images.reshape(-1, D.d)).reshape(
        len(F_batch), n_points
    )
    return t_top * hits.mean(axis=1)


def _chunk_task(args):
    A, D, degree, law_n, n_points, rng, chunk_index, size = args
    values = _chunk_values(A, D, degree, law_n, n_points, rng, chunk_index, size)
    return chunk_index, float(values.sum()), float((values * values).sum())


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
    degree = _resolve_degree(A, m)
    chunks = [
        (A, D, degree, law_n, n_points, rng, index, size)
        for index, size in _chunk_plan(n_samples)
    ]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = sorted(pool.map(_chunk_task, chunks))
    else:
        results = [_chunk_task(c) for c in chunks]
    total = sum(r[1] for r in results)
    total_sq = sum(r[2] for r in results)

    if law_n is None:
        prediction = gkf_predict(A, D, degree)
    else:
        prediction = pi_n_prediction(A, D, law_n, degree)
    return _make_report(total, total_sq, n_samples, prediction, rng)


def mean_abs_chi(
    A: ModelSet, D: GaussSet, n_samples: int, rng: RngStream, law_n: int | None = None
) -> float:
    """Empirical mean of |chi| (uniform-integrability proxy)."""
    total = 0.0
    for index, size in _chunk_plan(n_samples):
        chi = _chunk_values(A, D, 0, law_n, 1, rng, index, size)
        total += float(np.abs(chi).sum())
    return total / n_samples


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
        values = nu_values_on_set(N, pull_back_set(D, N), k_max)
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

    Supported configurations (the ones whose intersection functional has an
    exact route): the whole sphere as one factor (the intersection is the
    other factor, by invariance), and the volume case k = 0 for cap pairs,
    where the left side is the expected normalized intersection volume,
    estimated by hit-or-miss sampling.
    """
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
        if C.N != N or D.N != N:
            raise ValueError("dimension mismatch")
        if C.r > 0.5 * math.pi * R or D.r > 0.5 * math.pi * R:
            raise ValueError("caps must be geodesically convex")
        gen = rng.generator()
        theta_c, theta_d = C.r / R, D.r / R
        clamp = lambda a: np.clip(a, -1.0, 1.0)
        x = gen.standard_normal((n_rotations, N + 1))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        centers = gen.standard_normal((n_rotations, N + 1))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
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
