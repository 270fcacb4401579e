"""Closed-form Euler characteristics and volume functionals of excursion
sets on unit spheres.

For a half-space threshold the excursion of the linear process is a cap, so
the Euler characteristic of the intersection with a cap-shaped base set
follows from the two-cap classification (empty / contractible / covering
band / everything).  For a centered-ball constraint the excursion is a
quadratic sublevel set and the count comes from the critical structure of
the induced quadratic form: a minimum stratum on the kernel sphere plus a
pair of antipodal nondegenerate critical points per Gram eigenvalue at or
below the level.  Only the number c of those eigenvalues matters, and it
is the inertia of G - rho^2 I (Sylvester's law of inertia, 1852): the
characteristic polynomial of a symmetric matrix has only real roots, so
Descartes' rule of signs (La Geometrie, 1637) on its coefficients counts c
exactly.  Up to m = 8 Gram rows the coefficients come from the
Faddeev-LeVerrier recurrence (Le Verrier 1840; Faddeev & Sominsky 1949),
elementwise over the batch axis with no per-matrix LAPACK call; above that
cap the recurrence loses the sign pattern and eigvalsh counts instead.
Both batch kernels refuse maps with non-finite entries.
A triangulated Euler count on the 2-sphere serves as the independent oracle
for the quadratic branch.  Subdivision only appends vertices, so each
level's vertices are a prefix of the next level's and one quadric
evaluation serves two levels; every edge lies in two faces, so the count
V_in - (n_2 + 3 n_3) / 2 + n_3 needs only n_s, the number of faces with s
inside vertices.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .gauss import CenteredBall, FullSpace, GaussSet, HalfSpace, Origin
from .model_sets import (
    ModelSet,
    UnitCap,
    UnitGreatSubsphere,
    UnitSphere,
    euler_characteristic,
)
from .rng import RngStream
from .sampling import LinearMapSample, uniform_cap_batch, uniform_sphere_batch


# -- excursion Euler characteristics ------------------------------------------


def _chi_values(A: ModelSet, D: GaussSet, F_batch: np.ndarray) -> np.ndarray:
    """chi of A intersect F^(-1) D for each map of a batch (size, d, n+1),
    for the supported pairs: sphere-or-cap base with a 1-D half-space, or
    sphere base with a centered ball in any dimension."""
    if not isinstance(A, (UnitSphere, UnitCap, UnitGreatSubsphere)):
        raise ValueError("excursion base must be a unit-side set")
    _check_maps(A, D, F_batch)
    if isinstance(D, FullSpace):
        return np.full(len(F_batch), euler_characteristic(A), dtype=np.int64)
    if isinstance(D, HalfSpace):
        if D.d != 1:
            raise ValueError("half-space intersections require a 1-D map")
        if not isinstance(A, (UnitSphere, UnitCap)):
            raise ValueError("half-space base must be the sphere or a cap")
        cap_theta = A.theta if isinstance(A, UnitCap) else None
        return chi_halfspace_batch(A.n, cap_theta, F_batch[:, 0, :], D.u)
    if isinstance(D, CenteredBall):
        if not isinstance(A, UnitSphere):
            raise ValueError("quadratic sublevel base must be the sphere")
        return chi_quadratic_batch(F_batch, A.n, D.rho)
    raise ValueError(f"unsupported pair ({type(A).__name__}, {type(D).__name__})")


def _check_maps(A: ModelSet, D: GaussSet, F_batch: np.ndarray) -> None:
    """Refuse a batch that is not (size, d, n+1) or holds a non-finite
    entry: no excursion count or volume of such a map is meaningful."""
    if F_batch.ndim != 3 or F_batch.shape[1:] != (D.d, A.n + 1):
        raise ValueError("map shape mismatch")
    if not np.isfinite(F_batch).all():
        raise ValueError("map entries must be finite")


def chi_intersection(A: ModelSet, D: GaussSet, F: LinearMapSample) -> int:
    """Euler characteristic of A intersect F^(-1) D: the batch rule applied
    to a batch of one map."""
    entries = np.asarray(F.entries, dtype=float)
    return int(_chi_values(A, D, entries[None])[0])


def chi_halfspace_batch(
    n: int, cap_theta: float | None, xi_batch: np.ndarray, u: float
) -> np.ndarray:
    """Vectorized half-space excursion count over a batch of coefficient rows,
    on the whole sphere (cap_theta None) or the cap of radius cap_theta about
    the first axis.  The excursion is everything when u <= -|xi| (xi = 0
    included)."""
    norms = np.linalg.norm(xi_batch, axis=1)
    chi_full = 1 + (-1) ** n if cap_theta is None else 1
    out = np.zeros(len(xi_batch), dtype=np.int64)
    below = u <= -norms
    out[below] = chi_full
    proper = (~below) & (u <= norms)
    if cap_theta is None:
        out[proper] = 1
    else:
        idx = np.nonzero(proper)[0]
        if idx.size:
            sub = xi_batch[idx]
            sub_norms = norms[idx]
            psi = np.arccos(np.clip(u / sub_norms, -1.0, 1.0))
            delta = np.arccos(np.clip(sub[:, 0] / sub_norms, -1.0, 1.0))
            meets = delta <= cap_theta + psi
            covers = delta + cap_theta + psi > 2 * math.pi
            vals = np.where(meets, 1, 0)
            vals = np.where(meets & covers, 1 + (-1) ** (n - 1), vals)
            out[idx] = vals
    return out


def chi_quadratic_batch(F_batch: np.ndarray, n: int, rho: float) -> np.ndarray:
    """Vectorized Morse count over a batch of maps (size, d, n+1).  The
    minimum stratum is the kernel sphere (dimension n - d when d <= n), and
    each eigenvalue of the m x m Gram matrix G (m = min(d, n+1)) at or below
    rho^2 adds two critical points whose index is the number of smaller
    eigendirections (ties count as inside).  With c the number of such
    eigenvalues, chi is the kernel sphere's chi plus 2 (-1)^kernel_dim
    (c mod 2).  c is the Sylvester inertia of G - rho^2 I: read off by
    Descartes' rule up to m = _DESCARTES_MAX_DIM (_count_at_most), and from
    eigvalsh above it."""
    d = F_batch.shape[1]
    kernel_dim = max(n + 1 - d, 0)
    rows = np.moveaxis(F_batch, 0, -1)  # (d, n+1, size) views of the rows
    if d > n:
        rows = rows.transpose(1, 0, 2)
    if len(rows) <= _DESCARTES_MAX_DIM:
        count = _count_at_most(rows, rho * rho)
    else:
        gram = np.einsum("isb,jsb->bij", rows, rows)
        count = (np.linalg.eigvalsh(gram) <= rho * rho).sum(axis=1)
    base = 1 + (-1) ** (kernel_dim - 1) if kernel_dim >= 1 else 0
    return base + 2 * (-1) ** kernel_dim * (count % 2)


# Faddeev-LeVerrier keeps the sign pattern of the characteristic
# coefficients on small Gram matrices only.  Against eigvalsh on 16384
# standard normal maps (d = m, n = m + 1) at rho = 0.3, 1 and 2.5 times
# sqrt(n + 1), its count agreed on every map up to m = 12 and missed 1 at
# m = 13, 166 at m = 16 and 7572 at m = 20.  It is also the faster route
# only up to about m = 8: per 8192 maps, 0.7 ms against 3.6 ms at m = 2,
# 36 against 43 ms at m = 8, 46 against 48 ms at m = 9 and 61 against
# 57 ms at m = 10 (best of 7, one core).  Above this cap eigvalsh is the
# only route.
_DESCARTES_MAX_DIM = 8


def _count_at_most(rows: np.ndarray, level: float) -> np.ndarray:
    """Number of eigenvalues at or below level of each Gram matrix
    G_ab = sum_j rows[a, j] rows[b, j] of a batch (rows: (m, k, size)),
    elementwise over the batch axis.

    H = G - level I is symmetric, so its characteristic polynomial has only
    real roots, and Descartes' rule of signs counts its positive roots
    exactly: the count is m minus the sign changes of the coefficients.
    Zero roots leave trailing zero coefficients, so ties count as inside.
    The coefficients come from the Faddeev-LeVerrier recurrence M_1 = I,
    c_k = -tr(H M_k) / k, M_(k+1) = H M_k + c_k I, on H scaled by 2^-e with
    2^e > max(level, tr G): its eigenvalues lie in (-1, 1), so |c_k| <=
    binom(m, k) cannot overflow, and the power-of-two scale keeps
    small-integer maps exact.  Where tr G <= level every eigenvalue is
    inside."""
    m, size = len(rows), rows.shape[-1]
    if level == math.inf:
        return np.full(size, m)
    upper = [(a, b) for a in range(m) for b in range(a, m)]
    gram = {(a, b): _dot(rows[a], rows[b]) for a, b in upper}
    trace = sum(gram[a, a] for a in range(m))
    if not np.isfinite(trace).all():
        raise ValueError("map too large for a float Gram matrix")
    scale = np.ldexp(1.0, -np.frexp(np.maximum(trace, level))[1])
    H = {}
    for a, b in upper:
        H[a, b] = H[b, a] = (gram[a, b] - level if a == b else gram[a, b]) * scale
    # M_k is a polynomial in H, so H M_k is symmetric; the last step needs
    # only its trace
    coeffs = []
    HM = H  # H M_1
    for step in range(1, m + 1):
        if step > 1:
            M = {(a, b): (HM[a, b] + coeffs[-1] if a == b else HM[a, b]) for a, b in HM}
            pairs = upper if step < m else [(a, a) for a in range(m)]
            HM = {}
            for a, b in pairs:
                row, column = [H[a, j] for j in range(m)], [M[j, b] for j in range(m)]
                HM[a, b] = HM[b, a] = _dot(row, column)
        coeffs.append(sum(HM[a, a] for a in range(m)) / -step)
    # sign of the last nonzero coefficient, from the leading 1: a zero
    # coefficient neither changes it nor counts
    sign = np.ones(size)
    changes = np.zeros(size, dtype=np.int64)
    for c in coeffs:
        flip = c * sign < 0
        changes += flip
        np.negative(sign, out=sign, where=flip)
    return np.where(trace <= level, m, m - changes)


def _dot(xs, ys) -> np.ndarray:
    """sum_j xs[j] * ys[j] over two equal-length sequences of arrays,
    accumulated in order in one buffer."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc += x * y
    return acc


# -- triangulated oracle on the 2-sphere ----------------------------------------


_PHI = (1 + math.sqrt(5)) / 2
_ICOSAHEDRON_VERTICES = (
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
)
_ICOSAHEDRON_FACES = (
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
)


@lru_cache(maxsize=None)
def icosphere(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subdivided icosahedron projected to the unit sphere: (vertices,
    edges, faces).  Each level splits every face of the level below into
    four at its edge midpoints and appends the midpoints in order of first
    appearance, so the vertices of depth d are a prefix of those of depth
    d + 1.  Edges are (lo, hi) rows in ascending order.  Cached per depth."""
    if depth == 0:
        V = np.array([np.array(v) / np.linalg.norm(v) for v in _ICOSAHEDRON_VERTICES])
        F = np.array(_ICOSAHEDRON_FACES, dtype=np.int64)
    else:
        V_prev, _, F_prev = icosphere(depth - 1)
        n = len(V_prev)
        codes, first, inverse = np.unique(
            _edge_codes(F_prev, n), return_index=True, return_inverse=True
        )
        # number the midpoints in the order a walk over the faces meets them
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        a, b, c = F_prev.T
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        lo, hi = np.divmod(codes[order], n)
        mid = V_prev[lo] + V_prev[hi]
        V = np.concatenate([V_prev, mid / np.linalg.norm(mid, axis=1, keepdims=True)])
        F = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    # every edge lies in exactly two faces, so its code appears twice
    n = len(V)
    codes = np.sort(_edge_codes(F, n))[::2]
    return V, np.stack(np.divmod(codes, n), axis=1), F


def _edge_codes(F: np.ndarray, n: int) -> np.ndarray:
    """lo * n + hi of the edges ab, bc, ca of every face abc, face by face."""
    a, b = F.ravel(), F[:, [1, 2, 0]].ravel()
    return np.minimum(a, b) * n + np.maximum(a, b)


@lru_cache(maxsize=None)
def _vertex_monomials(depth: int) -> np.ndarray:
    """Rows x^2, y^2, z^2, 2xy, 2xz, 2yz over the vertices of
    icosphere(depth): a quadratic form on every vertex is one product of
    its six coefficients with this (6, V) array."""
    x, y, z = icosphere(depth)[0].T
    return np.stack([x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z])


def mesh_chi_sublevel(inside: np.ndarray, depth: int) -> int:
    """V - E + F of the full subcomplex of icosphere(depth) spanned by the
    vertices marked inside.  The mask may belong to a finer level: its
    prefix is this level's.  Every edge lies in exactly two faces, so with
    n_s the number of faces holding s inside vertices the count is
    V_in - (n_2 + 3 n_3) / 2 + n_3, read off the faces alone."""
    V, _, F = icosphere(depth)
    inside = inside[: len(V)].astype(np.int8)
    per_face = inside[F[:, 0]] + inside[F[:, 1]] + inside[F[:, 2]]
    n2 = np.count_nonzero(per_face == 2)
    n3 = np.count_nonzero(per_face == 3)
    return int(np.count_nonzero(inside) - (n2 + 3 * n3) // 2 + n3)


# the first subdivision level the mesh oracle compares
_MESH_START_DEPTH = 6


def mesh_chi_quadratic(F_map: np.ndarray, rho: float, max_depth: int = 9) -> int:
    """Triangulation oracle for the quadratic excursion chi on the 2-sphere:
    refine from `_MESH_START_DEPTH` until two successive subdivision levels
    agree (the value is an integer, so stability is a sharp stopping rule)
    and refuse if none do by max_depth.  One quadric evaluation a level
    deeper serves the first two levels, whose vertices it holds as a prefix."""
    F_map = np.asarray(F_map, dtype=float)
    if F_map.ndim != 2 or F_map.shape[1] != 3:
        raise ValueError("map shape mismatch")
    if not (np.isfinite(F_map).all() and math.isfinite(rho)):
        raise ValueError("map and level must be finite")
    Q = F_map.T @ F_map
    weights = Q[[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    level = rho * rho
    inside = weights @ _vertex_monomials(_MESH_START_DEPTH + 1) <= level
    previous = mesh_chi_sublevel(inside, _MESH_START_DEPTH)
    for depth in range(_MESH_START_DEPTH + 1, max_depth + 1):
        if depth > _MESH_START_DEPTH + 1:
            inside = weights @ _vertex_monomials(depth) <= level
        current = mesh_chi_sublevel(inside, depth)
        if current == previous:
            return current
        previous = current
    raise ValueError(f"mesh count did not settle by depth {max_depth}")


# -- volume functionals -----------------------------------------------------------


def gauss_set_membership(D: GaussSet, points: np.ndarray) -> np.ndarray:
    """Indicator of F-image points lying in D; points has shape (size, d)."""
    if isinstance(D, FullSpace):
        return np.ones(len(points), dtype=bool)
    if isinstance(D, HalfSpace):
        return points[:, 0] >= D.u
    if isinstance(D, CenteredBall):
        return np.einsum("ij,ij->i", points, points) <= D.rho**2
    if isinstance(D, Origin):
        return np.einsum("ij,ij->i", points, points) <= 0.0
    raise TypeError(f"unknown set {D!r}")


def sample_uniform_on(A: ModelSet, size: int, gen: np.random.Generator) -> np.ndarray:
    """Uniform points on a unit-side set, embedded in the ambient
    (n+1)-space of the full sphere."""
    if isinstance(A, UnitSphere):
        return uniform_sphere_batch(A.n, size, gen)
    if isinstance(A, UnitCap):
        return uniform_cap_batch(A.n, A.theta, size, gen)
    if isinstance(A, UnitGreatSubsphere):
        inner = uniform_sphere_batch(A.m, size, gen)
        out = np.zeros((size, A.n + 1))
        out[:, : A.m + 1] = inner
        return out
    raise ValueError("uniform sampling requires a unit-side set")


def _hit_fractions(
    A: ModelSet, D: GaussSet, F_batch: np.ndarray, n_points: int,
    gen: np.random.Generator,
) -> np.ndarray:
    """Hit-or-miss estimate of vol(A intersect F^(-1)D) / vol(A) for each
    map of a batch (size, d, n+1), from n_points uniform points per map."""
    points = sample_uniform_on(A, len(F_batch) * n_points, gen)
    _check_maps(A, D, F_batch)
    points = points.reshape(len(F_batch), n_points, -1)
    images = points @ F_batch.transpose(0, 2, 1)
    hits = gauss_set_membership(D, images.reshape(-1, D.d))
    return hits.reshape(len(F_batch), n_points).mean(axis=1)


def volume_fraction(
    A: ModelSet, D: GaussSet, F: LinearMapSample, rng: RngStream, n_points: int
) -> float:
    """Hit-or-miss estimate of vol(A intersect F^(-1)D) / vol(A): the batch
    estimate applied to a batch of one map."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    entries = np.asarray(F.entries, dtype=float)
    return float(_hit_fractions(A, D, entries[None], n_points, rng.generator())[0])
