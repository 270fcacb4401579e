"""Closed-form Euler characteristics and volume functionals of excursion
sets on unit spheres.

For a half-space threshold the excursion of the linear process is a cap, so
the Euler characteristic of the intersection with a cap-shaped base set
follows from the two-cap classification (empty / contractible / covering
band / everything).  For a centered-ball constraint the excursion is a
quadratic sublevel set and the count comes from the critical structure of
the induced quadratic form: a minimum stratum on the kernel sphere plus a
pair of antipodal nondegenerate critical points per positive eigenvalue.
A triangulated Euler count on the 2-sphere serves as the independent oracle
for the quadratic branch.
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
    if isinstance(D, FullSpace):
        return np.full(len(F_batch), euler_characteristic(A), dtype=np.int64)
    if isinstance(D, HalfSpace):
        if D.d != 1 or F_batch.shape[1] != 1:
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
    """Vectorized Morse count over a batch of maps (size, d, n+1).  Each
    eigenvalue at or below rho^2 adds two critical points whose index is the
    number of smaller eigendirections (ties count as inside)."""
    size, d, cols = F_batch.shape
    if cols != n + 1:
        raise ValueError("map shape mismatch")
    if d <= n:
        gram = np.einsum("bij,bkj->bik", F_batch, F_batch)
        kernel_dim = n + 1 - d
    else:
        gram = np.einsum("bji,bjk->bik", F_batch, F_batch)
        kernel_dim = 0
    lam = np.linalg.eigvalsh(gram)
    inside = lam <= rho * rho
    m = lam.shape[1]
    signs = np.array([2 * (-1) ** (kernel_dim + i) for i in range(m)])
    base = (1 + (-1) ** (kernel_dim - 1)) if kernel_dim >= 1 else 0
    return base + (inside * signs).sum(axis=1)


# -- triangulated oracle on the 2-sphere ----------------------------------------


@lru_cache(maxsize=None)
def icosphere(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subdivided icosahedron projected to the unit sphere: (vertices,
    edges, faces).  Deterministic; cached per depth."""
    phi = (1 + math.sqrt(5)) / 2
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    vertices = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    for _ in range(depth):
        midpoint: dict[tuple[int, int], int] = {}

        def midpoint_index(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                m = vertices[a] + vertices[b]
                vertices.append(m / np.linalg.norm(m))
                midpoint[key] = len(vertices) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab = midpoint_index(a, b)
            bc = midpoint_index(b, c)
            ca = midpoint_index(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    V = np.array(vertices)
    F = np.array(faces, dtype=np.int64)
    edges = np.unique(
        np.sort(np.concatenate([F[:, [0, 1]], F[:, [1, 2]], F[:, [2, 0]]]), axis=1),
        axis=0,
    )
    return V, edges, F


def mesh_chi_sublevel(inside_fn, depth: int) -> int:
    """V - E + F of the full subcomplex spanned by vertices with
    inside_fn(vertices) true."""
    V, E, F = icosphere(depth)
    inside = np.asarray(inside_fn(V), dtype=bool)
    v_count = int(inside.sum())
    e_count = int((inside[E[:, 0]] & inside[E[:, 1]]).sum())
    f_count = int((inside[F[:, 0]] & inside[F[:, 1]] & inside[F[:, 2]]).sum())
    return v_count - e_count + f_count


def mesh_chi_quadratic(
    F_map: np.ndarray, rho: float, start_depth: int = 6, max_depth: int = 9
) -> int:
    """Triangulation oracle for the quadratic excursion chi on the 2-sphere:
    refine until two successive subdivision levels agree (the value is an
    integer, so stability is a sharp stopping rule)."""
    Q = F_map.T @ F_map

    def inside(V):
        return np.einsum("vi,ij,vj->v", V, Q, V) <= rho * rho

    previous = mesh_chi_sublevel(inside, start_depth)
    for depth in range(start_depth + 1, max_depth + 1):
        current = mesh_chi_sublevel(inside, depth)
        if current == previous:
            return current
        previous = current
    return previous


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


def volume_fraction(
    A: ModelSet, D: GaussSet, F: LinearMapSample, rng: RngStream, n_points: int
) -> float:
    """Hit-or-miss estimate of vol(A intersect F^(-1)D) / vol(A)."""
    if isinstance(D, FullSpace):
        return 1.0
    gen = rng.generator()
    points = sample_uniform_on(A, n_points, gen)
    images = points @ np.asarray(F.entries).T
    return float(gauss_set_membership(D, images).mean())
