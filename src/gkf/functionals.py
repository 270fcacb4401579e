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
for the quadratic branch.  Each level is built from the level below and
its sorted edge list, in a few arrays the size of the new level: each face
side is looked up among the edges of its lower end, and the new edges (two
halves per old edge, three inner edges per split face) are listed once and
sorted.  Subdivision only appends vertices, so each level's vertices are a
prefix of the next level's and one quadric evaluation serves two levels;
every edge lies in two faces, so chi = V_in - e / 2 + f, where e sums the
inside sides (both ends inside) over the faces and f counts the faces with
three inside vertices.  Each pair of successive levels comes from one
gather: the inside bits of the corners and side midpoints of each coarse
face form a 6-bit code, and one histogram of the codes, times a table of
each code's (e, f) share at both levels, gives both counts.
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
from .sampling import LinearMapSample, uniform_cap_batch, uniform_sphere_batch


# -- excursion Euler characteristics ------------------------------------------


def chi_values(A: ModelSet, D: GaussSet, F_batch: np.ndarray) -> np.ndarray:
    """chi of A intersect F^(-1) D for each map of a batch (size, d, n+1),
    for the supported pairs: sphere-or-cap base with a 1-D half-space, or
    sphere base with a centered ball in any dimension.  Each map's count
    depends on that map alone, so one map is the batch F[None]."""
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
    """chi_values of the batch of one map F.  Kept only for the benchmark
    harness, whose mesh_map_* jobs and tracer probe call it; the benchmark
    change that moves them to chi_values deletes it (ROADMAP item 13)."""
    entries = np.asarray(F.entries, dtype=float)
    return int(chi_values(A, D, entries[None])[0])


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
    d + 1.  Edges are (lo, hi) rows in ascending order.

    A level is built from the level below and its edge list: each face
    side is found among the edges of its lower end, which are consecutive
    rows, and the new edges are listed once each (the two halves of every
    old edge and the three inner edges of every split face) and sorted,
    not read off the sides of the new faces.  Each temporary is dropped
    once used, so a build peaks at about 1.25 times the arrays it returns.
    Cached per depth."""
    if not isinstance(depth, int) or depth < 0:
        raise ValueError(f"icosphere depth must be a non-negative integer, got {depth!r}")
    if depth == 0:
        V = np.array([np.array(v) / np.linalg.norm(v) for v in _ICOSAHEDRON_VERTICES])
        F = np.array(_ICOSAHEDRON_FACES, dtype=np.int64)
        # every edge lies in exactly two faces, so its code appears twice
        lo, hi = _face_sides(F)
        codes = np.sort(lo * len(V) + hi)[::2]
        return V, np.stack(np.divmod(codes, len(V)), axis=1), F
    V_prev, E_prev, F_prev = icosphere(depth - 1)
    n, n_mid = len(V_prev), len(E_prev)
    # the edge of each side ab, bc, ca of each face: a vertex has at most
    # six edges to higher vertices, so walk its rows until the higher end matches
    lo, hi = _face_sides(F_prev)
    side = np.searchsorted(E_prev[:, 0], np.arange(n))[lo]
    higher = E_prev[:, 1]
    while (step := higher[side] < hi).any():
        side += step
    del lo, hi, step
    # number the midpoints in the order a walk over the faces first meets them
    first = np.full(n_mid, len(side))
    np.minimum.at(first, side, np.arange(len(side)))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(n_mid)
    mids = (n + rank[side]).reshape(-1, 3)
    del side, first, rank
    # faces (a, ab, ca), (b, bc, ab), (c, ca, bc) and the inner (ab, bc, ca)
    F = np.empty((len(F_prev), 4, 3), dtype=np.int64)
    F[:, :3, 0] = F_prev
    F[:, :3, 1] = mids
    F[:, :3, 2] = mids[:, [2, 0, 1]]
    F[:, 3] = mids
    F = F.reshape(-1, 3)
    del mids
    ends = E_prev.take(order, axis=0)
    V = np.empty((n + n_mid, 3))
    V[:n] = V_prev
    mid = V[n:]
    np.add(V_prev.take(ends[:, 0], axis=0), V_prev.take(ends[:, 1], axis=0), out=mid)
    mid /= np.linalg.norm(mid, axis=1, keepdims=True)
    n_new = len(V)
    # the new edges: the halves (lo, m) and (hi, m) of each old edge, then
    # the sides of each inner face
    codes = np.empty(2 * n_mid + 3 * len(F_prev), dtype=np.int64)
    halves = codes[: 2 * n_mid].reshape(n_mid, 2)
    np.multiply(ends, n_new, out=halves)
    halves += np.arange(n, n_new)[:, None]
    del ends, halves
    lo, hi = _face_sides(F[3::4])
    codes[2 * n_mid :] = lo * n_new + hi
    del lo, hi
    codes.sort()
    E = np.empty((len(codes), 2), dtype=np.int64)
    np.divmod(codes, n_new, out=(E[:, 0], E[:, 1]))
    return V, E, F


def _face_sides(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) of the sides ab, bc, ca of every face abc, face by face."""
    a, b = F.ravel(), F[:, [1, 2, 0]].ravel()
    return np.minimum(a, b), np.maximum(a, b)


@lru_cache(maxsize=None)
def _vertex_monomials(depth: int) -> np.ndarray:
    """Rows x^2, y^2, z^2, 2xy, 2xz, 2yz over the vertices of
    icosphere(depth): a quadratic form on every vertex is one product of
    its six coefficients with this (6, V) array."""
    x, y, z = icosphere(depth)[0].T
    return np.stack([x * x, y * y, z * z, 2 * x * y, 2 * x * z, 2 * y * z])


# the corners a, b, c and side midpoints ab, bc, ca of a face, as bits 0-5
# of its code, make the face itself and its four children (a, ab, ca),
# (b, bc, ab), (c, ca, bc), (ab, bc, ca)
_PARENT_FACE = ((0, 1, 2),)
_CHILD_FACES = ((0, 3, 5), (1, 4, 3), (2, 5, 4), (3, 4, 5))


def _code_shares(faces) -> tuple[np.ndarray, np.ndarray]:
    """Per 6-bit code: the inside sides of the faces, summed, and the
    number of faces with all three corners inside."""
    bits = (np.arange(64)[:, None] >> np.arange(6)) & 1
    sides = sum(bits[:, i] & bits[:, j] for f in faces for i, j in zip(f, f[1:] + f[:1]))
    full = sum(bits[:, i] & bits[:, j] & bits[:, k] for i, j, k in faces)
    return sides, full


# rows: inside sides and full faces of the face itself, then of its children
_TWO_LEVEL_TABLE = np.stack([*_code_shares(_PARENT_FACE), *_code_shares(_CHILD_FACES)])


@lru_cache(maxsize=None)
def _corners_and_midpoints(depth: int) -> np.ndarray:
    """(6, |F|) vertex indices, per face of icosphere(depth): its corners
    a, b, c and side midpoints ab, bc, ca.  Face i splits into faces 4i to
    4i + 3 of the next level in the order of _CHILD_FACES, so these are
    columns 0, 3, 6, 9, 10 and 11 of the next level's faces, twelve to a
    row.  Each row is contiguous, the fastest layout to gather through."""
    children = icosphere(depth + 1)[2].reshape(-1, 12)
    return np.stack([children[:, j] for j in (0, 3, 6, 9, 10, 11)])


def _two_level_chi(inside: np.ndarray, depth: int) -> tuple[int, int]:
    """V - E + F of the full subcomplexes of icosphere(depth) and
    icosphere(depth + 1) spanned by the inside vertices of a boolean mask
    of depth + 1, from one gather over the faces of depth: the six inside
    bits of each face form its code, and the histogram of the codes times
    _TWO_LEVEL_TABLE gives both levels' inside sides and full faces."""
    index = _corners_and_midpoints(depth)
    bits = inside.view(np.uint8)
    code = np.take(bits, index[0])
    bit = np.empty_like(code)
    for k in range(1, 6):
        np.take(bits, index[k], out=bit)
        bit <<= k
        code |= bit
    sides, full, child_sides, child_full = _TWO_LEVEL_TABLE @ np.bincount(code, minlength=64)
    n, n_fine = len(icosphere(depth)[0]), len(icosphere(depth + 1)[0])
    return (
        int(np.count_nonzero(inside[:n]) - sides // 2 + full),
        int(np.count_nonzero(inside[:n_fine]) - child_sides // 2 + child_full),
    )


# the first subdivision level the mesh oracle compares, and the deepest
_MESH_START_DEPTH = 6
_MESH_MAX_DEPTH = 9


def mesh_chi_quadratic(F_map: np.ndarray, rho: float) -> int:
    """Triangulation oracle for the quadratic excursion chi on the 2-sphere:
    the first count two successive levels d, d + 1 agree on, for d from
    `_MESH_START_DEPTH` up, refused if none do by `_MESH_MAX_DEPTH`.  One
    quadric evaluation on level d + 1 masks both levels (its vertices hold
    level d's as a prefix) and one gather over the faces of d counts both.
    The rule is a heuristic: a neck thinner than the mesh edges can read
    the same wrong count on two levels."""
    F_map = np.asarray(F_map, dtype=float)
    if F_map.ndim != 2 or F_map.shape[1] != 3:
        raise ValueError("map shape mismatch")
    if not (np.isfinite(F_map).all() and math.isfinite(rho)):
        raise ValueError("map and level must be finite")
    Q = F_map.T @ F_map
    weights = Q[[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    level = rho * rho
    for depth in range(_MESH_START_DEPTH, _MESH_MAX_DEPTH):
        inside = weights @ _vertex_monomials(depth + 1) <= level
        coarse, fine = _two_level_chi(inside, depth)
        if coarse == fine:
            return fine
    raise ValueError(f"mesh count did not settle by depth {_MESH_MAX_DEPTH}")


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

