"""Samplers for the two ensembles of random linear maps and for uniform
points on spheres and caps.

The Gaussian ensemble has i.i.d. standard normal entries.  The finite-N
ensemble is sqrt(N) times the upper-left d x (n+1) block of a Haar
rotation of (N+1)-space.  Orthonormalizing an (N+1) x (n+1) Gaussian
matrix G with the positive-diagonal normalization (G L^-T, where L L^T is
the Cholesky factorization of G^T G) gives a uniform orthonormal frame, and
its top d rows are T L^-T for the top d rows T of G.  The rest of G enters
only through the Gram matrix of its other m = N+1-d rows, which is
Wishart(m, I_{n+1}); it is drawn as R^T R with R the Bartlett factor
(Bartlett 1933; Kshirsagar 1959, "Bartlett decomposition and Wishart
distribution"), the R of a QR decomposition of an m x (n+1) Gaussian
matrix: independent chi(m - i) on the diagonal, standard normals above it.
So a finite-N draw costs the same at every N, and as N grows it converges
pathwise to the Gaussian draw made from the same generator.  The Gram
matrix, its Cholesky factor and the triangular solve for T L^-T are
elementwise numpy over the batch axis, one (n+1) x (n+1) entry at a time,
with no per-matrix LAPACK call.

The Poincare projection check, poincare_sweep, draws its Gaussian block
once for a whole list of N and forms each N's projection one block of rows
at a time, so it holds d + 2 arrays of n doubles (the Gaussian block, the
samples and one scratch array) at any N; the chi-square tail is drawn block
by block in stream order, so the draws are those of one whole-length call.
A single N is a sweep over a one-entry list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv, gammainc, ndtr

from .rng import RngStream


@dataclass(frozen=True, eq=False)
class LinearMapSample:
    """One d x (n+1) linear map, the input of chi_intersection.  Kept only
    for the benchmark harness's mesh_map_* jobs; the benchmark change that
    moves them to chi_values deletes both (ROADMAP item 13)."""

    entries: np.ndarray


def pi_infinity_batch(n: int, d: int, size: int, gen: np.random.Generator) -> np.ndarray:
    return gen.standard_normal((size, d, n + 1))


def pi_n_batch(
    n: int, d: int, N: int, size: int, gen: np.random.Generator
) -> np.ndarray:
    """sqrt(N) times the top d rows of uniform orthonormal (n+1)-frames in
    (N+1)-space, in O(d n + n^2) draws per map at every N.

    The top d rows T of the Gaussian matrix are drawn first, as
    pi_infinity_batch draws them; the Gram matrix of the other m = N+1-d
    rows is R^T R for the Bartlett factor R, with min(m, n+1) rows
    (R[i, i] = sqrt(chisquare(m - i)), standard normals above the diagonal,
    zeros below; exact also when m < n+1).  The result is sqrt(N) X with
    X L^T = T and L L^T = T^T T + R^T R.  T and R are laid out as
    (row, column, map) arrays, and the Cholesky factor L and the forward
    substitution for X run column by column on rows over the batch axis.
    A pivot that is not finite and positive raises ValueError."""
    if N < max(n, d):
        raise ValueError("block does not fit in the rotation group")
    k = n + 1
    top = gen.standard_normal((size, d, k))
    m = N + 1 - d
    rows = min(m, k)
    diag = np.arange(rows)
    upper = np.triu_indices(rows, k=1, m=k)
    # the rows of T, then those of R, so that G = factors^T factors
    factors = np.zeros((d + rows, k, size))
    factors[:d] = top.transpose(1, 2, 0)
    factors[d + diag, diag] = np.sqrt(gen.chisquare(m - diag, (size, rows))).T
    factors[d + upper[0], upper[1]] = gen.standard_normal((size, len(upper[0]))).T
    lower = []  # lower[j] holds the column L[j:, j]
    for j in range(k):
        column = (factors[:, j:] * factors[:, j, None]).sum(axis=0)
        for p, done in enumerate(lower):
            column -= done[j - p :] * done[j - p]
        pivot = column[0]
        if not np.all((pivot > 0) & (pivot < math.inf)):
            raise ValueError("rotation-block Gram matrix is not positive definite")
        column[0] = np.sqrt(pivot)
        column[1:] /= column[0]
        lower.append(column)
    solved = np.empty((d, k, size))
    for i in range(k):
        x = factors[:d, i].copy()
        for j in range(i):
            x -= lower[j][i - j] * solved[:, j]
        solved[:, i] = x / lower[i][0]
    solved *= math.sqrt(N)
    return solved.transpose(2, 0, 1)


# -- uniform points -----------------------------------------------------------


def uniform_sphere_batch(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    x = gen.standard_normal((size, n + 1))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def uniform_cap_batch(
    n: int, theta: float, size: int, gen: np.random.Generator
) -> np.ndarray:
    """Uniform points on the cap of angular radius theta about the first
    coordinate axis, via the exact colatitude law (truncated beta in
    sin^2 of the colatitude) and a uniform direction."""
    s_max = math.sin(theta) ** 2
    total = betainc(n / 2.0, 0.5, s_max)
    u = gen.random(size)
    s = betaincinv(n / 2.0, 0.5, u * total)
    phi = np.arcsin(np.sqrt(s))
    direction = uniform_sphere_batch(n - 1, size, gen)
    out = np.empty((size, n + 1))
    out[:, 0] = np.cos(phi)
    out[:, 1:] = np.sin(phi)[:, None] * direction
    return out


# -- the projection limit ------------------------------------------------------

# rows formed at once by the projection (its chi-square tail and its (block, d)
# quotient) and by the KS grid, 256 KiB per column.  At n = 1e6 and d = 1 on a
# 2-core Xeon VM these steps took 48 ms per N with 2^13 rows and 40 ms with
# 2^15 or 2^16; the sort and the CDF do not depend on the block
_BLOCK = 1 << 15


def _ks_statistic(xs: np.ndarray, F: np.ndarray) -> float:
    """Two-sided KS distance between the empirical law of the sorted samples
    xs and the CDF values F = cdf(xs), with the grid i/n formed one block
    at a time."""
    n = len(xs)
    above = below = -math.inf
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        grid = np.arange(lo + 1.0, hi + 1.0)
        grid /= n
        above = max(above, np.max(grid - F[lo:hi]))
        grid -= 1 / n
        below = max(below, np.max(F[lo:hi] - grid))
    return float(max(above, below))


@dataclass(frozen=True)
class PoincareReport:
    N: int
    d: int
    n_samples: int
    ks_statistic: float
    second_moment: float
    seed: int
    stream_id: int


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def poincare_sweep(
    N_list: tuple[int, ...], d: int, n_samples: int, rng: RngStream
) -> list[PoincareReport]:
    """Project uniform points on the radius-sqrt(N) sphere to the first d
    coordinates and compare against the standard Gaussian, for each N in
    N_list: the marginal CDF for d = 1, the radial chi CDF for d > 1.

    The projected block is sampled exactly through the split g / |(g, tail)|
    with the tail norm drawn as a chi-square, which is the same law without
    materializing N+1 coordinates.  Each row is the draw a fresh generator
    of rng would make: g is drawn once, and the generator state from just
    after that draw is restored before each N's chi-square tail.  The tail
    is drawn and the projection formed one block of rows at a time; the
    generator fills arrays in stream order, so the blocks hold the values of
    one whole-length draw.  Every N, d and n_samples is validated before
    the draw.  The sweep holds d + 2 arrays of n_samples doubles (g, the
    samples and one scratch array) and a few arrays of one block at any N.
    """
    if not all(_is_integer(v) for v in (d, n_samples, *N_list)):
        raise ValueError("N, d and n_samples must be integers")
    if d < 1 or n_samples < 1:
        raise ValueError("d and n_samples must be at least 1")
    if not N_list:
        raise ValueError("N_list must not be empty")
    if any(N <= d for N in N_list):
        raise ValueError("projection requires N > d")
    gen = rng.generator()
    g = gen.standard_normal((n_samples, d))
    after_g = gen.bit_generator.state
    samples = np.empty(n_samples)
    scratch = np.empty(n_samples)
    reports = []
    for N in N_list:
        gen.bit_generator.state = after_g
        _project(N, g, samples, scratch, gen)
        ks, second_moment = _score(samples, scratch, d)
        reports.append(
            PoincareReport(
                N=N,
                d=d,
                n_samples=n_samples,
                ks_statistic=ks,
                second_moment=second_moment,
                seed=rng.seed,
                stream_id=rng.stream_id,
            )
        )
    return reports


def _project(
    N: int,
    g: np.ndarray,
    samples: np.ndarray,
    scratch: np.ndarray,
    gen: np.random.Generator,
) -> None:
    """Write each row's sample of sqrt(N) g / |(g, tail)| to samples: the
    projected value for d = 1, its length for d > 1.  The chi-square tail
    and the (block, d) quotient are formed one block of rows at a time, and
    the norms in the matching block of scratch."""
    n, d = g.shape
    scale = math.sqrt(N)
    quotient = None if d == 1 else np.empty((min(n, _BLOCK), d))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        g_b = g[lo:hi]
        norms = np.einsum("ij,ij->i", g_b, g_b, out=scratch[lo:hi])
        norms += gen.chisquare(N + 1 - d, hi - lo)
        np.sqrt(norms, out=norms)
        x = samples[lo:hi, None] if d == 1 else quotient[: hi - lo]
        np.multiply(g_b, scale, out=x)
        np.divide(x, norms[:, None], out=x)
        if d > 1:
            np.square(x, out=x)
            np.sqrt(np.add.reduce(x, axis=1, out=samples[lo:hi]), out=samples[lo:hi])


def _score(samples: np.ndarray, scratch: np.ndarray, d: int) -> tuple[float, float]:
    """KS distance and second moment of the samples, computed in place in
    samples and scratch.  The operations and their order are those of the
    out-of-place formulas (the second moment is a pairwise mean over the
    whole array, taken before the sort), so every float matches them bit
    for bit."""
    second_moment = float(np.mean(np.square(samples, out=scratch))) / d
    samples.sort()
    if d == 1:
        F = ndtr(samples, out=scratch)
    else:
        np.square(samples, out=scratch)
        scratch /= 2.0
        F = gammainc(d / 2.0, scratch, out=scratch)
    return _ks_statistic(samples, F), second_moment

