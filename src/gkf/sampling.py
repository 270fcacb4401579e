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
at a time, so it holds d + 1 arrays of n doubles (the Gaussian block and
the samples) at any N, and one more while it takes the second moment; the
chi-square tail is drawn block by block in stream order, so the draws are
those of one whole-length call.  A single N is a one-entry list.

The KS distance of each N is certified, not formed term by term.  The
sorted samples split into blocks of 32 consecutive ranks.  The limit CDF F
is monotone, so in the block of ranks a..b every KS term is at most
(b + 1) / n - F_a or F_b - a / n.  F is evaluated at the two ends of every
block, and in full only in the blocks whose bound reaches the largest end
term less an absolute slack of 1e-9.  Every term evaluated is the float the
full grid forms, so the distance is the same bit for bit.  At n = 1e6 on a
2-core VM, F is evaluated at about 6.5% of the ranks (6.25% are block
ends), and the distance of one N takes 1.2 ms instead of 9.8 ms for d = 1
and 3.7 ms instead of 50 ms for d = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .rng import RngStream
from .scalars import _integer


@dataclass(frozen=True, eq=False)
class LinearMapSample:
    """One d x (n+1) linear map, the input of chi_intersection.  Kept only
    for the benchmark harness's mesh_map_* jobs; the benchmark change that
    moves them to chi_values deletes both (ROADMAP item 13)."""

    entries: np.ndarray


def _map_sizes(n, d, size) -> tuple[int, int, int]:
    """n, d and size of a batch of d x (n+1) maps, as ints: n >= 0, d >= 1
    and size >= 0."""
    return (
        _integer(n, "n must be non-negative"),
        _integer(d, "d must be at least 1", 1),
        _integer(size, "size must be non-negative"),
    )


def pi_infinity_batch(n: int, d: int, size: int, gen: np.random.Generator) -> np.ndarray:
    n, d, size = _map_sizes(n, d, size)
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
    n, d, size = _map_sizes(n, d, size)
    N = _integer(N, "N must be non-negative")
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
    # float degrees of freedom (numpy draws with them anyway) pass int64's range
    factors[d + diag, diag] = np.sqrt(gen.chisquare(float(m) - diag, (size, rows))).T
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


def _square_norms(x: np.ndarray) -> np.ndarray:
    """Sum of squares of each row of a 2-D array, added in the order
    np.linalg.norm(x, axis=1) adds them, so its square root equals that
    norm bit for bit.  Below 8 columns numpy's row sum runs left to right,
    the order of a running sum over the columns, which on 131072 rows is
    1.3 (7 columns) to 8 (1 column) times faster than numpy's reduction;
    from 8 columns on it is numpy's own reduction."""
    if x.shape[1] >= 8:
        return np.add.reduce(np.square(x), axis=1)
    s = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        s += x[:, j] * x[:, j]
    return s


def uniform_sphere_batch(n: int, size: int, gen: np.random.Generator) -> np.ndarray:
    """size uniform points on the unit n-sphere: standard normal rows of
    length n + 1, each divided by its euclidean norm."""
    n = _integer(n, "n must be non-negative")
    size = _integer(size, "size must be non-negative")
    x = gen.standard_normal((size, n + 1))
    x /= np.sqrt(_square_norms(x))[:, None]
    return x


def uniform_cap_batch(
    n: int, theta: float, size: int, gen: np.random.Generator
) -> np.ndarray:
    """Uniform points on the cap of angular radius theta about the first
    coordinate axis, via the exact colatitude law (truncated beta in
    sin^2 of the colatitude) and a uniform direction."""
    n = _integer(n, "n must be at least 1", 1)
    size = _integer(size, "size must be non-negative")
    s_max = math.sin(theta) ** 2
    total = scipy.special.betainc(n / 2.0, 0.5, s_max)
    u = gen.random(size)
    s = scipy.special.betaincinv(n / 2.0, 0.5, u * total)
    phi = np.arcsin(np.sqrt(s))
    direction = uniform_sphere_batch(n - 1, size, gen)
    out = np.empty((size, n + 1))
    out[:, 0] = np.cos(phi)
    out[:, 1:] = np.sin(phi)[:, None] * direction
    return out


# -- the projection limit ------------------------------------------------------

# rows formed at once by the projection (its chi-square tail and its (block, d)
# quotient), 256 KiB per column.  At n = 1e6 and d = 1 on a 2-core Xeon VM
# these steps took 48 ms per N with 2^13 rows and 40 ms with 2^15 or 2^16
_BLOCK = 1 << 15
# consecutive ranks bounded together by the KS certificate, and the ranks of
# the candidate blocks evaluated at once
_RANKS = 32
_CANDIDATE_RANKS = 1 << 13
# absolute slack of the certificate: far above the rounding of KS terms in
# [-1, 1] and any ulp-size non-monotonicity of ndtr or gammainc
_SLACK = 1e-9


def _cdf(x: np.ndarray, d: int) -> np.ndarray:
    """The limit CDF at x, in place: the standard normal CDF for d = 1, the
    chi(d) CDF (x squared, halved, then gammainc(d / 2, .)) for d > 1."""
    if d == 1:
        return scipy.special.ndtr(x, out=x)
    np.square(x, out=x)
    x /= 2.0
    return scipy.special.gammainc(d / 2.0, x, out=x)


def _ks_statistic(xs: np.ndarray, d: int) -> float:
    """Two-sided KS distance between the empirical law of the sorted samples
    xs and the limit CDF F of _cdf: the largest of the terms
    (i + 1.0) / n - F_i and F_i - ((i + 1.0) / n - 1 / n) over the ranks i,
    certified as in the module docstring.  The last block ends at rank
    n - 1, so it may overlap the one before it."""
    n = len(xs)
    w = min(_RANKS, n)
    starts = np.arange(0, n, w)
    starts[-1] = n - w
    ends = starts + (w - 1)
    # fancy indexing copies, so the in-place _cdf leaves xs as it is
    F_a = _cdf(xs[starts], d)
    F_b = _cdf(xs[ends], d)
    grid_a = (starts + 1.0) / n
    grid_b = (ends + 1.0) / n
    bound = grid_b - F_a
    top = max(np.max(grid_a - F_a), np.max(grid_b - F_b))
    grid_a -= 1 / n
    grid_b -= 1 / n
    np.maximum(bound, F_b - grid_a, out=bound)
    top = max(top, np.max(F_a - grid_a), np.max(F_b - grid_b))
    candidates = starts[bound >= top - _SLACK]
    windows = np.lib.stride_tricks.sliding_window_view(xs, w)
    per_chunk = max(1, _CANDIDATE_RANKS // w)
    for lo in range(0, len(candidates), per_chunk):
        chunk = candidates[lo : lo + per_chunk]
        F = _cdf(windows[chunk], d)
        grid = np.add.outer(chunk, np.arange(1.0, w + 1.0))
        grid /= n
        terms = grid - F
        top = max(top, np.max(terms))
        grid -= 1 / n
        top = max(top, np.max(np.subtract(F, grid, out=terms)))
    return float(top)


@dataclass(frozen=True)
class PoincareReport:
    N: int
    d: int
    n_samples: int
    ks_statistic: float
    second_moment: float
    seed: int
    stream_id: int


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
    the draw.  The sweep holds d + 1 arrays of n_samples doubles (g and the
    samples), one more while it takes the second moment, and a few arrays
    of one block at any N.
    """
    d = _integer(d, "d must be at least 1", 1)
    n_samples = _integer(n_samples, "n_samples must be at least 1", 1)
    N_list = [_integer(N, "projection requires N > d", d + 1) for N in N_list]
    if not N_list:
        raise ValueError("N_list must not be empty")
    gen = rng.generator()
    g = gen.standard_normal((n_samples, d))
    after_g = gen.bit_generator.state
    samples = np.empty(n_samples)
    reports = []
    for N in N_list:
        gen.bit_generator.state = after_g
        _project(N, g, samples, gen)
        # before the sort, so the pairwise mean adds as the out-of-place one
        second_moment = float(np.mean(np.square(samples))) / d
        samples.sort()
        ks = _ks_statistic(samples, d)
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


def _project(N: int, g: np.ndarray, samples: np.ndarray, gen: np.random.Generator) -> None:
    """Write each row's sample of sqrt(N) g / |(g, tail)| to samples: the
    projected value for d = 1, its length for d > 1.  The chi-square tail,
    the norms and the (block, d) quotient are formed one block of rows at a
    time."""
    n, d = g.shape
    scale = math.sqrt(N)
    quotient = None if d == 1 else np.empty((min(n, _BLOCK), d))
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        g_b = g[lo:hi]
        norms = np.einsum("ij,ij->i", g_b, g_b)
        norms += gen.chisquare(N + 1 - d, hi - lo)
        np.sqrt(norms, out=norms)
        x = samples[lo:hi, None] if d == 1 else quotient[: hi - lo]
        np.multiply(g_b, scale, out=x)
        np.divide(x, norms[:, None], out=x)
        if d > 1:
            np.square(x, out=x)
            np.sqrt(np.add.reduce(x, axis=1, out=samples[lo:hi]), out=samples[lo:hi])
