"""Reference oracles the package itself does not need: closed forms, series
and pairings that the tests check the package against, each computed
another way than the code it is compared with.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, gammainc, ndtr

from gkf.bases import ZERO, Basis, nu_in_sigma_column
from gkf.drivers import pull_back_set
from gkf.evaluate import sigma_evaluate, t_power_unit, tau_evaluate, u_power_on_ball
from gkf.functionals import (
    _ICOSAHEDRON_FACES,
    _ICOSAHEDRON_VERTICES,
    _vertex_monomials,
    gauss_set_membership,
    icosphere,
    sample_uniform_on,
)
from gkf.gauss import CenteredBall, FullSpace, GaussSet, HalfSpace, gauss_measure_tube
from gkf.kinematics import KinematicTensor, gkf_coefficient, nu_values_on_set
from gkf.model_sets import GeodesicBall, GreatSubsphere, ModelSet, SubsphereTube, top_degree
from gkf.scalars import (
    PiScalar,
    float_of,
    log_alpha,
    log_omega,
    omega,
)
from gkf.series import sqrt_pow


# -- scalars and series --------------------------------------------------------
#
# A series is a tuple of N+1 exact coefficients; the bridge columns below are
# built the long way, as powers of one generator series by repeated
# truncated products, with the base series taken from generalized_binomial.


def generalized_binomial(top, j: int) -> Fraction:
    """binom(top, j) = top (top-1) ... (top-j+1) / j! for half-integer top."""
    if j < 0:
        raise ValueError("lower index must be nonnegative")
    top = Fraction(top)
    if top.denominator not in (1, 2):
        raise ValueError("upper index must be an integer or half-integer")
    num = Fraction(1)
    for i in range(j):
        num *= top - i
    return num / math.factorial(j)


def omega_float(n: int) -> float:
    """Volume of the euclidean unit n-ball as a float."""
    return math.exp(log_omega(n))


def truncated_product(a: tuple, b: tuple) -> tuple:
    """a * b truncated at the common degree len(a) - 1."""
    out = [0] * len(a)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b[: len(a) - i]):
            out[i + j] += ai * bj
    return tuple(out)


def binomial_series(N: int, shift: int, exponent: Fraction, inner: Fraction) -> tuple:
    """x^shift (1 + inner x^2)^exponent truncated at degree N."""
    out = [Fraction(0)] * (N + 1)
    for j in range((N - shift) // 2 + 1):
        out[shift + 2 * j] = generalized_binomial(exponent, j) * inner**j
    return tuple(out)


def power_columns(gen: tuple, N: int, factor: tuple | None = None) -> tuple:
    """Sparse columns (index, coefficient) of factor * gen^k for k = 0..N."""
    power = (Fraction(1),) + (Fraction(0),) * N
    cols = []
    for _ in range(N + 1):
        column = power if factor is None else truncated_product(power, factor)
        cols.append(tuple((i, c) for i, c in enumerate(column) if c))
        power = truncated_product(power, gen)
    return tuple(cols)


def t_in_phi(N: int) -> tuple:
    return binomial_series(N, 1, Fraction(-1, 2), Fraction(-1, 4 * N))


def phi_in_t(N: int) -> tuple:
    return binomial_series(N, 1, Fraction(-1, 2), Fraction(1, 4 * N))


def sigma_in_u_columns(N: int) -> tuple:
    """Column m holds sigma_m = s^(N-m) (1 + u^2)^(-1) in u, with
    s = u (1 + u^2)^(-1/2); the powers run over N - m, so the columns come
    out reversed."""
    s = binomial_series(N, 1, Fraction(-1, 2), Fraction(1))
    tail = binomial_series(N, 0, Fraction(-1), Fraction(1))
    return tuple(reversed(power_columns(s, N, tail)))


def substitute(f: tuple, g: tuple) -> tuple:
    """f(g(x)) truncated; g must have zero constant term."""
    if g[0]:
        raise ValueError("substitution requires zero constant term")
    out = [f[0]] + [0] * (len(f) - 1)
    power = (1,) + (0,) * (len(f) - 1)
    for k in range(1, len(f)):
        power = truncated_product(power, g)
        for i, c in enumerate(power):
            out[i] += f[k] * c
    return tuple(out)


def u_in_phi(N: int) -> tuple:
    """u = t / sqrt(4N) as a series in phi."""
    scale = sqrt_pow(4 * N, -1)
    return tuple(scale * c for c in t_in_phi(N))


# -- exact bridges by route composition ---------------------------------------
#
# The frame bridges the long way: one edge at a time along the path
# PHI -- T -- TAU -- NU, with the edge into NU inverted by forward
# substitution, and the edges multiplied out in plain Fraction arithmetic.

FRAME_PATH = (Basis.PHI, Basis.T, Basis.TAU, Basis.NU)


def sparse(dense: tuple) -> tuple:
    return tuple((i, c) for i, c in enumerate(dense) if c)


@lru_cache(maxsize=None)
def frame_edge(N: int, src: Basis, dst: Basis) -> tuple:
    """The bridge between neighbouring frames on the path, column-sparse."""
    if Basis.T in (src, dst):
        # t^k = phi^k (1 - phi^2/4N)^(-k/2), phi^k = t^k (1 + t^2/4N)^(-k/2),
        # and between t and tau the exponent is -(k+2)/2 each way
        lift = 2 if Basis.TAU in (src, dst) else 0
        inner = Fraction(-1 if src == Basis.T else 1, 4 * N)
        return tuple(
            sparse(binomial_series(N, k, Fraction(-k - lift, 2), inner)) for k in range(N + 1)
        )
    # NU frame element k is (4N)^((N-k)/2) nu_k with
    # nu_k = 1/2 sum_j binom(-i/2, j) sigma_i over i = k - 2j > 0 (or k = 0)
    # and sigma_i = (4N)^(-(N-i)/2) tau_(N-i)
    nu_in_tau = tuple(
        tuple(
            (N - k + 2 * j, generalized_binomial(Fraction(2 * j - k, 2), j) / 2 / (4 * N) ** j)
            for j in range(k // 2 + 1)
            if 2 * j < k or k == 0
        )
        for k in range(N + 1)
    )
    if src == Basis.NU:
        return nu_in_tau
    # forward substitution: tau_(N-k) = 2 nu_k - 2 sum_(i<k) c_ik tau_(N-i)
    tau_in_nu = [()] * (N + 1)
    for k, col in enumerate(nu_in_tau):
        acc = {k: Fraction(2)}
        for j, q in col:
            if j != N - k:
                for i, c in tau_in_nu[j]:
                    acc[i] = acc.get(i, 0) - 2 * q * c
        tau_in_nu[N - k] = tuple((i, c) for i, c in sorted(acc.items()) if c)
    return tuple(tau_in_nu)


def compose(later: tuple, first: tuple) -> tuple:
    """The matrix product later * first of two column-sparse matrices."""
    cols = []
    for col in first:
        acc: dict = {}
        for j, a in col:
            for i, b in later[j]:
                acc[i] = acc.get(i, 0) + a * b
        cols.append(tuple((i, c) for i, c in sorted(acc.items()) if c))
    return tuple(cols)


@lru_cache(maxsize=None)
def route_product(N: int, src: Basis, dst: Basis) -> tuple:
    """The bridge between two frames as the product of the frame edges
    along the path from src to dst, composed from the first edge on."""
    a, b = FRAME_PATH.index(src), FRAME_PATH.index(dst)
    route = FRAME_PATH[a : b + 1] if a <= b else FRAME_PATH[b : a + 1][::-1]
    product = tuple(((k, Fraction(1)),) for k in range(N + 1))
    for x, y in zip(route, route[1:]):
        product = compose(frame_edge(N, x, y), product)
    return product


# -- closed forms ------------------------------------------------------------------


def projected_coordinate_cdf(x: float, N: int) -> float:
    """Exact CDF of one coordinate of a uniform point on the sphere of
    radius sqrt(N): the squared normalized coordinate is Beta(1/2, N/2)."""
    t2 = min(x * x / N, 1.0)
    tail = 0.5 * betainc(0.5, N / 2.0, t2)
    return 0.5 + math.copysign(tail, x)


def tube_volume_fraction_quadrature(N: int, d: int, s: float) -> float:
    """vol(subsphere tube) / vol(ambient sphere) by quadrature of the
    meridian profile sin^(d-1) cos^(N-d) up to the angular radius."""
    integral = quad(
        lambda t: math.sin(t) ** (d - 1) * math.cos(t) ** (N - d),
        0.0, s / math.sqrt(N), epsabs=1e-14, epsrel=1e-13, limit=200,
    )[0]
    return math.exp(log_alpha(d - 1) + log_alpha(N - d) - log_alpha(N)) * integral


def u_power_on_euclidean_ball(k: int, N: int, radius: float = 1.0) -> float:
    """u^k of the euclidean N-ball via the intrinsic-volume closed form
    mu_k = (omega_N / omega_(N-k)) binom(N, k) radius^k."""
    log_binom = math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)
    mu_log = log_omega(N) - log_omega(N - k) + log_binom + k * math.log(radius)
    t_log = mu_log + math.lgamma(k + 1) + log_omega(k) - k * math.log(math.pi)
    return math.exp(t_log - 0.5 * k * math.log(4 * N))


def printed_nu_closed_form(k: int) -> tuple[tuple[int, Fraction], ...]:
    """The printed closed forms of the dual family nu_k in sigma
    coordinates, with the even-degree sign read as (-1)^(k-1-j) (the printed
    (-1)^j does not satisfy the defining identity)."""
    if k == 0:
        return ((0, Fraction(1, 2)),)
    out: dict[int, Fraction] = {}
    if k % 2 == 0:
        half_k = k // 2
        for j in range(half_k):
            q = Fraction((-1) ** (half_k - 1 - j) * math.comb(half_k - 1, j), 2)
            out[2 * j + 2] = out.get(2 * j + 2, Fraction(0)) + q
    else:
        half_k = (k - 1) // 2
        for j in range(half_k + 1):
            bj = generalized_binomial(Fraction(1, 2), j)
            for i in range(half_k - j + 1):
                q = bj * (-1) ** (half_k - j - i) * math.comb(half_k - j, i) / 2
                out[2 * i + 1] = out.get(2 * i + 1, Fraction(0)) + q
    return tuple((i, q) for i, q in sorted(out.items()) if q)


def u_power_on_great_subsphere(k: int, N: int, n: int) -> Fraction:
    """u^k of a great n-subsphere: 2 binom(n/2, (n-k)/2) for k = n (mod 2),
    else zero (pairing the binomial expansion with the curvature delta)."""
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    if k > n or (n - k) % 2 == 1:
        return Fraction(0)
    return 2 * generalized_binomial(Fraction(n, 2), (n - k) // 2)


def lk_unit_sphere_tube_route(n: int, k: int) -> PiScalar:
    """t^k of the unit n-sphere from the euclidean tube expansion: the tube
    of radius rho about the unit sphere in (n+1)-space has volume
    omega_(n+1) ((1+rho)^(n+1) - (1-rho)^(n+1)), so mu_k = 2 binom(n+1, k)
    omega_(n+1) / omega_(n+1-k) for even n - k, and t^k = k! omega_k
    pi^(-k) mu_k, as six PiScalar products."""
    if (n - k) % 2 == 1:
        return PiScalar.zero()
    mu_k = 2 * omega(n + 1) * omega(n + 1 - k).reciprocal() * math.comb(n + 1, k)
    return mu_k * math.factorial(k) * omega(k) * PiScalar.pi_power(-2 * k)


# -- dense kinematic tensors, cell by cell ------------------------------------------
#
# Each cell of the (N+1) x (N+1) grid is filled from the defining rule of the
# operator, with bases.ZERO in every cell the rule leaves empty.


def diagonal_sum_rows(N: int, total: int, coeff: PiScalar) -> tuple:
    """coeff at every (i, j) with i + j = total: p_sigma and p_tau."""
    return tuple(
        tuple(coeff if i + j == total else ZERO for j in range(N + 1)) for i in range(N + 1)
    )


def chi_rows(N: int, sigma_sigma: bool = False) -> tuple:
    """p_chi: 1/2 [u^k] (u/sqrt(1+u^2))^i at (k, i), or in the telescoped
    SIGMA (x) SIGMA form 1/2 where s + i <= N and s + i = N (mod 2)."""
    half = PiScalar.from_rational(Fraction(1, 2))

    def cell(s: int, i: int) -> PiScalar:
        if sigma_sigma:
            return half if i <= N - s and (N - s - i) % 2 == 0 else ZERO
        q = dict(nu_in_sigma_column(s)).get(i)
        return ZERO if q is None else PiScalar.from_rational(q)

    return tuple(tuple(cell(s, i) for i in range(N + 1)) for s in range(N + 1))


def u_power_rows(m: int, N: int) -> tuple:
    """p_u_power: the p_chi row k at left degree m + k, zero rows below m."""
    chi = chi_rows(N)
    return tuple(chi[i - m] if i >= m else (ZERO,) * (N + 1) for i in range(N + 1))


# -- pairings ----------------------------------------------------------------------


def basis_values(basis: Basis, N: int, model_set: ModelSet) -> list:
    """Values of all basis elements of the given kind on a sphere-side set."""
    if basis == Basis.SIGMA:
        return [sigma_evaluate(i, model_set) for i in range(N + 1)]
    if basis == Basis.TAU:
        return [tau_evaluate(i, model_set) for i in range(N + 1)]
    if basis == Basis.U:
        if isinstance(model_set, GeodesicBall):
            return [u_power_on_ball(k, N, model_set.r) for k in range(N + 1)]
        if isinstance(model_set, GreatSubsphere):
            return [
                float(u_power_on_great_subsphere(k, N, model_set.j))
                for k in range(N + 1)
            ]
        raise ValueError("generator-power values supported on balls and subspheres")
    raise ValueError(f"no direct evaluation for basis {basis}")


def pair_tensor(tensor: KinematicTensor, left_set: ModelSet, right_set: ModelSet) -> float:
    """Bilinear pairing of a tensor with a pair of sphere-side sets, entry
    by entry."""
    lvals = basis_values(tensor.basis_left, tensor.N, left_set)
    rvals = basis_values(tensor.basis_right, tensor.N, right_set)
    total = 0.0
    for i, row in enumerate(tensor.rows):
        lv = float_of(lvals[i])
        if lv == 0:
            continue
        for j, entry in enumerate(row):
            if not entry:
                continue
            rv = float_of(rvals[j])
            if rv:
                total += float_of(entry) * lv * rv
    return total


def pi_n_prediction_nu_route(A: ModelSet, D: GaussSet, N: int, m: int) -> float:
    """The finite-N prediction as the unfolded float pairing
    2^m sum_k u^(m+k)(A embedded in S^N) nu_k(trace of D).  Its terms
    alternate in sign, so it loses every digit as the dimension of A grows
    (about n = 100 at N = 200)."""
    n_embed = top_degree(A)
    nu_vals = nu_values_on_set(pull_back_set(D, N), n_embed - m)
    total = 0.0
    for k in range(0, n_embed - m + 1):
        u_val = u_power_on_great_subsphere(m + k, N, n_embed)
        if u_val:
            total += float(u_val) * nu_vals[k]
    return 2.0**m * total


def tube_rhs_nu_route(N: int, d: int, s: float, r: float) -> float:
    """Right side of the tube-volume identity as the float pairing
    sum_k u^k(ball of radius r) nu_k(tube of radius s)."""
    nu_vals = nu_values_on_set(SubsphereTube(N, d, s), N)
    rhs = 0.0
    for k in range(N + 1):
        if nu_vals[k]:
            rhs += u_power_on_ball(k, N, r) * nu_vals[k]
    return rhs


# -- the Gaussian prediction, term by term ----------------------------------------


def gamma_float_route(D: GaussSet, k_max: int) -> list[float]:
    """gamma_0 .. gamma_kmax by float recurrences: Hermite values for a
    half-space; for a ball or the origin the integer coefficients of the
    radial polynomials P_(j+1) = P_j' - s P_j, where
    d^j/ds^j [s^(d-1) e^(-s^2/2)] = P_j(s) e^(-s^2/2), evaluated by Horner.
    Accurate while the Hermite values and the coefficients stay far from the
    float range (the coefficients pass it near j = 300 for d = 3)."""
    values = [gauss_measure_tube(D, 0.0)]
    if isinstance(D, FullSpace):
        return values + [0.0] * k_max
    if isinstance(D, HalfSpace):
        u = D.u
        hermite = [1.0, u]
        for j in range(1, k_max):
            hermite.append(u * hermite[j] - j * hermite[j - 1])
        density = math.exp(-u * u / 2) / math.sqrt(2 * math.pi)
        return values + [hermite[k - 1] * density for k in range(1, k_max + 1)]
    d = D.d
    rho = D.rho if isinstance(D, CenteredBall) else 0.0
    c_d = math.exp((1 - d / 2.0) * math.log(2) - math.lgamma(d / 2.0))
    weight = c_d * math.exp(-rho * rho / 2)
    poly = [0] * (d - 1) + [1]  # s^(d-1)
    for _ in range(k_max):
        value = 0.0
        for c in reversed(poly):
            value = value * rho + c
        values.append(weight * value)
        deriv = [i * c for i, c in enumerate(poly)][1:] + [0, 0]
        shifted = [0] + poly
        poly = [a - b for a, b in zip(deriv, shifted)]
    return values


def gkf_predict_float_route(A: ModelSet, D: GaussSet, m: int) -> float:
    """The limit-side prediction as the float sum of its terms
    (pi/2)^(k/2) / (k! omega_k) t^(k+m)(A) gamma_k(D) in ascending k.  The
    terms alternate in sign, so it loses every digit as the dimension of A
    grows (about n = 100 for a half-space at u = 0.5)."""
    k_top = A.n - m
    gammas = gamma_float_route(D, k_top)
    total = 0.0
    for k in range(k_top + 1):
        if gammas[k] == 0.0:
            continue
        t_val = float_of(t_power_unit(A, k + m))
        if t_val:
            total += float_of(gkf_coefficient(k)) * t_val * gammas[k]
    return total


# -- Monte Carlo reduction ------------------------------------------------------------


def pairwise_sum_chain(values: list[float]) -> tuple[float, int]:
    """numpy's pairwise sum of float64 values replayed one Python float
    addition at a time, counting the additions on its longest chain:
    below 8 values one running sum from 0; up to 128, eight running sums
    combined in a balanced tree and the n % 8 values left over added in
    turn; above 128, two parts (the first n / 2 rounded down to a multiple
    of 8) summed alone and added."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total, max(n - 1, 0)
    if n <= 128:
        lanes, chain = list(values[:8]), 3
        end = n - n % 8
        for i in range(8, end, 8):
            chain += 1
            for j in range(8):
                lanes[j] += values[i + j]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for v in values[end:]:
            chain += 1
            total += v
        return total, chain
    half = n // 2 - n // 2 % 8
    (left, left_chain), (right, right_chain) = (
        pairwise_sum_chain(values[:half]), pairwise_sum_chain(values[half:])
    )
    return left + right, 1 + max(left_chain, right_chain)


# -- excursion counts and volumes, batch by batch ----------------------------------


def chi_quadratic_eigvalsh(F_batch: np.ndarray, n: int, rho: float) -> np.ndarray:
    """Morse count of the quadratic excursion with the Gram eigenvalues from
    eigvalsh: each eigenvalue at or below rho^2 adds two critical points of
    index the number of smaller eigendirections, over the kernel sphere's
    minimum stratum."""
    d = F_batch.shape[1]
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


def icosphere_unique(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The icosphere with each level's edges re-derived from its faces: one
    np.unique over the face-side codes lo * n + hi numbers the midpoints in
    order of first appearance, and the edges are the sorted side codes
    taken every second entry (every edge lies in two faces)."""

    def side_codes(F, n):
        a, b = F.ravel(), F[:, [1, 2, 0]].ravel()
        return np.minimum(a, b) * n + np.maximum(a, b)

    V = np.array([np.array(v) / np.linalg.norm(v) for v in _ICOSAHEDRON_VERTICES])
    F = np.array(_ICOSAHEDRON_FACES, dtype=np.int64)
    for _ in range(depth):
        n = len(V)
        codes, first, inverse = np.unique(
            side_codes(F, n), return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        a, b, c = F.T
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        lo, hi = np.divmod(codes[order], n)
        mid = V[lo] + V[hi]
        V = np.concatenate([V, mid / np.linalg.norm(mid, axis=1, keepdims=True)])
        F = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    n = len(V)
    codes = np.sort(side_codes(F, n))[::2]
    return V, np.stack(np.divmod(codes, n), axis=1), F


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


def mesh_chi_quadratic_by_level(
    F_map: np.ndarray, rho: float, max_depth: int, start_depth: int
) -> int:
    """The mesh oracle counted one level at a time: mesh_chi_sublevel of
    levels start_depth and start_depth + 1 from the finer level's mask,
    then of each deeper level from its own mask, until two successive
    levels agree; refused if none do by max_depth."""
    F_map = np.asarray(F_map, dtype=float)
    Q = F_map.T @ F_map
    weights = Q[[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    level = rho * rho
    depth = start_depth + 1
    inside = weights @ _vertex_monomials(depth) <= level
    previous, current = mesh_chi_sublevel(inside, start_depth), mesh_chi_sublevel(inside, depth)
    while current != previous:
        if depth == max_depth:
            raise ValueError(f"mesh count did not settle by depth {max_depth}")
        depth += 1
        inside = weights @ _vertex_monomials(depth) <= level
        previous, current = current, mesh_chi_sublevel(inside, depth)
    return current


def hit_fractions_einsum(
    A: ModelSet, D: GaussSet, F_batch: np.ndarray, n_points: int, gen: np.random.Generator
) -> np.ndarray:
    """Hit-or-miss volume fractions with the images formed by one batched
    einsum over the same uniform points."""
    points = sample_uniform_on(A, len(F_batch) * n_points, gen)
    points = points.reshape(len(F_batch), n_points, -1)
    images = np.einsum("bij,bpj->bpi", F_batch, points)
    hits = gauss_set_membership(D, images.reshape(-1, D.d))
    return hits.reshape(len(F_batch), n_points).mean(axis=1)


# -- samplers ------------------------------------------------------------------------


def pi_n_batch_lapack(
    n: int, d: int, N: int, size: int, gen: np.random.Generator
) -> np.ndarray:
    """The finite-N rotation block from the same draws as `pi_n_batch`, with
    the Gram matrix and the product formed by einsum and the factor and its
    inverse by LAPACK, one matrix at a time."""
    top = gen.standard_normal((size, d, n + 1))
    m = N + 1 - d
    rows = min(m, n + 1)
    upper = np.triu_indices(rows, k=1, m=n + 1)
    bartlett = np.zeros((size, rows, n + 1))
    diag = np.arange(rows)
    bartlett[:, diag, diag] = np.sqrt(gen.chisquare(m - diag, (size, rows)))
    bartlett[:, upper[0], upper[1]] = gen.standard_normal((size, len(upper[0])))
    gram = np.einsum("bij,bik->bjk", top, top) + np.einsum(
        "bij,bik->bjk", bartlett, bartlett
    )
    inv = np.linalg.inv(np.linalg.cholesky(gram))
    return math.sqrt(N) * np.einsum("bij,bkj->bik", top, inv)


def poincare_out_of_place(
    N: int, d: int, n_samples: int, gen: np.random.Generator
) -> tuple[float, float]:
    """(KS distance, second moment) of the Poincare projection check from a
    fresh generator, with every intermediate array allocated anew and the
    KS grid formed whole."""
    g = gen.standard_normal((n_samples, d))
    tail = gen.chisquare(N + 1 - d, n_samples)
    norms_sq = np.einsum("ij,ij->i", g, g) + tail
    x = math.sqrt(N) * g / np.sqrt(norms_sq)[:, None]
    if d == 1:
        samples, cdf = x[:, 0], ndtr
    else:
        samples = np.linalg.norm(x, axis=1)
        cdf = lambda t: gammainc(d / 2.0, t * t / 2.0)
    second_moment = float(np.mean(samples**2)) / d
    xs = np.sort(samples)
    F = cdf(xs)
    grid = np.arange(1, n_samples + 1) / n_samples
    ks = float(max(np.max(grid - F), np.max(F - (grid - 1 / n_samples))))
    return ks, second_moment
