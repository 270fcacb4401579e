"""Kinematic operators on the invariant valuation space.

Under the probability Haar measure on the rotation group, the average of a
valuation of A intersect gB is a bilinear form in valuations of A and B;
the operator is diagonal-sum in the curvature bases:

    p(sigma_k) = 1/2 sum_{i+j=k} sigma_i (x) sigma_j
    p(tau_k)   = 2^(-N-1) N^(-N/2) sum_{i+j=N+k} tau_i (x) tau_j

Applying it to the Euler characteristic and extracting generator-power
coefficients on the left leg produces the dual family nu_k, whose large-N
limits are the Gaussian intrinsic volumes up to the explicit bridging
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from scipy.integrate import quad

from .bases import (
    Basis,
    ValuationVector,
    _apply,
    conversion_matrix,
    nu_in_sigma_column,
)
from .evaluate import sigma_evaluate, tau_evaluate, u_power_on_ball
from .model_sets import GeodesicBall, GreatSubsphere, ModelSet, SubsphereTube
from .scalars import (
    PiScalar,
    float_of,
    generalized_binomial,
    log_alpha,
    omega,
)
from .series import contraction_power_series, sqrt_pow

ZERO = PiScalar.zero()
HALF = PiScalar.from_rational(Fraction(1, 2))


@dataclass(frozen=True)
class KinematicTensor:
    """Element of V (x) V as an exact coefficient matrix: rows[i][j] is the
    coefficient of (left basis element i) tensor (right basis element j)."""

    N: int
    basis_left: Basis
    basis_right: Basis
    rows: tuple[tuple[PiScalar, ...], ...]

    def __post_init__(self):
        n = self.N + 1
        if len(self.rows) != n or any(len(row) != n for row in self.rows):
            raise ValueError("tensor must be (N+1) x (N+1)")

    def entry(self, i: int, j: int) -> PiScalar:
        return self.rows[i][j]

    def is_symmetric(self) -> bool:
        n = self.N + 1
        return all(
            self.rows[i][j] == self.rows[j][i] for i in range(n) for j in range(i)
        )

    def convert_left(self, target: Basis) -> "KinematicTensor":
        if target == self.basis_left:
            return self
        matrix = conversion_matrix(self.N, self.basis_left, target)
        columns = [_apply(matrix, column) for column in zip(*self.rows)]
        return KinematicTensor(
            self.N, target, self.basis_right, tuple(zip(*columns))
        )

    def convert_right(self, target: Basis) -> "KinematicTensor":
        if target == self.basis_right:
            return self
        matrix = conversion_matrix(self.N, self.basis_right, target)
        return KinematicTensor(
            self.N,
            self.basis_left,
            target,
            tuple(_apply(matrix, row) for row in self.rows),
        )

    def __add__(self, other: "KinematicTensor") -> "KinematicTensor":
        if (self.N, self.basis_left, self.basis_right) != (
            other.N,
            other.basis_left,
            other.basis_right,
        ):
            raise ValueError("mismatched tensors")
        return KinematicTensor(
            self.N,
            self.basis_left,
            self.basis_right,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def scale(self, c) -> "KinematicTensor":
        c = PiScalar._coerce(c)
        return KinematicTensor(
            self.N,
            self.basis_left,
            self.basis_right,
            tuple(tuple(c * x for x in row) for row in self.rows),
        )


def _check_tensor_dim(N: int):
    from .bases import EXACT_N_CAP

    if N > EXACT_N_CAP:
        raise ValueError(
            f"dense exact tensors are capped at N = {EXACT_N_CAP}; the "
            "per-row helpers (nu_values_on_set, sigma_evaluate) work at any N"
        )


def _diagonal_sum_tensor(N: int, total: int, coeff: PiScalar, basis: Basis):
    _check_tensor_dim(N)
    rows = [[ZERO] * (N + 1) for _ in range(N + 1)]
    for i in range(N + 1):
        j = total - i
        if 0 <= j <= N:
            rows[i][j] = coeff
    return KinematicTensor(N, basis, basis, tuple(tuple(r) for r in rows))


def p_sigma(k: int, N: int) -> KinematicTensor:
    """Kinematic image of sigma_k: half the diagonal sum at degree k."""
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    return _diagonal_sum_tensor(N, k, HALF, Basis.SIGMA)


def p_tau(k: int, N: int) -> KinematicTensor:
    """Kinematic image of tau_k: the diagonal sum at N+k with the explicit
    normalization 2^(-N-1) N^(-N/2)."""
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    coeff = Fraction(1, 2 ** (N + 1)) * sqrt_pow(N, -N)
    return _diagonal_sum_tensor(N, N + k, coeff, Basis.TAU)


def p_chi(N: int, sigma_sigma: bool = False) -> KinematicTensor:
    """Kinematic image of the Euler characteristic.

    Default form: left leg in generator powers (U), right leg in SIGMA,
    rows[k][i] = 1/2 [u^k] (u/sqrt(1+u^2))^i.  With sigma_sigma=True the
    independent telescoped form is returned: (u/sqrt(1+u^2))^i =
    sum_j sigma_(N-i-2j), so the entry at (s, i) is 1/2 exactly when
    s + i <= N with s + i = N (mod 2).
    """
    if N < 1:
        raise ValueError("dimension must be positive")
    _check_tensor_dim(N)
    if sigma_sigma:
        rows = [
            tuple(
                HALF if (s + i <= N and (s + i - N) % 2 == 0) else ZERO
                for i in range(N + 1)
            )
            for s in range(N + 1)
        ]
        return KinematicTensor(N, Basis.SIGMA, Basis.SIGMA, tuple(rows))
    rows = [[ZERO] * (N + 1) for _ in range(N + 1)]
    for i in range(N + 1):
        series = contraction_power_series(i, N)
        for k in range(N + 1):
            c = series.coeff(k)
            if c:
                rows[k][i] = HALF * c
    return KinematicTensor(N, Basis.U, Basis.SIGMA, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class NuTable:
    """The dual family: row k holds nu_k in SIGMA coordinates."""

    N: int
    rows: tuple[tuple[PiScalar, ...], ...]

    def vector(self, k: int) -> ValuationVector:
        return ValuationVector(self.N, Basis.SIGMA, self.rows[k])

    def row_fractions(self, k: int) -> tuple[tuple[int, Fraction], ...]:
        return tuple(
            (i, c.as_fraction()) for i, c in enumerate(self.rows[k]) if c
        )


def nu_table(N: int) -> NuTable:
    """Extract nu_k as the u^k-coefficient rows of the kinematic image of
    chi in its U (x) SIGMA form; this extraction is the source of truth."""
    tensor = p_chi(N)
    return NuTable(N, tensor.rows)


def nu_defining_identity_holds(N: int) -> bool:
    """Exact check that sum_k u^k (x) nu_k, re-expanded over SIGMA (x) SIGMA
    via the binomial expansion of u^k, reproduces the independent telescoped
    form of the kinematic image of chi."""
    return p_chi(N).convert_left(Basis.SIGMA).rows == p_chi(N, sigma_sigma=True).rows


def printed_nu_closed_form(k: int) -> tuple[tuple[int, Fraction], ...]:
    """The closed forms of the dual family with the even-degree sign read as
    (-1)^(k-1-j) (the printed source's (-1)^j does not satisfy the defining
    identity; the discrepancy is pinned in tests)."""
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
                q = (
                    bj
                    * (-1) ** (half_k - j - i)
                    * math.comb(half_k - j, i)
                    / 2
                )
                out[2 * i + 1] = out.get(2 * i + 1, Fraction(0)) + q
    return tuple((i, q) for i, q in sorted(out.items()) if q)


def p_u_power(m: int, N: int) -> KinematicTensor:
    """Kinematic image of u^m: shift the chi expansion by multiplicativity,
    so the left degrees all sit at m + k."""
    if not 0 <= m <= N:
        raise ValueError("index out of range")
    table = nu_table(N)
    rows = [[ZERO] * (N + 1) for _ in range(N + 1)]
    for k in range(N + 1 - m):
        rows[m + k] = list(table.rows[k])
    return KinematicTensor(N, Basis.U, Basis.SIGMA, tuple(tuple(r) for r in rows))


def gkf_coefficient(k: int) -> PiScalar:
    """The limit-theorem coefficient (pi/2)^(k/2) / (k! omega_k), exact."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    return (
        PiScalar.pi_power(k)
        * sqrt_pow(2, -k)
        * (math.factorial(k) * omega(k)).reciprocal()
    )


# -- evaluation of tensors on model-set pairs -------------------------------


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


def u_power_on_great_subsphere(k: int, N: int, n: int) -> Fraction:
    """u^k of a great n-subsphere: 2 binom(n/2, (n-k)/2) for k = n (mod 2),
    else zero (pairing the binomial expansion with the curvature delta)."""
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    if k > n or (n - k) % 2 == 1:
        return Fraction(0)
    return 2 * generalized_binomial(Fraction(n, 2), (n - k) // 2)


def pair_tensor(tensor: KinematicTensor, left_set: ModelSet, right_set: ModelSet) -> float:
    """Bilinear pairing of a tensor with a pair of sphere-side sets."""
    lvals = basis_values(tensor.basis_left, tensor.N, left_set)
    rvals = basis_values(tensor.basis_right, tensor.N, right_set)
    total = 0.0
    for i, row in enumerate(tensor.rows):
        lv = lvals[i]
        lv = float_of(lv) if isinstance(lv, PiScalar) else float(lv)
        if lv == 0:
            continue
        for j, entry in enumerate(row):
            if not entry:
                continue
            rv = rvals[j]
            rv = float_of(rv) if isinstance(rv, PiScalar) else float(rv)
            if rv:
                total += float_of(entry) * lv * rv
    return total


# -- the tube identity -------------------------------------------------------


def nu_values_on_set(N: int, model_set: ModelSet, k_max: int) -> list[float]:
    """nu_0 ... nu_k_max of a sphere-side set through its sigma values, each
    evaluated once."""
    sigma_vals = [sigma_evaluate(i, model_set) for i in range(k_max + 1)]
    out = []
    for k in range(k_max + 1):
        total = 0.0
        for i, q in nu_in_sigma_column(k, N):
            if sigma_vals[i]:
                total += float(q) * sigma_vals[i]
        out.append(total)
    return out


def tube_volume_identity(N: int, d: int, s: float, r: float) -> tuple[float, float]:
    """Both sides of the tube-volume identity, as fractions of the total
    sphere measure.

    Left: direct quadrature of the meridian profile of the grown tube.
    Right: sum over k of u^k(ball of radius r) nu_k(tube of radius s).
    The identity needs s + r below the focal distance.
    """
    R = math.sqrt(N)
    if not 0 <= s + r < 0.5 * math.pi * R:
        raise ValueError("tube radius out of range")

    theta = (s + r) / R

    def integrand(t):
        return math.sin(t) ** (d - 1) * math.cos(t) ** (N - d)

    integral = quad(integrand, 0.0, theta, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    log_prefactor = log_alpha(d - 1) + log_alpha(N - d) - log_alpha(N)
    lhs = math.exp(log_prefactor) * integral

    nu_vals = nu_values_on_set(N, SubsphereTube(N, d, s), N)
    rhs = 0.0
    for k in range(N + 1):
        if nu_vals[k]:
            rhs += u_power_on_ball(k, N, r) * nu_vals[k]
    return lhs, rhs
