"""The seven coordinate systems on the space of invariant valuations.

A valuation on the sphere of dimension N (radius sqrt(N)) is a vector of
N+1 exact coefficients in one of the bases

    PHI, T, U    -- powers of the three algebra generators,
    MU           -- classical intrinsic volumes,
    TAU, SIGMA   -- curvature-integral elements and their rescaling,
    NU           -- the dual expansion of the kinematic image of chi.

Element k of a basis is a monomial weight w(k) times one element of a
rational frame.  The four frames sit on the path PHI -- T -- TAU -- NU:

    basis          frame (index)   w(k)
    PHI, T, TAU    own (k)         1
    U              T (k)           (4N)^(-k/2)
    MU             T (k)           1 / (k! omega_k pi^(-k))
    SIGMA          TAU (N-k)       (4N)^(-(N-k)/2)
    NU             NU (k)          (4N)^(-(N-k)/2)

The three frame edges have rational entries, so the rational part of a
bridge is the Fraction product of the edges along a slice of the path,
held once.  A conversion weighs each coefficient into its frame, carries
it through that product and weighs it out again, once per coefficient.
Conversions are exact, so every round trip is the identity on the nose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .scalars import PiScalar, omega
from .series import binomial_x2_series, sqrt_pow

ZERO = PiScalar.zero()
ONE = PiScalar.one()

# Exact tensor/vector paths are capped: big-rational coefficients grow
# quickly with N.  Large-dimension work goes through the dedicated
# log-space float routines in the evaluation modules.
EXACT_N_CAP = 64


class Basis(Enum):
    PHI = "phi"
    T = "t"
    U = "u"
    MU = "mu"
    TAU = "tau"
    SIGMA = "sigma"
    NU = "nu"


@dataclass(frozen=True)
class ValuationVector:
    """Invariant valuation as exact coordinates in a chosen basis."""

    N: int
    basis: Basis
    coeffs: tuple[PiScalar, ...]

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("dimension must be positive")
        if len(self.coeffs) != self.N + 1:
            raise ValueError(
                f"expected {self.N + 1} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def from_coeffs(cls, N: int, basis: Basis, coeffs) -> "ValuationVector":
        padded = [PiScalar._exact(c) for c in coeffs]
        padded.extend(ZERO for _ in range(N + 1 - len(padded)))
        return cls(N, basis, tuple(padded))

    def coeff(self, k: int) -> PiScalar:
        return self.coeffs[k]

    def __add__(self, other: "ValuationVector") -> "ValuationVector":
        if self.N != other.N or self.basis != other.basis:
            raise ValueError("mismatched vectors")
        return ValuationVector(
            self.N, self.basis, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def scale(self, c) -> "ValuationVector":
        c = PiScalar._exact(c)
        return ValuationVector(self.N, self.basis, tuple(c * x for x in self.coeffs))


def basis_element(N: int, basis: Basis, k: int) -> ValuationVector:
    if not 0 <= k <= N:
        raise ValueError("index out of range")
    coeffs = [ZERO] * (N + 1)
    coeffs[k] = ONE
    return ValuationVector(N, basis, tuple(coeffs))


def chi_vector(N: int) -> ValuationVector:
    """The Euler characteristic: the unit of the algebra."""
    return basis_element(N, Basis.T, 0)


# -- frame edges (column-sparse: cols[k] = ((row, coeff), ...)) -------------

FrameMatrix = tuple[tuple[tuple[int, Fraction], ...], ...]

# the frames in path order, and each basis's position on the path
_PATH = (Basis.PHI, Basis.T, Basis.TAU, Basis.NU)
_ON_PATH = {Basis.PHI: 0, Basis.T: 1, Basis.U: 1, Basis.MU: 1,
            Basis.TAU: 2, Basis.SIGMA: 2, Basis.NU: 3}


def _frame_index(N: int, basis: Basis, k: int) -> int:
    """SIGMA element k sits at TAU index N-k; every other basis keeps k."""
    return N - k if basis == Basis.SIGMA else k


@lru_cache(maxsize=None)
def _weights(N: int, basis: Basis) -> tuple[PiScalar, ...]:
    """w(k): basis element k is w(k) times its frame element."""
    if basis == Basis.U:
        return tuple(sqrt_pow(4 * N, -k) for k in range(N + 1))
    if basis == Basis.MU:
        return tuple(
            (math.factorial(k) * omega(k) * PiScalar.pi_power(-2 * k)).reciprocal()
            for k in range(N + 1)
        )
    if basis in (Basis.SIGMA, Basis.NU):
        return tuple(sqrt_pow(4 * N, -(N - k)) for k in range(N + 1))
    return (ONE,) * (N + 1)


@lru_cache(maxsize=None)
def _frame_edge(N: int, src: Basis, dst: Basis) -> FrameMatrix:
    if Basis.T in (src, dst):
        # t^k = phi^k (1 - phi^2/4N)^(-k/2), phi^k = t^k (1 + t^2/4N)^(-k/2),
        # and between t and tau the exponent is -(k+2)/2 each way
        lift = 2 if Basis.TAU in (src, dst) else 0
        inner = Fraction(-1 if src == Basis.T else 1, 4 * N)
        return tuple(
            binomial_x2_series(N, k, Fraction(-k - lift, 2), inner)
            for k in range(N + 1)
        )
    # NU frame element k is (4N)^((N-k)/2) nu_k, so the sigma_i entry of
    # nu_k, scaled by (4N)^(-(k-i)/2), lands at tau index N-i
    nu_in_tau = tuple(
        tuple((N - i, q / (4 * N) ** ((k - i) // 2)) for i, q in reversed(col))
        for k, col in enumerate(map(nu_in_sigma_column, range(N + 1)))
    )
    if src == Basis.NU:
        return nu_in_tau
    # Invert the triangular-by-parity expansion by forward substitution:
    # tau_(N-k) = 2 nu_k - 2 sum_(i<k) c_ik tau_(N-i).
    tau_in_nu: list[dict[int, Fraction]] = [{}] * (N + 1)
    for k, col in enumerate(nu_in_tau):
        acc: dict[int, Fraction] = {k: Fraction(2)}
        for j, q in col:
            if j == N - k:
                continue
            for idx, v in tau_in_nu[j].items():
                acc[idx] = acc.get(idx, 0) - 2 * q * v
        tau_in_nu[N - k] = {i: v for i, v in acc.items() if v}
    return tuple(tuple(sorted(col.items())) for col in tau_in_nu)


@lru_cache(maxsize=None)
def nu_in_sigma_column(k: int) -> tuple[tuple[int, Fraction], ...]:
    """nu_k in sigma coordinates: half the u^k-coefficients of the
    contraction powers, nu_k = 1/2 sum_i [u^k](u/sqrt(1+u^2))^i sigma_i,
    as (i, binom(-i/2, (k-i)/2) / 2) in ascending i.  The column does not
    depend on the sphere dimension."""
    # i/2 + j = k/2 is fixed along the column, so the entry at i is the
    # one at i + 2 times -i/(2j) = -i/(k-i); the entry at i = 0 vanishes
    # unless k = 0
    out = [(k, Fraction(1, 2))]
    for i in range(k - 2, 0, -2):
        out.append((i, out[-1][1] * Fraction(-i, k - i)))
    return tuple(reversed(out))


# -- bridges -----------------------------------------------------------------


def _compose(later: FrameMatrix, first: FrameMatrix) -> FrameMatrix:
    cols = []
    for col in first:
        acc: dict[int, Fraction] = {}
        for j, a in col:
            for i, b in later[j]:
                acc[i] = acc.get(i, 0) + a * b
        cols.append(tuple(sorted((i, q) for i, q in acc.items() if q)))
    return tuple(cols)


@lru_cache(maxsize=None)
def _route_matrix(N: int, route: tuple[Basis, ...]) -> FrameMatrix:
    """The product of the frame edges along a slice of the path: its last
    edge composed onto the cached product along the slice's prefix."""
    if len(route) == 1:
        return tuple(((k, Fraction(1)),) for k in range(N + 1))
    edge = _frame_edge(N, route[-2], route[-1])
    if len(route) == 2:
        return edge
    return _compose(edge, _route_matrix(N, route[:-1]))


@lru_cache(maxsize=None)
def conversion_matrix(N: int, src: Basis, dst: Basis) -> FrameMatrix:
    """The frame product between the frames of src and dst, in frame
    indices: the rational part of every bridge from src to dst."""
    a, b = _ON_PATH[src], _ON_PATH[dst]
    route = _PATH[min(a, b) : max(a, b) + 1]
    return _route_matrix(N, route if a <= b else route[::-1])


def _apply(N: int, src: Basis, dst: Basis, coeffs: tuple[PiScalar, ...]) -> tuple[PiScalar, ...]:
    """dst coordinates of a src vector: each weighted coefficient's
    (pi power, radicand) components go through the rational frame product
    on their own, and each output is weighed out of dst's frame."""
    matrix = conversion_matrix(N, src, dst)
    w_src, w_dst = _weights(N, src), _weights(N, dst)
    acc: dict[int, dict[tuple[int, int], Fraction]] = {}
    for k, vk in enumerate(coeffs):
        if vk:
            for m, r, q in (vk * w_src[k]).terms:
                for f, a in matrix[_frame_index(N, src, k)]:
                    terms = acc.setdefault(_frame_index(N, dst, f), {})
                    terms[m, r] = terms.get((m, r), 0) + a * q
    out = [ZERO] * len(coeffs)
    for i, terms in acc.items():
        out[i] = PiScalar(terms) / w_dst[i]
    return tuple(out)


def change_basis(v: ValuationVector, target: Basis) -> ValuationVector:
    """Exact coordinates of v in the target basis."""
    if v.basis == target:
        return v
    if v.N > EXACT_N_CAP:
        raise ValueError(
            f"exact basis conversion capped at N = {EXACT_N_CAP}; "
            "use the float evaluation paths for larger dimensions"
        )
    return ValuationVector(v.N, target, _apply(v.N, v.basis, target, v.coeffs))


def lk_multiply(a: ValuationVector, b: ValuationVector) -> ValuationVector:
    """Product in the valuation algebra; operands in the T or U basis."""
    if a.N != b.N:
        raise ValueError("ambient dimensions differ")
    if a.basis not in (Basis.T, Basis.U) or b.basis not in (Basis.T, Basis.U):
        raise ValueError("multiplication requires the T or U basis")
    if b.basis != a.basis:
        b = change_basis(b, a.basis)
    out = [ZERO] * (a.N + 1)
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j, bj in enumerate(b.coeffs[: a.N + 1 - i]):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return ValuationVector(a.N, a.basis, tuple(out))
