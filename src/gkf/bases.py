"""The seven coordinate systems on the space of invariant valuations.

A valuation on the sphere of dimension N (radius sqrt(N)) is a vector of
N+1 exact coefficients in one of the bases

    PHI, T, U    -- powers of the three algebra generators,
    MU           -- classical intrinsic volumes,
    TAU, SIGMA   -- curvature-integral elements and their rescaling,
    NU           -- the dual expansion of the kinematic image of chi.

Conversions are exact and routed along a spanning tree of elementary
bridges, so every round trip is the identity on the nose:

    PHI -- T -- U -- SIGMA -- TAU
           |         |
           MU        NU
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .scalars import PiScalar, omega
from .series import binomial_x2_series, sqrt_pow, u_power_in_sigma

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
        if self.N < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.coeffs) != self.N + 1:
            raise ValueError(
                f"expected {self.N + 1} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def from_coeffs(cls, N: int, basis: Basis, coeffs) -> "ValuationVector":
        padded = [PiScalar._coerce(c) for c in coeffs]
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
        c = PiScalar._coerce(c)
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


# -- elementary bridge matrices (column-sparse: cols[k] = ((row, coeff), ...))

Matrix = tuple[tuple[tuple[int, PiScalar], ...], ...]


def _rational_columns(columns) -> Matrix:
    return tuple(
        tuple((i, PiScalar.from_rational(q)) for i, q in col) for col in columns
    )


@lru_cache(maxsize=None)
def _edge_matrix(N: int, src: Basis, dst: Basis) -> Matrix:
    # t^k = phi^k (1 - phi^2/4N)^(-k/2) and phi^k = t^k (1 + t^2/4N)^(-k/2)
    if (src, dst) in ((Basis.T, Basis.PHI), (Basis.PHI, Basis.T)):
        inner = Fraction(-1 if src == Basis.T else 1, 4 * N)
        return _rational_columns(
            binomial_x2_series(N, k, Fraction(-k, 2), inner) for k in range(N + 1)
        )
    if (src, dst) == (Basis.T, Basis.U):
        return tuple(((k, sqrt_pow(4 * N, k)),) for k in range(N + 1))
    if (src, dst) == (Basis.U, Basis.T):
        return tuple(((k, sqrt_pow(4 * N, -k)),) for k in range(N + 1))
    if (src, dst) == (Basis.T, Basis.MU):
        return tuple(
            ((k, math.factorial(k) * omega(k) * PiScalar.pi_power(-2 * k)),)
            for k in range(N + 1)
        )
    if (src, dst) == (Basis.MU, Basis.T):
        return tuple(
            (
                (
                    k,
                    (
                        math.factorial(k) * omega(k) * PiScalar.pi_power(-2 * k)
                    ).reciprocal(),
                ),
            )
            for k in range(N + 1)
        )
    if (src, dst) == (Basis.U, Basis.SIGMA):
        return _rational_columns(u_power_in_sigma(k, N) for k in range(N + 1))
    if (src, dst) == (Basis.SIGMA, Basis.U):
        # sigma_m = u^(N-m) (1 + u^2)^(-(N-m)/2 - 1)
        return _rational_columns(
            binomial_x2_series(N, N - m, Fraction(-(N - m) - 2, 2), Fraction(1))
            for m in range(N + 1)
        )
    if (src, dst) == (Basis.SIGMA, Basis.TAU):
        return tuple(((N - i, sqrt_pow(4 * N, -(N - i))),) for i in range(N + 1))
    if (src, dst) == (Basis.TAU, Basis.SIGMA):
        return tuple(((N - j, sqrt_pow(4 * N, j)),) for j in range(N + 1))
    if (src, dst) == (Basis.NU, Basis.SIGMA):
        return _rational_columns(nu_in_sigma_column(k) for k in range(N + 1))
    if (src, dst) == (Basis.SIGMA, Basis.NU):
        return _sigma_to_nu_matrix(N)
    raise ValueError(f"no elementary bridge {src} -> {dst}")


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


@lru_cache(maxsize=None)
def _sigma_to_nu_matrix(N: int) -> Matrix:
    # Invert the triangular-by-parity expansion by forward substitution:
    # sigma_k = 2 nu_k - sum_{i<k} c_{ik} sigma_i.
    sigma_in_nu: list[dict[int, Fraction]] = []
    for k in range(N + 1):
        acc: dict[int, Fraction] = {k: Fraction(2)}
        for i, q in nu_in_sigma_column(k):
            if i == k:
                continue
            for idx, v in sigma_in_nu[i].items():
                acc[idx] = acc.get(idx, Fraction(0)) - 2 * q * v
        sigma_in_nu.append({i: v for i, v in acc.items() if v})
    return _rational_columns(sorted(col.items()) for col in sigma_in_nu)


# -- routing ----------------------------------------------------------------

_EDGES = {
    Basis.PHI: (Basis.T,),
    Basis.T: (Basis.PHI, Basis.U, Basis.MU),
    Basis.U: (Basis.T, Basis.SIGMA),
    Basis.MU: (Basis.T,),
    Basis.SIGMA: (Basis.U, Basis.TAU, Basis.NU),
    Basis.TAU: (Basis.SIGMA,),
    Basis.NU: (Basis.SIGMA,),
}


@lru_cache(maxsize=None)
def _route(src: Basis, dst: Basis) -> tuple[Basis, ...]:
    frontier = [(src,)]
    seen = {src}
    while frontier:
        path = frontier.pop(0)
        if path[-1] == dst:
            return path
        for nxt in _EDGES[path[-1]]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(path + (nxt,))
    raise ValueError("bases are not connected")


def _compose(later: Matrix, first: Matrix) -> Matrix:
    cols = []
    for col in first:
        dense = [ZERO] * len(later)
        for j, a in col:
            dense[j] = a
        cols.append(tuple((i, c) for i, c in enumerate(_apply(later, dense)) if c))
    return tuple(cols)


@lru_cache(maxsize=None)
def conversion_matrix(N: int, src: Basis, dst: Basis) -> Matrix:
    return _route_matrix(N, _route(src, dst))


@lru_cache(maxsize=None)
def _route_matrix(N: int, route: tuple[Basis, ...]) -> Matrix:
    """The product of the edges along a route: its last edge composed onto
    the cached product along the route's prefix, which is the route to
    its second-to-last basis."""
    if len(route) == 1:
        return tuple(((k, ONE),) for k in range(N + 1))
    edge = _edge_matrix(N, route[-2], route[-1])
    if len(route) == 2:
        return edge
    return _compose(edge, _route_matrix(N, route[:-1]))


def _apply(matrix: Matrix, coeffs: tuple[PiScalar, ...]) -> tuple[PiScalar, ...]:
    out: list[PiScalar] = [ZERO] * len(coeffs)
    for k, vk in enumerate(coeffs):
        if not vk:
            continue
        for i, m in matrix[k]:
            term = m * vk
            out[i] = out[i] + term if out[i] else term
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
    matrix = conversion_matrix(v.N, v.basis, target)
    return ValuationVector(v.N, target, _apply(matrix, v.coeffs))


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
