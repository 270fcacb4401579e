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
held once, beside one integer per column: the lcm of its denominators.
A conversion takes a batch of vectors (a vector is a batch of one, a
tensor converts all its columns or rows at once).  It multiplies each
coefficient's (pi power, radicand) components by the integer weight
monomial w_src(k), puts each component over one common denominator and
accumulates integer numerators through the product, then builds one
Fraction per nonzero output component, divided by w_dst(i).
Conversions are exact, so every round trip is the identity on the nose.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .scalars import PiScalar, ScalarLike, _square_split, omega
from .series import binomial_x2_series, sqrt_pow

ZERO = PiScalar.zero()
ONE = PiScalar.one()

# Exact tensor/vector paths are capped.  Measured on 2 cores (Python 3.11)
# at N = 64 / 96 / 128: a cold build of all 49 bridges takes 0.09-0.10 /
# 0.22-0.25 / 0.59-0.70 s, a round trip of 100 dense rational vectors
# through the six other bases 1.9-2.1 / 3.8-4.2 / 9.4-10.3 s, and bridge
# entries reach 307 / 489 / 689 bits.  Large-dimension work goes through
# the dedicated log-space float routines in the evaluation modules.
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

FrameColumn = tuple[tuple[int, Fraction], ...]
FrameMatrix = tuple[FrameColumn, ...]

# the frames in path order, and each basis's position on the path
_PATH = (Basis.PHI, Basis.T, Basis.TAU, Basis.NU)
_ON_PATH = {Basis.PHI: 0, Basis.T: 1, Basis.U: 1, Basis.MU: 1,
            Basis.TAU: 2, Basis.SIGMA: 2, Basis.NU: 3}


def _frame_index(N: int, basis: Basis, k: int) -> int:
    """SIGMA element k sits at TAU index N-k; every other basis keeps k."""
    return N - k if basis == Basis.SIGMA else k


# a monomial q pi^(m/2) sqrt(r) as the integers (m, r, numerator, denominator)
Monomial = tuple[int, int, int, int]


def _monomial(x: PiScalar) -> Monomial:
    ((m, r, q),) = x.terms
    return m, r, q.numerator, q.denominator


@lru_cache(maxsize=None)
def _weights(N: int, basis: Basis) -> tuple[tuple[Monomial, ...], tuple[Monomial, ...]]:
    """w(k) and 1/w(k): basis element k is w(k) times its frame element."""
    if basis == Basis.U:
        w = [sqrt_pow(4 * N, -k) for k in range(N + 1)]
    elif basis == Basis.MU:
        w = [
            (math.factorial(k) * omega(k) * PiScalar.pi_power(-2 * k)).reciprocal()
            for k in range(N + 1)
        ]
    elif basis in (Basis.SIGMA, Basis.NU):
        w = [sqrt_pow(4 * N, -(N - k)) for k in range(N + 1)]
    else:
        w = [ONE] * (N + 1)
    return (
        tuple(_monomial(x) for x in w),
        tuple(_monomial(x.reciprocal()) for x in w),
    )


def _denominator_lcms(matrix: FrameMatrix) -> tuple[int, ...]:
    """One common denominator per column."""
    return tuple(math.lcm(*(q.denominator for _, q in col)) for col in matrix)


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
    tau_in_nu: list[FrameColumn] = [()] * (N + 1)
    lcms = [1] * (N + 1)
    for k, col in enumerate(nu_in_tau):
        entries = [(j, -2 * q.numerator, q.denominator) for j, q in col if j != N - k]
        sums, L = _accumulate(tau_in_nu, lcms, entries)
        sums[k] += 2 * L
        tau_in_nu[N - k] = tuple((i, Fraction(n, L)) for i, n in enumerate(sums) if n)
        lcms[N - k] = math.lcm(*(q.denominator for _, q in tau_in_nu[N - k]))
    return tuple(tau_in_nu)


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


def _accumulate(
    matrix: Sequence[FrameColumn], lcms: Sequence[int], entries: list[tuple[int, int, int]]
) -> tuple[list[int], int]:
    """matrix times the column sum(num/den e_f for f, num, den in entries),
    as integer numerators over one common denominator L: each product is an
    integer, and the caller reduces each nonzero n/L once."""
    L = math.lcm(*(den * lcms[f] for f, _, den in entries))
    sums = [0] * len(matrix)
    for f, num, den in entries:
        D = lcms[f]
        t = num * (L // (den * D))
        for g, c in matrix[f]:
            sums[g] += t * c.numerator * (D // c.denominator)
    return sums, L


def _compose(later: FrameMatrix, first: FrameMatrix) -> FrameMatrix:
    lcms = _denominator_lcms(later)
    cols = []
    for col in first:
        sums, L = _accumulate(later, lcms, [(j, a.numerator, a.denominator) for j, a in col])
        cols.append(tuple((i, Fraction(n, L)) for i, n in enumerate(sums) if n))
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


@lru_cache(maxsize=None)
def _column_lcms(N: int, src: Basis, dst: Basis) -> tuple[int, ...]:
    return _denominator_lcms(conversion_matrix(N, src, dst))


def _times(x: Monomial, m: int, r: int) -> Monomial:
    """The monomial x times pi^(m/2) sqrt(r), as (m, r, num, den)."""
    mx, rx, num, den = x
    s, r = (r, 1) if r == rx else _square_split(r * rx)
    return m + mx, r, num * s, den


def _apply(
    N: int, src: Basis, dst: Basis, vectors: Iterable[Sequence[ScalarLike]]
) -> list[tuple[PiScalar, ...]]:
    """dst coordinates of each src coefficient vector in the batch.

    Each nonzero coefficient's (pi power, radicand) components are
    multiplied by the integer monomial w_src(k).  Per vector and component,
    the frame product accumulates integer numerators over one common
    denominator; each nonzero output is one Fraction, divided by w_dst(i)."""
    if N < 1:
        raise ValueError("dimension must be positive")
    if N > EXACT_N_CAP:
        raise ValueError(
            f"exact basis conversion capped at N = {EXACT_N_CAP}; "
            "use the float evaluation paths for larger dimensions"
        )
    matrix = conversion_matrix(N, src, dst)
    lcms = _column_lcms(N, src, dst)
    w_in, w_out = _weights(N, src)[0], _weights(N, dst)[1]
    out = []
    for coeffs in vectors:
        # (pi power, radicand) -> [(frame column, numerator, denominator)]
        parts: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for k, x in enumerate(coeffs):
            if x:
                f = _frame_index(N, src, k)
                for (m, r), q in PiScalar._exact(x)._terms.items():
                    m, r, num, den = _times(w_in[k], m, r)
                    parts.setdefault((m, r), []).append(
                        (f, num * q.numerator, den * q.denominator)
                    )
        terms: dict[int, dict[tuple[int, int], Fraction]] = {}
        for (m, r), entries in parts.items():
            sums, L = _accumulate(matrix, lcms, entries)
            for g, n in enumerate(sums):
                if n:
                    i = _frame_index(N, dst, g)
                    mo, ro, num, den = _times(w_out[i], m, r)
                    terms.setdefault(i, {})[mo, ro] = Fraction(n * num, L * den)
        row = [ZERO] * (N + 1)
        for i, t in terms.items():
            row[i] = PiScalar(t)
        out.append(tuple(row))
    return out


def change_basis(v: ValuationVector, target: Basis) -> ValuationVector:
    """Exact coordinates of v in the target basis."""
    if v.basis == target:
        return v
    return ValuationVector(v.N, target, _apply(v.N, v.basis, target, (v.coeffs,))[0])


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
