"""The seven coordinate systems on the space of invariant valuations.

A valuation on the sphere of dimension N (radius sqrt(N)) is a vector of
N+1 exact coefficients in one of the bases

    PHI, T, U    -- powers of the three algebra generators,
    MU           -- classical intrinsic volumes,
    TAU, SIGMA   -- curvature-integral elements and their rescaling,
    NU           -- the dual expansion of the kinematic image of chi.

Element k of a basis is a monomial weight w(k) times one element of a
rational frame:

    basis          frame (index)   w(k)
    PHI, T, TAU    own (k)         1
    U              T (k)           (4N)^(-k/2)
    MU             T (k)           1 / (k! omega_k pi^(-k))
    SIGMA          TAU (N-k)       (4N)^(-(N-k)/2)
    NU             NU (k)          (4N)^(-(N-k)/2)

Every frame element is a binomial in the one generator phi; with
c = 1/(4N),

    PHI_k = phi^k                  T_k  = phi^k (1 - c phi^2)^(-k/2)
    TAU_k = phi^k (1 - c phi^2)    NU_k = 1/2 phi^(N-k) (1 - c phi^2)^(k/2)

so column k of the bridge between two frames is one truncated binomial
series with rational coefficients, read in phi against PHI or TAU and in
t = phi (1 - c phi^2)^(-1/2) against T or NU.  Each bridge is held once,
beside one integer per column: the lcm of its denominators.
A conversion takes a batch of vectors (a vector is a batch of one, a
tensor converts all its columns or rows at once).  It multiplies each
coefficient's (pi power, radicand) components by the integer weight
monomial w_src(k), puts each component over one common denominator and
accumulates integer numerators through the bridge, then builds one
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
# at N = 64 / 96 / 128: a cold build of all 49 bridges takes 0.06-0.10 /
# 0.12-0.19 / 0.26-0.31 s, a round trip of 100 dense rational vectors
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


# -- frame bridges (column-sparse: cols[k] = ((row, coeff), ...)) -----------

FrameColumn = tuple[tuple[int, Fraction], ...]
FrameMatrix = tuple[FrameColumn, ...]

_FRAME = {Basis.PHI: Basis.PHI, Basis.T: Basis.T, Basis.U: Basis.T, Basis.MU: Basis.T,
          Basis.TAU: Basis.TAU, Basis.SIGMA: Basis.TAU, Basis.NU: Basis.NU}


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


@lru_cache(maxsize=None)
def _frame_bridge(N: int, src: Basis, dst: Basis) -> FrameMatrix:
    """Column k is src frame element k in dst frame coordinates: one
    binomial series in phi (against PHI, TAU) or in t (against T, NU)."""
    c = Fraction(1, 4 * N)
    cols = []
    for k in range(N + 1):
        # src element k is scale phi^m (1 - c phi^2)^e
        if src == Basis.NU:
            scale, m, e = Fraction(1, 2), N - k, Fraction(k, 2)
        else:
            scale, m, e = 1, k, {Basis.PHI: 0, Basis.T: Fraction(-k, 2), Basis.TAU: 1}[src]
        if dst in (Basis.PHI, Basis.TAU):
            # sum_i b_i phi^i (1 - c phi^2)^a, a = 1 for TAU
            col = binomial_x2_series(N, m, e - (dst == Basis.TAU), -c)
        else:
            # phi = t (1 + c t^2)^(-1/2) and 1 - c phi^2 = (1 + c t^2)^(-1);
            # NU element N-s is t^s (1 + c t^2)^(-N/2) / 2
            alpha = Fraction(N, 2) if dst == Basis.NU else 0
            col = binomial_x2_series(N, m, alpha - Fraction(m, 2) - e, c)
        if dst == Basis.NU:
            scale *= 2
            col = tuple((N - s, q) for s, q in reversed(col))
        cols.append(col if scale == 1 else tuple((i, scale * q) for i, q in col))
    return tuple(cols)


@lru_cache(maxsize=None)
def conversion_matrix(N: int, src: Basis, dst: Basis) -> FrameMatrix:
    """The bridge between the frames of src and dst, in frame indices: the
    rational part of every bridge from src to dst."""
    return _frame_bridge(N, _FRAME[src], _FRAME[dst])


@lru_cache(maxsize=None)
def _column_lcms(N: int, src: Basis, dst: Basis) -> tuple[int, ...]:
    """One common denominator per column of a frame bridge."""
    bridge = _frame_bridge(N, src, dst)
    return tuple(math.lcm(*(q.denominator for _, q in col)) for col in bridge)


@lru_cache(maxsize=None)
def nu_in_sigma_column(k: int) -> FrameColumn:
    """nu_k in sigma coordinates: half the u^k-coefficients of the
    contraction powers, nu_k = 1/2 sum_i [u^k](u/sqrt(1+u^2))^i sigma_i,
    as (i, binom(-i/2, (k-i)/2) / 2) in ascending i.  The column does not
    depend on the sphere dimension."""
    # binom(-i/2, j) = (-1)^j binom(k/2 - 1, j) at i = k - 2j: the column is
    # (1 - x^2)^((k-2)/2) read at k - s, and it stops short of sigma_0
    # unless k = 0; halved by hand, since q / 2 takes about twice as long
    series = binomial_x2_series(k, 0, Fraction(k - 2, 2), -1)
    return tuple(
        (k - s, Fraction(q.numerator, 2 * q.denominator)) for s, q in reversed(series)
    )


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
    the frame bridge accumulates integer numerators over one common
    denominator; each nonzero output is one Fraction, divided by w_dst(i)."""
    if N < 1:
        raise ValueError("dimension must be positive")
    if N > EXACT_N_CAP:
        raise ValueError(
            f"exact basis conversion capped at N = {EXACT_N_CAP}; "
            "use the float evaluation paths for larger dimensions"
        )
    matrix = conversion_matrix(N, src, dst)
    lcms = _column_lcms(N, _FRAME[src], _FRAME[dst])
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
