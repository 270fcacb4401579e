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
t = phi (1 - c phi^2)^(-1/2) against T or NU.  Each bridge is held once
as Fraction columns and once in integer form: per column, the lcm D of
its denominators and the integer numerators over D.
A conversion takes a batch of sparse vectors, (index, coefficient) pairs
of the nonzero coefficients only (a vector is a batch of one, a tensor
converts its nonzero columns or rows at once).  It multiplies each
coefficient's (pi power, radicand) components by the integer weight
monomial w_src(k), puts each component over one common denominator and
accumulates integer numerators through the integer bridge, one multiply-add
per bridge entry, then builds one Fraction per nonzero output component,
divided by w_dst(i).  Only the nonzero outputs come back.
Conversions are exact, so every round trip is the identity on the nose.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .scalars import PiScalar, ScalarLike, _integer, _square_split, omega
from .series import binomial_x2_series

ZERO = PiScalar.zero()
ONE = PiScalar.one()

# Exact tensor/vector paths are capped.  Measured with the cap lifted on a
# 2-core VM (Python 3.11.7), three runs each, at N = 64 / 96 / 128: a cold
# build of all 49 bridges takes 0.05-0.06 / 0.10-0.12 / 0.20-0.28 s, 100
# dense rational T vectors taken round trip through each of the six other
# bases (warm bridges) 0.7-0.9 / 1.1-1.5 / 1.9-2.7 s, and bridge entry
# denominators reach 307 / 489 / 689 bits.  Large-dimension work goes
# through the log-space float paths `evaluate.u_power_on_ball`,
# `evaluate.sigma_evaluate` and `kinematics.nu_values_on_set`.  The one
# guard, `_check_exact_cap`, serves vector conversions and exact tensors.
EXACT_N_CAP = 64


def _check_exact_cap(N) -> int:
    """N as an int, refused unless it is a positive integer within the cap."""
    N = _integer(N, "dimension must be positive", 1)
    if N > EXACT_N_CAP:
        raise ValueError(
            f"exact vectors and tensors are capped at N = {EXACT_N_CAP}; at "
            "larger N use the float paths u_power_on_ball, sigma_evaluate and "
            "nu_values_on_set"
        )
    return N


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
        self.__dict__.update(N=_integer(self.N, "dimension must be positive", 1))
        if len(self.coeffs) != self.N + 1:
            raise ValueError(
                f"expected {self.N + 1} coefficients, got {len(self.coeffs)}"
            )

    @classmethod
    def from_coeffs(cls, N: int, basis: Basis, coeffs) -> "ValuationVector":
        N = _integer(N, "dimension must be positive", 1)
        padded = [PiScalar._exact(c) for c in coeffs]
        padded.extend(ZERO for _ in range(N + 1 - len(padded)))
        return cls(N, basis, tuple(padded))

    def coeff(self, k: int) -> PiScalar:
        return self.coeffs[_integer(k, "index out of range", 0, self.N)]

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
    N = _integer(N, "dimension must be positive", 1)
    k = _integer(k, "index out of range", 0, N)
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


# a monomial q pi^(m/2) sqrt(r) as the integers (m, r, numerator, denominator)
Monomial = tuple[int, int, int, int]


def _monomial(x: PiScalar) -> Monomial:
    ((m, r, q),) = x.terms
    return m, r, q.numerator, q.denominator


def _inverse(x: Monomial) -> Monomial:
    """1/x of a positive monomial: pi^(-m/2) sqrt(r) / (q r)."""
    m, r, num, den = x
    g = math.gcd(den, num * r)
    return -m, r, den // g, num * r // g


def _root_power(n: int, j: int) -> Monomial:
    """n^(j/2) as a monomial (j may be negative)."""
    a, odd = divmod(abs(j), 2)
    s, r = _square_split(n) if odd else (1, 1)
    x = (0, r, n**a * s, 1)
    return x if j >= 0 else _inverse(x)


@lru_cache(maxsize=None)
def _weights(N: int, basis: Basis) -> tuple[tuple[Monomial, ...], tuple[Monomial, ...]]:
    """w(k) and 1/w(k): basis element k is w(k) times its frame element."""
    if basis == Basis.U:
        w = [_root_power(4 * N, -k) for k in range(N + 1)]
    elif basis == Basis.MU:
        w = [
            _inverse(_monomial(math.factorial(k) * omega(k) * PiScalar.pi_power(-2 * k)))
            for k in range(N + 1)
        ]
    elif basis in (Basis.SIGMA, Basis.NU):
        w = [_root_power(4 * N, k - N) for k in range(N + 1)]
    else:
        w = [(0, 1, 1, 1)] * (N + 1)
    return tuple(w), tuple(_inverse(x) for x in w)


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
            col = binomial_x2_series(N, m, e - (dst == Basis.TAU), -c, scale)
        elif dst == Basis.T:
            # phi = t (1 + c t^2)^(-1/2) and 1 - c phi^2 = (1 + c t^2)^(-1)
            col = binomial_x2_series(N, m, -Fraction(m, 2) - e, c, scale)
        else:
            # the substitution of T; NU element N-s is t^s (1 + c t^2)^(-N/2) / 2
            col = binomial_x2_series(N, m, Fraction(N - m, 2) - e, c, 2 * scale)
            col = tuple((N - s, q) for s, q in reversed(col))
        cols.append(col)
    return tuple(cols)


@lru_cache(maxsize=None, typed=True)
def conversion_matrix(N: int, src: Basis, dst: Basis) -> FrameMatrix:
    """The bridge between the frames of src and dst, in frame indices: the
    rational part of every bridge from src to dst."""
    N = _integer(N, "dimension must be positive", 1)
    return _frame_bridge(N, _FRAME[src], _FRAME[dst])


# column k of an integer bridge: (D, ((row, D * coeff), ...)), D the lcm of
# the column's denominators
IntegerColumn = tuple[int, tuple[tuple[int, int], ...]]


@lru_cache(maxsize=None)
def _integer_bridge(N: int, src: Basis, dst: Basis) -> tuple[IntegerColumn, ...]:
    """The bridge between frames src and dst with each column over one
    common denominator, the form that `_accumulate` multiplies through."""
    out = []
    for col in conversion_matrix(N, src, dst):
        D = math.lcm(*(q.denominator for _, q in col))
        out.append((D, tuple((g, q.numerator * (D // q.denominator)) for g, q in col)))
    return tuple(out)


@lru_cache(maxsize=None)
def nu_in_sigma_column(k: int) -> FrameColumn:
    """nu_k in sigma coordinates: half the u^k-coefficients of the
    contraction powers, nu_k = 1/2 sum_i [u^k](u/sqrt(1+u^2))^i sigma_i,
    as (i, binom(-i/2, (k-i)/2) / 2) in ascending i.  The column does not
    depend on the sphere dimension."""
    # binom(-i/2, j) = (-1)^j binom(k/2 - 1, j) at i = k - 2j: the column is
    # (1 - x^2)^((k-2)/2) / 2 read at k - s, and it stops short of sigma_0
    # unless k = 0
    series = binomial_x2_series(k, 0, Fraction(k - 2, 2), -1, Fraction(1, 2))
    return tuple((k - s, q) for s, q in reversed(series))


def _accumulate(
    bridge: tuple[IntegerColumn, ...], entries: list[tuple[int, int, int]]
) -> tuple[list[tuple[int, int]], int]:
    """bridge times the column sum(num/den e_f for f, num, den in entries),
    as (output index, integer numerator) pairs of the nonzero outputs in
    ascending index, over one common denominator L: each product is an
    integer, and the caller reduces each n/L once.  The sums are keyed by
    output index, so the cost follows the columns' support, not N."""
    L = math.lcm(*(den * bridge[f][0] for f, _, den in entries))
    sums: dict[int, int] = {}
    for f, num, den in entries:
        D, col = bridge[f]
        t = num * (L // (den * D))
        for g, c in col:
            sums[g] = sums.get(g, 0) + t * c
    return sorted((g, n) for g, n in sums.items() if n), L


def _times(x: Monomial, m: int, r: int) -> Monomial:
    """The monomial x times pi^(m/2) sqrt(r), as (m, r, num, den)."""
    mx, rx, num, den = x
    s, r = (r, 1) if r == rx else _square_split(r * rx)
    return m + mx, r, num * s, den


def _apply(
    N: int,
    src: Basis,
    dst: Basis,
    vectors: Iterable[Iterable[tuple[int, ScalarLike]]],
) -> list[dict[int, PiScalar]]:
    """dst coordinates of each sparse src vector in the batch: a vector is
    (index, coefficient) pairs with nonzero coefficients, and its image maps
    each index to a nonzero coefficient.

    Each coefficient's (pi power, radicand) components are multiplied by the
    integer monomial w_src(k).  Per vector and component, the integer bridge
    accumulates numerators over one common denominator; each nonzero output
    is one Fraction, divided by w_dst(i)."""
    N = _check_exact_cap(N)
    bridge = _integer_bridge(N, _FRAME[src], _FRAME[dst])
    w_in, w_out = _weights(N, src)[0], _weights(N, dst)[1]
    # SIGMA element k sits at TAU index N-k; every other basis keeps k
    flip_in, flip_out = src == Basis.SIGMA, dst == Basis.SIGMA
    out = []
    for vector in vectors:
        # (pi power, radicand) -> [(frame column, numerator, denominator)]
        parts: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for k, x in vector:
            f = N - k if flip_in else k
            for (m, r), q in PiScalar._exact(x)._terms.items():
                m, r, num, den = _times(w_in[k], m, r)
                parts.setdefault((m, r), []).append(
                    (f, num * q.numerator, den * q.denominator)
                )
        terms: dict[int, dict[tuple[int, int], Fraction]] = {}
        for (m, r), entries in parts.items():
            sums, L = _accumulate(bridge, entries)
            for g, n in sums:
                i = N - g if flip_out else g
                mo, ro, num, den = _times(w_out[i], m, r)
                terms.setdefault(i, {})[mo, ro] = Fraction(n * num, L * den)
        out.append({i: PiScalar(t) for i, t in terms.items()})
    return out


def _dense(N: int, entries: dict[int, PiScalar]) -> tuple[PiScalar, ...]:
    """The N+1 coefficients with the given nonzero ones, ZERO elsewhere."""
    coeffs = [ZERO] * (N + 1)
    for i, x in entries.items():
        coeffs[i] = x
    return tuple(coeffs)


def change_basis(v: ValuationVector, target: Basis) -> ValuationVector:
    """Exact coordinates of v in the target basis."""
    if v.basis == target:
        return v
    vector = [(k, x) for k, x in enumerate(v.coeffs) if x]
    (image,) = _apply(v.N, v.basis, target, (vector,))
    return ValuationVector(v.N, target, _dense(v.N, image))


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
