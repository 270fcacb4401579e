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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .bases import Basis, _apply, _check_exact_cap, _dense, nu_in_sigma_column
from .evaluate import sigma_evaluate
from .model_sets import GeodesicBall, ModelSet, SubsphereTube, tube_volume_fraction
from .scalars import PiScalar, _integer, omega
from .series import sqrt_pow

HALF = PiScalar.from_rational(Fraction(1, 2))


# row i of a sparse tensor: column j -> the nonzero entry at (i, j)
SparseRows = dict[int, dict[int, PiScalar]]


@dataclass(frozen=True, init=False)
class KinematicTensor:
    """Element of V (x) V as an exact coefficient matrix, stored sparse:
    entries[i][j] is the nonzero coefficient of (left basis element i)
    tensor (right basis element j), and rows without one are left out.
    `rows` is the dense view, with `bases.ZERO` in every empty cell; both
    are read-only.

    The constructor takes dense rows and stores none of their zeros."""

    N: int
    basis_left: Basis
    basis_right: Basis
    entries: SparseRows = field(hash=False)

    def __init__(self, N: int, basis_left: Basis, basis_right: Basis, rows):
        N = _integer(N, "dimension must be positive", 1)
        n = N + 1
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("tensor must be (N+1) x (N+1)")
        sparse = ({j: x for j, x in enumerate(row) if x} for row in rows)
        self.__dict__.update(
            N=N,
            basis_left=basis_left,
            basis_right=basis_right,
            entries={i: row for i, row in enumerate(sparse) if row},
        )

    @classmethod
    def _sparse(
        cls, N: int, basis_left: Basis, basis_right: Basis, entries: SparseRows
    ) -> "KinematicTensor":
        """The tensor with these entries, which hold no zero and no empty row."""
        tensor = cls.__new__(cls)
        tensor.__dict__.update(
            N=N, basis_left=basis_left, basis_right=basis_right, entries=entries
        )
        return tensor

    @cached_property
    def rows(self) -> tuple[tuple[PiScalar, ...], ...]:
        empty: dict[int, PiScalar] = {}
        return tuple(
            _dense(self.N, self.entries.get(i, empty)) for i in range(self.N + 1)
        )

    def is_symmetric(self) -> bool:
        return all(
            j in self.entries and self.entries[j].get(i) == x
            for i, row in self.entries.items()
            for j, x in row.items()
        )

    def convert_left(self, target: Basis) -> "KinematicTensor":
        if target == self.basis_left:
            return self
        columns = _transpose(self.entries)
        columns = _convert_rows(self.N, self.basis_left, target, columns)
        return self._sparse(self.N, target, self.basis_right, _transpose(columns))

    def convert_right(self, target: Basis) -> "KinematicTensor":
        if target == self.basis_right:
            return self
        rows = _convert_rows(self.N, self.basis_right, target, self.entries)
        return self._sparse(self.N, self.basis_left, target, rows)

    def __add__(self, other: "KinematicTensor") -> "KinematicTensor":
        if (self.N, self.basis_left, self.basis_right) != (
            other.N,
            other.basis_left,
            other.basis_right,
        ):
            raise ValueError("mismatched tensors")
        entries = {i: dict(row) for i, row in self.entries.items()}
        for i, row in other.entries.items():
            total = entries.setdefault(i, {})
            for j, x in row.items():
                x = total.pop(j) + x if j in total else x
                if x:
                    total[j] = x
            if not total:
                del entries[i]
        return self._sparse(self.N, self.basis_left, self.basis_right, entries)

    def scale(self, c) -> "KinematicTensor":
        c = PiScalar._exact(c)
        entries = (
            {i: {j: c * x for j, x in row.items()} for i, row in self.entries.items()}
            if c
            else {}
        )
        return self._sparse(self.N, self.basis_left, self.basis_right, entries)


def _transpose(entries: SparseRows) -> SparseRows:
    out: SparseRows = {}
    for i, row in entries.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def _convert_rows(N: int, src: Basis, dst: Basis, entries: SparseRows) -> SparseRows:
    """Every row of entries, as a vector in src, converted to dst in one batch."""
    images = _apply(N, src, dst, [row.items() for row in entries.values()])
    return dict(zip(entries, images))


def _diagonal_sum_tensor(N: int, total: int, coeff: PiScalar, basis: Basis):
    lo, hi = max(0, total - N), min(N, total)
    entries = {i: {total - i: coeff} for i in range(lo, hi + 1)}
    return KinematicTensor._sparse(N, basis, basis, entries)


def p_sigma(k: int, N: int) -> KinematicTensor:
    """Kinematic image of sigma_k: half the diagonal sum at degree k."""
    N = _check_exact_cap(N)
    k = _integer(k, "index out of range", 0, N)
    return _diagonal_sum_tensor(N, k, HALF, Basis.SIGMA)


def p_tau(k: int, N: int) -> KinematicTensor:
    """Kinematic image of tau_k: the diagonal sum at N+k with the explicit
    normalization 2^(-N-1) N^(-N/2)."""
    N = _check_exact_cap(N)
    k = _integer(k, "index out of range", 0, N)
    coeff = Fraction(1, 2 ** (N + 1)) * sqrt_pow(N, -N)
    return _diagonal_sum_tensor(N, N + k, coeff, Basis.TAU)


def p_chi(N: int) -> KinematicTensor:
    """Kinematic image of the Euler characteristic, left leg in generator
    powers (U), right leg in SIGMA: rows[k][i] = 1/2 [u^k] (u/sqrt(1+u^2))^i,
    read from the nu column `bases.nu_in_sigma_column(k)`, which is the
    source.  `convert_left(Basis.SIGMA)` gives the telescoped SIGMA (x) SIGMA
    form, which `nu_defining_identity_holds` checks.
    """
    N = _check_exact_cap(N)
    entries = {
        k: {i: PiScalar.from_rational(q) for i, q in nu_in_sigma_column(k)}
        for k in range(N + 1)
    }
    return KinematicTensor._sparse(N, Basis.U, Basis.SIGMA, entries)


def nu_defining_identity_holds(N: int) -> bool:
    """Exact check that sum_k u^k (x) nu_k, re-expanded over SIGMA (x) SIGMA
    via the binomial expansion of u^k, reproduces the independent telescoped
    form of the kinematic image of chi: (u/sqrt(1+u^2))^i =
    sum_j sigma_(N-i-2j), so the entry at (s, i) is 1/2 exactly when
    s + i <= N with s + i = N (mod 2)."""
    converted = p_chi(N).convert_left(Basis.SIGMA)
    telescoped = {
        s: {i: HALF for i in range((N - s) % 2, N - s + 1, 2)} for s in range(N + 1)
    }
    return converted == KinematicTensor._sparse(N, Basis.SIGMA, Basis.SIGMA, telescoped)


def p_u_power(m: int, N: int) -> KinematicTensor:
    """Kinematic image of u^m: shift the chi expansion by multiplicativity,
    so the left degrees all sit at m + k."""
    N = _check_exact_cap(N)
    m = _integer(m, "index out of range", 0, N)
    chi = p_chi(N).entries
    entries = {m + k: chi[k] for k in range(N + 1 - m)}
    return KinematicTensor._sparse(N, Basis.U, Basis.SIGMA, entries)


def gkf_coefficient(k: int) -> PiScalar:
    """The limit-theorem coefficient (pi/2)^(k/2) / (k! omega_k), exact."""
    k = _integer(k, "index must be nonnegative")
    return (
        PiScalar.pi_power(k)
        * sqrt_pow(2, -k)
        * (math.factorial(k) * omega(k)).reciprocal()
    )


# -- the tube identity -------------------------------------------------------


def nu_values_on_set(model_set: ModelSet, k_max: int) -> list[float]:
    """nu_0 ... nu_k_max of a sphere-side set through its sigma values, each
    evaluated once."""
    k_max = _integer(k_max, "k_max must be nonnegative")
    sigma_vals = [sigma_evaluate(i, model_set) for i in range(k_max + 1)]
    out = []
    for k in range(k_max + 1):
        total = 0.0
        for i, q in nu_in_sigma_column(k):
            if sigma_vals[i]:
                total += q.numerator / q.denominator * sigma_vals[i]
        out.append(total)
    return out


def tube_volume_identity(N: int, d: int, s: float, r: float) -> tuple[float, float]:
    """Both sides of the tube-volume identity, as fractions of the total
    sphere measure.

    Left: the volume fraction of the grown tube of radius s + r, the
    incomplete beta form of its meridian integral.
    Right: sum_k u^k(ball of radius r) nu_k(tube of radius s) in the
    telescoped SIGMA (x) SIGMA form of p(chi) (`p_chi(N).convert_left(
    Basis.SIGMA)`, see `nu_defining_identity_holds`),
    1/2 sum_a sigma_a(ball) P_(N-a)(tube) with P_j = sigma_j + P_(j-2).
    The identity needs s + r below the focal distance.
    """
    if not 0 <= s + r < 0.5 * math.pi * math.sqrt(N):
        raise ValueError("tube radius out of range")
    lhs = tube_volume_fraction(N, d, s + r)
    tube, ball = SubsphereTube(N, d, s), GeodesicBall(N, r)
    P = [0.0, 0.0]  # P_(-2), P_(-1); P_j then sits at index j + 2
    for j in range(N + 1):
        P.append(sigma_evaluate(j, tube) + P[-2])
    rhs = 0.5 * sum(sigma_evaluate(a, ball) * P[N - a + 2] for a in range(N + 1))
    return lhs, rhs
