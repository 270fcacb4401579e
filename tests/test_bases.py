"""Basis conversions: exact round trips, pinned coefficients, and the
independent curvature-basis route as an oracle for the binomial expansion."""

import math
import random
from fractions import Fraction

import pytest

from gkf.bases import (
    Basis,
    ValuationVector,
    basis_element,
    change_basis,
    chi_vector,
    conversion_matrix,
    lk_multiply,
    nu_in_sigma_column,
)
from gkf.scalars import PiScalar, generalized_binomial, omega
from gkf.series import binomial_x2_series, sqrt_pow, u_power_in_sigma

from oracles import (
    binomial_series,
    phi_in_t,
    power_columns,
    route_product,
    sigma_in_u_columns,
    substitute,
    t_in_phi,
    truncated_product,
    u_in_phi,
)

ALL_BASES = list(Basis)
FRAME = {Basis.U: Basis.T, Basis.MU: Basis.T, Basis.SIGMA: Basis.TAU}


def frame_weight(N: int, basis: Basis, k: int) -> PiScalar:
    """w(k) of the bases module table: element k of the basis is w(k)
    times its frame element."""
    if basis == Basis.U:
        return sqrt_pow(4 * N, -k)
    if basis == Basis.MU:
        return PiScalar.pi_power(2 * k) * (math.factorial(k) * omega(k)).reciprocal()
    if basis in (Basis.SIGMA, Basis.NU):
        return sqrt_pow(4 * N, -(N - k))
    return PiScalar.one()


def frame_index(N: int, basis: Basis, k: int) -> int:
    return N - k if basis == Basis.SIGMA else k


def frame_product(N: int, src: Basis, dst: Basis) -> tuple:
    """The oracle route product between the frames of src and dst."""
    return route_product(N, FRAME.get(src, src), FRAME.get(dst, dst))


def bridge(N: int, src: Basis, dst: Basis) -> list:
    """The public bridge: column k is basis element k of src in dst
    coordinates, as the (row, value) pairs of its nonzero entries."""
    return [
        tuple((i, c) for i, c in enumerate(change_basis(basis_element(N, src, k), dst).coeffs) if c)
        for k in range(N + 1)
    ]


def entry_sets(matrix) -> list:
    """Each column as a row -> value dict, so entry order does not count."""
    return [dict(col) for col in matrix]


def random_vector(N: int, basis: Basis, rng: random.Random) -> ValuationVector:
    coeffs = [PiScalar.zero()] * (N + 1)
    for _ in range(3):
        k = rng.randint(0, N)
        coeffs[k] = coeffs[k] + PiScalar.from_rational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        )
    return ValuationVector(N, basis, tuple(coeffs))


class TestSeriesSubstitution:
    @pytest.mark.parametrize("N", [3, 8, 17])
    def test_generator_expansions_are_mutual_inverses(self, N):
        # t(phi(t)) == t as truncated series
        composed = substitute(t_in_phi(N), phi_in_t(N))
        assert composed == (0, 1) + (0,) * (N - 1)

    def test_sigma_top_is_alternating_series(self):
        N = 9
        # sigma_N = (1 + u^2)^(-1) truncated
        series = change_basis(basis_element(N, Basis.SIGMA, N), Basis.U)
        for k in range(N + 1):
            if k % 2:
                assert series.coeff(k).is_zero()
            else:
                assert series.coeff(k) == (-1) ** (k // 2)

    def test_compose_rule_u_from_sigma_constant(self):
        N = 10
        vec = change_basis(basis_element(N, Basis.U, 0), Basis.SIGMA)
        for i in range(N + 1):
            expected = 1 if (N - i) % 2 == 0 else 0
            assert vec.coeff(i) == expected

    def test_compose_rule_sigma_from_u_roundtrip(self):
        N = 7
        # sigma_3 = u^4 (1 + u^2)^(-3) in u, then re-expanded over sigma
        vec = basis_element(N, Basis.SIGMA, 3)
        series = change_basis(vec, Basis.U)
        assert series.coeffs == (0,) * 4 + (1, 0, -3, 0)
        assert change_basis(series, Basis.SIGMA).coeffs == vec.coeffs

    def test_compose_rule_mu_constant_term(self):
        # phi^0 = t^0 = u^0 is chi, the bottom intrinsic volume
        N = 5
        for basis in (Basis.PHI, Basis.T, Basis.U):
            vec = change_basis(basis_element(N, basis, 0), Basis.MU)
            assert vec.coeff(0) == 1
            assert all(vec.coeff(k).is_zero() for k in range(1, N + 1))

    def test_compose_phi_u_inverse_pair(self):
        N = 6
        u = basis_element(N, Basis.U, 1)
        as_phi = change_basis(u, Basis.PHI)
        assert as_phi.coeffs == u_in_phi(N)
        assert change_basis(as_phi, Basis.U).coeffs == u.coeffs


class TestChangeBasis:
    @pytest.mark.parametrize("N", [5, 10, 20])
    def test_round_trips_all_pairs(self, N):
        rng = random.Random(1000 + N)
        for src in ALL_BASES:
            for dst in ALL_BASES:
                if src == dst:
                    continue
                for _ in range(3):
                    v = random_vector(N, src, rng)
                    there = change_basis(v, dst)
                    back = change_basis(there, src)
                    assert back.coeffs == v.coeffs, (src, dst)

    def test_chi_in_mu_is_bottom_element(self):
        v = change_basis(chi_vector(12), Basis.MU)
        assert v.coeff(0) == 1
        assert all(v.coeff(k).is_zero() for k in range(1, 13))

    @pytest.mark.parametrize("N,i", [(6, 0), (6, 3), (6, 6), (9, 4)])
    def test_sigma_in_tau_rescaling(self, N, i):
        v = change_basis(basis_element(N, Basis.SIGMA, i), Basis.TAU)
        for j in range(N + 1):
            expected = sqrt_pow(4 * N, -(N - i)) if j == N - i else PiScalar.zero()
            assert v.coeff(j) == expected

    @pytest.mark.parametrize("N", [5, 8])
    def test_u_in_t_scale(self, N):
        v = change_basis(basis_element(N, Basis.U, 1), Basis.T)
        assert v.coeff(1) == sqrt_pow(4 * N, -1)
        assert sum(1 for c in v.coeffs if c) == 1

    @pytest.mark.parametrize("N", [4, 9])
    def test_intrinsic_volume_scale_relation(self, N):
        # mu_k expressed over t has the single coefficient pi^k / (k! omega_k)
        for k in range(N + 1):
            v = change_basis(basis_element(N, Basis.MU, k), Basis.T)
            expected = PiScalar.pi_power(2 * k) * (
                math.factorial(k) * omega(k)
            ).reciprocal()
            assert v.coeff(k) == expected
            assert sum(1 for c in v.coeffs if c) == 1

    def test_exponential_generator_identity(self):
        # sum_k (pi t)^k / k! carried to the MU basis has mu_k-coefficient
        # omega_k, i.e. the exponential of the generator enumerates the
        # unit-ball volumes.
        N = 10
        coeffs = [
            PiScalar.pi_power(2 * k) * Fraction(1, math.factorial(k))
            for k in range(N + 1)
        ]
        v = ValuationVector(N, Basis.T, tuple(coeffs))
        in_mu = change_basis(v, Basis.MU)
        for k in range(N + 1):
            assert in_mu.coeff(k) == omega(k)

    @pytest.mark.parametrize("N", [6, 11])
    def test_u_sigma_route_against_curvature_route(self, N):
        """eq-independent oracle: route U -> T -> PHI -> TAU -> SIGMA built
        from the defining tau relation tau_i = phi^i (1 - phi^2/4N) and
        compare with the direct binomial expansion."""
        # phi^i in TAU coordinates: phi^i = sum_l (4N)^(-l) tau_(i+2l)
        phi_to_tau = [
            [
                (i + 2 * l, PiScalar.from_rational(Fraction(1, (4 * N) ** l)))
                for l in range((N - i) // 2 + 1)
            ]
            for i in range(N + 1)
        ]
        # tau reversal into sigma
        for k in range(N + 1):
            direct = change_basis(basis_element(N, Basis.U, k), Basis.SIGMA)
            # u^k as phi-series
            u_pow = (1,) + (0,) * N
            for _ in range(k):
                u_pow = truncated_product(u_pow, u_in_phi(N))
            via: dict[int, PiScalar] = {}
            for i, c in enumerate(u_pow):
                if not c:
                    continue
                for j, q in phi_to_tau[i]:
                    # tau_j = (4N)^(j/2) sigma_(N-j)
                    idx = N - j
                    add = c * q * sqrt_pow(4 * N, j)
                    via[idx] = via.get(idx, PiScalar.zero()) + add
            for i in range(N + 1):
                assert direct.coeff(i) == via.get(i, PiScalar.zero()), (k, i)

    def test_inverse_matrices_compose_to_identity(self):
        N = 13
        for a, b in [
            (Basis.U, Basis.SIGMA),
            (Basis.T, Basis.PHI),
            (Basis.SIGMA, Basis.NU),
            (Basis.MU, Basis.T),
        ]:
            forward = bridge(N, a, b)
            backward = bridge(N, b, a)
            for k in range(N + 1):
                acc: dict[int, PiScalar] = {}
                for j, c in forward[k]:
                    for i, d in backward[j]:
                        acc[i] = acc.get(i, PiScalar.zero()) + d * c
                for i, total in acc.items():
                    expected = PiScalar.one() if i == k else PiScalar.zero()
                    assert total == expected

    @pytest.mark.parametrize("N", [1, 2, 5, 12, 21, 40, 64])
    def test_bridge_is_the_route_product(self, N):
        # each bridge reads its columns off one binomial series; it must
        # equal the weights applied to the product of the frame edges along
        # the path, the edge into NU inverted by forward substitution
        for src in Basis:
            for dst in Basis:
                product = frame_product(N, src, dst)
                expected = []
                for k in range(N + 1):
                    col = {}
                    for f, q in product[frame_index(N, src, k)]:
                        i = frame_index(N, dst, f)
                        col[i] = frame_weight(N, src, k) / frame_weight(N, dst, i) * q
                    expected.append(col)
                assert entry_sets(bridge(N, src, dst)) == expected, (src, dst)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be positive"):
            ValuationVector.from_coeffs(0, Basis.T, [1])
        with pytest.raises(ValueError, match="dimension must be positive"):
            chi_vector(0)

    def test_cap_enforced(self):
        big = chi_vector(70)
        with pytest.raises(ValueError):
            change_basis(big, Basis.SIGMA)

    @pytest.mark.parametrize("N", [5, 12, 21, 40])
    def test_bridges_are_graded(self, N):
        # every bridge entry is one rational times pi^(m/2) sqrt(r)
        for src in Basis:
            for dst in Basis:
                for col in bridge(N, src, dst):
                    assert all(len(c.terms) == 1 for _, c in col), (src, dst)

    @pytest.mark.parametrize("N", [5, 12, 21, 40, 64])
    def test_every_bridge_factors(self, N):
        # every entry is w_src(k) / w_dst(i) times a rational, and the
        # rational parts hold only Fractions, so a bridge that breaks the
        # grading fails here
        for src in Basis:
            for dst in Basis:
                for k, col in enumerate(bridge(N, src, dst)):
                    for i, c in col:
                        ratio = frame_weight(N, src, k) / frame_weight(N, dst, i)
                        assert (c / ratio).is_rational(), (src, dst, k, i)
                matrix = conversion_matrix(N, src, dst)
                assert all(type(q) is Fraction for col in matrix for _, q in col), (src, dst)

    @pytest.mark.parametrize("N", [5, 12, 21, 40, 64])
    def test_conversion_matrices_are_the_cached_frame_products(self, N):
        # the public matrix is the rational frame bridge itself, in frame
        # indices, built once per pair of frames; the weights never enter it
        for src in Basis:
            for dst in Basis:
                matrix = conversion_matrix(N, src, dst)
                assert entry_sets(matrix) == entry_sets(frame_product(N, src, dst)), (src, dst)
                assert all(type(q) is Fraction for col in matrix for _, q in col), (src, dst)
        shared = conversion_matrix(N, Basis.T, Basis.TAU)
        assert conversion_matrix(N, Basis.U, Basis.SIGMA) is shared

    def test_inexact_coefficients_rejected(self):
        v = chi_vector(3)
        with pytest.raises(ValueError, match="int, Fraction or PiScalar"):
            ValuationVector.from_coeffs(3, Basis.T, [0.5, 1])
        with pytest.raises(ValueError, match="int, Fraction or PiScalar"):
            v.scale(0.5)
        assert v.scale(Fraction(1, 2)).coeff(0) == Fraction(1, 2)
        assert ValuationVector.from_coeffs(3, Basis.T, [True]).coeff(0) == 1
        # the arithmetic operators still defer to the other operand
        with pytest.raises(TypeError):
            PiScalar.one() * 0.5

    def test_inexact_entries_rejected_by_the_kernel(self):
        # a directly built vector skips from_coeffs; the conversion checks
        # each nonzero entry as it reads it
        zero = PiScalar.zero()
        v = ValuationVector(3, Basis.T, (0.5, zero, zero, zero))
        with pytest.raises(ValueError, match="int, Fraction or PiScalar"):
            change_basis(v, Basis.PHI)
        plain = ValuationVector(3, Basis.T, (1, Fraction(1, 2), 0, zero))
        exact = ValuationVector.from_coeffs(3, Basis.T, [1, Fraction(1, 2)])
        for dst in Basis:
            assert change_basis(plain, dst).coeffs == change_basis(exact, dst).coeffs, dst

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 12])
    def test_round_trips_with_irrational_components(self, N):
        # coefficients spread over several (pi power, radicand) components,
        # radicands that merge with the sqrt(4N) weights among them; each
        # conversion must also equal the bridge columns summed with
        # PiScalar arithmetic
        rng = random.Random(2000 + N)
        radicands = sorted({2, 3, 6, N, 4 * N, *(p for p in (2, 3, 5) if N % p == 0)})
        parts = [
            PiScalar.pi_power(m) * PiScalar.sqrt_int(r) for m in (-3, 0, 1, 2) for r in radicands
        ]
        for src in ALL_BASES:
            for dst in ALL_BASES:
                matrix = bridge(N, src, dst)
                for _ in range(2):
                    coeffs = [PiScalar.zero()] * (N + 1)
                    for _ in range(2 * N + 2):
                        k = rng.randint(0, N)
                        q = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                        coeffs[k] = coeffs[k] + q * rng.choice(parts)
                    v = ValuationVector(N, src, tuple(coeffs))
                    there = change_basis(v, dst)
                    assert change_basis(there, src).coeffs == v.coeffs, (src, dst)
                    expected = [PiScalar.zero()] * (N + 1)
                    for k, c in enumerate(coeffs):
                        for i, b in matrix[k]:
                            expected[i] = expected[i] + c * b
                    assert list(there.coeffs) == expected, (src, dst)


class TestNuColumns:
    def test_bottom_rows(self):
        # 2 nu_0 = sigma_0, 2 nu_1 = sigma_1, 2 nu_2 = sigma_2,
        # 2 nu_3 = sigma_3 - sigma_1/2, 2 nu_4 = sigma_4 - sigma_2
        assert nu_in_sigma_column(0) == ((0, Fraction(1, 2)),)
        assert nu_in_sigma_column(1) == ((1, Fraction(1, 2)),)
        assert nu_in_sigma_column(2) == ((2, Fraction(1, 2)),)
        assert dict(nu_in_sigma_column(3)) == {
            1: Fraction(-1, 4),
            3: Fraction(1, 2),
        }
        assert dict(nu_in_sigma_column(4)) == {
            2: Fraction(-1, 2),
            4: Fraction(1, 2),
        }


class TestBinomialRecurrences:
    """The running-product families against one generalized_binomial call
    per entry, the loop form they replace; equality is exact."""

    def test_nu_columns(self):
        for k in range(151):
            expected = []
            for i in range(k % 2, k + 1, 2):
                q = generalized_binomial(Fraction(-i, 2), (k - i) // 2) / 2
                if q:
                    expected.append((i, q))
            assert nu_in_sigma_column(k) == tuple(expected)
            # binom(0, j) = 0 cuts sigma_0 out of every even column but nu_0
            assert (0 in dict(expected)) == (k == 0)

    @pytest.mark.parametrize("N", [1, 2, 7, 40, 64])
    def test_u_powers_in_sigma(self, N):
        for k in range(N + 1):
            expected = tuple(
                (N - k - 2 * j, generalized_binomial(Fraction(k, 2) + j, j))
                for j in range((N - k) // 2 + 1)
            )
            assert u_power_in_sigma(k, N) == expected

    @pytest.mark.parametrize("N", [1, 2, 7, 40, 64])
    def test_binomial_x2_series(self, N):
        cases = [(1, Fraction(-1, 2), Fraction(s, 4 * N)) for s in (1, -1)]
        cases += [(k, Fraction(-k - 2, 2), Fraction(1)) for k in range(N + 1)]
        cases += [(i, Fraction(-i, 2), Fraction(1)) for i in range(N + 1)]
        cases += [(0, Fraction(2), Fraction(3))]
        for shift, exponent, inner in cases:
            dense = binomial_series(N, shift, exponent, inner)
            expected = tuple((i, q) for i, q in enumerate(dense) if q)
            assert binomial_x2_series(N, shift, exponent, inner) == expected

    @pytest.mark.parametrize("N", [1, 2, 7, 40, 64])
    def test_generator_edges_against_series_powers(self, N):
        # each bridge column against the power of one generator series
        # taken by repeated truncated products, and U -> SIGMA against
        # the u^k expansion over sigma
        for (a, b), columns in [
            ((Basis.T, Basis.PHI), power_columns(t_in_phi(N), N)),
            ((Basis.PHI, Basis.T), power_columns(phi_in_t(N), N)),
            ((Basis.SIGMA, Basis.U), sigma_in_u_columns(N)),
            ((Basis.U, Basis.SIGMA), [u_power_in_sigma(k, N) for k in range(N + 1)]),
        ]:
            matrix = bridge(N, a, b) if Basis.SIGMA in (a, b) else conversion_matrix(N, a, b)
            assert entry_sets(matrix) == entry_sets(columns), (a, b)


class TestMultiplication:
    def test_unit_element(self):
        N = 9
        rng = random.Random(3)
        v = random_vector(N, Basis.U, rng)
        out = lk_multiply(change_basis(chi_vector(N), Basis.U), v)
        assert out.basis == Basis.U
        assert out.coeffs == v.coeffs

    def test_power_addition_and_truncation(self):
        N = 6
        for a in range(N + 1):
            for b in range(N + 1):
                prod = lk_multiply(
                    basis_element(N, Basis.U, a), basis_element(N, Basis.U, b)
                )
                if a + b <= N:
                    assert prod.coeff(a + b) == 1
                    assert sum(1 for c in prod.coeffs if c) == 1
                else:
                    assert all(c.is_zero() for c in prod.coeffs)

    def test_rejects_other_bases(self):
        N = 4
        with pytest.raises(ValueError):
            lk_multiply(
                basis_element(N, Basis.SIGMA, 1), basis_element(N, Basis.SIGMA, 2)
            )

    def test_commutative_associative_random(self):
        N = 8
        rng = random.Random(99)
        for _ in range(10):
            a = random_vector(N, Basis.T, rng)
            b = random_vector(N, Basis.T, rng)
            c = random_vector(N, Basis.T, rng)
            ab = lk_multiply(a, b)
            ba = lk_multiply(b, a)
            assert ab.coeffs == ba.coeffs
            assert lk_multiply(ab, c).coeffs == lk_multiply(a, lk_multiply(b, c)).coeffs
