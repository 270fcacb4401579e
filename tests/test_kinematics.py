"""Kinematic operators: exact tensor identities and the tube-volume check."""

import math
import random
from fractions import Fraction

import pytest

from gkf.bases import (
    ZERO,
    Basis,
    ValuationVector,
    basis_element,
    change_basis,
    nu_in_sigma_column,
)
from gkf.evaluate import evaluate
from gkf.kinematics import (
    KinematicTensor,
    gkf_coefficient,
    nu_defining_identity_holds,
    p_chi,
    p_sigma,
    p_tau,
    p_u_power,
    tube_volume_identity,
)
from gkf.model_sets import GeodesicBall, GreatSubsphere, SubsphereTube
from gkf.scalars import PiScalar, float_of, omega
from gkf.series import sqrt_pow

from oracles import (
    chi_rows,
    generalized_binomial,
    diagonal_sum_rows,
    pair_tensor,
    printed_nu_closed_form,
    tube_rhs_nu_route,
    tube_volume_fraction_quadrature,
    u_power_on_great_subsphere,
    u_power_rows,
)

HALF = Fraction(1, 2)


class TestDiagonalOperators:
    def test_p_sigma_bottom_cases(self):
        N = 8
        t0 = p_sigma(0, N)
        assert t0.rows[0][0] == HALF
        assert sum(1 for row in t0.rows for x in row if x) == 1
        t1 = p_sigma(1, N)
        assert t1.rows[0][1] == HALF and t1.rows[1][0] == HALF
        assert sum(1 for row in t1.rows for x in row if x) == 2

    def test_support_condition(self):
        N, k = 9, 4
        tensor = p_tau(k, N)
        for i in range(N + 1):
            for j in range(N + 1):
                if i + j != N + k:
                    assert tensor.rows[i][j].is_zero()

    def test_p_tau_top_coefficient(self):
        for N in [4, 7, 12]:
            tensor = p_tau(N, N)
            expected = Fraction(1, 2 ** (N + 1)) * sqrt_pow(N, -N)
            assert tensor.rows[N][N] == expected

    def test_scale_rejects_inexact_factors(self):
        with pytest.raises(ValueError, match="int, Fraction or PiScalar"):
            p_sigma(1, 4).scale(0.5)
        assert p_sigma(1, 4).scale(2).rows[0][1] == 1

    def test_sum_keeps_the_shared_zero(self):
        # a zero entry of a sum is bases.ZERO itself, also where the
        # summands cancel
        total = p_sigma(1, 4) + p_sigma(2, 4)
        entries = [x for row in total.rows for x in row]
        assert sum(1 for x in entries if x is ZERO) == 20
        assert sum(1 for x in entries if not x) == 20
        cancelled = p_sigma(1, 4) + p_sigma(1, 4).scale(-1)
        assert all(x is ZERO for row in cancelled.rows for x in row)

    def test_linearity_through_sigma_sums(self):
        # p applied to a random sigma-combination is the matching combination
        # of the p_sigma tensors
        N = 7
        rng = random.Random(5)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(N + 1)]
        combined = None
        for k, c in enumerate(coeffs):
            term = p_sigma(k, N).scale(c)
            combined = term if combined is None else combined + term
        for i in range(N + 1):
            for j in range(N + 1):
                expected = coeffs[i + j] * HALF if i + j <= N else Fraction(0)
                assert combined.rows[i][j] == PiScalar.from_rational(expected)

    @pytest.mark.parametrize("N", [3, 8, 15, 25, 40])
    def test_tau_sigma_operator_consistency(self, N):
        # tau_k = (4N)^(k/2) sigma_(N-k), so the two operator forms must agree
        # after rescaling, with all the normalization constants collapsing.
        for k in range(N + 1):
            via_tau = p_tau(k, N).convert_left(Basis.SIGMA).convert_right(Basis.SIGMA)
            via_sigma = p_sigma(N - k, N).scale(sqrt_pow(4 * N, k))
            assert via_tau.rows == via_sigma.rows

    def test_coassociativity(self):
        # applying the operator to either leg of its own output gives the
        # same symmetric three-tensor
        for N in [4, 9, 20]:
            for k in [0, 1, N // 2, N]:
                left: dict = {}
                right: dict = {}
                base = p_sigma(k, N)
                for i in range(N + 1):
                    for j in range(N + 1):
                        c = base.rows[i][j]
                        if not c:
                            continue
                        inner_left = p_sigma(i, N)
                        inner_right = p_sigma(j, N)
                        for a in range(N + 1):
                            for b in range(N + 1):
                                cl = inner_left.rows[a][b]
                                if cl:
                                    key = (a, b, j)
                                    left[key] = left.get(key, PiScalar.zero()) + c * cl
                                cr = inner_right.rows[a][b]
                                if cr:
                                    key = (i, a, b)
                                    right[key] = (
                                        right.get(key, PiScalar.zero()) + c * cr
                                    )
                assert left == right


class TestTensorConversion:
    @pytest.mark.parametrize("N", [3, 8])
    def test_batched_conversion_is_columnwise(self, N):
        # one batched conversion of all columns (rows) must equal
        # change_basis of each column (row) on its own
        rng = random.Random(300 + N)
        parts = [PiScalar.one(), PiScalar.pi_power(1), PiScalar.sqrt_int(2), sqrt_pow(4 * N, 1)]
        for src in Basis:
            rows = [[PiScalar.zero()] * (N + 1) for _ in range(N + 1)]
            for _ in range(3 * N):
                i, j = rng.randint(0, N), rng.randint(0, N)
                q = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                rows[i][j] = rows[i][j] + q * rng.choice(parts)
            tensor = KinematicTensor(N, src, src, tuple(map(tuple, rows)))
            for dst in Basis:
                left = tensor.convert_left(dst)
                for j, col in enumerate(zip(*tensor.rows)):
                    expected = change_basis(ValuationVector(N, src, col), dst).coeffs
                    assert tuple(row[j] for row in left.rows) == expected, (src, dst, j)
                right = tensor.convert_right(dst)
                for row, out in zip(tensor.rows, right.rows):
                    assert out == change_basis(ValuationVector(N, src, row), dst).coeffs, (src, dst)

    def test_conversion_guards(self):
        # the cap and the dimension check sit in the conversion kernel, so
        # tensors built directly get them too; the constructor refuses N = 0
        # itself, so the empty tensor is built from its entries
        zero = PiScalar.zero()
        big = KinematicTensor(70, Basis.T, Basis.T, ((zero,) * 71,) * 71)
        with pytest.raises(ValueError, match="capped at N = 64"):
            big.convert_left(Basis.U)
        with pytest.raises(ValueError, match="capped at N = 64"):
            big.convert_right(Basis.SIGMA)
        with pytest.raises(ValueError, match="dimension must be positive"):
            KinematicTensor(0, Basis.T, Basis.T, ((PiScalar.one(),),))
        empty = KinematicTensor._sparse(0, Basis.T, Basis.T, {0: {0: PiScalar.one()}})
        with pytest.raises(ValueError, match="dimension must be positive"):
            empty.convert_left(Basis.PHI)
        with pytest.raises(ValueError, match="dimension must be positive"):
            empty.convert_right(Basis.PHI)

    def test_inexact_entries_rejected(self):
        zero = PiScalar.zero()
        tensor = KinematicTensor(1, Basis.T, Basis.T, ((zero, 0.5), (zero, zero)))
        with pytest.raises(ValueError, match="int, Fraction or PiScalar"):
            tensor.convert_left(Basis.PHI)
        with pytest.raises(ValueError, match="int, Fraction or PiScalar"):
            tensor.convert_right(Basis.PHI)
        plain = KinematicTensor(1, Basis.T, Basis.T, ((1, Fraction(1, 2)), (0, 3)))
        exact = KinematicTensor(
            1, Basis.T, Basis.T, tuple(tuple(map(PiScalar._exact, row)) for row in plain.rows)
        )
        assert plain.convert_left(Basis.U).rows == exact.convert_left(Basis.U).rows
        assert plain.convert_right(Basis.MU).rows == exact.convert_right(Basis.MU).rows


def stored(tensor: KinematicTensor) -> int:
    return sum(len(row) for row in tensor.entries.values())


def assert_dense_view(tensor: KinematicTensor, reference: tuple):
    # rows is the reference grid, with the shared ZERO in every empty cell
    assert tensor.rows == reference
    assert all(
        (x is ZERO) == (not r)
        for row, ref in zip(tensor.rows, reference)
        for x, r in zip(row, ref)
    )


class TestSparseStore:
    @pytest.mark.parametrize("N", [1, 8, 64])
    def test_chi_stores_its_nu_columns(self, N):
        assert stored(p_chi(N)) == sum(len(nu_in_sigma_column(k)) for k in range(N + 1))
        telescoped = p_chi(N).convert_left(Basis.SIGMA)
        # one 1/2 per (s, i) with s + i <= N and s + i = N (mod 2)
        assert stored(telescoped) == sum((N - s) // 2 + 1 for s in range(N + 1))
        assert all(x for row in telescoped.entries.values() for x in row.values())

    @pytest.mark.parametrize("N", [1, 8, 64])
    def test_diagonal_sums_store_their_cells(self, N):
        for k in (0, 1, N // 2, N):
            assert stored(p_sigma(k, N)) == k + 1
            assert stored(p_tau(k, N)) == N - k + 1

    @pytest.mark.parametrize("N", [1, 2, 7, 20])
    def test_rows_are_the_cell_by_cell_grid(self, N):
        half = PiScalar.from_rational(HALF)
        for k in range(N + 1):
            assert_dense_view(p_sigma(k, N), diagonal_sum_rows(N, k, half))
            tau_coeff = Fraction(1, 2 ** (N + 1)) * sqrt_pow(N, -N)
            assert_dense_view(p_tau(k, N), diagonal_sum_rows(N, N + k, tau_coeff))
            # a converted tensor is sparse too: tau_k = (4N)^(k/2) sigma_(N-k)
            converted = p_tau(k, N).convert_left(Basis.SIGMA).convert_right(Basis.SIGMA)
            scaled = diagonal_sum_rows(N, N - k, half * sqrt_pow(4 * N, k))
            assert_dense_view(converted, scaled)
            assert_dense_view(p_u_power(k, N), u_power_rows(k, N))
        assert_dense_view(p_chi(N), chi_rows(N))
        assert_dense_view(p_chi(N).convert_left(Basis.SIGMA), chi_rows(N, sigma_sigma=True))

    def test_explicit_zeros_are_not_stored(self):
        N = 6
        rng = random.Random(17)
        zeros = [0, Fraction(0), PiScalar.zero()]
        rows = [[rng.choice(zeros) for _ in range(N + 1)] for _ in range(N + 1)]
        for _ in range(9):
            i, j = rng.randint(0, N), rng.randint(0, N)
            rows[i][j] = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * PiScalar.sqrt_int(
                rng.choice((1, 2, 6))
            )
        tensor = KinematicTensor(N, Basis.T, Basis.T, tuple(map(tuple, rows)))
        nonzero = {(i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if x}
        assert {(i, j) for i, row in tensor.entries.items() for j in row} == nonzero
        assert all(row for row in tensor.entries.values())
        clean = tuple(tuple(x or ZERO for x in row) for row in rows)
        assert tensor == KinematicTensor(N, Basis.T, Basis.T, clean)
        assert_dense_view(tensor, clean)
        for dst in Basis:
            left, right = tensor.convert_left(dst), tensor.convert_right(dst)
            for j, col in enumerate(zip(*clean)):
                expected = change_basis(ValuationVector(N, Basis.T, col), dst).coeffs
                assert tuple(row[j] for row in left.rows) == expected, dst
            for row, out in zip(clean, right.rows):
                expected = change_basis(ValuationVector(N, Basis.T, row), dst).coeffs
                assert out == expected, dst

    def test_cancelled_sum_stores_nothing(self):
        cancelled = p_sigma(1, 4) + p_sigma(1, 4).scale(-1)
        assert cancelled.entries == {}
        assert cancelled == p_sigma(1, 4).scale(0)
        assert p_sigma(1, 4) + p_sigma(1, 4) == p_sigma(1, 4).scale(2)

    def test_symmetry_reads_every_stored_entry(self):
        one = PiScalar.one()
        upper = KinematicTensor(2, Basis.T, Basis.T, ((0, one, 0), (0, 0, 0), (0, 0, 0)))
        assert not upper.is_symmetric()
        both = KinematicTensor(2, Basis.T, Basis.T, ((0, one, 0), (1, 0, 0), (0, 0, 0)))
        assert both.is_symmetric()
        assert not (both + upper).is_symmetric()


class TestChiExpansion:
    def test_bottom_term(self):
        tensor = p_chi(6)
        assert tensor.basis_left == Basis.U
        assert tensor.rows[0][0] == HALF
        assert all(tensor.rows[0][i].is_zero() for i in range(1, 7))

    @pytest.mark.parametrize("N", [4, 9, 18])
    def test_sigma_sigma_form_matches_left_conversion(self, N):
        converted = p_chi(N).convert_left(Basis.SIGMA)
        assert converted.rows == chi_rows(N, sigma_sigma=True)

    @pytest.mark.parametrize("N", [5, 12, 30])
    def test_sigma_sigma_form_is_symmetric(self, N):
        assert p_chi(N).convert_left(Basis.SIGMA).is_symmetric()

    @pytest.mark.parametrize("N", [4, 11, 21])
    def test_reconstruction_from_sigma_operator(self, N):
        # chi = sum over parity of sigma elements; p(chi) must equal the
        # matching sum of diagonal tensors
        chi_sigma = change_basis(basis_element(N, Basis.T, 0), Basis.SIGMA)
        combined = None
        for k in range(N + 1):
            c = chi_sigma.coeff(k)
            if not c:
                continue
            term = p_sigma(k, N).scale(c)
            combined = term if combined is None else combined + term
        assert combined.rows == chi_rows(N, sigma_sigma=True)


class TestNuFamily:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 10, 25, 40])
    def test_defining_identity(self, N):
        assert nu_defining_identity_holds(N)

    def test_bottom_rows(self):
        assert nu_in_sigma_column(0) == ((0, HALF),)
        assert nu_in_sigma_column(1) == ((1, HALF),)
        assert nu_in_sigma_column(2) == ((2, HALF),)

    def test_closed_forms_match_extraction(self):
        # the even-degree closed form carries sign (-1)^(k-1-j); with that
        # reading the printed family agrees with the extraction for all k
        for k in range(21):
            assert nu_in_sigma_column(k) == printed_nu_closed_form(k)

    def test_printed_even_sign_would_fail(self):
        # the (-1)^j variant flips nu_4: extraction gives (sigma_4 - sigma_2)/2
        assert dict(nu_in_sigma_column(4)) == {2: Fraction(-1, 2), 4: HALF}


class TestUPowerOperator:
    def test_m_zero_reduces_to_chi(self):
        N = 9
        assert p_u_power(0, N).rows == p_chi(N).rows

    def test_support_left_degrees(self):
        N, m = 10, 3
        tensor = p_u_power(m, N)
        for i in range(m):
            assert all(x.is_zero() for x in tensor.rows[i])

    def test_shifted_rows_are_nu_rows(self):
        N, m = 8, 2
        tensor = p_u_power(m, N)
        chi = p_chi(N)
        for k in range(N + 1 - m):
            assert tensor.rows[m + k] == chi.rows[k]


class TestGreatSubsphereUPowers:
    @pytest.mark.parametrize("N,n", [(9, 4), (12, 5), (20, 2)])
    def test_against_exact_evaluation(self, N, n):
        for k in range(N + 1):
            exact = evaluate(basis_element(N, Basis.U, k), GreatSubsphere(N, n))
            assert exact == PiScalar.from_rational(u_power_on_great_subsphere(k, N, n))

    def test_euler_characteristic_case(self):
        assert u_power_on_great_subsphere(0, 10, 4) == 2
        assert u_power_on_great_subsphere(0, 10, 5) == 0

    def test_pairing_with_nu_folds_to_positive_sigma_weights(self):
        # sum_k u^(m+k)(great n-subsphere of S^N) nu_k
        #   = sum_p binom(m/2 + p, p) sigma_(n-m-2p), for every N >= n
        for N in (3, 7, 20, 64, 200):
            for n in range(min(N, 40) + 1):
                for m in range(n + 1):
                    folded: dict[int, Fraction] = {}
                    for k in range(n - m + 1):
                        u_val = u_power_on_great_subsphere(m + k, N, n)
                        for i, q in nu_in_sigma_column(k):
                            folded[i] = folded.get(i, Fraction(0)) + u_val * q
                    expected = {
                        n - m - 2 * p: generalized_binomial(Fraction(m, 2) + p, p)
                        for p in range((n - m) // 2 + 1)
                    }
                    assert {i: q for i, q in folded.items() if q} == expected, (N, n, m)


class TestPairings:
    def test_pair_chi_with_ball_and_subsphere(self):
        # the kinematic average of chi over a ball and a great hypersphere:
        # a random great hypersphere meets a ball iff the ball center lies
        # within distance r of it, so the expectation is the volume fraction
        # of the band of half-width r
        N, r = 8, 0.9
        tensor = p_chi(N)
        value = pair_tensor(tensor, GeodesicBall(N, r), GreatSubsphere(N, N - 1))
        from gkf.model_sets import tube_volume_fraction

        assert value == pytest.approx(tube_volume_fraction(N, 1, r), rel=1e-10)

    def test_pair_symmetry(self):
        N = 7
        tensor = p_chi(N).convert_left(Basis.SIGMA)
        a, b = GeodesicBall(N, 1.1), SubsphereTube(N, 2, 0.8)
        assert pair_tensor(tensor, a, b) == pytest.approx(
            pair_tensor(tensor, b, a), rel=1e-12
        )


class TestBridgingCoefficient:
    def test_values(self):
        assert gkf_coefficient(0) == PiScalar.one()
        assert gkf_coefficient(2) == Fraction(1, 4)
        expected_c1 = PiScalar.pi_power(1) * PiScalar.sqrt_int(2) * Fraction(1, 4)
        assert gkf_coefficient(1) == expected_c1
        assert float_of(gkf_coefficient(1)) == pytest.approx(
            math.sqrt(math.pi / 2) / 2, rel=1e-14
        )

    @pytest.mark.parametrize("k", range(21))
    def test_bridge_identity(self, k):
        # 2^(-k) (2 pi)^(k/2) / (k! omega_k) equals (pi/2)^(k/2) / (k! omega_k)
        bridge = (
            sqrt_pow(2, k)
            * PiScalar.pi_power(k)
            * PiScalar.from_rational(Fraction(1, 2**k))
            * (math.factorial(k) * omega(k)).reciprocal()
        )
        assert bridge == gkf_coefficient(k)


class TestTubeIdentity:
    @pytest.mark.parametrize(
        "N,d,s,r",
        [(20, 2, 1.0, 0.2), (20, 2, 1.0, 0.5), (30, 3, 0.8, 0.2), (30, 3, 0.8, 0.5)],
    )
    def test_agreement(self, N, d, s, r):
        lhs, rhs = tube_volume_identity(N, d, s, r)
        assert abs(lhs - rhs) / lhs < 1e-8

    @pytest.mark.parametrize(
        "N,d,s,r",
        [(20, 2, 1.0, 0.2), (20, 2, 1.0, 0.5), (30, 3, 0.8, 0.5), (80, 2, 1.0, 0.5),
         (160, 2, 1.0, 0.5)],
    )
    def test_right_side_is_the_nu_pairing(self, N, d, s, r):
        rhs = tube_volume_identity(N, d, s, r)[1]
        assert rhs == pytest.approx(tube_rhs_nu_route(N, d, s, r), rel=1e-12)

    def test_zero_growth_radius(self):
        N, d, s = 14, 2, 0.9
        lhs, rhs = tube_volume_identity(N, d, s, 0.0)
        assert lhs == pytest.approx(tube_volume_fraction_quadrature(N, d, s), rel=1e-10)
        assert rhs == pytest.approx(lhs, rel=1e-10)

    def test_monotone_in_growth_radius(self):
        N, d, s = 16, 3, 0.7
        values = [tube_volume_identity(N, d, s, r)[0] for r in (0.0, 0.3, 0.6, 1.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            tube_volume_identity(4, 1, 2.0, 2.0)
