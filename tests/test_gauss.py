"""Gaussian tube measures, derivative family, and the closed-form prediction."""

import math

import pytest
from scipy.integrate import quad
from scipy.special import chdtrc, gammainc

from gkf.drivers import pi_n_prediction
from gkf.evaluate import lk_unit_sphere
from gkf.gauss import (
    CenteredBall,
    FullSpace,
    HalfSpace,
    Origin,
    gamma,
    gamma_fd_oracle,
    gauss_measure_tube,
    gkf_predict,
)
from gkf.model_sets import UnitCap, UnitGreatSubsphere, UnitSphere
from gkf.scalars import float_of

from oracles import gamma_float_route, gkf_predict_float_route

ALL_SETS = [
    HalfSpace(1, 0.0),
    HalfSpace(1, 1.0),
    HalfSpace(1, 2.0),
    HalfSpace(3, -0.5),
    CenteredBall(1, 1.0),
    CenteredBall(2, 1.0),
    CenteredBall(3, 2.0),
    Origin(1),
    Origin(2),
    Origin(3),
    FullSpace(2),
]


class TestTubeMeasure:
    def test_full_space(self):
        for r in [0.0, 1.0, 7.5]:
            assert gauss_measure_tube(FullSpace(4), r) == 1.0

    def test_half_space_symmetry(self):
        assert gauss_measure_tube(HalfSpace(1, 0.0), 0.0) == pytest.approx(0.5)

    def test_half_space_marginal(self):
        # growing the tube shifts the threshold
        assert gauss_measure_tube(HalfSpace(2, 1.5), 0.7) == pytest.approx(
            gauss_measure_tube(HalfSpace(2, 0.8), 0.0), rel=1e-14
        )

    def test_ball_radial_integral(self):
        assert gauss_measure_tube(CenteredBall(2, 1.0), 0.0) == pytest.approx(
            1 - math.exp(-0.5), rel=1e-14
        )

    def test_ball_against_quadrature(self):
        d, rho, r = 3, 1.2, 0.4
        density = lambda s: s ** (d - 1) * math.exp(-s * s / 2)
        num = quad(density, 0, rho + r, epsabs=1e-14)[0]
        c = 1 / (2 ** (d / 2 - 1) * math.gamma(d / 2))
        assert gauss_measure_tube(CenteredBall(d, rho), r) == pytest.approx(
            c * num, rel=1e-12
        )

    def test_origin_is_chi_cdf(self):
        assert gauss_measure_tube(Origin(3), 1.0) == pytest.approx(
            float(gammainc(1.5, 0.5)), rel=1e-14
        )

    def test_monotone_to_one(self):
        for D in ALL_SETS:
            values = [gauss_measure_tube(D, r) for r in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
            assert values[-1] == pytest.approx(1.0, abs=1e-8)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            gauss_measure_tube(Origin(2), -0.1)

    @pytest.mark.parametrize(
        "D", [HalfSpace(1, 0.5), CenteredBall(2, 1.0), Origin(2), FullSpace(2)], ids=str
    )
    def test_nan_radius_rejected(self, D):
        # NaN fails every comparison, so a guard written as r < 0 let it through
        with pytest.raises(ValueError, match="tube radius must be nonnegative"):
            gauss_measure_tube(D, math.nan)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, value):
        with pytest.raises(ValueError):
            CenteredBall(2, value)
        with pytest.raises(ValueError):
            HalfSpace(1, value)


class TestGammaFamily:
    def test_full_space_derivatives_vanish(self):
        g = gamma(FullSpace(3), 5)
        assert g == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_half_space_first_derivative(self):
        for u in [0.0, 0.8, 2.0]:
            expected = math.exp(-u * u / 2) / math.sqrt(2 * math.pi)
            assert gamma(HalfSpace(1, u), 1)[1] == pytest.approx(expected, rel=1e-14)

    def test_origin_flatness(self):
        # the radial integrand vanishes to order d-1 at zero
        for d in [2, 3, 4, 5]:
            g = gamma(Origin(d), d)
            for k in range(1, d):
                assert g[k] == 0.0
            assert g[d] > 0

    def test_gamma_zero_matches_tube_measure(self):
        for D in ALL_SETS:
            assert gamma(D, 0)[0] == pytest.approx(
                gauss_measure_tube(D, 0.0), rel=1e-14
            )

    @pytest.mark.parametrize("D", ALL_SETS, ids=str)
    def test_against_fd_oracle(self, D):
        g = gamma(D, 4)
        for k in range(5):
            assert g[k] == pytest.approx(gamma_fd_oracle(D, k), abs=1e-6)

    @pytest.mark.parametrize("D", ALL_SETS, ids=str)
    def test_exact_table_matches_float_recurrences(self, D):
        # at low orders the float Hermite and radial-polynomial recurrences
        # keep their digits, so the exact table must agree with them
        for exact, floated in zip(gamma(D, 12), gamma_float_route(D, 12)):
            assert exact == pytest.approx(floated, rel=1e-13, abs=1e-300)

    def test_high_orders_finite_or_refused(self):
        # the float radial polynomials overflowed here; each exact value is
        # rounded once, and a value past the float range is refused
        values = gamma(CenteredBall(3, 2.0), 300)
        assert all(math.isfinite(v) for v in values)
        assert abs(values[300]) > 1e300
        with pytest.raises(ValueError, match="float range"):
            gamma(CenteredBall(3, 2.0), 320)

    def test_oracle_order_zero(self):
        D = CenteredBall(2, 1.0)
        assert gamma_fd_oracle(D, 0) == gauss_measure_tube(D, 0.0)

    @pytest.mark.parametrize("D", ALL_SETS, ids=str)
    def test_taylor_reconstruction(self, D):
        # partial Taylor sums approximate the tube measure with superlinear
        # improvement as r shrinks (analyticity at zero)
        K = 4
        g = gamma(D, K)
        errors = []
        for r in (0.2, 0.1, 0.05):
            taylor = sum(g[k] * r**k / math.factorial(k) for k in range(K + 1))
            errors.append(abs(taylor - gauss_measure_tube(D, r)))
        # o(r^K): each halving of r should shrink the error by more than 2^K
        # unless already at roundoff
        for a, b in zip(errors, errors[1:]):
            assert b <= a / 2**K + 1e-12


class TestPrediction:
    def test_full_space_reduces_to_unit_values(self):
        for n in [1, 2, 3, 4]:
            for m in range(n + 1):
                pred = gkf_predict(UnitSphere(n), FullSpace(2), m)
                assert pred == pytest.approx(
                    float_of(lk_unit_sphere(n, m)), abs=1e-12
                )

    def test_top_degree_single_term(self):
        n = 3
        D = CenteredBall(2, 1.0)
        pred = gkf_predict(UnitSphere(n), D, n)
        expected = float_of(lk_unit_sphere(n, n)) * gamma(D, 0)[0]
        assert pred == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_sphere_halfspace_chi_squared_identity(self, u):
        # the excursion of a linear functional on the 2-sphere is a cap,
        # nonempty with Euler characteristic 1 exactly when the coefficient
        # vector is long enough, so the expectation is a chi-squared tail
        pred = gkf_predict(UnitSphere(2), HalfSpace(1, u), 0)
        oracle = 1 - float(gammainc(1.5, u * u / 2))
        assert pred == pytest.approx(oracle, abs=1e-10)

    def test_subsphere_prediction_is_intrinsic(self):
        D = HalfSpace(1, 0.7)
        direct = gkf_predict(UnitSphere(2), D, 0)
        embedded = gkf_predict(UnitGreatSubsphere(5, 2), D, 0)
        assert direct == pytest.approx(embedded, rel=1e-12)

    def test_cap_prediction_refused_when_ill_conditioned(self):
        # the float terms on cap:n:1.0 cancel harder as n grows; a sum that
        # keeps too few digits is refused instead of returned
        value = gkf_predict(UnitCap(60, 1.0), HalfSpace(1, 0.5), 0)
        assert 0.0 <= value <= 1.0
        for n in (80, 120, 200):
            with pytest.raises(ValueError, match="condition number"):
                gkf_predict(UnitCap(n, 1.0), HalfSpace(1, 0.5), 0)

    def test_cap_prediction_runs(self):
        value = gkf_predict(UnitCap(2, 0.9), HalfSpace(1, 0.5), 0)
        assert 0.0 < value < 2.0

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            gkf_predict(UnitSphere(2), FullSpace(1), 3)
        with pytest.raises(ValueError):
            gkf_predict(UnitSphere(4), Origin(2), -1)

    @pytest.mark.parametrize("m", [5, -1, 1.5, True], ids=repr)
    def test_degree_rule_shared_with_finite_n(self, m):
        # a degree is an int, not a bool, between 0 and the top degree; both
        # predictions refuse anything else with the same message
        A, D = UnitSphere(2), HalfSpace(1, 0.5)
        message = "degree must lie between 0 and the dimension of the set"
        with pytest.raises(ValueError, match=message):
            gkf_predict(A, D, m)
        with pytest.raises(ValueError, match=message):
            pi_n_prediction(A, D, 50, m)

    def test_degree_above_a_subsphere_refused(self):
        # the top degree of a great subsphere is its own dimension, not the
        # ambient one
        A, D = UnitGreatSubsphere(5, 2), HalfSpace(1, 0.5)
        gkf_predict(A, D, 2)
        pi_n_prediction(A, D, 50, 2)
        with pytest.raises(ValueError, match="degree must lie"):
            gkf_predict(A, D, 3)
        with pytest.raises(ValueError, match="degree must lie"):
            pi_n_prediction(A, D, 50, 3)


class TestExactFold:
    @pytest.mark.parametrize("u", [-1.25, 0.0, 0.5, 2.0])
    def test_half_space_is_a_chi_squared_tail(self, u):
        # the excursion of xi . x >= u is a cap with chi = 1 when |xi| > |u|;
        # otherwise it is empty (u > 0) or the whole sphere (u < 0, where
        # chi(S^n) = 2 at even n), so the oracle is chdtrc(n+1, u^2) or,
        # for u < 0 and even n, 2 - chdtrc(n+1, u^2)
        for n in range(1, 601):
            tail = float(chdtrc(n + 1, u * u))
            oracle = 2 - tail if u < 0 and n % 2 == 0 else tail
            assert abs(gkf_predict(UnitSphere(n), HalfSpace(1, u), 0) - oracle) <= 1e-12

    @pytest.mark.parametrize("n", [60, 100, 200, 300])
    def test_ball_prediction_vanishes_on_large_spheres(self, n):
        assert abs(gkf_predict(UnitSphere(n), CenteredBall(3, 2.0), 0)) <= 1e-12

    @pytest.mark.parametrize("D", ALL_SETS, ids=str)
    def test_fold_matches_term_by_term_sum(self, D):
        # against the float sum it replaced, where that sum keeps its digits
        for n in range(1, 11):
            for m in range(min(n, 3) + 1):
                for A in (UnitSphere(n), UnitGreatSubsphere(n + 3, n)):
                    oracle = gkf_predict_float_route(A, D, m)
                    assert abs(gkf_predict(A, D, m) - oracle) <= 1e-10 * max(
                        abs(oracle), 1e-3
                    )
