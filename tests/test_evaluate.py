"""Model-set geometry and valuation evaluation.

The curvature profiles are checked against a finite-difference second
fundamental form computed from an explicit description of each boundary as
a level set, with no reference to the closed forms under test.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from gkf.bases import Basis, basis_element, change_basis, chi_vector
from gkf.evaluate import (
    abs_sigma,
    evaluate,
    lk_unit_sphere,
    mu_on_euclidean_ball,
    sigma_evaluate,
    t_power_unit,
    tau_evaluate,
    u_power_on_ball,
)
from gkf.model_sets import (
    AmbientSphere,
    GeodesicBall,
    GreatSubsphere,
    SubsphereTube,
    UnitCap,
    UnitGreatSubsphere,
    UnitSphere,
    ball_volume_fraction,
    curvature_profile,
    euler_characteristic,
    tube_volume_fraction,
)
from gkf.scalars import PiScalar, alpha, float_of, omega
from gkf.series import sqrt_pow, u_power_in_sigma

from oracles import (
    lk_unit_sphere_tube_route,
    omega_float,
    tube_volume_fraction_quadrature,
    u_power_on_euclidean_ball,
)


# -- finite-difference second-fundamental-form oracle ----------------------


def _sphere_project(x: np.ndarray, R: float) -> np.ndarray:
    return x * (R / np.linalg.norm(x))


def _level_project(x, R, f, target, normal):
    """Slide x along the hypersurface normal (staying on the big sphere)
    until f(x) == target."""
    for _ in range(80):
        err = f(x) - target
        if abs(err) < 1e-14:
            break
        nu = normal(x)
        # secant step along nu
        h = 1e-6
        slope = (f(_sphere_project(x + h * nu, R)) - f(_sphere_project(x - h * nu, R))) / (
            2 * h
        )
        x = _sphere_project(x - (err / slope) * nu, R)
    return x


def fd_principal_curvature(p, X, R, f, target, normal, h=1e-5):
    """<D_X nu, X> by central differences along a curve in the level set."""
    def at(t):
        x = _sphere_project(p + t * X, R)
        x = _level_project(x, R, f, target, normal)
        return normal(x)

    dnu = (at(h) - at(-h)) / (2 * h)
    return float(dnu @ X)


def ball_levelset(N, r):
    R = math.sqrt(N)
    e0 = np.zeros(N + 1)
    e0[0] = 1.0
    target = R * math.cos(r / R)

    def f(x):
        return float(x @ e0)

    def normal(x):
        g = e0 - (float(x @ e0) / R**2) * x
        g = -g  # outward: decreasing height
        return g / np.linalg.norm(g)

    return f, target, normal, e0


def tube_levelset(N, d, s):
    R = math.sqrt(N)
    target = (R * math.sin(s / R)) ** 2

    def f(x):
        return float(x[:d] @ x[:d])

    def normal(x):
        g = np.zeros(N + 1)
        g[:d] = 2 * x[:d]
        g = g - (float(g @ x) / R**2) * x
        return g / np.linalg.norm(g)

    return f, target, normal


class TestCurvatureProfileAgainstFiniteDifferences:
    @pytest.mark.parametrize("N,r", [(6, 0.9), (11, 2.0), (4, 2.5)])
    def test_geodesic_ball(self, N, r):
        profile = curvature_profile(GeodesicBall(N, r))
        (kappa, mult), = profile.curvatures
        assert mult == N - 1
        R = math.sqrt(N)
        assert kappa == pytest.approx(math.cos(r / R) / (R * math.sin(r / R)), rel=1e-13)

        f, target, normal, e0 = ball_levelset(N, r)
        theta = r / R
        w = np.zeros(N + 1)
        w[1] = 1.0
        p = R * (math.cos(theta) * e0 + math.sin(theta) * w)
        X = np.zeros(N + 1)
        X[2] = 1.0  # tangent to both the sphere and the level set at p
        measured = fd_principal_curvature(p, X, R, f, target, normal)
        assert measured == pytest.approx(kappa, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("N,d,s", [(7, 3, 1.1), (9, 2, 0.8)])
    def test_subsphere_tube_two_blocks(self, N, d, s):
        profile = curvature_profile(SubsphereTube(N, d, s))
        assert {mult for _, mult in profile.curvatures} == {d - 1, N - d}
        R = math.sqrt(N)
        theta = s / R
        by_mult = {mult: val for val, mult in profile.curvatures}
        assert by_mult[d - 1] == pytest.approx(1 / (R * math.tan(theta)), rel=1e-13)
        assert by_mult[N - d] == pytest.approx(-math.tan(theta) / R, rel=1e-13)

        f, target, normal = tube_levelset(N, d, s)
        a, b = R * math.sin(theta), R * math.cos(theta)
        p = np.zeros(N + 1)
        p[0] = a
        p[d] = b
        X_cap = np.zeros(N + 1)
        X_cap[1] = 1.0  # direction inside the first factor
        X_core = np.zeros(N + 1)
        X_core[d + 1] = 1.0  # direction along the core sphere factor
        measured_cap = fd_principal_curvature(p, X_cap, R, f, target, normal)
        measured_core = fd_principal_curvature(p, X_core, R, f, target, normal)
        assert measured_cap == pytest.approx(by_mult[d - 1], rel=1e-5)
        assert measured_core == pytest.approx(by_mult[N - d], rel=1e-5, abs=1e-8)

    def test_tube_d1_single_band_profile(self):
        N, s = 8, 1.2
        profile = curvature_profile(SubsphereTube(N, 1, s))
        (kappa, mult), = profile.curvatures
        assert mult == N - 1
        R = math.sqrt(N)
        assert kappa == pytest.approx(-math.tan(s / R) / R, rel=1e-13)
        f, target, normal = tube_levelset(N, 1, s)
        p = np.zeros(N + 1)
        p[0] = R * math.sin(s / R)
        p[1] = R * math.cos(s / R)
        X = np.zeros(N + 1)
        X[2] = 1.0
        measured = fd_principal_curvature(p, X, R, f, target, normal)
        assert measured == pytest.approx(kappa, rel=1e-5)

    def test_unsupported_sets(self):
        with pytest.raises(ValueError):
            curvature_profile(GreatSubsphere(5, 2))
        with pytest.raises(ValueError):
            curvature_profile(GeodesicBall(5, 0.0))

    @pytest.mark.parametrize(
        "N,d,s", [(12, 2, 1.0), (9, 4, 0.7), (15, 1, 2.0)]
    )
    def test_boundary_area_is_volume_derivative(self, N, d, s):
        vol_sphere = math.exp(math.log(N) * N / 2) * float_of(alpha(N))
        h = 1e-6
        deriv = (
            (tube_volume_fraction(N, d, s + h) - tube_volume_fraction(N, d, s - h))
            / (2 * h)
            * vol_sphere
        )
        assert curvature_profile(SubsphereTube(N, d, s)).area == pytest.approx(
            deriv, rel=1e-8
        )


class TestVolumeFractions:
    @pytest.mark.parametrize("N,r", [(5, 1.0), (12, 2.5), (7, 4.0)])
    def test_ball_fraction_against_quadrature(self, N, r):
        R = math.sqrt(N)
        num = quad(lambda t: math.sin(t) ** (N - 1), 0, r / R, epsabs=1e-13)[0]
        den = quad(lambda t: math.sin(t) ** (N - 1), 0, math.pi, epsabs=1e-13)[0]
        assert ball_volume_fraction(N, r) == pytest.approx(num / den, abs=1e-11)

    @pytest.mark.parametrize("N,d,s", [(8, 2, 1.0), (20, 3, 1.5), (9, 1, 2.0)])
    def test_tube_fraction_against_quadrature(self, N, d, s):
        R = math.sqrt(N)

        def integrand(t):
            return math.sin(t) ** (d - 1) * math.cos(t) ** (N - d)

        num = quad(integrand, 0, s / R, epsabs=1e-14)[0]
        den = quad(integrand, 0, math.pi / 2, epsabs=1e-14)[0]
        # the full integral equals half the sphere measure ratio
        expected = num / den * tube_volume_fraction(N, d, 0.5 * math.pi * R * 0.999999999)
        assert tube_volume_fraction(N, d, s) == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("N", [3, 20, 300, 2000])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tube_fraction_against_meridian_integral(self, N, d):
        # the incomplete beta form against the normalized meridian integral
        for fraction in (0.05, 0.3, 0.7, 0.95):
            s = fraction * 0.5 * math.pi * math.sqrt(N)
            assert tube_volume_fraction(N, d, s) == pytest.approx(
                tube_volume_fraction_quadrature(N, d, s), rel=1e-11
            )

    def test_hemisphere(self):
        assert ball_volume_fraction(9, 0.5 * math.pi * 3.0) == pytest.approx(0.5, abs=1e-12)


class TestTauAndSigma:
    @pytest.mark.parametrize("N,j", [(6, 2), (9, 5), (11, 0), (40, 17)])
    def test_great_subsphere_delta(self, N, j):
        for i in range(N + 1):
            value = tau_evaluate(i, GreatSubsphere(N, j))
            assert isinstance(value, PiScalar)
            expected = 2 * sqrt_pow(4 * N, i) if i == j else PiScalar.zero()
            assert value == expected

    def test_hemisphere_boundary_terms_vanish(self):
        N = 9
        hemisphere = GeodesicBall(N, 0.5 * math.pi * math.sqrt(N))
        scale = tau_evaluate(N - 1, hemisphere)
        assert scale > 0
        # the boundary is totally geodesic, so every lower index dies with
        # a positive power of the (numerically ~1e-16) curvature
        for k in range(N - 1):
            assert abs(tau_evaluate(k, hemisphere)) <= 1e-9 * scale

    def test_small_ball_flat_limit(self):
        # intrinsic volumes of a small geodesic ball approach the euclidean ones
        N, r = 400, 0.05
        for k in range(4):
            u_val = u_power_on_ball(k, N, r)
            mu_val = (
                u_val
                * math.exp(0.5 * k * math.log(4 * N))
                * math.pi**k
                / (math.factorial(k) * omega_float(k))
            )
            flat = mu_on_euclidean_ball(k, N) * r**k
            assert mu_val == pytest.approx(flat, rel=0.01)

    def test_sigma_zero_is_twice_volume_fraction(self):
        ball = GeodesicBall(10, 1.7)
        assert sigma_evaluate(0, ball) == pytest.approx(
            2 * ball_volume_fraction(10, 1.7), rel=1e-12
        )
        assert sigma_evaluate(0, AmbientSphere(7)) == 2.0

    def test_sigma_band_closed_form(self):
        # dimension-2 band around a great circle: sigma_1 = 2 cos(beta),
        # sigma_2 = -2 sin(beta), sigma_0 = 2 sin(beta)
        N, s = 2, 0.6
        beta = s / math.sqrt(2)
        band = SubsphereTube(2, 1, s)
        assert sigma_evaluate(0, band) == pytest.approx(2 * math.sin(beta), rel=1e-10)
        assert sigma_evaluate(1, band) == pytest.approx(2 * math.cos(beta), rel=1e-12)
        assert sigma_evaluate(2, band) == pytest.approx(-2 * math.sin(beta), rel=1e-12)

    @pytest.mark.parametrize("N", [3, 5, 12, 40])
    def test_point_is_the_small_ball_limit(self, N):
        point = GeodesicBall(N, 0.0)
        assert sigma_evaluate(N, point) == 1.0
        assert abs_sigma(N, point) == 1.0
        assert all(sigma_evaluate(k, point) == 0.0 for k in range(N))
        small = GeodesicBall(N, 1e-6)
        assert sigma_evaluate(N, small) == pytest.approx(1.0, rel=1e-9)
        # chi paired through the sigma coordinates
        in_sigma = change_basis(chi_vector(N), Basis.SIGMA)
        chi = sum(
            float_of(c) * sigma_evaluate(k, point) for k, c in enumerate(in_sigma.coeffs)
        )
        assert chi == 1.0

    @pytest.mark.parametrize("N", [3, 12, 40])
    def test_tau_is_rescaled_sigma(self, N):
        # tau_k = (4N)^(k/2) sigma_(N-k), the SIGMA -> TAU bridge: exact on
        # sets without a hypersurface boundary, to float rounding elsewhere
        R = math.sqrt(N)
        exact_sets = [
            AmbientSphere(N),
            GeodesicBall(N, 0.0),
            SubsphereTube(N, 2, 0.0),
        ] + [GreatSubsphere(N, j) for j in (0, 1, N // 2, N)]
        float_sets = [
            GeodesicBall(N, 0.5 * math.pi * R),
            GeodesicBall(N, 1.0),
            SubsphereTube(N, 1, 0.4 * math.pi * R),
            SubsphereTube(N, 2, 0.2 * math.pi * R),
        ]
        for model_set in exact_sets + float_sets:
            for k in range(N + 1):
                tau = tau_evaluate(N - k, model_set)
                sigma = sigma_evaluate(k, model_set)
                if model_set in exact_sets:
                    assert tau == int(sigma) * sqrt_pow(4 * N, N - k), (model_set, k)
                else:
                    assert sigma == pytest.approx(
                        tau * (4 * N) ** (-(N - k) / 2), rel=1e-12, abs=0
                    ), (model_set, k)

    def test_tau_refuses_past_the_float_range(self):
        tube = SubsphereTube(300, 2, 1.0)
        with pytest.raises(ValueError, match="float range.*sigma_evaluate"):
            tau_evaluate(232, tube)
        # the same curvature value is order-one on the sigma scale
        assert math.isfinite(sigma_evaluate(300 - 232, tube))

    @pytest.mark.parametrize("N", [1, 2, 7, 20, 40])
    def test_u_power_is_the_sigma_expansion(self, N):
        R = math.sqrt(N)
        for r in [0.3, 1.0, 0.5 * math.pi * R]:
            ball = GeodesicBall(N, r)
            for k in range(N + 1):
                expansion = sum(
                    float(q) * sigma_evaluate(i, ball) for i, q in u_power_in_sigma(k, N)
                )
                assert u_power_on_ball(k, N, r) == pytest.approx(
                    expansion, rel=1e-12, abs=0
                ), (r, k)


class TestEvaluate:
    @pytest.mark.parametrize(
        "model_set",
        [
            GreatSubsphere(7, 3),
            GreatSubsphere(7, 4),
            GreatSubsphere(12, 0),
            AmbientSphere(8),
            AmbientSphere(9),
            GeodesicBall(7, 0.0),
            SubsphereTube(9, 3, 0.0),
        ],
    )
    def test_chi_exact(self, model_set):
        value = evaluate(chi_vector(model_set.N), model_set)
        assert isinstance(value, PiScalar)
        assert value == euler_characteristic(model_set)

    @pytest.mark.parametrize(
        "model_set",
        [
            GeodesicBall(9, 1.3),
            GeodesicBall(5, 3.0),
            SubsphereTube(8, 2, 1.0),
            SubsphereTube(8, 3, 0.6),
            SubsphereTube(9, 1, 1.4),
        ],
    )
    def test_chi_numeric(self, model_set):
        value = evaluate(chi_vector(model_set.N), model_set)
        assert value == pytest.approx(euler_characteristic(model_set), abs=1e-9)

    def test_boundaryless_parity_vanishing(self):
        # t^k of a great subsphere vanishes exactly when k + j is odd
        N = 10
        for j in range(N + 1):
            for k in range(N + 1):
                value = evaluate(basis_element(N, Basis.T, k), GreatSubsphere(N, j))
                if (k + j) % 2 == 1:
                    assert value == PiScalar.zero()

    @pytest.mark.parametrize("N,j", [(6, 2), (9, 4), (9, 3)])
    def test_top_intrinsic_volume_is_volume(self, N, j):
        value = evaluate(basis_element(N, Basis.MU, j), GreatSubsphere(N, j))
        assert value == alpha(j) * sqrt_pow(N, j)

    def test_degenerate_ball_is_point(self):
        N = 8
        point = GeodesicBall(N, 0.0)
        assert evaluate(chi_vector(N), point) == 1
        for k in range(1, N + 1):
            assert evaluate(basis_element(N, Basis.T, k), point) == PiScalar.zero()

    def test_degenerate_tube_is_great_subsphere(self):
        N, d = 9, 3
        tube0 = SubsphereTube(N, d, 0.0)
        v = chi_vector(N)
        assert evaluate(v, tube0) == evaluate(v, GreatSubsphere(N, N - d))

    def test_mixing_sides_rejected(self):
        # T-basis vectors pair with unit-side sets intrinsically ...
        assert evaluate(chi_vector(5), UnitSphere(5)) == PiScalar.zero()
        # ... but sphere-specific coordinates and mismatched dimensions do not
        with pytest.raises(ValueError):
            evaluate(change_basis(chi_vector(5), Basis.SIGMA), UnitSphere(5))
        with pytest.raises(ValueError):
            evaluate(chi_vector(4), UnitSphere(5))

    def test_large_n_u_power_refused(self):
        # u^k on a ball above the exact cap has its own entry point, and the
        # refusal names it
        N = 2000
        v = basis_element(N, Basis.U, 2)
        with pytest.raises(ValueError, match="capped at N = 64") as info:
            evaluate(v, GeodesicBall(N, 0.5))
        for helper in ("u_power_on_ball", "sigma_evaluate", "nu_values_on_set"):
            assert helper in str(info.value)

    def test_large_n_tau_vector_needs_no_conversion(self):
        N = 2000
        v = basis_element(N, Basis.TAU, 3) + basis_element(N, Basis.TAU, 5).scale(2)
        assert evaluate(v, GreatSubsphere(N, 3)) == 2 * sqrt_pow(4 * N, 3)
        N, ball = 100, GeodesicBall(100, 0.5)
        v = basis_element(N, Basis.TAU, 0) + basis_element(N, Basis.TAU, 7).scale(-3)
        expected = tau_evaluate(0, ball) - 3 * tau_evaluate(7, ball)
        assert evaluate(v, ball) == pytest.approx(expected, rel=1e-14)

    def test_large_n_tau_vector_pairs_only_its_coefficients(self):
        # tau_212 of this ball is past the float range, but the vector holds
        # only tau_0
        N, ball = 2000, GeodesicBall(2000, 3.0)
        with pytest.raises(ValueError, match="tau_212 exceeds the float range"):
            tau_evaluate(212, ball)
        assert evaluate(basis_element(N, Basis.TAU, 0), ball) == tau_evaluate(0, ball)

    @pytest.mark.parametrize(
        "model_set", [GeodesicBall(6, 1.0), SubsphereTube(6, 2, 0.5), UnitCap(6, 0.8)]
    )
    def test_zero_vector_is_a_float_on_float_valued_sets(self, model_set):
        value = evaluate(basis_element(6, Basis.T, 0).scale(0), model_set)
        assert type(value) is float and value == 0.0

    @pytest.mark.parametrize(
        "model_set",
        [
            GreatSubsphere(6, 2),
            AmbientSphere(6),
            GeodesicBall(6, 0.0),
            UnitSphere(6),
            UnitGreatSubsphere(6, 3),
        ],
    )
    def test_zero_vector_is_exact_on_exact_sets(self, model_set):
        value = evaluate(basis_element(6, Basis.T, 0).scale(0), model_set)
        assert isinstance(value, PiScalar) and value == PiScalar.zero()

    def test_large_n_general_vector_rejected(self):
        N = 100
        v = basis_element(N, Basis.SIGMA, 3)
        with pytest.raises(ValueError):
            evaluate(v, GeodesicBall(N, 0.5))


class TestUnitSide:
    def test_euler_characteristics(self):
        for n in range(1, 8):
            assert lk_unit_sphere(n, 0) == 1 + (-1) ** n
        # the largest radius the constructor accepts at N = 86, where r / sqrt(N)
        # rounds to pi: still a disk
        edge = GeodesicBall(86, math.nextafter(math.pi * math.sqrt(86), 0))
        assert edge.r / math.sqrt(edge.N) == math.pi
        assert euler_characteristic(edge) == 1

    def test_parity_vanishing(self):
        for n in range(1, 9):
            for k in range(n + 1):
                if (n - k) % 2 == 1:
                    assert lk_unit_sphere(n, k) == PiScalar.zero()

    def test_against_the_tube_expansion(self):
        for n in range(131):
            for k in range(n + 1):
                assert lk_unit_sphere(n, k) == lk_unit_sphere_tube_route(n, k), (n, k)

    def test_known_sphere_values(self):
        assert lk_unit_sphere(2, 1) == PiScalar.zero()
        assert lk_unit_sphere(2, 2) == 8
        # top power is proportional to the volume: mu_n(S^n) = alpha_n
        for n in range(1, 7):
            mu_top = lk_unit_sphere(n, n) * (
                math.factorial(n) * omega(n) * PiScalar.pi_power(-2 * n)
            ).reciprocal()
            assert mu_top == alpha(n)

    def test_doubling_identity_against_euclidean_ball(self):
        # for k = n (mod 2): t^k(S^n) = 2 t^k(B^(n+1)), the boundary of the
        # unit ball; the ball values come from the independent closed form
        # mu_k(B^M) = (omega_M/omega_{M-k}) binom(M, k).
        for n in range(1, 8):
            for k in range(n % 2, n + 1, 2):
                M = n + 1
                mu_ball = omega(M) * omega(M - k).reciprocal() * math.comb(M, k)
                t_ball = mu_ball * math.factorial(k) * omega(k) * PiScalar.pi_power(-2 * k)
                assert lk_unit_sphere(n, k) == 2 * t_ball

    def test_subsphere_is_intrinsic(self):
        for j in range(4):
            assert t_power_unit(UnitGreatSubsphere(7, 3), j) == lk_unit_sphere(3, j)
        assert t_power_unit(UnitGreatSubsphere(7, 3), 5) == PiScalar.zero()

    def test_hemisphere_cap_doubling(self):
        # 2 t^k(hemisphere of S^n) = t^k(S^(n-1)) whenever k + n is odd
        for n in [2, 3, 4]:
            cap = UnitCap(n, 0.5 * math.pi)
            for k in range(n + 1):
                if (k + n) % 2 == 1:
                    doubled = 2 * t_power_unit(cap, k)
                    expected = float_of(lk_unit_sphere(n - 1, k))
                    assert doubled == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_cap_euler_characteristic(self):
        # exact: a log-scale sum of the sigma terms rounded 376 of these 413
        for n in range(1, 60):
            for theta in (0.05, 0.3, 0.8, 1.0, 1.2, 1.5, 0.5 * math.pi):
                assert t_power_unit(UnitCap(n, theta), 0) == 1.0

    def test_evaluate_unit_side(self):
        v = chi_vector(3)  # T-basis chi on the unit 3-sphere
        assert evaluate(v, UnitSphere(3)) == PiScalar.zero()
        assert evaluate(v, UnitGreatSubsphere(3, 2)) == 2


class TestGrowthLaws:
    def test_ball_power_growth_bound(self):
        # u^k(ball) <= (e/k)^((k+1)/2) r^k across all k <= N <= 200 (C = 1)
        for N in [5, 20, 50, 200]:
            for k in range(N + 1):
                for r in [0.25, 0.6, 0.95]:
                    val = u_power_on_ball(k, N, r)
                    log_bound = ((k + 1) / 2) * (1 - math.log(max(k, 1))) + k * math.log(r)
                    assert val <= math.exp(log_bound) * 1.0 + 1e-300

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_ball_power_limit(self, k):
        N = 10**4
        for r in [0.5, 1.0]:
            val = u_power_on_ball(k, N, r)
            limit = omega_float(k) / (2 * math.pi) ** (k / 2) * r**k
            assert val == pytest.approx(limit, rel=0.02)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_euclidean_ball_power_limit(self, k):
        N = 10**4
        val = u_power_on_euclidean_ball(k, N) * (2 * math.pi) ** (k / 2) / omega_float(k)
        assert val == pytest.approx(1.0, rel=0.02)

    def test_product_sandwich(self):
        # mu_k(disk) <= mu_k(ball) <= mu_k(disk) + (2 r^2/sqrt(N)) mu_{k-1}(disk):
        # the cap of the spherical ball is pinched between the flat disk and
        # the disk-times-interval cylinder.
        for N in [50, 200]:
            for r in [0.3, 0.8]:
                R = math.sqrt(N)
                disk_radius = R * math.sin(r / R)
                for k in range(1, 5):
                    mu_ball = (
                        u_power_on_ball(k, N, r)
                        * math.exp(0.5 * k * math.log(4 * N))
                        * math.pi**k
                        / (math.factorial(k) * omega_float(k))
                    )
                    lo = mu_on_euclidean_ball(k, N) * disk_radius**k
                    below = mu_on_euclidean_ball(k - 1, N) * disk_radius ** (k - 1)
                    hi = lo + (2 * r**2 / R) * below
                    assert lo <= mu_ball * (1 + 1e-9)
                    assert mu_ball <= hi * (1 + 1e-9)


class TestAbsSigma:
    def test_equals_sigma_on_convex_balls(self):
        for N, r in [(8, 1.0), (12, 2.0)]:
            ball = GeodesicBall(N, r)
            for k in range(N + 1):
                assert abs_sigma(k, ball) == sigma_evaluate(k, ball)

    def test_nonnegative(self):
        sets = [
            GeodesicBall(9, 1.1),
            SubsphereTube(9, 2, 1.0),
            GreatSubsphere(9, 4),
        ]
        for model_set in sets:
            for k in range(10):
                assert abs_sigma(k, model_set) >= 0

    def test_dominates_signed_sigma_on_tubes(self):
        tube = SubsphereTube(11, 3, 1.0)
        saw_difference = False
        for k in range(12):
            signed = sigma_evaluate(k, tube)
            absolute = abs_sigma(k, tube)
            assert absolute >= abs(signed) - 1e-12
            if absolute > abs(signed) + 1e-12 or signed < 0:
                saw_difference = True
        assert saw_difference

    def test_tube_growth_bound(self):
        # order-of-growth check: abs_sigma(k, tube) <= C k^(d - k/2) (2 pi e)^k
        # with the constant fitted at k = 1
        N = 200
        for d, rho in [(2, 1.0), (3, 1.5)]:
            s = math.sqrt(N) * math.asin(rho / math.sqrt(N))
            tube = SubsphereTube(N, d, s)
            bound = lambda k: k ** (d - k / 2) * (2 * math.pi * math.e) ** k
            C = abs_sigma(1, tube) / bound(1) * 1.05
            for k in range(1, 9):
                assert abs_sigma(k, tube) <= C * bound(k)
