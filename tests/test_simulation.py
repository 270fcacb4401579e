"""Samplers, excursion functionals, and Monte Carlo drivers.

Statistical assertions run at reduced sample sizes here (the full budgets
live in the acceptance suite) with fixed seeds throughout.
"""

import math

import numpy as np
import pytest
from scipy.special import gammainc, ndtr

from gkf.drivers import (
    McReport,
    estimate_lhs,
    kinematic_inequality_check,
    mean_abs_chi,
    nu_convergence,
    nu_limit_constant,
    pi_n_prediction,
    pull_back_set,
)
from gkf.functionals import (
    chi_intersection,
    icosphere,
    mesh_chi_quadratic,
    volume_fraction,
)
from gkf.gauss import CenteredBall, FullSpace, HalfSpace, gauss_measure_tube, gkf_predict
from gkf.kinematics import nu_values_on_set
from gkf.model_sets import (
    AmbientSphere,
    GeodesicBall,
    GreatSubsphere,
    SubsphereTube,
    UnitCap,
    UnitSphere,
)
from gkf.rng import RngStream
from gkf.sampling import (
    LinearMapSample,
    pi_n_batch,
    poincare_test,
    projected_coordinate_cdf,
    sample_pi_infinity,
    sample_pi_n,
    uniform_cap_batch,
    uniform_sphere_batch,
)


class TestRngStreams:
    def test_reproducible(self):
        a = sample_pi_infinity(4, 2, RngStream(42, 3))
        b = sample_pi_infinity(4, 2, RngStream(42, 3))
        assert np.array_equal(a.entries, b.entries)

    def test_independent_streams_differ(self):
        a = sample_pi_infinity(4, 2, RngStream(42, 0))
        b = sample_pi_infinity(42, 2, RngStream(42, 1)) if False else sample_pi_infinity(4, 2, RngStream(42, 1))
        assert not np.array_equal(a.entries, b.entries)


class TestGaussianEnsemble:
    def test_shape_and_moments(self):
        n, d = 5, 3
        gen = RngStream(7).generator()
        batch = gen.standard_normal((20000, d, n + 1))
        assert abs(batch.mean()) < 3 * 1.0 / math.sqrt(batch.size)
        # |Fx|^2 for unit x sums d unit variances
        x = np.zeros(n + 1)
        x[2] = 1.0
        норм = None
        images = batch @ x
        mean_sq = (images**2).sum(axis=1).mean()
        assert mean_sq == pytest.approx(d, abs=3 * math.sqrt(2 * d / 20000) + 0.05)


class TestRotationBlockEnsemble:
    def test_frame_orthonormality(self):
        n, d, N = 2, 2, 60
        gen = RngStream(5).generator()
        g = gen.standard_normal((N + 1, n + 1))
        gram = g.T @ g
        chol = np.linalg.cholesky(gram)
        frame = g @ np.linalg.inv(chol).T
        assert np.abs(frame.T @ frame - np.eye(n + 1)).max() < 1e-12

    def test_block_scaling_column_norms(self):
        # each column of the pre-scaled frame is a unit vector, so each
        # column of the sample has norm at most sqrt(N)
        n, d, N = 3, 4, 30
        sample = sample_pi_n(n, d, N, RngStream(8))
        norms = np.linalg.norm(sample.entries, axis=0)
        assert np.all(norms <= math.sqrt(N) + 1e-9)
        assert sample.origin_n == N

    def test_entry_law_matches_sphere_coordinate(self):
        # one entry over sqrt(N) is a coordinate of a uniform point on the
        # unit (N)-sphere: variance 1/(N+1)
        n, d, N = 1, 1, 40
        batch = pi_n_batch(n, d, N, 40000, RngStream(9).generator())
        entries = batch[:, 0, 0] / math.sqrt(N)
        var = entries.var()
        # direct uniform-sphere oracle
        oracle = uniform_sphere_batch(N, 40000, RngStream(10).generator())[:, 0].var()
        se = math.sqrt(2.0 / 40000) / (N + 1) * 3
        assert abs(var - 1 / (N + 1)) < 3e-4
        assert abs(var - oracle) < 6e-4

    def test_large_n_entries_near_gaussian(self):
        # one entry per draw, 1e5 draws at N = 1000: the entry law is within
        # KS distance 0.01 of the standard normal
        N = 1000
        gen = RngStream(11).generator()
        entries = np.concatenate(
            [pi_n_batch(2, 1, N, 10000, gen)[:, 0, 0] for _ in range(10)]
        )
        xs = np.sort(entries)
        F = ndtr(xs)
        grid = np.arange(1, len(xs) + 1) / len(xs)
        ks = max(np.max(grid - F), np.max(F - grid + 1 / len(xs)))
        assert ks < 0.01

    def test_block_must_fit(self):
        with pytest.raises(ValueError):
            sample_pi_n(5, 2, 3, RngStream(0))


class TestCapSampler:
    def test_support(self):
        theta = 0.8
        pts = uniform_cap_batch(3, theta, 5000, RngStream(12).generator())
        assert np.all(pts[:, 0] >= math.cos(theta) - 1e-12)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_colatitude_law(self):
        # fraction of cap points above a smaller colatitude equals the ratio
        # of cap volume fractions
        n, theta, inner = 2, 1.0, 0.6
        pts = uniform_cap_batch(n, theta, 200000, RngStream(13).generator())
        frac = (pts[:, 0] >= math.cos(inner)).mean()
        from gkf.model_sets import ball_volume_fraction

        expected = ball_volume_fraction(n, inner * math.sqrt(n)) / ball_volume_fraction(
            n, theta * math.sqrt(n)
        )
        assert frac == pytest.approx(expected, abs=0.005)


class TestChiIntersection:
    def test_disjoint_caps(self):
        xi = np.array([[-3.0, 0.0, 0.0]])  # excursion cap centered at -e0
        value = chi_intersection(
            UnitCap(2, 0.3), HalfSpace(1, 2.9), LinearMapSample(xi)
        )
        assert value == 0

    def test_single_cap_on_sphere(self):
        xi = np.array([[1.0, 2.0, -0.5]])
        value = chi_intersection(UnitSphere(2), HalfSpace(1, 1.0), LinearMapSample(xi))
        assert value == 1

    def test_empty_when_threshold_unreachable(self):
        xi = np.array([[0.3, 0.4, 0.0]])
        assert (
            chi_intersection(UnitSphere(2), HalfSpace(1, 2.0), LinearMapSample(xi)) == 0
        )

    def test_full_sphere_when_threshold_below(self):
        xi = np.array([[0.3, 0.4, 0.0]])
        for n, expected in [(2, 2), (3, 0)]:
            pad = np.zeros((1, n + 1))
            pad[0, :3] = xi
            assert (
                chi_intersection(UnitSphere(n), HalfSpace(1, -2.0), LinearMapSample(pad))
                == expected
            )

    def test_band_case_on_two_sphere(self):
        # a cap and an excursion cap whose union covers the sphere intersect
        # in a band: {cos 1.5 <= x_0 <= 0.9}
        for n, expected in [(2, 0), (3, 2)]:
            xi = np.zeros((1, n + 1))
            xi[0, 0] = -1.0
            value = chi_intersection(UnitCap(n, 1.5), HalfSpace(1, -0.9), LinearMapSample(xi))
            assert value == expected

    def test_degenerate_halfspace_maps(self):
        # xi = 0 or u = -|xi|: the excursion is empty or the whole sphere
        for xi, u, on_sphere, on_cap in [
            ([0.0, 0.0, 0.0], 0.0, 2, 1),
            ([0.0, 0.0, 0.0], 0.5, 0, 0),
            ([0.0, 0.0, 0.0], -0.5, 2, 1),
            ([0.6, 0.0, 0.8], -1.0, 2, 1),
        ]:
            F = LinearMapSample(np.array([xi]))
            assert chi_intersection(UnitSphere(2), HalfSpace(1, u), F) == on_sphere
            assert chi_intersection(UnitCap(2, 0.7), HalfSpace(1, u), F) == on_cap

    def test_quadratic_full_count_is_sphere_chi(self):
        gen = RngStream(14).generator()
        for n, d in [(2, 2), (3, 2), (2, 4), (4, 3)]:
            F = gen.standard_normal((d, n + 1))
            big = chi_intersection(
                UnitSphere(n), CenteredBall(d, 1e9), LinearMapSample(F)
            )
            assert big == 1 + (-1) ** n

    def test_quadratic_empty_below_spectrum(self):
        gen = RngStream(15).generator()
        F = gen.standard_normal((3, 3)) + 3 * np.eye(3)
        lam = np.linalg.eigvalsh(F.T @ F)
        rho = math.sqrt(lam[0]) * 0.5
        assert (
            chi_intersection(UnitSphere(2), CenteredBall(3, rho), LinearMapSample(F))
            == 0
        )

    def test_kernel_sphere_bottom_stratum(self):
        # level below every positive eigenvalue (4 and 9) leaves the kernel
        # 2-sphere of the map on S^4
        F = np.zeros((2, 5))
        F[0, 0], F[1, 1] = 2.0, 3.0
        value = chi_intersection(UnitSphere(4), CenteredBall(2, 1.0), LinearMapSample(F))
        assert value == 1 + (-1) ** 2

    def test_mesh_oracle_agreement_sample(self):
        gen = RngStream(16).generator()
        for _ in range(40):
            d = int(gen.integers(2, 4))
            F = gen.standard_normal((d, 3))
            rho = float(gen.uniform(0.3, 2.5))
            formula = chi_intersection(
                UnitSphere(2), CenteredBall(d, rho), LinearMapSample(F)
            )
            assert formula == mesh_chi_quadratic(F, rho)

    def test_mesh_complex_counts(self):
        V, E, F = icosphere(3)
        assert len(V) - len(E) + len(F) == 2  # the sphere itself


class TestVolumeFraction:
    def test_full_space(self):
        F = sample_pi_infinity(3, 2, RngStream(17))
        assert volume_fraction(UnitSphere(3), FullSpace(2), F, RngStream(18), 100) == 1.0

    def test_halfspace_zero_threshold_symmetry(self):
        F = sample_pi_infinity(2, 1, RngStream(19))
        frac = volume_fraction(UnitSphere(2), HalfSpace(1, 0.0), F, RngStream(20), 200000)
        assert frac == pytest.approx(0.5, abs=0.005)

    def test_fixed_point_gaussian_image(self):
        # for a fixed unit point the image is standard Gaussian, so the
        # average membership over map draws is the tube measure at zero
        d, n = 2, 3
        D = CenteredBall(d, 1.0)
        gen = RngStream(21).generator()
        batch = gen.standard_normal((200000, d))
        hits = (np.einsum("ij,ij->i", batch, batch) <= 1.0).mean()
        assert hits == pytest.approx(gauss_measure_tube(D, 0.0), abs=0.005)


class TestEstimateLhs:
    def test_reproducibility_bitwise(self):
        a = estimate_lhs(UnitSphere(2), HalfSpace(1, 1.0), 0, 5000, RngStream(1, 5))
        b = estimate_lhs(UnitSphere(2), HalfSpace(1, 1.0), 0, 5000, RngStream(1, 5))
        assert a == b

    def test_workers_do_not_change_the_result(self):
        a = estimate_lhs(UnitSphere(2), CenteredBall(2, 1.0), 0, 20000, RngStream(2, 1))
        b = estimate_lhs(
            UnitSphere(2), CenteredBall(2, 1.0), 0, 20000, RngStream(2, 1), workers=2
        )
        assert a == b

    def test_chi_case_gate(self):
        rep = estimate_lhs(UnitSphere(2), HalfSpace(1, 0.5), 0, 30000, RngStream(3, 0))
        assert isinstance(rep, McReport)
        assert abs(rep.z_score) < 3
        assert rep.gate == "PASS"

    def test_constant_case_zero_variance(self):
        for n in [2, 3]:
            rep = estimate_lhs(UnitSphere(n), FullSpace(2), 0, 1000, RngStream(4, 0))
            assert rep.estimate == 1 + (-1) ** n
            assert rep.stderr == 0.0
            assert rep.z_score == 0.0

    def test_cap_base(self):
        rep = estimate_lhs(UnitCap(2, 0.9), HalfSpace(1, 0.8), 0, 40000, RngStream(5, 0))
        assert abs(rep.z_score) < 3.5

    def test_top_degree_matches_gamma0(self):
        D = CenteredBall(2, 1.0)
        rep = estimate_lhs(UnitSphere(2), D, "top", 30000, RngStream(6, 0))
        assert abs(rep.z_score) < 3

    def test_finite_law_matches_exact_pairing(self):
        rep = estimate_lhs(
            UnitSphere(2), CenteredBall(2, 1.0), 0, 30000, RngStream(7, 0), law_n=50
        )
        assert abs(rep.z_score) < 3

    def test_finite_law_halfspace_trace(self):
        rep = estimate_lhs(
            UnitSphere(2), HalfSpace(1, 0.5), 0, 30000, RngStream(8, 0), law_n=80
        )
        assert abs(rep.z_score) < 3

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            estimate_lhs(UnitSphere(2), FullSpace(1), 1, 10, RngStream(0))

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples(self, n_samples):
        with pytest.raises(ValueError):
            estimate_lhs(UnitSphere(2), HalfSpace(1, 0.5), 0, n_samples, RngStream(0))
        with pytest.raises(ValueError):
            mean_abs_chi(UnitSphere(2), HalfSpace(1, 0.5), n_samples, RngStream(0))


class TestFiniteNPrediction:
    def test_full_space_is_unit_value(self):
        from gkf.evaluate import lk_unit_sphere
        from gkf.scalars import float_of

        for n in [1, 2, 3]:
            for m in [0, n]:
                pred = pi_n_prediction(UnitSphere(n), FullSpace(2), 100, m)
                assert pred == pytest.approx(float_of(lk_unit_sphere(n, m)), rel=1e-10)

    def test_converges_to_gaussian_prediction(self):
        A, D = UnitSphere(2), CenteredBall(2, 1.0)
        target = gkf_predict(A, D, 0)
        errors = [abs(pi_n_prediction(A, D, N, 0) - target) for N in (50, 200, 800, 3200)]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.005

    def test_pull_back_shapes(self):
        assert isinstance(pull_back_set(CenteredBall(2, 1.0), 50), SubsphereTube)
        assert isinstance(pull_back_set(HalfSpace(1, 0.3), 50), GeodesicBall)
        assert isinstance(pull_back_set(FullSpace(3), 50), AmbientSphere)
        with pytest.raises(ValueError):
            pull_back_set(CenteredBall(2, 10.0), 9)


class TestPoincare:
    def test_marginal_ks_small_at_large_n(self):
        rep = poincare_test(1000, 1, 20000, RngStream(30, 0))
        assert rep.ks_statistic < 0.015

    def test_second_moment(self):
        rep = poincare_test(500, 1, 50000, RngStream(31, 0))
        assert rep.second_moment == pytest.approx(1.0, abs=0.02)

    def test_exact_projected_cdf_is_better_fit(self):
        # the KS distance to the exact projected law is smaller than to the
        # limiting Gaussian at moderate N
        N, n_samples = 20, 100000
        rng = RngStream(32, 0)
        gen = rng.generator()
        g = gen.standard_normal((n_samples, 1))
        tail = gen.chisquare(N, n_samples)
        x = np.sort(math.sqrt(N) * g[:, 0] / np.sqrt(g[:, 0] ** 2 + tail))
        grid = np.arange(1, n_samples + 1) / n_samples
        F_exact = np.array([projected_coordinate_cdf(float(t), N) for t in x])
        F_gauss = ndtr(x)
        ks_exact = max(np.max(grid - F_exact), np.max(F_exact - grid + 1 / n_samples))
        ks_gauss = max(np.max(grid - F_gauss), np.max(F_gauss - grid + 1 / n_samples))
        assert ks_exact < ks_gauss

    def test_radial_mode(self):
        rep = poincare_test(800, 2, 20000, RngStream(33, 0))
        assert rep.ks_statistic < 0.02
        assert rep.second_moment == pytest.approx(1.0, abs=0.03)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            poincare_test(2, 3, 10, RngStream(0))


class TestNuConvergence:
    def test_monotone_and_small(self):
        rows = nu_convergence(2, 1.0, 2, (100, 400, 1600))
        by_k = {}
        for row in rows:
            by_k.setdefault(row["k"], []).append(row)
        for k, seq in by_k.items():
            errs = [r["abs_err"] for r in seq]
            assert errs == sorted(errs, reverse=True)
        assert by_k[0][-1]["rel_err"] < 0.05
        assert by_k[1][-1]["rel_err"] < 0.05

    def test_zero_limit_flagged(self):
        rows = [r for r in nu_convergence(2, 1.0, 2, (400,)) if r["k"] == 2]
        assert rows[0]["limit_is_zero"]
        assert rows[0]["limit"] == 0.0

    def test_limit_constants(self):
        assert nu_limit_constant(0) == 1.0
        assert nu_limit_constant(2) == pytest.approx(1.0, rel=1e-14)

    def test_nu_zero_is_volume_fraction(self):
        trace = pull_back_set(CenteredBall(2, 1.0), 300)
        from gkf.model_sets import tube_volume_fraction

        assert nu_values_on_set(300, trace, 0)[0] == pytest.approx(
            tube_volume_fraction(300, 2, trace.s), rel=1e-12
        )


class TestKinematicInequality:
    def test_volume_case_passes(self):
        report = kinematic_inequality_check(
            GeodesicBall(20, 5.5), GeodesicBall(20, 6.5), 0, 20, 40000, RngStream(40)
        )
        assert report["passed"]
        assert report["mode"] == "volume-mc"
        # equality case: the estimate sits within noise of the bound
        assert abs(report["lhs"] - report["rhs"]) < 4 * report["stderr"] + 1e-12

    def test_tiny_caps(self):
        report = kinematic_inequality_check(
            GeodesicBall(20, 0.5), GeodesicBall(20, 0.4), 0, 20, 20000, RngStream(41)
        )
        assert report["passed"]

    def test_ambient_factor_exact(self):
        for k in [0, 1, 2, 5]:
            report = kinematic_inequality_check(
                GeodesicBall(20, 4.0), AmbientSphere(20), k, 20, 0, RngStream(42)
            )
            assert report["passed"]
            assert report["stderr"] == 0.0

    def test_unsupported_configuration(self):
        with pytest.raises(ValueError):
            kinematic_inequality_check(
                GeodesicBall(20, 1.0), GeodesicBall(20, 1.0), 3, 20, 10, RngStream(43)
            )


class TestKinematicPairingAgainstRotationMonteCarlo:
    def test_chi_pairing_ball_with_great_hypersphere(self):
        # chi of (geodesic ball intersect rotated great hypersphere) is one
        # exactly when the ball center lies within its radius of the rotated
        # hypersphere; averaging that indicator over random rotations is an
        # independent oracle for the kinematic pairing of chi
        from gkf.kinematics import p_chi, pair_tensor

        N, r = 8, 1.3
        exact = pair_tensor(
            p_chi(N), GeodesicBall(N, r), GreatSubsphere(N, N - 1)
        )
        gen = RngStream(55).generator()
        normals = gen.standard_normal((200000, N + 1))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        # rotated hypersphere = {x : <x, w> = 0}; the ball center is e0
        angular_gap = np.abs(0.5 * math.pi - np.arccos(np.clip(normals[:, 0], -1, 1)))
        hits = angular_gap <= r / math.sqrt(N)
        mean = hits.mean()
        stderr = hits.std(ddof=1) / math.sqrt(len(hits))
        assert abs(mean - exact) < 3 * stderr + 1e-12


class TestUniformIntegrabilityProxy:
    def test_bounded_over_n(self):
        values = [
            mean_abs_chi(
                UnitSphere(2), CenteredBall(2, 1.0), 10000, RngStream(44), law_n=N
            )
            for N in (50, 200, 1000)
        ]
        assert max(values) < 2.0
