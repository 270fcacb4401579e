"""Samplers, excursion functionals, and Monte Carlo drivers.

Statistical assertions run at reduced sample sizes here (the full budgets
live in the acceptance suite) with fixed seeds throughout.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.special import gammainc, gammaincinv, ndtr, ndtri

from gkf import drivers, functionals
from gkf.bases import nu_in_sigma_column
from gkf.drivers import (
    _MAX_LAW_N,
    CHUNK_SIZE,
    McReport,
    _chunk_moments,
    _chunk_plan,
    _make_report,
    _pairwise_roundings,
    estimate_lhs,
    kinematic_inequality_check,
    nu_convergence,
    nu_limit_constant,
    pi_n_prediction,
    pull_back_set,
)
from gkf.evaluate import sigma_evaluate
from gkf.functionals import (
    _DESCARTES_MAX_DIM,
    _corners_and_midpoints,
    _count_parity,
    _hit_fractions,
    _two_level_chi,
    _vertex_monomials,
    chi_halfspace_batch,
    chi_intersection,
    chi_quadratic_batch,
    chi_values,
    icosphere,
    mesh_chi_quadratic,
)
from gkf.gauss import (
    CenteredBall,
    FullSpace,
    HalfSpace,
    Origin,
    gauss_measure_tube,
    gkf_predict,
)
from gkf.kinematics import nu_values_on_set
from gkf.model_sets import (
    AmbientSphere,
    GeodesicBall,
    GreatSubsphere,
    SubsphereTube,
    UnitCap,
    UnitGreatSubsphere,
    UnitSphere,
)
from gkf.rng import RngStream
from gkf.sampling import (
    _BLOCK,
    _RANKS,
    LinearMapSample,
    _ks_statistic,
    _square_norms,
    pi_infinity_batch,
    pi_n_batch,
    poincare_sweep,
    uniform_cap_batch,
    uniform_sphere_batch,
)
from gkf.series import u_power_in_sigma

from oracles import (
    chi_halfspace_norm_route,
    chi_on_sphere_exact,
    chi_quadratic_eigvalsh,
    count_at_most_sign_changes,
    hit_fractions_einsum,
    icosphere_unique,
    ks_statistic_full_grid,
    mesh_chi_quadratic_by_level,
    mesh_chi_sublevel,
    pair_tensor,
    pairwise_sum_chain,
    pi_n_batch_lapack,
    pi_n_prediction_nu_route,
    poincare_out_of_place,
    projected_coordinate_cdf,
    u_power_on_great_subsphere,
    uniform_sphere_norm_route,
)


class TestRngStreams:
    def test_reproducible(self):
        a = pi_infinity_batch(4, 2, 1, RngStream(42, 3).generator())[0]
        b = pi_infinity_batch(4, 2, 1, RngStream(42, 3).generator())[0]
        assert np.array_equal(a, b)

    def test_independent_streams_differ(self):
        a = pi_infinity_batch(4, 2, 1, RngStream(42, 0).generator())[0]
        b = pi_infinity_batch(4, 2, 1, RngStream(42, 1).generator())[0]
        assert not np.array_equal(a, b)


class TestGaussianEnsemble:
    def test_shape_and_moments(self):
        n, d = 5, 3
        batch = pi_infinity_batch(n, d, 20000, RngStream(7).generator())
        assert abs(batch.mean()) < 3 * 1.0 / math.sqrt(batch.size)
        # |Fx|^2 for unit x sums d unit variances
        x = np.zeros(n + 1)
        x[2] = 1.0
        images = batch @ x
        mean_sq = (images**2).sum(axis=1).mean()
        assert mean_sq == pytest.approx(d, abs=3 * math.sqrt(2 * d / 20000) + 0.05)


class TestRotationBlockEnsemble:
    @pytest.mark.parametrize("n, d, N", [(2, 2, 60), (2, 2, 2), (3, 4, 5)])
    def test_blocks_are_contractions(self, n, d, N):
        # a block of an orthonormal frame has spectral norm at most 1, also
        # when the Bartlett factor has fewer rows than columns (N+1-d < n+1)
        batch = pi_n_batch(n, d, N, 4000, RngStream(5).generator())
        assert batch.shape == (4000, d, n + 1)
        norms = np.linalg.norm(batch, ord=2, axis=(1, 2))
        assert np.all(norms <= math.sqrt(N) * (1 + 1e-6))

    def test_rank_deficient_second_moment(self):
        # at N = 2 one entry over sqrt(N) is a coordinate of a uniform point
        # on the unit 2-sphere, so E[X_00^2] = N / (N+1)
        N, size = 2, 40000
        squares = pi_n_batch(2, 2, N, size, RngStream(6).generator())[:, 0, 0] ** 2
        stderr = squares.std(ddof=1) / math.sqrt(size)
        assert abs(squares.mean() - N / (N + 1)) < 3 * stderr

    def test_pathwise_gaussian_limit(self):
        # the top Gaussian rows are drawn first, so at large N a draw is
        # close to the Gaussian draw made from the same generator
        finite = pi_n_batch(2, 2, 10**8, 1000, RngStream(7).generator())
        gaussian = pi_infinity_batch(2, 2, 1000, RngStream(7).generator())
        assert np.abs(finite - gaussian).max() < 0.01

    def test_block_scaling_column_norms(self):
        # each column of the pre-scaled frame is a unit vector, so each
        # column of the sample has norm at most sqrt(N)
        n, d, N = 3, 4, 30
        sample = pi_n_batch(n, d, N, 1, RngStream(8).generator())[0]
        norms = np.linalg.norm(sample, axis=0)
        assert np.all(norms <= math.sqrt(N) + 1e-9)

    def test_entry_law_matches_sphere_coordinate(self):
        # one entry over sqrt(N) is a coordinate of a uniform point on the
        # unit (N)-sphere: variance 1/(N+1)
        n, d, N = 1, 1, 40
        batch = pi_n_batch(n, d, N, 40000, RngStream(9).generator())
        entries = batch[:, 0, 0] / math.sqrt(N)
        var = entries.var()
        # direct uniform-sphere oracle
        oracle = uniform_sphere_batch(N, 40000, RngStream(10).generator())[:, 0].var()
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
            pi_n_batch(5, 2, 3, 1, RngStream(0).generator())

    @pytest.mark.parametrize(
        "n, d, N, tol",
        [
            (2, 2, 50, 2e-15),
            (2, 2, 1000, 2e-15),
            # R has fewer rows than columns at these two, and the Gram
            # matrix is ill-conditioned: the routes differed by 1.3e-10 and
            # 1.5e-14 here, and by up to 3.5e-8 and 5.5e-14 on seeds 12..19
            (2, 2, 2, 1e-7),
            (3, 4, 5, 1e-12),
            (1, 1, 40, 2e-15),
            (5, 3, 40, 2e-15),
            (9, 3, 40, 2e-15),
            (2, 1, 10**8, 2e-15),
        ],
    )
    def test_matches_lapack_route(self, n, d, N, tol):
        # the same draws in the same order as the per-matrix LAPACK route:
        # the entries agree to rounding, relative to sqrt(N), and the
        # generator is left at the same point
        gen, ref_gen = RngStream(12).generator(), RngStream(12).generator()
        got = pi_n_batch(n, d, N, 4096, gen)
        want = pi_n_batch_lapack(n, d, N, 4096, ref_gen)
        assert got.shape == want.shape == (4096, d, n + 1)
        assert np.abs(got - want).max() <= tol * math.sqrt(N)
        assert gen.standard_normal() == ref_gen.standard_normal()

    def test_singular_gram_raises(self):
        # all-zero draws make the Gram matrix zero: a refused pivot, not NaN
        class ZeroGenerator:
            def standard_normal(self, shape):
                return np.zeros(shape)

            def chisquare(self, df, shape):
                return np.zeros(shape)

        with pytest.raises(ValueError, match="not positive definite"):
            pi_n_batch(2, 2, 50, 16, ZeroGenerator())


class TestSphereSampler:
    @pytest.mark.parametrize("rows", [1, 7, 8192])
    @pytest.mark.parametrize("width", range(1, 21))
    def test_square_norms_root_is_linalg_norm(self, rows, width):
        # entries over 16 decades, whole zero rows, entries near 1e154
        # whose squares overflow, and subnormals whose squares vanish
        gen = RngStream(50, width).generator()
        shape = (rows, width)
        normal = gen.standard_normal(shape)
        spread = normal * 10.0 ** gen.uniform(-8, 8, shape)
        huge = np.sign(normal) * gen.uniform(0.5, 1.5, shape) * 1e154
        tiny = gen.integers(-8, 9, shape) * 5e-324
        mixed = np.choose(gen.integers(0, 4, shape), [spread, huge, tiny, np.zeros(shape)])
        with np.errstate(over="ignore", under="ignore"):
            for x in (spread, np.zeros(shape), huge, tiny, mixed):
                assert np.array_equal(np.sqrt(_square_norms(x)), np.linalg.norm(x, axis=1))

    @pytest.mark.parametrize("n", [0, 1, 2, 6, 7, 12])
    def test_uniform_sphere_matches_norm_route(self, n):
        gen, ref_gen = RngStream(51, n).generator(), RngStream(51, n).generator()
        got = uniform_sphere_batch(n, 4099, gen)
        assert np.array_equal(got, uniform_sphere_norm_route(n, 4099, ref_gen))
        assert gen.standard_normal() == ref_gen.standard_normal()


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
        assert chi_values(UnitCap(2, 0.3), HalfSpace(1, 2.9), xi[None])[0] == 0

    def test_single_cap_on_sphere(self):
        xi = np.array([[1.0, 2.0, -0.5]])
        assert chi_values(UnitSphere(2), HalfSpace(1, 1.0), xi[None])[0] == 1

    def test_empty_when_threshold_unreachable(self):
        xi = np.array([[0.3, 0.4, 0.0]])
        assert chi_values(UnitSphere(2), HalfSpace(1, 2.0), xi[None])[0] == 0

    def test_full_sphere_when_threshold_below(self):
        xi = np.array([[0.3, 0.4, 0.0]])
        for n, expected in [(2, 2), (3, 0)]:
            pad = np.zeros((1, n + 1))
            pad[0, :3] = xi
            assert chi_values(UnitSphere(n), HalfSpace(1, -2.0), pad[None])[0] == expected

    def test_band_case_on_two_sphere(self):
        # a cap and an excursion cap whose union covers the sphere intersect
        # in a band: {cos 1.5 <= x_0 <= 0.9}
        for n, expected in [(2, 0), (3, 2)]:
            xi = np.zeros((1, n + 1))
            xi[0, 0] = -1.0
            assert chi_values(UnitCap(n, 1.5), HalfSpace(1, -0.9), xi[None])[0] == expected

    def test_degenerate_halfspace_maps(self):
        # xi = 0 or u = -|xi|: the excursion is empty or the whole sphere
        for xi, u, on_sphere, on_cap in [
            ([0.0, 0.0, 0.0], 0.0, 2, 1),
            ([0.0, 0.0, 0.0], 0.5, 0, 0),
            ([0.0, 0.0, 0.0], -0.5, 2, 1),
            ([0.6, 0.0, 0.8], -1.0, 2, 1),
        ]:
            F = np.array([[xi]])
            assert chi_values(UnitSphere(2), HalfSpace(1, u), F)[0] == on_sphere
            assert chi_values(UnitCap(2, 0.7), HalfSpace(1, u), F)[0] == on_cap

    def test_map_shape_checked_in_every_branch(self):
        wide = np.ones((1, 1, 7))
        for A in (UnitSphere(2), UnitCap(2, 1.0), UnitGreatSubsphere(2, 1)):
            for D in (HalfSpace(1, 0.5), FullSpace(1)):
                with pytest.raises(ValueError, match="map shape mismatch"):
                    chi_values(A, D, wide)
        for rows, cols in [(2, 7), (3, 3)]:
            F = np.ones((1, rows, cols))
            with pytest.raises(ValueError, match="map shape mismatch"):
                chi_values(UnitSphere(2), CenteredBall(2, 1.0), F)
        with pytest.raises(ValueError, match="unit-side"):
            chi_values(AmbientSphere(3), FullSpace(1), np.ones((1, 1, 4)))

    def test_quadratic_full_count_is_sphere_chi(self):
        gen = RngStream(14).generator()
        for n, d in [(2, 2), (3, 2), (2, 4), (4, 3)]:
            F = gen.standard_normal((d, n + 1))
            big = chi_values(UnitSphere(n), CenteredBall(d, 1e9), F[None])[0]
            assert big == 1 + (-1) ** n

    def test_quadratic_empty_below_spectrum(self):
        gen = RngStream(15).generator()
        F = gen.standard_normal((3, 3)) + 3 * np.eye(3)
        lam = np.linalg.eigvalsh(F.T @ F)
        rho = math.sqrt(lam[0]) * 0.5
        assert chi_values(UnitSphere(2), CenteredBall(3, rho), F[None])[0] == 0

    def test_kernel_sphere_bottom_stratum(self):
        # level below every positive eigenvalue (4 and 9) leaves the kernel
        # 2-sphere of the map on S^4
        F = np.zeros((2, 5))
        F[0, 0], F[1, 1] = 2.0, 3.0
        value = chi_values(UnitSphere(4), CenteredBall(2, 1.0), F[None])[0]
        assert value == 1 + (-1) ** 2

    def test_mesh_oracle_agreement_sample(self):
        gen = RngStream(16).generator()
        for _ in range(40):
            d = int(gen.integers(2, 4))
            F = gen.standard_normal((d, 3))
            rho = float(gen.uniform(0.3, 2.5))
            formula = chi_values(UnitSphere(2), CenteredBall(d, rho), F[None])[0]
            assert formula == mesh_chi_quadratic(F, rho)

    def test_mesh_complex_counts(self):
        V, E, F = icosphere(3)
        assert len(V) - len(E) + len(F) == 2  # the sphere itself


def _gram_shapes() -> list[tuple[int, int]]:
    """(n, d) for every Gram size m = min(d, n+1) up to one past the
    Descartes cap: d < n, d = n and (from m = 2) d = n+1 and d > n+1, plus
    d = 1 on a larger sphere."""
    shapes = [(5, 1)]
    for m in range(1, _DESCARTES_MAX_DIM + 2):
        shapes += [(m + 1, m), (m, m)]
        if m >= 2:
            shapes += [(m - 1, m), (m - 1, m + 2)]
    return shapes


def counts_per_map(A, D, F) -> set:
    """The counts chi_values gives a batch, asserted equal to those of its
    maps as batches of one: no map's count depends on its batch."""
    batch = chi_values(A, D, F)
    assert np.array_equal(batch, [chi_values(A, D, f[None])[0] for f in F])
    return set(batch.tolist())


# (rows, rho, chi, whether eigvalsh counts the tie right): maps with an
# eigenvalue of the Gram matrix exactly at rho^2
_TIE_MAPS = [
    # the kernel-sphere map of S^4: Gram diag(4, 9)
    ([[2, 0, 0, 0, 0], [0, 3, 0, 0, 0]], 2.0, 0, True),
    ([[2, 0, 0, 0, 0], [0, 3, 0, 0, 0]], 3.0, 2, True),
    # Gram [[5, 4], [4, 5]], eigenvalues 1 and 9
    ([[2, 1, 0], [1, 2, 0]], 1.0, 0, True),
    ([[2, 1, 0], [1, 2, 0]], 3.0, 2, True),
    # d > n: Gram diag(4, 1) of the columns
    ([[2, 0], [0, 1], [0, 0]], 1.0, 2, True),
    ([[2, 0], [0, 1], [0, 0]], 2.0, 0, True),
    # rank one with tr G = rho^2
    ([[3, 4, 0]], 5.0, 2, True),
    # Gram [[2, 1, 1], [1, 2, 1], [1, 1, 2]], eigenvalues 1, 1, 4
    ([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]], 1.0, 2, True),
    ([[1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]], 2.0, 0, True),
    # eigvalsh rounds these ties outward; the integer characteristic
    # polynomial keeps them: eigenvalues 4 and 14, then 4, 9 and 15
    ([[2, 0, -2, 1], [-2, -2, 0, -1]], 2.0, 2, False),
    ([[1, 0, -1, -2], [1, 2, 2, -1], [-2, -2, 2, 0]], 2.0, 0, False),
    ([[1, 0, -1, -2], [1, 2, 2, -1], [-2, -2, 2, 0]], 3.0, 2, False),
]


def assert_parity_is_sign_change_parity(F, rho):
    """The parity read off the last nonzero Faddeev-LeVerrier coefficient
    equals that of the whole sign-change count, on the same floats, at any
    Gram size."""
    rows = np.moveaxis(F, 0, -1)
    if F.shape[1] > F.shape[2] - 1:
        rows = rows.transpose(1, 0, 2)
    want = count_at_most_sign_changes(rows, rho * rho) % 2 == 1
    assert np.array_equal(_count_parity(rows, rho * rho), want)


class TestDescartesCount:
    @pytest.mark.parametrize("n, d", _gram_shapes())
    def test_matches_eigvalsh_count(self, n, d):
        gen = RngStream(40, 16 * n + d).generator()
        size = 600
        F = gen.standard_normal((size, d, n + 1))
        # per-map scales spread the spectra across the levels
        F *= 10.0 ** gen.uniform(-1.5, 1.0, (size, 1, 1))
        F[::7, 0, :] = 0.0  # a zero row
        F[3::7, :, 0] = 0.0  # a zero column
        # entries up to about 1e100, on maps without a zero row or column:
        # next to 1e200 a zero eigenvalue and rho^2 <= 1e18 are one rounding
        # apart for either route
        F[5::14] *= 1e99
        seen = set()
        for rho in (0.3, 1.0, 2.5, 1e9, 1e100, 1e200):
            chi = chi_quadratic_batch(F, n, rho)
            assert np.array_equal(chi, chi_quadratic_eigvalsh(F, n, rho))
            seen.update(chi.tolist())
            assert_parity_is_sign_change_parity(F, rho)
        assert len(seen) == 2  # both parities of the count occur

    @pytest.mark.parametrize("rows, rho, expected, eigvalsh_exact", _TIE_MAPS)
    def test_exact_ties_count_as_inside(self, rows, rho, expected, eigvalsh_exact):
        F = np.array([rows], dtype=float)
        n = F.shape[2] - 1
        assert chi_quadratic_batch(F, n, rho)[0] == expected
        assert_parity_is_sign_change_parity(F, rho)
        if eigvalsh_exact:
            assert chi_quadratic_eigvalsh(F, n, rho)[0] == expected
        # the same count among other maps of its shape
        others = RngStream(46).generator().standard_normal((8, *F.shape[1:]))
        batch = np.concatenate([F, others, F])
        A, D = UnitSphere(n), CenteredBall(F.shape[1], rho)
        counts_per_map(A, D, batch)
        assert chi_values(A, D, batch)[[0, -1]].tolist() == [expected, expected]

    @pytest.mark.parametrize(
        "A, D",
        [
            (UnitSphere(2), CenteredBall(2, 1.0)),
            (UnitSphere(3), CenteredBall(3, 1.5)),
            (UnitCap(2, 1.0), HalfSpace(1, 0.5)),
            (UnitGreatSubsphere(3, 1), CenteredBall(2, 0.8)),
            (UnitSphere(2), Origin(2)),
        ],
    )
    def test_hit_fractions_match_einsum_route(self, A, D):
        F = RngStream(41).generator().standard_normal((3000, D.d, A.n + 1))
        got = _hit_fractions(A, D, F, 16, RngStream(42).generator())
        want = hit_fractions_einsum(A, D, F, 16, RngStream(42).generator())
        assert np.array_equal(got, want)

    def test_gram_overflow_is_refused(self):
        F = np.array([[[1e200, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        with pytest.raises(ValueError, match="too large"), pytest.warns(RuntimeWarning):
            chi_values(UnitSphere(2), CenteredBall(2, 1.0), F)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_maps_are_refused(self, bad):
        ball_map = np.array([[[bad, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        row = np.array([[[bad, 0.0, 0.0]]])
        cases = [
            (UnitSphere(2), CenteredBall(2, 1.0), ball_map),
            (UnitSphere(2), FullSpace(2), ball_map),
            (UnitSphere(2), HalfSpace(1, 0.5), row),
            (UnitCap(2, 1.0), HalfSpace(1, 0.5), row),
        ]
        for A, D, F in cases:
            with pytest.raises(ValueError, match="map entries must be finite"):
                chi_values(A, D, F)
            with pytest.raises(ValueError, match="map entries must be finite"):
                _hit_fractions(A, D, F, 10, RngStream(44).generator())


class TestChiValuesPerMap:
    @pytest.mark.parametrize("n, d", _gram_shapes())
    def test_quadratic_maps(self, n, d):
        gen = RngStream(45, 16 * n + d).generator()
        F = gen.standard_normal((48, d, n + 1))
        F *= 10.0 ** gen.uniform(-1.5, 1.0, (48, 1, 1))
        F[::7, 0, :] = 0.0  # a zero row
        seen = set()
        for rho in (0.3, 1.0, 2.5):
            seen |= counts_per_map(UnitSphere(n), CenteredBall(d, rho), F)
        assert len(seen) == 2  # both parities of the count occur

    @pytest.mark.parametrize(
        "A", [UnitSphere(2), UnitSphere(3), UnitCap(2, 0.7), UnitCap(3, 1.5)]
    )
    def test_halfspace_maps(self, A):
        F = RngStream(47, A.n).generator().standard_normal((64, 1, A.n + 1))
        F[::8] = 0.0  # xi = 0: the excursion is empty or everything
        seen = set()
        for u in (-2.0, -0.5, 0.0, 0.5, 2.0):
            seen |= counts_per_map(A, HalfSpace(1, u), F)
        assert len(seen) >= 2

    @pytest.mark.parametrize(
        "A", [UnitSphere(2), UnitSphere(9), UnitCap(2, 1.0), UnitCap(3, 0.4), UnitCap(9, 1.5)]
    )
    def test_halfspace_matches_norm_route(self, A):
        xi = RngStream(52, A.n).generator().standard_normal((8192, A.n + 1))
        xi[::9] = 0.0
        for u in (-2.0, -0.5, 0.0, 0.5, 2.0):
            got = chi_halfspace_batch(A, xi, u)
            assert np.array_equal(got, chi_halfspace_norm_route(A, xi, u))

    @pytest.mark.parametrize("A", [UnitSphere(2), UnitCap(3, 1.0), UnitGreatSubsphere(3, 1)])
    def test_full_space(self, A):
        F = RngStream(48).generator().standard_normal((5, 2, A.n + 1))
        counts_per_map(A, FullSpace(2), F)

    @pytest.mark.parametrize(
        "A, D",
        [
            (UnitSphere(2), CenteredBall(2, 1.0)),
            (UnitSphere(9), CenteredBall(10, 1.0)),  # the eigvalsh route
            (UnitCap(2, 0.7), HalfSpace(1, 0.5)),
            (UnitSphere(3), HalfSpace(1, 0.5)),
            (UnitSphere(2), FullSpace(1)),
        ],
    )
    def test_empty_batch(self, A, D):
        chi = chi_values(A, D, np.empty((0, D.d, A.n + 1)))
        assert chi.shape == (0,) and chi.dtype.kind == "i"

    def test_harness_shim_is_a_batch_of_one(self):
        # chi_intersection and LinearMapSample stay only for the benchmark's
        # mesh_map_* jobs, which pass (d, 3) maps with d in {2, 3}
        gen = RngStream(49).generator()
        for _ in range(40):
            d = int(gen.integers(2, 4))
            F = gen.standard_normal((d, 3))
            A, D = UnitSphere(2), CenteredBall(d, float(gen.uniform(0.3, 2.5)))
            assert chi_intersection(A, D, LinearMapSample(F)) == chi_values(A, D, F[None])[0]


def dict_icosphere(depth: int):
    """Reference subdivision: one midpoint per edge through a dict, the
    midpoints appended as the faces are walked; edges by a row sort."""
    phi = (1 + math.sqrt(5)) / 2
    verts = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    vertices = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    for _ in range(depth):
        midpoint = {}

        def midpoint_index(a, b):
            key = (min(a, b), max(a, b))
            if key not in midpoint:
                m = vertices[a] + vertices[b]
                vertices.append(m / np.linalg.norm(m))
                midpoint[key] = len(vertices) - 1
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint_index(a, b), midpoint_index(b, c), midpoint_index(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    F = np.array(faces, dtype=np.int64)
    edges = np.unique(
        np.sort(np.concatenate([F[:, [0, 1]], F[:, [1, 2]], F[:, [2, 0]]]), axis=1),
        axis=0,
    )
    return np.array(vertices), edges, F


class TestIcosphereMesh:
    @pytest.mark.parametrize("depth", range(6))
    def test_vertices_are_a_prefix_of_the_next_level(self, depth):
        coarse, fine = icosphere(depth)[0], icosphere(depth + 1)[0]
        assert np.array_equal(fine[: len(coarse)], coarse)

    @pytest.mark.parametrize("depth", range(5))
    def test_matches_dict_subdivision(self, depth):
        V, E, F = icosphere(depth)
        V_ref, E_ref, F_ref = dict_icosphere(depth)
        assert np.array_equal(F, F_ref)
        assert np.array_equal(E, E_ref)
        assert np.abs(V - V_ref).max() <= 1e-15

    @pytest.mark.parametrize("depth", range(8))
    def test_matches_unique_reference_bytes(self, depth):
        for part, ref in zip(icosphere(depth), icosphere_unique(depth)):
            assert part.dtype == ref.dtype
            assert part.shape == ref.shape
            assert part.tobytes() == ref.tobytes()

    def test_cold_build_peak_memory(self):
        # a level is built in place from the level below: the temporaries
        # stay under half the returned arrays (the face-side route read 2.4x)
        icosphere.cache_clear()
        icosphere(6)
        tracemalloc.start()
        try:
            V, E, F = icosphere(7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (V.nbytes + E.nbytes + F.nbytes)

    @pytest.mark.parametrize("depth", [-1, 2.0])
    def test_refuses_bad_depth(self, depth):
        with pytest.raises(ValueError, match="non-negative integer"):
            icosphere(depth)

    @pytest.mark.parametrize("depth", range(6))
    def test_face_count_is_vertex_edge_face_count(self, depth):
        V, E, F = icosphere(depth)
        gen = RngStream(17, depth).generator()
        for p in (0.1, 0.5, 0.9):
            inside = gen.random(len(V)) < p
            expected = (
                int(inside.sum())
                - int((inside[E[:, 0]] & inside[E[:, 1]]).sum())
                + int(inside[F].all(axis=1).sum())
            )
            assert mesh_chi_sublevel(inside, depth) == expected

    @pytest.mark.parametrize("depth", [0, 3, 5])
    def test_full_and_empty_masks(self, depth):
        n = len(icosphere(depth)[0])
        assert mesh_chi_sublevel(np.ones(n, dtype=bool), depth) == 2
        assert mesh_chi_sublevel(np.zeros(n, dtype=bool), depth) == 0

    @pytest.mark.parametrize("depth", range(7))
    def test_child_layout(self, depth):
        # face i of a level splits into faces 4i .. 4i+3 of the next:
        # (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)
        V, _, F = icosphere(depth)
        V_fine, _, F_fine = icosphere(depth + 1)
        children = F_fine.reshape(-1, 4, 3)
        a, b, c = F.T
        ab, bc, ca = children[:, 3].T
        for child, expected in zip(children.transpose(1, 2, 0), [
            (a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca),
        ]):
            assert np.array_equal(child, np.stack(expected))
        for mid, (p, q) in ((ab, (a, b)), (bc, (b, c)), (ca, (c, a))):
            assert (mid >= len(V)).all()
            half = V[p] + V[q]
            half /= np.linalg.norm(half, axis=1, keepdims=True)
            assert np.abs(V_fine[mid] - half).max() <= 1e-15
        index = _corners_and_midpoints(depth)
        assert index.flags.c_contiguous
        assert np.array_equal(index, np.stack([a, b, c, ab, bc, ca]))

    @pytest.mark.parametrize("depth", [0, 2, 6])
    def test_two_level_count_matches_each_level(self, depth):
        n = len(icosphere(depth + 1)[0])
        gen = RngStream(19, depth).generator()
        for p in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95):
            inside = gen.random(n) < p
            assert _two_level_chi(inside, depth) == (
                mesh_chi_sublevel(inside, depth),
                mesh_chi_sublevel(inside, depth + 1),
            )
        assert _two_level_chi(np.ones(n, dtype=bool), depth) == (2, 2)
        assert _two_level_chi(np.zeros(n, dtype=bool), depth) == (0, 0)

    def test_count_settling_at_depth_eight(self, monkeypatch):
        # rho^2 is the middle Gram eigenvalue times 1 + 1e-4: the sublevel
        # set is a band joined through two thin necks at the saddles, which
        # depth 6 misses (two disks, chi 2) and depths 7 and 8 see (chi 0),
        # so the count settles on the second gather, over the depth-7 faces
        F = np.array([[-2.83, 1.02, -0.96], [-1.67, 0.28, 0.7], [-0.44, -1.08, 0.03]])
        rho = 1.2817275829873807
        try:
            monkeypatch.setattr(functionals, "_MESH_MAX_DEPTH", 7)
            with pytest.raises(ValueError, match="did not settle by depth 7"):
                mesh_chi_quadratic(F, rho)
            monkeypatch.setattr(functionals, "_MESH_MAX_DEPTH", 8)
            morse = chi_values(UnitSphere(2), CenteredBall(3, rho), F[None])[0]
            assert mesh_chi_quadratic(F, rho) == morse == 0
        finally:
            # depth 8 and the depth-7 gather index hold about 125 MB; later
            # tests need only depth 7
            icosphere.cache_clear()
            _vertex_monomials.cache_clear()
            _corners_and_midpoints.cache_clear()

    @pytest.mark.parametrize("start_depth", [1, 2])
    def test_one_gather_per_level_pair_matches_the_level_loop(self, start_depth, monkeypatch):
        # rho^2 within 1 % or 10 % of a Gram eigenvalue, so some counts
        # settle only a few levels down and some never do by depth 5
        monkeypatch.setattr(functionals, "_MESH_START_DEPTH", start_depth)
        gen = RngStream(23).generator()
        settled = set()
        for _ in range(12):
            F = gen.standard_normal((3, 3))
            for lam in np.linalg.eigvalsh(F.T @ F):
                for eps in (-0.1, -0.01, 0.01, 0.1):
                    rho = math.sqrt(lam * (1 + eps))
                    first = None
                    for max_depth in range(start_depth + 1, 6):
                        monkeypatch.setattr(functionals, "_MESH_MAX_DEPTH", max_depth)
                        try:
                            expected = mesh_chi_quadratic_by_level(F, rho, max_depth, start_depth)
                        except ValueError as exc:
                            with pytest.raises(ValueError) as refusal:
                                mesh_chi_quadratic(F, rho)
                            assert str(refusal.value) == str(exc)
                        else:
                            assert mesh_chi_quadratic(F, rho) == expected
                            first = first or max_depth
                    settled.add(first)
        assert settled == {*range(start_depth + 1, 6), None}

    def test_refuses_non_finite_input(self):
        F = np.ones((2, 3))
        F[1, 2] = np.nan
        with pytest.raises(ValueError):
            mesh_chi_quadratic(F, 1.0)
        with pytest.raises(ValueError):
            mesh_chi_quadratic(np.ones((2, 3)), float("nan"))

    def test_refuses_wrong_column_count(self):
        with pytest.raises(ValueError, match="map shape mismatch"):
            mesh_chi_quadratic(np.ones((2, 4)), 1.0)

    def test_refuses_unsettled_count(self, monkeypatch):
        # the level set of |x|^2 at 1 is the whole sphere up to rounding, so
        # the inside vertices scatter and no two levels agree
        monkeypatch.setattr(functionals, "_MESH_MAX_DEPTH", 7)
        with pytest.raises(ValueError, match="did not settle by depth 7"):
            mesh_chi_quadratic(np.eye(3), 1.0)


class TestVolumeFraction:
    def test_full_space(self):
        F = pi_infinity_batch(3, 2, 1, RngStream(17).generator())
        frac = _hit_fractions(UnitSphere(3), FullSpace(2), F, 100, RngStream(18).generator())[0]
        assert frac == 1.0

    @pytest.mark.parametrize("D", [HalfSpace(1, 0.0), FullSpace(1)])
    @pytest.mark.parametrize("n_points", [0, -1])
    def test_rejects_empty_point_set(self, D, n_points):
        with pytest.raises(ValueError, match="n_points must be at least 1"):
            estimate_lhs(UnitSphere(2), D, "top", 64, RngStream(20), n_points=n_points)

    def test_halfspace_zero_threshold_symmetry(self):
        F = pi_infinity_batch(2, 1, 1, RngStream(19).generator())
        gen = RngStream(20).generator()
        frac = _hit_fractions(UnitSphere(2), HalfSpace(1, 0.0), F, 200000, gen)[0]
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

    def test_top_degree_weight_evaluated_once(self, monkeypatch):
        calls = []
        real = drivers.t_power_unit
        monkeypatch.setattr(
            drivers, "t_power_unit", lambda *args: calls.append(args) or real(*args)
        )
        A, D = UnitSphere(2), CenteredBall(2, 1.0)
        estimate_lhs(A, D, "top", 3 * CHUNK_SIZE, RngStream(6, 0))
        assert len(calls) == 1

    def test_variance_merge_keeps_a_tiny_spread_on_a_large_mean(self):
        gen = RngStream(43).generator()
        chunks = [1e9 + 1e-3 * gen.standard_normal(CHUNK_SIZE) for _ in range(4)]
        # exact differences: every value lies within a factor 2 of 1e9
        spread = np.concatenate(chunks) - 1e9
        n = len(spread)
        var = float(spread.var(ddof=1))
        total = sum(float(c.sum()) for c in chunks)
        rep = _make_report([_chunk_moments(c) for c in chunks], 1e9, 1e9, RngStream(43))
        assert rep.n_samples == n
        assert rep.estimate == total / n
        assert rep.stderr == pytest.approx(math.sqrt(var / n), rel=1e-6)
        # the rounding floor of z stays within twice the true stderr
        assert (rep.estimate - 1e9) / rep.z_score <= 2 * math.sqrt(var / n)
        # the sum / sum-of-squares formula loses the spread entirely
        total_sq = sum(float((c * c).sum()) for c in chunks)
        naive = max(total_sq - n * (total / n) ** 2, 0.0) / (n - 1)
        assert abs(naive - var) > 0.5 * var

    @pytest.mark.parametrize(
        "n", [*range(1, 18), 100, 127, 128, 129, 255, 576, 4097, 8191, CHUNK_SIZE]
    )
    def test_rounding_chain_is_numpys_pairwise_sum(self, n):
        # values over 17 decades, so a sum in another order differs
        gen = RngStream(44, n).generator()
        values = gen.standard_normal(n) * np.exp(gen.uniform(-20, 20, n))
        total, chain = pairwise_sum_chain(values.tolist())
        assert total == float(values.sum())
        assert chain == _pairwise_roundings(n)

    @pytest.mark.parametrize(
        "z, gate",
        [(2.9, "PASS"), (-2.9, "PASS"), (3.5, "WARN"), (-3.5, "WARN"), (4.5, "FAIL"), (-4.5, "FAIL")],
    )
    def test_gate_bands(self, z, gate):
        rep = McReport(1.0, 0.1, 100, 1.0 - 0.1 * z, z, 0, 0)
        assert rep.gate == gate

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            estimate_lhs(UnitSphere(2), FullSpace(1), 1, 10, RngStream(0))

    @pytest.mark.parametrize(
        "bad",
        [
            {"n_samples": 2.5},
            {"workers": 1.5},
            {"law_n": 2.5},
            {"n_points": 1.5},
            {"n_points": True},
            {"law_n": True},
        ],
    )
    def test_non_integer_counts_are_refused(self, bad, monkeypatch):
        # refused before the prediction, hence before any draw
        def predict(*args):
            raise AssertionError("predicted before the counts were checked")

        monkeypatch.setattr(drivers, "gkf_predict", predict)
        monkeypatch.setattr(drivers, "pi_n_prediction", predict)
        counts = {"n_samples": 64, **bad}
        with pytest.raises(ValueError, match="is not an integer"):
            estimate_lhs(UnitSphere(2), CenteredBall(2, 1.0), "top", rng=RngStream(53), **counts)

    @pytest.mark.parametrize(
        "A, D, m, stream, pinned",
        [
            (UnitSphere(2), CenteredBall(2, 1.0), 0, 0,
             "McReport(estimate=0.7874348958333334, stderr=0.006233229223363394, "
             "n_samples=24576, prediction=0.786938680574733, "
             "z_score=0.07960805560309182, seed=29, stream_id=0)"),
            (UnitCap(2, 1.0), HalfSpace(1, 0.5), 0, 1,
             "McReport(estimate=0.7615559895833334, stderr=0.0027182998719453744, "
             "n_samples=24576, prediction=0.7607571170285402, "
             "z_score=0.2938868382543247, seed=29, stream_id=1)"),
            (UnitSphere(2), CenteredBall(2, 1.0), "top", 2,
             "McReport(estimate=3.15069580078125, stderr=0.012436166600689677, "
             "n_samples=24576, prediction=3.147754722298932, "
             "z_score=0.23649397573644065, seed=29, stream_id=2)"),
        ],
    )
    def test_law_infinity_reports_are_pinned(self, A, D, m, stream, pinned):
        # three chunks of the `gkf simulate` ball, cap and top-degree runs;
        # a faster kernel must leave every draw and every count as it is
        rep = estimate_lhs(A, D, m, 3 * CHUNK_SIZE, RngStream(29, stream), n_points=16)
        assert repr(rep) == pinned

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples(self, n_samples):
        with pytest.raises(ValueError):
            estimate_lhs(UnitSphere(2), HalfSpace(1, 0.5), 0, n_samples, RngStream(0))


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

    @pytest.mark.parametrize("D", [CenteredBall(2, 1.0), HalfSpace(1, 0.5)])
    def test_against_unfolded_sum_at_high_precision(self, D):
        # the unfolded pairing 2^m sum_k u^(m+k)(S^n) nu_k(trace) cancels
        # about 30 digits at n = 120, N = 200; 60 digits leave 30.  Both
        # sides read the same float sigma values.
        N = 200
        trace = pull_back_set(D, N)
        sigma = [sigma_evaluate(i, trace) for i in range(121)]
        with mpmath.workdps(60):
            for n in (2, 14, 40, 80, 100, 120):
                for m in (0, 1, 2, n):
                    unfolded = mpmath.mpf(0)
                    for k in range(n - m + 1):
                        u_val = u_power_on_great_subsphere(m + k, N, n)
                        if u_val:
                            nu_k = mpmath.fsum(
                                mpmath.mpf(q.numerator) / q.denominator * sigma[i]
                                for i, q in nu_in_sigma_column(k)
                            )
                            u_mp = mpmath.mpf(u_val.numerator) / u_val.denominator
                            unfolded += u_mp * nu_k
                    expected = float(2**m * unfolded)
                    # the tube's odd sigma values are negative, so the folded
                    # sum is held to the scale of its absolute terms
                    scale = 2**m * sum(abs(q * sigma[i]) for i, q in u_power_in_sigma(m, n))
                    pred = pi_n_prediction(UnitSphere(n), D, N, m)
                    assert abs(pred - expected) <= 1e-14 * scale, (n, m)

    def test_agrees_with_nu_route_at_small_n(self):
        # below n = 15 the unfolded float pairing loses no more than a few
        # digits, so the fold must reproduce it to the order-one scale
        sets = [CenteredBall(2, 1.0), CenteredBall(3, 0.8), HalfSpace(1, 0.5),
                HalfSpace(1, -0.7), FullSpace(2)]
        for N in (5, 20, 64, 200):
            for n in range(1, min(N, 14) + 1):
                for A in (UnitSphere(n), UnitGreatSubsphere(min(n + 2, N), n)):
                    for m in range(n + 1):
                        for D in sets:
                            expected = pi_n_prediction_nu_route(A, D, N, m)
                            pred = pi_n_prediction(A, D, N, m)
                            assert abs(pred - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_large_n_truth(self):
        # on S^120 the excursion set of the centered disk is a tube about a
        # great 118-sphere (chi = 2); that of the half-space is a cap (chi = 1)
        # except with negligible probability
        A = UnitSphere(120)
        assert pi_n_prediction(A, CenteredBall(2, 1.0), 200, 0) == pytest.approx(2, abs=1e-12)
        assert pi_n_prediction(A, HalfSpace(1, 0.5), 200, 0) == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize(
        "n,D",
        [(2, HalfSpace(1, 0.5)), (3, HalfSpace(1, 1.5)), (2, CenteredBall(1, 1.0)),
         (3, CenteredBall(1, 0.3)), (4, CenteredBall(1, 2.0))],
    )
    def test_digits_up_to_the_cap(self, n, D):
        # the error grows with N; at the cap it is still below 1e-8
        for N in (1000, _MAX_LAW_N):
            exact = chi_on_sphere_exact(n, D, N)
            assert abs(pi_n_prediction(UnitSphere(n), D, N, 0) - exact) < 1e-8
        with pytest.raises(ValueError, match="past N = "):
            pi_n_prediction(UnitSphere(n), D, _MAX_LAW_N + 1, 0)

    def test_pull_back_shapes(self):
        assert isinstance(pull_back_set(CenteredBall(2, 1.0), 50), SubsphereTube)
        assert isinstance(pull_back_set(HalfSpace(1, 0.3), 50), GeodesicBall)
        assert isinstance(pull_back_set(FullSpace(3), 50), AmbientSphere)
        with pytest.raises(ValueError):
            pull_back_set(CenteredBall(2, 10.0), 9)


class TestPoincare:
    def test_marginal_ks_small_at_large_n(self):
        rep = poincare_sweep((1000,), 1, 20000, RngStream(30, 0))[0]
        assert rep.ks_statistic < 0.015

    def test_second_moment(self):
        rep = poincare_sweep((500,), 1, 50000, RngStream(31, 0))[0]
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
        rep = poincare_sweep((800,), 2, 20000, RngStream(33, 0))[0]
        assert rep.ks_statistic < 0.02
        assert rep.second_moment == pytest.approx(1.0, abs=0.03)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            poincare_sweep((2,), 3, 10, RngStream(0))

    @pytest.mark.parametrize("d,n_samples", [(0, 10), (-1, 10), (1, 0), (2, -3)])
    def test_bad_sizes(self, d, n_samples):
        with pytest.raises(ValueError, match="at least 1"):
            poincare_sweep((50,), d, n_samples, RngStream(0))

    # repr of (ks_statistic, second_moment) for poincare_sweep((400,), d,
    # 20000, RngStream(7, 0)) from the out-of-place route, which allocates
    # every intermediate afresh; the in-place sweep must reproduce them bit
    # for bit
    PINNED = {
        1: (0.006818814571078247, 0.9973192924441945),
        2: (0.005650519222918038, 0.9963719833891613),
        3: (0.008403031771553104, 0.9951759322972885),
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pinned_output(self, d):
        rep = poincare_sweep((400,), d, 20000, RngStream(7, 0))[0]
        assert (rep.ks_statistic, rep.second_moment) == self.PINNED[d]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sweep_rows_are_single_runs(self, d):
        rng = RngStream(7, 2)
        sweep = poincare_sweep((50, 400, 50), d, 5000, rng)
        assert [rep.N for rep in sweep] == [50, 400, 50]
        for rep in sweep:
            assert rep == poincare_sweep((rep.N,), d, 5000, rng)[0]

    @pytest.mark.parametrize(
        "d,n_samples",
        [
            (1, 1), (1, 30000), (2, 8193), (4, 20000),
            # one row past a block, and several blocks with a ragged last one
            (1, _BLOCK + 1), (3, _BLOCK + 1), (1, 3 * _BLOCK + 4321), (3, 3 * _BLOCK + 4321),
        ],
    )
    def test_sweep_matches_out_of_place_reference(self, d, n_samples):
        rng = RngStream(12, d)
        for rep in poincare_sweep((d + 1, 300, 5000), d, n_samples, rng):
            reference = poincare_out_of_place(rep.N, d, n_samples, rng.generator())
            assert (rep.ks_statistic, rep.second_moment) == reference

    def test_sweep_validates_every_n_first(self):
        with pytest.raises(ValueError, match="N > d"):
            poincare_sweep((400, 2), 2, 10, RngStream(0))
        with pytest.raises(ValueError):
            poincare_sweep((), 1, 10, RngStream(0))

    @pytest.mark.parametrize(
        "N_list,d,n_samples",
        [
            ((math.nan,), 1, 1000),
            ((math.inf,), 1, 1000),
            ((400, 100.5), 1, 1000),
            ((True,), 0, 1000),
            ((400,), 1.0, 1000),
            ((400,), 2.5, 1000),
            ((400,), True, 1000),
            ((400,), 1, 1000.0),
            ((400,), 1, True),
        ],
    )
    def test_refuses_non_integers_before_drawing(self, N_list, d, n_samples, monkeypatch):
        def no_draw(self):
            raise AssertionError("drew before validating the input")

        monkeypatch.setattr(RngStream, "generator", no_draw)
        with pytest.raises(ValueError, match="is not an integer|d must be at least 1"):
            poincare_sweep(N_list, d, n_samples, RngStream(0))

    def test_accepts_numpy_integers(self):
        rng = RngStream(7, 1)
        sweep = poincare_sweep((np.int64(50), 400), np.int32(2), np.int64(3000), rng)
        assert sweep == poincare_sweep((50, 400), 2, 3000, rng)

    @staticmethod
    def _peak_bytes(N_list, d, n_samples):
        tracemalloc.start()
        try:
            poincare_sweep(N_list, d, n_samples, RngStream(11, 0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("d,bound", [(1, 3.5), (2, 4.75), (3, 6.0)])
    def test_footprint(self, d, bound):
        # peak traced memory in arrays of n doubles: the sweep holds g and
        # the samples (d + 1 arrays), one more while it takes the second
        # moment, and a few blocks of rows at any N; the out-of-place route
        # peaks at 9 (d = 1) and 12 (d = 2)
        n = 200_000
        one = self._peak_bytes((400,), d, n)
        assert one <= bound * 8 * n
        three = self._peak_bytes((100, 400, 1600), d, n)
        assert three <= one + 0.25 * 8 * n


def _limit_cdf(xs, d):
    """The limit CDF of the projection check, out of place."""
    return ndtr(xs) if d == 1 else gammainc(d / 2.0, np.square(xs) / 2.0)


def _limit_quantiles(n, d):
    """The (i + 0.5) / n quantiles of the limit law, i = 0..n-1."""
    q = (np.arange(n) + 0.5) / n
    return ndtri(q) if d == 1 else np.sqrt(2.0 * gammaincinv(d / 2.0, q))


class TestKsCertificate:
    """The certified KS distance against every term of the full grid; the
    terms are the same floats, so the distances agree bit for bit."""

    @staticmethod
    def _both(xs, d):
        xs = np.sort(xs)
        return _ks_statistic(xs, d), ks_statistic_full_grid(xs, _limit_cdf(xs, d))

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize(
        "n", [1, 2, 31, 32, 33, 3 * 32 + 5, 63, 64, 65, 1000, 3 * 64 + 5, 20000]
    )
    def test_matches_full_grid(self, d, n):
        gen = RngStream(29, 10 * n + d).generator()
        base = gen.standard_normal(n) if d == 1 else np.sqrt(gen.chisquare(d, n))
        for xs in (base, base + 0.2, 1.3 * base, np.round(base, 1)):
            got, expected = self._both(xs, d)
            assert got == expected

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n", [1000, 20000])
    def test_maximum_inside_a_block(self, d, n):
        # quantile samples put every term near 0.5 / n; a run of ties at
        # ranks 330..360 raises the term (i + 1) / n - F_i to its maximum at
        # rank 360, inside the block of ranks 352..383
        xs = _limit_quantiles(n, d)
        xs[330:361] = xs[330]
        grid = np.arange(1.0, n + 1.0) / n
        F = _limit_cdf(xs, d)
        terms = np.maximum(grid - F, F - (grid - 1 / n))
        assert np.argmax(terms) == 360 and 360 % _RANKS not in (0, _RANKS - 1)
        got, expected = self._both(xs, d)
        assert got == expected == terms[360]

    @pytest.mark.parametrize("d,name", [(1, "ndtr"), (3, "gammainc")])
    def test_every_block_a_candidate(self, d, name, monkeypatch):
        # on the (i + 0.5) / n quantiles every term is about 0.5 / n, so every
        # block is evaluated in full; the chunked loop still peaks below one
        # array of n doubles
        n = 200_000
        xs = _limit_quantiles(n, d)
        tracemalloc.start()
        try:
            got = _ks_statistic(xs, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == ks_statistic_full_grid(xs, _limit_cdf(xs, d))
        assert peak < 8 * n
        original = getattr(scipy.special, name)
        evaluated = []

        def counted(*args, **kwargs):
            evaluated.append(np.size(args[-1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.special, name, counted)
        _ks_statistic(xs, d)
        assert sum(evaluated) >= n

    @pytest.mark.parametrize("d,name", [(1, "ndtr"), (2, "gammainc")])
    def test_evaluates_few_ranks(self, d, name, monkeypatch):
        original = getattr(scipy.special, name)
        evaluated = []

        def counted(*args, **kwargs):
            evaluated.append(np.size(args[-1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.special, name, counted)
        n = 200_000
        poincare_sweep((400,), d, n, RngStream(7, 0))
        assert 0 < sum(evaluated) < n / 8


class TestNuConvergence:
    def test_monotone_and_small(self):
        rows = nu_convergence(CenteredBall(2, 1.0), 2, (100, 400, 1600))
        by_k = {}
        for row in rows:
            by_k.setdefault(row["k"], []).append(row)
        for k, seq in by_k.items():
            errs = [r["abs_err"] for r in seq]
            assert errs == sorted(errs, reverse=True)
        assert by_k[0][-1]["rel_err"] < 0.05
        assert by_k[1][-1]["rel_err"] < 0.05

    def test_zero_limit_flagged(self):
        rows = [r for r in nu_convergence(CenteredBall(2, 1.0), 2, (400,)) if r["k"] == 2]
        assert rows[0]["limit_is_zero"]
        assert rows[0]["limit"] == 0.0

    def test_limit_constants(self):
        assert nu_limit_constant(0) == 1.0
        assert nu_limit_constant(2) == pytest.approx(1.0, rel=1e-14)

    def test_nu_zero_is_volume_fraction(self):
        trace = pull_back_set(CenteredBall(2, 1.0), 300)
        from gkf.model_sets import tube_volume_fraction

        assert nu_values_on_set(trace, 0)[0] == pytest.approx(
            tube_volume_fraction(300, 2, trace.s), rel=1e-12
        )


class TestKinematicInequality:
    def test_volume_case_passes(self):
        report = kinematic_inequality_check(
            GeodesicBall(20, 5.5), GeodesicBall(20, 6.5), 0, 40000, RngStream(40)
        )
        assert report["passed"]
        assert report["mode"] == "volume-mc"
        # equality case: the estimate sits within noise of the bound
        assert abs(report["lhs"] - report["rhs"]) < 4 * report["stderr"] + 1e-12

    def test_tiny_caps(self):
        report = kinematic_inequality_check(
            GeodesicBall(20, 0.5), GeodesicBall(20, 0.4), 0, 20000, RngStream(41)
        )
        assert report["passed"]

    def test_ambient_factor_exact(self):
        for k in [0, 1, 2, 5]:
            report = kinematic_inequality_check(
                GeodesicBall(20, 4.0), AmbientSphere(20), k, 0, RngStream(42)
            )
            assert report["passed"]
            assert report["stderr"] == 0.0

    def test_unsupported_configuration(self):
        with pytest.raises(ValueError):
            kinematic_inequality_check(
                GeodesicBall(20, 1.0), GeodesicBall(20, 1.0), 3, 10, RngStream(43)
            )

    @pytest.mark.parametrize(
        "C, D, k",
        [
            (AmbientSphere(10), GeodesicBall(5, 1.0), 2),
            (GeodesicBall(20, 4.0), AmbientSphere(19), 1),
            (AmbientSphere(20), UnitCap(20, 1.0), 0),
            (GeodesicBall(20, 1.0), GeodesicBall(19, 1.0), 0),
            (UnitCap(20, 1.0), UnitCap(20, 1.0), 0),
        ],
    )
    def test_dimension_mismatch_is_refused(self, C, D, k):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kinematic_inequality_check(C, D, k, 10, RngStream(0))

    @pytest.mark.parametrize("n_rotations", [0, 1])
    def test_volume_case_needs_two_rotations(self, n_rotations):
        with pytest.raises(ValueError, match="at least 2"):
            kinematic_inequality_check(
                GeodesicBall(20, 1.0), GeodesicBall(20, 1.0), 0, n_rotations,
                RngStream(44),
            )


class TestKinematicPairingAgainstRotationMonteCarlo:
    def test_chi_pairing_ball_with_great_hypersphere(self):
        # chi of (geodesic ball intersect rotated great hypersphere) is one
        # exactly when the ball center lies within its radius of the rotated
        # hypersphere; averaging that indicator over random rotations is an
        # independent oracle for the kinematic pairing of chi
        from gkf.kinematics import p_chi

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
        A, D, rng = UnitSphere(2), CenteredBall(2, 1.0), RngStream(44)
        for N in (50, 200, 1000):
            chi = np.concatenate(
                [
                    chi_values(A, D, pi_n_batch(2, 2, N, size, rng.child(index).generator()))
                    for index, size in enumerate(_chunk_plan(10000))
                ]
            )
            assert np.abs(chi).mean() < 2.0
