"""One integer rule for every dimension, index, degree, depth and count.

Each entry point that takes one refuses a non-integer (a float, even an
integral one, or a bool) and an out-of-range integer with ValueError, never
a TypeError, and accepts a NumPy integer with the answer the int gives.  A
cached entry point refuses the same way on a cold and a warm cache."""

import contextlib
from argparse import Namespace

import numpy as np
import pytest

from gkf.bases import Basis, ValuationVector, _apply, basis_element, chi_vector, conversion_matrix
from gkf.cli import cmd_nu, cmd_tables
from gkf.drivers import (
    estimate_lhs,
    kinematic_inequality_check,
    nu_convergence,
    pi_n_prediction,
    pull_back_set,
)
from gkf.evaluate import (
    abs_sigma,
    lk_unit_sphere,
    mu_on_euclidean_ball,
    sigma_evaluate,
    t_power_unit,
    tau_evaluate,
    u_power_on_ball,
)
from gkf.functionals import icosphere
from gkf.gauss import (
    CenteredBall,
    FullSpace,
    HalfSpace,
    Origin,
    gamma,
    gamma_fd_oracle,
    gkf_predict,
)
from gkf.kinematics import (
    KinematicTensor,
    gkf_coefficient,
    nu_values_on_set,
    p_chi,
    p_sigma,
    p_tau,
    p_u_power,
    tube_volume_identity,
)
from gkf.model_sets import (
    AmbientSphere,
    GeodesicBall,
    GreatSubsphere,
    SubsphereTube,
    UnitCap,
    UnitGreatSubsphere,
    UnitSphere,
    check_degree,
)
from gkf.rng import RngStream
from gkf.sampling import (
    pi_infinity_batch,
    pi_n_batch,
    poincare_sweep,
    uniform_cap_batch,
    uniform_sphere_batch,
)
from gkf.scalars import PiScalar, alpha, gamma_half, omega
from gkf.series import u_power_in_sigma

ZERO = PiScalar.zero()
BALL = GeodesicBall(9, 1.0)
CAP = GeodesicBall(4, 1.0)
SPHERE = UnitSphere(2)
DISK = CenteredBall(2, 1.0)


def _lhs(m):
    return estimate_lhs(SPHERE, DISK, m, 64, RngStream(5))


def _draw(sampler, *args):
    """sampler(*args, gen) from a fresh generator of one fixed stream."""
    return sampler(*args, np.random.default_rng(3))


def _stream(rng):
    """The stream and its first draw."""
    return rng, rng.generator().random()


def _counts(name):
    """estimate_lhs of the top degree with the count called name set to x."""

    def call(x):
        counts = {"n_samples": 64, name: x}
        return estimate_lhs(SPHERE, HalfSpace(1, 0.5), "top", rng=RngStream(5), **counts)

    return call


# id -> (call of the integer argument, an accepted value, an out-of-range value)
SITES = {
    # gauss
    "HalfSpace.d": (lambda x: HalfSpace(x, 0.5), 1, 0),
    "CenteredBall.d": (lambda x: CenteredBall(x, 1.0), 2, 0),
    "Origin.d": (Origin, 2, 0),
    "FullSpace.d": (FullSpace, 1, 0),
    "gamma.k_max": (lambda x: gamma(DISK, x), 3, -1),
    "gamma_fd_oracle.k": (lambda x: gamma_fd_oracle(HalfSpace(1, 0.5), x), 2, 9),
    "gkf_predict.m": (lambda x: gkf_predict(SPHERE, HalfSpace(1, 0.5), x), 1, 3),
    # model_sets
    "AmbientSphere.N": (AmbientSphere, 3, 0),
    "GeodesicBall.N": (lambda x: GeodesicBall(x, 1.0), 9, 0),
    "GreatSubsphere.N": (lambda x: GreatSubsphere(x, 0), 3, 0),
    "GreatSubsphere.j": (lambda x: GreatSubsphere(5, x), 2, 6),
    "SubsphereTube.N": (lambda x: SubsphereTube(x, 1, 0.5), 4, 0),
    "SubsphereTube.d": (lambda x: SubsphereTube(4, x, 0.5), 2, 5),
    "UnitSphere.n": (UnitSphere, 2, 0),
    "UnitGreatSubsphere.n": (lambda x: UnitGreatSubsphere(x, 0), 2, 0),
    "UnitGreatSubsphere.m": (lambda x: UnitGreatSubsphere(5, x), 2, 6),
    "UnitCap.n": (lambda x: UnitCap(x, 1.0), 2, 0),
    "check_degree": (lambda x: check_degree(UnitSphere(3), x), 2, 4),
    # bases
    "ValuationVector.N": (lambda x: ValuationVector(x, Basis.T, (ZERO,) * 3), 2, 0),
    "ValuationVector.from_coeffs": (lambda x: ValuationVector.from_coeffs(x, Basis.T, [1]), 3, 0),
    "ValuationVector.coeff": (lambda x: chi_vector(3).coeff(x), 2, -1),
    "basis_element.N": (lambda x: basis_element(x, Basis.T, 0), 3, 0),
    "basis_element.k": (lambda x: basis_element(3, Basis.T, x), 2, 4),
    "_apply.N": (lambda x: _apply(x, Basis.T, Basis.U, [[(0, 1)]]), 3, 0),
    "conversion_matrix.N": (lambda x: conversion_matrix(x, Basis.T, Basis.U), 3, 0),
    # kinematics
    "KinematicTensor.N": (lambda x: KinematicTensor(x, Basis.T, Basis.T, ((ZERO,) * 3,) * 3), 2, 0),
    "p_sigma.k": (lambda x: p_sigma(x, 4), 1, 5),
    "p_sigma.N": (lambda x: p_sigma(0, x), 4, 0),
    "p_tau.k": (lambda x: p_tau(x, 4), 1, 5),
    "p_tau.N": (lambda x: p_tau(0, x), 4, 0),
    "p_chi.N": (p_chi, 3, 0),
    "p_u_power.m": (lambda x: p_u_power(x, 4), 1, 5),
    "p_u_power.N": (lambda x: p_u_power(0, x), 4, 0),
    "gkf_coefficient.k": (gkf_coefficient, 3, -1),
    "nu_values_on_set.k_max": (lambda x: nu_values_on_set(BALL, x), 3, -1),
    "tube_volume_identity.N": (lambda x: tube_volume_identity(x, 2, 1.0, 0.2), 20, 0),
    "tube_volume_identity.d": (lambda x: tube_volume_identity(20, x, 1.0, 0.2), 2, 21),
    # evaluate
    "sigma_evaluate.k": (lambda x: sigma_evaluate(x, BALL), 1, 10),
    "abs_sigma.k": (lambda x: abs_sigma(x, BALL), 1, 10),
    "tau_evaluate.k": (lambda x: tau_evaluate(x, BALL), 1, 10),
    "u_power_on_ball.k": (lambda x: u_power_on_ball(x, 9, 1.0), 2, 10),
    "u_power_on_ball.N": (lambda x: u_power_on_ball(0, x, 0.0), 9, 0),
    "mu_on_euclidean_ball.k": (lambda x: mu_on_euclidean_ball(x, 5), 2, 6),
    "mu_on_euclidean_ball.N": (lambda x: mu_on_euclidean_ball(0, x), 5, -1),
    "lk_unit_sphere.n": (lambda x: lk_unit_sphere(x, 1), 3, -1),
    "lk_unit_sphere.k": (lambda x: lk_unit_sphere(3, x), 1, 4),
    "t_power_unit.j": (lambda x: t_power_unit(UnitSphere(3), x), 1, -1),
    "t_power_unit.j on a cap": (lambda x: t_power_unit(UnitCap(3, 1.0), x), 1, -1),
    # series
    "u_power_in_sigma.k": (lambda x: u_power_in_sigma(x, 5), 1, 6),
    "u_power_in_sigma.N": (lambda x: u_power_in_sigma(1, x), 5, -1),
    # scalars
    "omega.n": (omega, 2, -1),
    "alpha.n": (alpha, 2, -1),
    "gamma_half.two_x": (gamma_half, 3, 0),
    # functionals
    "icosphere.depth": (icosphere, 1, -1),
    # rng
    "RngStream.seed": (lambda x: _stream(RngStream(x)), 5, -1),
    "RngStream.stream_id": (lambda x: _stream(RngStream(5, x)), 2, -1),
    "RngStream.lane": (lambda x: _stream(RngStream(5, 2, (1, x))), 3, -1),
    "RngStream.child": (lambda x: _stream(RngStream(5).child(x)), 3, -1),
    # sampling
    "pi_infinity_batch.n": (lambda x: _draw(pi_infinity_batch, x, 2, 3), 2, -1),
    "pi_infinity_batch.d": (lambda x: _draw(pi_infinity_batch, 2, x, 3), 2, 0),
    "pi_infinity_batch.size": (lambda x: _draw(pi_infinity_batch, 2, 2, x), 3, -1),
    "pi_n_batch.n": (lambda x: _draw(pi_n_batch, x, 2, 50, 3), 2, -1),
    "pi_n_batch.d": (lambda x: _draw(pi_n_batch, 2, x, 50, 3), 2, 0),
    "pi_n_batch.N": (lambda x: _draw(pi_n_batch, 2, 2, x, 3), 50, 1),
    "pi_n_batch.size": (lambda x: _draw(pi_n_batch, 2, 2, 50, x), 3, -1),
    "uniform_sphere_batch.n": (lambda x: _draw(uniform_sphere_batch, x, 3), 2, -1),
    "uniform_sphere_batch.size": (lambda x: _draw(uniform_sphere_batch, 2, x), 3, -1),
    "uniform_cap_batch.n": (lambda x: _draw(uniform_cap_batch, x, 1.0, 3), 2, 0),
    "uniform_cap_batch.size": (lambda x: _draw(uniform_cap_batch, 2, 1.0, x), 3, -1),
    "poincare_sweep.N": (lambda x: poincare_sweep((x,), 1, 10, RngStream(0)), 50, 1),
    "poincare_sweep.d": (lambda x: poincare_sweep((50,), x, 10, RngStream(0)), 1, 0),
    "poincare_sweep.n_samples": (lambda x: poincare_sweep((50,), 1, x, RngStream(0)), 10, 0),
    # drivers
    "estimate_lhs.m": (_lhs, 0, 3),
    "estimate_lhs.n_samples": (_counts("n_samples"), 64, 1),
    "estimate_lhs.n_points": (_counts("n_points"), 2, 0),
    "estimate_lhs.workers": (_counts("workers"), 1, 0),
    "estimate_lhs.law_n": (_counts("law_n"), 50, 0),
    "pi_n_prediction.m": (lambda x: pi_n_prediction(SPHERE, HalfSpace(1, 0.5), 50, x), 1, 3),
    "pi_n_prediction.N": (lambda x: pi_n_prediction(SPHERE, HalfSpace(1, 0.5), x, 0), 50, 1),
    "pull_back_set.N": (lambda x: pull_back_set(HalfSpace(1, 0.5), x), 9, 0),
    "pull_back_set.N on a ball": (lambda x: pull_back_set(DISK, x), 4, -1),
    "pull_back_set.N of the full space": (lambda x: pull_back_set(FullSpace(2), x), 4, -1),
    "nu_convergence.k_max": (lambda x: nu_convergence(DISK, x, (50,)), 2, -1),
    "nu_convergence.N": (lambda x: nu_convergence(DISK, 2, (x,)), 50, 0),
    "kinematic_inequality_check.k": (
        lambda x: kinematic_inequality_check(AmbientSphere(4), CAP, x, 10, RngStream(1)), 1, 5),
    "kinematic_inequality_check.n_rotations": (
        lambda x: kinematic_inequality_check(CAP, CAP, 0, x, RngStream(1)), 10, 1),
    # cli handlers, past argparse's own int conversion
    "cli.tables.max": (lambda x: cmd_tables(Namespace(what="omega", max=x, N=None)), 3, -1),
    "cli.tables.N": (lambda x: cmd_tables(Namespace(what="mu_ball", max=3, N=x)), 5, -1),
    "cli.nu.N": (lambda x: cmd_nu(Namespace(N=x, k_max=None, D=None)), 4, -1),
    "cli.nu.k_max": (lambda x: cmd_nu(Namespace(N=4, k_max=x, D=None)), 2, -1),
}

CACHED = {
    "lk_unit_sphere.n": lk_unit_sphere,
    "lk_unit_sphere.k": lk_unit_sphere,
    "u_power_in_sigma.k": u_power_in_sigma,
    "u_power_in_sigma.N": u_power_in_sigma,
    "omega.n": omega,
    "alpha.n": alpha,
    "gamma_half.two_x": gamma_half,
    "icosphere.depth": icosphere,
    "conversion_matrix.N": conversion_matrix,
}


def _bad_values(site) -> dict:
    _, good, out_of_range = SITES[site]
    return {"half": 2.5, "integral float": float(good), "bool": True, "out of range": out_of_range}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("kind", ["half", "integral float", "bool", "out of range"])
def test_refused_with_value_error(site, kind):
    with pytest.raises(ValueError):
        SITES[site][0](_bad_values(site)[kind])


@pytest.mark.parametrize("site", SITES)
def test_numpy_integers_answer_as_ints(site):
    call, good, _ = SITES[site]
    assert repr(call(np.int64(good))) == repr(call(good))


@pytest.mark.parametrize("site", CACHED)
def test_cached_refusal_does_not_depend_on_the_cache(site):
    call, good, _ = SITES[site]
    for bad in _bad_values(site).values():
        CACHED[site].cache_clear()
        with pytest.raises(ValueError):
            call(bad)
        call(good)
        with contextlib.suppress(ValueError):
            call(int(bad))
        with pytest.raises(ValueError):
            call(bad)


# calls that once raised TypeError, answered, or ran as degree 0
PROBES = {
    "gkf_predict with CenteredBall(2.0, 1.0)": lambda: gkf_predict(
        UnitSphere(2), CenteredBall(2.0, 1.0), 0),
    "omega(2.0)": lambda: omega(2.0),
    "p_sigma(1.0, 4)": lambda: p_sigma(1.0, 4),
    "gamma k_max 2.0": lambda: gamma(CenteredBall(2, 1.0), 2.0),
    "sigma_evaluate on GeodesicBall(9.5, 1.0)": lambda: sigma_evaluate(1, GeodesicBall(9.5, 1.0)),
    "GreatSubsphere(0, 0)": lambda: GreatSubsphere(0, 0),
    "estimate_lhs m=False": lambda: _lhs(False),
    "estimate_lhs m=0.0": lambda: _lhs(0.0),
    "lk_unit_sphere(3.0, 1)": lambda: lk_unit_sphere(3.0, 1),
    "estimate_lhs with RngStream(5, 1.0)": lambda: estimate_lhs(
        SPHERE, DISK, 0, 64, RngStream(5, 1.0)),
    "pi_n_batch at N = 50.5": lambda: _draw(pi_n_batch, 2, 2, 50.5, 3),
}


@pytest.mark.parametrize("probe", PROBES)
def test_probes_refused_cold_and_warm(probe):
    for cache in (omega, lk_unit_sphere):
        cache.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            PROBES[probe]()
        omega(2), lk_unit_sphere(3, 1)


def test_numpy_degrees_accepted_by_the_prediction():
    assert gkf_predict(SPHERE, DISK, np.int64(0)) == gkf_predict(SPHERE, DISK, 0)
    assert gkf_predict(SPHERE, DISK, np.int32(2)) == gkf_predict(SPHERE, DISK, 2)
