"""Spherical valuation workbench.

Exact valuation algebra on spheres of radius sqrt(N), kinematic operators,
Gaussian intrinsic volumes, and seeded Monte Carlo drivers that verify the
limit identities numerically.
"""

from .bases import (
    Basis,
    ValuationVector,
    basis_element,
    change_basis,
    chi_vector,
    lk_multiply,
)
from .drivers import (
    McReport,
    estimate_lhs,
    kinematic_inequality_check,
    nu_convergence,
    pi_n_prediction,
    pull_back_set,
)
from .evaluate import (
    abs_sigma,
    evaluate,
    lk_unit_sphere,
    sigma_evaluate,
    t_power_unit,
    tau_evaluate,
    u_power_on_ball,
)
from .functionals import chi_values, mesh_chi_quadratic
from .gauss import (
    CenteredBall,
    FullSpace,
    GaussSet,
    HalfSpace,
    Origin,
    gamma,
    gamma_fd_oracle,
    gauss_measure_tube,
    gkf_predict,
)
from .kinematics import (
    KinematicTensor,
    gkf_coefficient,
    p_chi,
    p_sigma,
    p_tau,
    p_u_power,
    tube_volume_identity,
)
from .model_sets import (
    AmbientSphere,
    GeodesicBall,
    GreatSubsphere,
    ModelSet,
    PrincipalCurvatureProfile,
    SubsphereTube,
    UnitCap,
    UnitGreatSubsphere,
    UnitSphere,
    curvature_profile,
    euler_characteristic,
)
from .rng import RngStream
from .sampling import PoincareReport, poincare_sweep
from .scalars import (
    PiScalar,
    alpha,
    float_of,
    gamma_half,
    omega,
)

__all__ = [
    "AmbientSphere",
    "Basis",
    "CenteredBall",
    "FullSpace",
    "GaussSet",
    "GeodesicBall",
    "GreatSubsphere",
    "HalfSpace",
    "KinematicTensor",
    "McReport",
    "ModelSet",
    "Origin",
    "PiScalar",
    "PoincareReport",
    "PrincipalCurvatureProfile",
    "RngStream",
    "SubsphereTube",
    "UnitCap",
    "UnitGreatSubsphere",
    "UnitSphere",
    "ValuationVector",
    "abs_sigma",
    "alpha",
    "basis_element",
    "change_basis",
    "chi_values",
    "chi_vector",
    "curvature_profile",
    "estimate_lhs",
    "euler_characteristic",
    "evaluate",
    "float_of",
    "gamma",
    "gamma_fd_oracle",
    "gamma_half",
    "gauss_measure_tube",
    "gkf_coefficient",
    "gkf_predict",
    "kinematic_inequality_check",
    "lk_multiply",
    "lk_unit_sphere",
    "mesh_chi_quadratic",
    "nu_convergence",
    "omega",
    "p_chi",
    "p_sigma",
    "p_tau",
    "p_u_power",
    "pi_n_prediction",
    "poincare_sweep",
    "pull_back_set",
    "sigma_evaluate",
    "t_power_unit",
    "tau_evaluate",
    "tube_volume_identity",
    "u_power_on_ball",
]

__version__ = "0.1.0"
