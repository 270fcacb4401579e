"""Symbolic model sets and their boundary geometry.

Sphere-side sets live in the sphere of dimension N and radius sqrt(N); all
of their boundaries are isoparametric (constant principal curvatures), so
curvature integrals reduce to closed forms and 1-D integrals.  Unit-side
sets live on the unit sphere in euclidean space and feed the limit-theorem
predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import scipy

from .scalars import _integer, log_alpha


@dataclass(frozen=True)
class AmbientSphere:
    N: int

    def __post_init__(self):
        self.__dict__.update(N=_integer(self.N, "dimension must be positive", 1))


@dataclass(frozen=True)
class GeodesicBall:
    """Metric ball of geodesic radius r in the sphere of dimension N."""

    N: int
    r: float

    def __post_init__(self):
        self.__dict__.update(N=_integer(self.N, "dimension must be positive", 1))
        if not 0 <= self.r < math.pi * math.sqrt(self.N):
            raise ValueError("radius must lie in [0, pi sqrt(N))")


@dataclass(frozen=True)
class GreatSubsphere:
    """Totally geodesic j-sphere of radius sqrt(N) inside the ambient sphere."""

    N: int
    j: int

    def __post_init__(self):
        N = _integer(self.N, "dimension must be positive", 1)
        j = _integer(self.j, "subsphere dimension out of range", 0, N)
        self.__dict__.update(N=N, j=j)


@dataclass(frozen=True)
class SubsphereTube:
    """Points within geodesic distance s of a great subsphere of codimension d.

    Equals the preimage under coordinate projection of a centered d-ball,
    which is how the euclidean sets are pulled onto the big sphere.
    """

    N: int
    d: int
    s: float

    def __post_init__(self):
        N = _integer(self.N, "dimension must be positive", 1)
        d = _integer(self.d, "codimension out of range", 1, N)
        self.__dict__.update(N=N, d=d)
        if not 0 <= self.s < 0.5 * math.pi * math.sqrt(self.N):
            raise ValueError("tube radius must lie in [0, (pi/2) sqrt(N))")


@dataclass(frozen=True)
class UnitSphere:
    n: int

    def __post_init__(self):
        self.__dict__.update(n=_integer(self.n, "dimension must be positive", 1))


@dataclass(frozen=True)
class UnitGreatSubsphere:
    n: int
    m: int

    def __post_init__(self):
        n = _integer(self.n, "dimension must be positive", 1)
        m = _integer(self.m, "subsphere dimension out of range", 0, n)
        self.__dict__.update(n=n, m=m)


@dataclass(frozen=True)
class UnitCap:
    """Geodesic cap of angular radius theta <= pi/2 on the unit n-sphere."""

    n: int
    theta: float

    def __post_init__(self):
        self.__dict__.update(n=_integer(self.n, "dimension must be positive", 1))
        if not 0 < self.theta <= 0.5 * math.pi + 1e-15:
            raise ValueError("cap angle must lie in (0, pi/2]")


ModelSet = Union[
    AmbientSphere,
    GeodesicBall,
    GreatSubsphere,
    SubsphereTube,
    UnitSphere,
    UnitGreatSubsphere,
    UnitCap,
]

UNIT_SIDE = (UnitSphere, UnitGreatSubsphere, UnitCap)


def top_degree(A: ModelSet) -> int:
    """The dimension of a unit-side set, the top degree at which its
    generator powers can be nonzero."""
    return A.m if isinstance(A, UnitGreatSubsphere) else A.n


def check_degree(A: ModelSet, m) -> int:
    """The degree m as an int, refused unless it is an integer between 0 and
    the top degree of the unit-side set A."""
    message = "degree must lie between 0 and the dimension of the set"
    return _integer(m, message, 0, top_degree(A))


@dataclass(frozen=True)
class PrincipalCurvatureProfile:
    """Boundary data of an isoparametric domain: total boundary measure (kept
    in log scale since it overflows floats for large N) and the distinct
    principal curvature values with multiplicities, taken with respect to the
    outward normal."""

    log_area: float
    curvatures: tuple[tuple[float, int], ...]

    @property
    def area(self) -> float:
        return math.exp(self.log_area)


def curvature_profile(model_set: ModelSet) -> PrincipalCurvatureProfile:
    """Outward-normal curvature data for sets with hypersurface boundary."""
    if isinstance(model_set, GeodesicBall):
        N, r = model_set.N, model_set.r
        if r == 0:
            raise ValueError("degenerate ball has no boundary profile")
        R = math.sqrt(N)
        theta = r / R
        log_area = log_alpha(N - 1) + (N - 1) * (math.log(R) + math.log(math.sin(theta)))
        kappa = 1.0 / (R * math.tan(theta))
        return PrincipalCurvatureProfile(log_area, ((kappa, N - 1),))
    if isinstance(model_set, SubsphereTube):
        N, d, s = model_set.N, model_set.d, model_set.s
        if s == 0:
            raise ValueError("degenerate tube has no boundary profile")
        R = math.sqrt(N)
        theta = s / R
        log_area = (
            log_alpha(d - 1)
            + (d - 1) * (math.log(R) + math.log(math.sin(theta)))
            + log_alpha(N - d)
            + (N - d) * (math.log(R) + math.log(math.cos(theta)))
        )
        blocks = []
        if d > 1:
            blocks.append((1.0 / (R * math.tan(theta)), d - 1))
        if N > d:
            blocks.append((-math.tan(theta) / R, N - d))
        return PrincipalCurvatureProfile(log_area, tuple(blocks))
    raise ValueError(f"no curvature profile for {type(model_set).__name__}")


def ball_volume_fraction(N: int, r: float) -> float:
    """vol(geodesic ball) / vol(ambient sphere), by the incomplete beta."""
    theta = r / math.sqrt(N)
    if theta <= 0:
        return 0.0
    if theta >= math.pi:
        return 1.0
    if theta <= 0.5 * math.pi:
        return 0.5 * scipy.special.betainc(N / 2.0, 0.5, math.sin(theta) ** 2)
    return 1.0 - 0.5 * scipy.special.betainc(N / 2.0, 0.5, math.sin(math.pi - theta) ** 2)


def tube_volume_fraction(N: int, d: int, s: float) -> float:
    """vol(subsphere tube) / vol(ambient sphere): the meridian integral
    alpha(d-1) alpha(N-d) / alpha(N) int_0^theta sin^(d-1) cos^(N-d), which
    is the regularized incomplete beta I(sin^2 theta; d/2, (N-d+1)/2), since
    alpha(d-1) alpha(N-d) B(d/2, (N-d+1)/2) = 2 alpha(N)."""
    theta = s / math.sqrt(N)
    if theta <= 0:
        return 0.0
    return scipy.special.betainc(d / 2.0, (N - d + 1) / 2.0, math.sin(theta) ** 2)


def euler_characteristic(model_set: ModelSet) -> int:
    """Exact Euler characteristic of a model set."""
    if isinstance(model_set, AmbientSphere):
        return 1 + (-1) ** model_set.N
    if isinstance(model_set, GeodesicBall):
        return 1  # every accepted ball, r < pi sqrt(N), is a point or a disk
    if isinstance(model_set, GreatSubsphere):
        return 1 + (-1) ** model_set.j
    if isinstance(model_set, SubsphereTube):
        return 1 + (-1) ** (model_set.N - model_set.d)
    if isinstance(model_set, (UnitSphere, UnitGreatSubsphere)):
        return 1 + (-1) ** top_degree(model_set)
    if isinstance(model_set, UnitCap):
        return 1
    raise TypeError(f"unknown model set {model_set!r}")
