"""Acceptance criteria.

Every criterion runs at its stated budget and tolerance and emits one
PASS/FAIL line (written through the capture so the lines always appear).
Statistical criteria use fixed seeds; each also asserts its own z-gates, so
a pass is reproducible bit for bit.
"""

import math
import random
import sys
import time
from fractions import Fraction

from scipy.special import gammainc

import conftest
from gkf.bases import Basis, ValuationVector, change_basis
from gkf.drivers import (
    estimate_lhs,
    kinematic_inequality_check,
    nu_convergence,
    pi_n_prediction,
)
from gkf.functionals import chi_values, mesh_chi_quadratic
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
    gkf_coefficient,
    nu_defining_identity_holds,
    p_sigma,
    p_tau,
    tube_volume_identity,
)
from gkf.model_sets import AmbientSphere, GeodesicBall, UnitSphere
from gkf.rng import RngStream
from gkf.sampling import poincare_sweep
from gkf.scalars import PiScalar, omega
from gkf.series import sqrt_pow

ACCEPT_SEED = 20240817


def report(criterion: str, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.CRITERION_LINES.append(line)
    assert passed, line


class TestAcceptance:
    def test_a01_exact_nu_defining_identity(self):
        t0 = time.time()
        ok = all(nu_defining_identity_holds(N) for N in range(1, 41))
        elapsed = time.time() - t0
        report(
            "A01 exact nu-identity",
            ok and elapsed < 10.0,
            f"sum_k u^k(x)nu_k == kinematic image of chi, exact, N<=40 "
            f"({elapsed:.2f}s < 10s)",
        )

    def test_a02_operator_consistency(self):
        ok = True
        for N in range(1, 41):
            for k in range(N + 1):
                via_tau = (
                    p_tau(k, N).convert_left(Basis.SIGMA).convert_right(Basis.SIGMA)
                )
                via_sigma = p_sigma(N - k, N).scale(sqrt_pow(4 * N, k))
                if via_tau.rows != via_sigma.rows:
                    ok = False
        report(
            "A02 operator consistency",
            ok,
            "tau-form and sigma-form kinematic operators agree exactly, "
            "all k, N<=40",
        )

    def test_a03_basis_round_trips(self):
        rng = random.Random(ACCEPT_SEED)
        ok = True
        for N in (5, 10, 20, 40):
            for _ in range(100):
                source = rng.choice(list(Basis))
                coeffs = tuple(
                    PiScalar.from_rational(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                    )
                    for _ in range(N + 1)
                )
                v = ValuationVector(N, source, coeffs)
                for target in Basis:
                    if target == source:
                        continue
                    back = change_basis(change_basis(v, target), source)
                    if back.coeffs != v.coeffs:
                        ok = False
        report(
            "A03 basis round-trips",
            ok,
            "all 7-basis pairwise conversions, 100 random vectors per "
            "N in {5,10,20,40}, exact",
        )

    def test_a04_coefficient_bridge(self):
        ok = True
        for k in range(21):
            lhs = (
                sqrt_pow(2, k)
                * PiScalar.pi_power(k)
                * Fraction(1, 2**k)
                * (math.factorial(k) * omega(k)).reciprocal()
            )
            if lhs != gkf_coefficient(k):
                ok = False
        report(
            "A04 coefficient bridge",
            ok,
            "2^-k (2pi)^(k/2)/(k! omega_k) == (pi/2)^(k/2)/(k! omega_k) "
            "exactly, k<=20",
        )

    def test_a05_tube_identity(self):
        t0 = time.time()
        worst = 0.0
        for (N, d, s) in ((20, 2, 1.0), (30, 3, 0.8)):
            for r in (0.2, 0.5):
                lhs, rhs = tube_volume_identity(N, d, s, r)
                worst = max(worst, abs(lhs - rhs) / lhs)
        elapsed = time.time() - t0
        report(
            "A05 tube identity",
            worst < 1e-8 and elapsed < 30.0,
            "incomplete-beta tube volume vs curvature expansion, "
            f"worst relative difference {worst:.2e} < 1e-8 ({elapsed:.2f}s < 30s)",
        )

    def test_a06_gamma_oracle(self):
        worst = 0.0
        grid = [HalfSpace(1, u) for u in (0.0, 1.0, 2.0)]
        grid += [CenteredBall(d, rho) for d, rho in ((1, 1.0), (2, 1.0), (3, 2.0))]
        for D in grid:
            g = gamma(D, 4)
            for k in range(5):
                worst = max(worst, abs(g[k] - gamma_fd_oracle(D, k)))
        report(
            "A06 derivative oracle",
            worst < 1e-6,
            f"exact tube-measure derivatives vs finite differences, worst "
            f"absolute difference {worst:.2e} < 1e-6",
        )

    def test_a07_theorem_chi_case(self):
        worst_closed = 0.0
        worst_z = 0.0
        for u in (0.0, 0.5, 1.0, 2.0):
            pred = gkf_predict(UnitSphere(2), HalfSpace(1, u), 0)
            oracle = 1 - float(gammainc(1.5, u * u / 2))
            worst_closed = max(worst_closed, abs(pred - oracle))
            rep = estimate_lhs(
                UnitSphere(2), HalfSpace(1, u), 0, 10**5, RngStream(ACCEPT_SEED, 70)
            )
            worst_z = max(worst_z, abs(rep.z_score))
        report(
            "A07 limit theorem, Euler case",
            worst_closed < 1e-10 and worst_z < 3,
            f"closed-form vs chi-squared oracle {worst_closed:.1e} < 1e-10; "
            f"Monte Carlo worst |z| {worst_z:.2f} < 3 at 1e5 samples",
        )

    def test_a08_theorem_top_case(self):
        supported = [
            HalfSpace(1, 0.0),
            HalfSpace(1, 1.0),
            CenteredBall(2, 1.0),
            CenteredBall(3, 2.0),
            Origin(2),
            FullSpace(2),
        ]
        worst_z = 0.0
        for D in supported:
            rep = estimate_lhs(
                UnitSphere(2), D, "top", 10**5, RngStream(ACCEPT_SEED, 80)
            )
            worst_z = max(worst_z, abs(rep.z_score))
        report(
            "A08 limit theorem, top degree",
            worst_z < 3,
            f"volume-fraction estimator vs gamma_0 across {len(supported)} "
            f"sets, worst |z| {worst_z:.2f} < 3 at 1e5 samples",
        )

    def test_a09_law_convergence(self):
        t0 = time.time()
        A, D = UnitSphere(2), CenteredBall(2, 1.0)
        reference = estimate_lhs(A, D, 0, 10**5, RngStream(ACCEPT_SEED, 90))
        estimates = {}
        stderrs = {}
        z_ok = abs(reference.z_score) < 3
        for i, N in enumerate((50, 200, 1000)):
            rep = estimate_lhs(A, D, 0, 10**5, RngStream(ACCEPT_SEED, 91 + i), law_n=N)
            estimates[N] = rep.estimate
            stderrs[N] = rep.stderr
            z_ok = z_ok and abs(rep.z_score) < 3
        # the exact finite-N expectations approach the limit monotonically
        target = reference.prediction
        exact_gaps = [abs(pi_n_prediction(A, D, N, 0) - target) for N in (50, 200, 1000)]
        exact_monotone = all(b < a for a, b in zip(exact_gaps, exact_gaps[1:]))
        # the estimates move toward the limit estimate or are within one
        # standard error of it
        gaps = [abs(estimates[N] - reference.estimate) for N in (50, 200, 1000)]
        ses = [
            math.hypot(stderrs[N], reference.stderr) for N in (50, 200, 1000)
        ]
        toward = all(
            later <= earlier or later <= se
            for (earlier, later), se in zip(zip(gaps, gaps[1:]), ses[1:])
        )
        overlap = gaps[-1] <= 3 * (stderrs[1000] + reference.stderr)
        elapsed = time.time() - t0
        report(
            "A09 ensemble convergence",
            z_ok and exact_monotone and toward and overlap and elapsed < 300,
            f"finite-N estimates {[round(estimates[N], 4) for N in (50, 200, 1000)]} "
            f"-> {reference.estimate:.4f}; exact gaps {[f'{g:.4f}' for g in exact_gaps]} "
            f"monotone; 3-stderr overlap at N=1000 ({elapsed:.0f}s < 300s)",
        )

    def test_a10_projection_limit(self):
        rep = poincare_sweep((1000,), 1, 10**5, RngStream(ACCEPT_SEED, 100))[0]
        gate = rep.ks_statistic < 0.01
        means = {}
        for N in (100, 10**4):
            values = [
                poincare_sweep((N,), 1, 10**5, RngStream(ACCEPT_SEED, 101 + i))[0].ks_statistic
                for i in range(10)
            ]
            means[N] = sum(values) / len(values)
        decreasing = means[10**4] < means[100]
        report(
            "A10 projection limit",
            gate and decreasing,
            f"KS(N=1000) = {rep.ks_statistic:.4f} < 0.01; 10-seed mean KS "
            f"{means[100]:.5f} (N=100) -> {means[10**4]:.5f} (N=1e4) decreasing",
        )

    def test_a11_nu_convergence(self):
        rows = nu_convergence(2, 1.0, 2, (100, 400, 1600, 2000))
        by_k = {}
        for row in rows:
            by_k.setdefault(row["k"], []).append(row)
        decreasing = all(
            all(b["abs_err"] < a["abs_err"] for a, b in zip(seq, seq[1:]))
            for seq in by_k.values()
        )
        final_ok = all(seq[-1]["rel_err"] < 0.05 for seq in by_k.values())
        zero_note = (
            " (k=2 limit is exactly zero; gated at the coefficient scale)"
            if any(seq[-1]["limit_is_zero"] for seq in by_k.values())
            else ""
        )
        rels = {k: by_k[k][-1]["rel_err"] for k in sorted(by_k)}
        report(
            "A11 dual-family convergence",
            decreasing and final_ok,
            f"errors decrease along N in {{100,400,1600}}; relative error at "
            f"N=2000: { {k: f'{v:.4f}' for k, v in rels.items()} } < 5%" + zero_note,
        )

    def test_a12_kinematic_inequality(self):
        N = 20
        configs = []
        cap_pairs = [
            (5.5, 6.5),
            (6.0, 7.0),
            (5.0, 5.0),
            (4.5, 6.8),
            (7.0, 7.0),
            (0.5, 0.4),
        ]
        for i, (r1, r2) in enumerate(cap_pairs):
            configs.append(
                kinematic_inequality_check(
                    GeodesicBall(N, r1),
                    GeodesicBall(N, r2),
                    0,
                    N,
                    10**5,
                    RngStream(ACCEPT_SEED, 120 + i),
                )
            )
        for k in (0, 1, 2, 5):
            configs.append(
                kinematic_inequality_check(
                    GeodesicBall(N, 4.0), AmbientSphere(N), k, N, 0, RngStream(0)
                )
            )
        ok = all(c["passed"] for c in configs)
        report(
            "A12 kinematic inequality",
            ok and len(configs) == 10,
            f"{sum(c['passed'] for c in configs)}/10 configurations satisfy "
            "LHS <= RHS within 3 relative stderr",
        )

    def test_a13_mesh_oracle_equivalence(self):
        gen = RngStream(ACCEPT_SEED, 130).generator()
        mismatches = 0
        for _ in range(1000):
            d = int(gen.integers(2, 4))
            F = gen.standard_normal((d, 3))
            rho = float(gen.uniform(0.3, 2.5))
            formula = chi_values(UnitSphere(2), CenteredBall(d, rho), F[None])[0]
            if formula != mesh_chi_quadratic(F, rho):
                mismatches += 1
        report(
            "A13 mesh oracle equivalence",
            mismatches == 0,
            f"Morse count vs triangulated Euler count on the 2-sphere, "
            f"1000 random maps, {mismatches} mismatches",
        )
