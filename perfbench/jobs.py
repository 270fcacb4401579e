"""Job lists of the three workloads.

A job is one documented `gkf` command run in-process through
`gkf.cli.main`, or one call to a public `gkf` function.  Its `call` is the
timed work; its `check` compares the answer with a reference and is never
timed.  Every input is generated from the run's seed, so the program sees
only the generated inputs.

`exact` jobs test an identity that must hold on the nose (a round trip, a
Morse count against the mesh count, an exit code, a document schema); a
miss there makes the run incorrect.  `tolerance` jobs test a float answer
against an oracle or a Monte Carlo gate; a miss there is a failed job.
Both kinds count in `failed`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

@dataclass
class Job:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    kind: str = "exact"
    # Monte Carlo jobs: maps an answer to the stderr of every estimate in it
    stderrs: Callable[[Any], list] | None = None
    mesh: bool = False


def cli_job(name, argv, row_check=None, doc_check=None, kind="exact", mc=False) -> Job:
    """A `gkf` command run through `gkf.cli.main` with stdout captured.  The
    document must parse and carry `schema_version`; Monte Carlo commands
    must not trip the program's FAIL gate."""
    from gkf.cli import main

    if mc:
        row_check, kind = _gate_ok, "tolerance"

    def call():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        return code, buffer.getvalue()

    def check(answer):
        code, text = answer
        if code != 0:
            return False
        doc = json.loads(text)
        if "schema_version" not in doc or not isinstance(doc.get("results"), list):
            return False
        if doc_check is not None and not doc_check(doc):
            return False
        return row_check is None or all(row_check(row) for row in doc["results"])

    return Job(name, call, check, kind=kind, stderrs=_doc_stderrs if mc else None)


def digest_of(answer) -> str:
    """A canonical text of an answer, for comparing two runs bit for bit.
    CLI documents drop their wall-time field, the one field allowed to
    differ between identical invocations."""
    if isinstance(answer, tuple) and len(answer) == 2 and isinstance(answer[1], str):
        code, text = answer
        doc = json.loads(text)
        doc.get("provenance", {}).pop("wall_time_s", None)
        return f"{code}:{json.dumps(doc, sort_keys=True)}"
    return repr(answer)


def _gate_ok(row) -> bool:
    return row.get("gate") != "FAIL"


def _doc_stderrs(answer) -> list:
    _, text = answer
    return [row["stderr"] for row in json.loads(text)["results"] if "stderr" in row]


def _random_coeffs(rng: random.Random, count: int, nonzero: int | None = None):
    from gkf.scalars import PiScalar

    coeffs = [PiScalar.zero()] * count
    picks = range(count) if nonzero is None else rng.sample(range(count), nonzero)
    for k in picks:
        coeffs[k] = PiScalar.from_rational(Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
    return tuple(coeffs)


# -- identity_suite ----------------------------------------------------------------


def identity_suite(seed: int, size: str) -> list[Job]:
    """Deterministic exact verification: cold all-pairs bridge builds, warm
    round trips, the dual-family and operator identities, `gkf check` and
    `gkf convert`, and A13-style Morse-vs-mesh maps."""
    from gkf.bases import Basis, ValuationVector, change_basis, conversion_matrix
    from gkf.functionals import chi_intersection, icosphere, mesh_chi_quadratic
    from gkf.gauss import CenteredBall
    from gkf.kinematics import nu_defining_identity_holds, p_sigma, p_tau
    from gkf.model_sets import UnitSphere
    from gkf.sampling import LinearMapSample
    from gkf.scalars import float_of
    from gkf.series import sqrt_pow

    smoke = size == "smoke"
    rng = random.Random(seed)
    jobs: list[Job] = []

    def round_trip(v):
        return tuple(
            change_basis(change_basis(v, target), v.basis).coeffs
            for target in Basis
            if target != v.basis
        )

    # one job per (N, source basis): the cold builds of its seven matrices
    for N in ((10,) if smoke else (10, 40, 64)):
        for source in Basis:
            probe = ValuationVector(N, source, _random_coeffs(rng, N + 1, nonzero=3))
            jobs.append(
                Job(
                    f"build_N{N}_{source.value}",
                    lambda N=N, source=source: tuple(
                        sum(len(col) for col in conversion_matrix(N, source, dst))
                        for dst in Basis
                    ),
                    lambda nonzeros, v=probe: len(nonzeros) == len(Basis)
                    and all(back == v.coeffs for back in round_trip(v)),
                )
            )

    # one vector per source basis, so the routes taken do not depend on the seed
    for N in ((10,) if smoke else (10, 20, 40)):
        for source in Basis:
            v = ValuationVector(N, source, _random_coeffs(rng, N + 1))
            jobs.append(
                Job(
                    f"round_trip_N{N}_{source.value}",
                    lambda v=v: round_trip(v),
                    lambda backs, v=v: all(b == v.coeffs for b in backs),
                )
            )

    for N in range(1, 9 if smoke else 41):
        jobs.append(
            Job(f"nu_identity_N{N}", lambda N=N: nu_defining_identity_holds(N), lambda ok: ok is True)
        )

    def operators(N):
        return all(
            p_tau(k, N).convert_left(Basis.SIGMA).convert_right(Basis.SIGMA).rows
            == p_sigma(N - k, N).scale(sqrt_pow(4 * N, k)).rows
            for k in range(N + 1)
        )

    for N in (range(1, 6) if smoke else range(4, 41, 4)):
        jobs.append(Job(f"operators_N{N}", lambda N=N: operators(N), lambda ok: ok is True))

    jobs.append(cli_job("cli_check", ["check"], row_check=lambda r: r["status"] == "ok"))

    N = 10 if smoke else 40
    src, dst = rng.sample([b.value for b in Basis], 2)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(N + 1)]
    argv = [
        "convert", "--N", str(N), "--source", src, "--target", dst,
        "--coeffs=" + ",".join(str(c) for c in coeffs),
    ]

    def convert_check(doc):
        expected = change_basis(ValuationVector.from_coeffs(N, Basis(src), coeffs), Basis(dst))
        rows = doc["results"]
        return len(rows) == N + 1 and all(
            row["value"] == float_of(expected.coeff(row["index"])) for row in rows
        )

    jobs.append(cli_job("cli_convert", argv, doc_check=convert_check))

    # the cold mesh builds, then maps on the warm meshes
    for depth in (6, 7):
        jobs.append(
            Job(
                f"icosphere_depth{depth}",
                lambda depth=depth: tuple(len(part) for part in icosphere(depth)),
                lambda vef: vef[0] - vef[1] + vef[2] == 2,
            )
        )
    gen = np.random.default_rng(seed)
    maps = []
    while len(maps) < (4 if smoke else 80):
        d = int(gen.integers(2, 4))
        F = gen.standard_normal((d, 3))
        rho = float(gen.uniform(0.3, 2.5))
        # A level within 1% of an eigenvalue of F^T F is nearly critical: the
        # mesh then refines to depth 8 or 9 (10 s to 50 s and up to 2 GB,
        # cold) before it settles.  Such maps are drawn again, so that the
        # cost of a round does not depend on the seed.
        if np.abs(np.linalg.eigvalsh(F.T @ F) - rho * rho).min() >= 0.01 * rho * rho:
            maps.append((d, F, rho))
    for i, (d, F, rho) in enumerate(maps):

        def mesh_call(F=F, d=d, rho=rho):
            morse = chi_intersection(UnitSphere(2), CenteredBall(d, rho), LinearMapSample(F))
            return morse, mesh_chi_quadratic(F, rho)

        jobs.append(Job(f"mesh_map_{i}", mesh_call, lambda a: a[0] == a[1], mesh=True))
    return jobs


# -- mc_finite_n -------------------------------------------------------------------


def mc_finite_n(seed: int, size: str) -> list[Job]:
    """A09: the law-N convergence sweep at N = 50, 200, 1000 and a top-degree
    law-N simulation, where the rotation-block sampler dominates time and
    memory.  The sweep's 32768 samples per N are issued as four one-chunk
    `gkf converge --mode law` commands on distinct streams, so that no
    single job dominates a round."""
    smoke = size == "smoke"
    s = str(seed)
    jobs = []
    for N in ((50, 200) if smoke else (50, 200, 1000)):
        for k in range(1 if smoke else 4):
            jobs.append(
                cli_job(
                    f"converge_law_N{N}_{k}",
                    ["converge", "--mode", "law", "--A", "sphere:2", "--D", "ball:2:1.0",
                     "--N-list", str(N), "--samples", "8192", "--seed", s,
                     "--stream", str(2 * k)],
                    mc=True,
                )
            )
    jobs.append(
        cli_job(
            "simulate_law200_top",
            ["simulate", "--A", "sphere:2", "--D", "ball:2:1.0", "--m", "top",
             "--law", "200", "--points", "4", "--samples", "8192" if smoke else "16384",
             "--seed", s, "--stream", "9"],
            mc=True,
        )
    )
    return jobs


# -- gaussian_limit ----------------------------------------------------------------


def gaussian_limit(seed: int, size: str) -> list[Job]:
    """Law-infinity simulations, the Poincare and dual-family sweeps, the
    large-N dual family, tube identities and a closed-form prediction sweep
    over sphere dimension checked against exact oracles."""
    from scipy.special import chdtrc

    from gkf.gauss import CenteredBall, FullSpace, HalfSpace, gkf_predict
    from gkf.kinematics import tube_volume_identity
    from gkf.model_sets import UnitSphere

    smoke = size == "smoke"
    s = str(seed)
    big = "20000" if smoke else "1000000"
    jobs = [
        cli_job("simulate_ball", ["simulate", "--A", "sphere:2", "--D", "ball:2:1.0",
                                  "--samples", big, "--seed", s], mc=True),
        cli_job("simulate_cap", ["simulate", "--A", "cap:2:1.0", "--D", "halfspace:1:0.5",
                                 "--samples", big, "--seed", s, "--stream", "1"], mc=True),
        cli_job("simulate_top", ["simulate", "--A", "sphere:2", "--D", "ball:2:1.0",
                                 "--m", "top", "--points", "16",
                                 "--samples", "5000" if smoke else "100000",
                                 "--seed", s, "--stream", "2"], mc=True),
        cli_job("converge_poincare", ["converge", "--mode", "poincare", "--samples", big,
                                      "--seed", s, "--stream", "3"],
                row_check=lambda r: r["ks_statistic"] < 0.05, kind="tolerance"),
        cli_job("converge_nu", ["converge", "--mode", "nu", "--k-max", "6"],
                row_check=lambda r: math.isfinite(r["value"])),
        cli_job("nu_N200", ["nu", "--N", "40" if smoke else "200", "--D", "ball:2:1.0"],
                row_check=lambda r: math.isfinite(r.get("value_on_trace", 0.0))),
    ]
    for N in ((20,) if smoke else (20, 80, 160)):
        jobs.append(
            Job(
                f"tube_identity_N{N}",
                lambda N=N: tube_volume_identity(N, 2, 1.0, 0.5),
                lambda lr: abs(lr[0] - lr[1]) <= 1e-8 * abs(lr[0]),
                kind="tolerance",
            )
        )

    # The half-space rows have the exact oracle P(|xi| >= u) = chdtrc(n+1, u^2)
    # and the full-space rows chi(S^n).  The ball rows have no closed form,
    # but for d = 2 the Morse count is 0 or 2, so the expectation lies in
    # [0, 2].  Large n is kept on purpose: the float sum breaks down there,
    # and these failures are how a fix will show.
    u = 0.5
    for n in range(1, (12 if smoke else 120) + 1):
        A = UnitSphere(n)
        oracle = float(chdtrc(n + 1, u * u))
        jobs.append(
            Job(
                f"predict_halfspace_n{n}",
                lambda A=A: gkf_predict(A, HalfSpace(1, u), 0),
                lambda p, oracle=oracle: abs(p - oracle) <= 1e-6,
                kind="tolerance",
            )
        )
        jobs.append(
            Job(
                f"predict_fullspace_n{n}",
                lambda A=A: gkf_predict(A, FullSpace(1), 0),
                lambda p, n=n: abs(p - (1 + (-1) ** n)) <= 1e-6,
                kind="tolerance",
            )
        )
        jobs.append(
            Job(
                f"predict_ball_n{n}",
                lambda A=A: gkf_predict(A, CenteredBall(2, 1.0), 0),
                lambda p: -1e-6 <= p <= 2 + 1e-6,
                kind="tolerance",
            )
        )
    return jobs


def build_jobs(workload: str, seed: int, size: str) -> list[Job]:
    return {"identity_suite": identity_suite, "mc_finite_n": mc_finite_n,
            "gaussian_limit": gaussian_limit}[workload](seed, size)
