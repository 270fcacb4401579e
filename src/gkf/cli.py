"""Command-line surface.

Subcommands: tables, convert, nu, predict, simulate, converge, check.
Reports are JSON (default) or CSV documents with a schema version, an echo
of the parsed command, the result rows, and provenance.  Identical
invocations produce identical documents apart from the wall-time field;
floats are serialized with the shortest round-trip representation (at most
17 significant digits).

Exit codes: 0 success, 1 a FAIL-gated statistical check or identity check
failed, 2 invalid configuration.  The environment variable GKF_SEED
overrides --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__
from .bases import (
    EXACT_N_CAP,
    Basis,
    ValuationVector,
    change_basis,
    nu_in_sigma_column,
)
from .drivers import estimate_lhs, nu_convergence, pull_back_set
from .evaluate import mu_on_euclidean_ball
from .gauss import (
    CenteredBall,
    FullSpace,
    GaussSet,
    HalfSpace,
    Origin,
    gamma,
    gamma_fd_oracle,
    gkf_predict,
)
from .kinematics import (
    gkf_coefficient,
    nu_defining_identity_holds,
    nu_values_on_set,
    p_sigma,
    p_tau,
    tube_volume_identity,
)
from .model_sets import ModelSet, UnitCap, UnitGreatSubsphere, UnitSphere
from .rng import RngStream
from .sampling import poincare_test
from .scalars import PiScalar, alpha, float_of, omega
from .series import sqrt_pow

SCHEMA_VERSION = "1"

DEFAULT_SEED = 20240817


def parse_unit_set(text: str) -> ModelSet:
    parts = text.split(":")
    try:
        if parts[0] == "sphere" and len(parts) == 2:
            return UnitSphere(int(parts[1]))
        if parts[0] == "cap" and len(parts) == 3:
            return UnitCap(int(parts[1]), float(parts[2]))
        if parts[0] == "subsphere" and len(parts) == 3:
            return UnitGreatSubsphere(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise ValueError(f"bad set descriptor {text!r}: {exc}") from exc
    raise ValueError(
        f"unknown set descriptor {text!r} (expected sphere:n, cap:n:theta, "
        "subsphere:n:m)"
    )


def parse_gauss_set(text: str) -> GaussSet:
    parts = text.split(":")
    try:
        if parts[0] == "halfspace" and len(parts) == 3:
            return HalfSpace(int(parts[1]), float(parts[2]))
        if parts[0] == "ball" and len(parts) == 3:
            return CenteredBall(int(parts[1]), float(parts[2]))
        if parts[0] == "origin" and len(parts) == 2:
            return Origin(int(parts[1]))
        if parts[0] == "fullspace" and len(parts) == 2:
            return FullSpace(int(parts[1]))
    except ValueError as exc:
        raise ValueError(f"bad set descriptor {text!r}: {exc}") from exc
    raise ValueError(
        f"unknown set descriptor {text!r} (expected halfspace:d:u, ball:d:rho, "
        "origin:d, fullspace:d)"
    )


def _exact_cell(x: PiScalar) -> dict:
    return {"symbolic": str(x), "value": float_of(x)}


# -- command handlers -----------------------------------------------------------


def _nonnegative(**values) -> None:
    for flag, value in values.items():
        if value is not None and value < 0:
            raise ValueError(f"--{flag.replace('_', '-')} must be nonnegative")


def cmd_tables(args) -> tuple[list[dict], int]:
    _nonnegative(max=args.max, N=args.N)
    rows = []
    if args.what == "omega":
        for n in range(args.max + 1):
            rows.append({"n": n, **_exact_cell(omega(n))})
    elif args.what == "alpha":
        for n in range(args.max + 1):
            rows.append({"n": n, **_exact_cell(alpha(n))})
    elif args.what == "gkf":
        for k in range(args.max + 1):
            rows.append({"k": k, **_exact_cell(gkf_coefficient(k))})
    elif args.what == "mu_ball":
        if args.N is None:
            raise ValueError("mu_ball table needs --N")
        for k in range(min(args.max, args.N) + 1):
            if args.N <= EXACT_N_CAP:
                mu = omega(args.N) * omega(args.N - k).reciprocal() * math.comb(args.N, k)
                rows.append({"k": k, **_exact_cell(mu)})
            else:
                rows.append({"k": k, "symbolic": "", "value": mu_on_euclidean_ball(k, args.N)})
    else:
        raise ValueError(f"unknown table {args.what!r}")
    return rows, 0


def cmd_convert(args) -> tuple[list[dict], int]:
    source = Basis(args.source)
    target = Basis(args.target)
    try:
        coeffs = [Fraction(c) for c in args.coeffs.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coefficient list: {exc}") from exc
    if len(coeffs) != args.N + 1:
        raise ValueError(f"expected {args.N + 1} coefficients")
    vector = ValuationVector.from_coeffs(args.N, source, coeffs)
    converted = change_basis(vector, target)
    rows = [
        {"index": k, **_exact_cell(converted.coeff(k))} for k in range(args.N + 1)
    ]
    return rows, 0


def cmd_nu(args) -> tuple[list[dict], int]:
    _nonnegative(N=args.N, k_max=args.k_max)
    k_max = min(args.k_max if args.k_max is not None else args.N, args.N)
    values = None
    if args.D is not None:
        D = parse_gauss_set(args.D)
        values = nu_values_on_set(pull_back_set(D, args.N), k_max)
    rows = []
    for k in range(k_max + 1):
        expansion = " + ".join(f"{q}*sigma_{i}" for i, q in nu_in_sigma_column(k))
        row = {"k": k, "sigma_expansion": expansion or "0"}
        if values is not None:
            row["value_on_trace"] = values[k]
        rows.append(row)
    return rows, 0


def cmd_predict(args) -> tuple[list[dict], int]:
    A = parse_unit_set(args.A)
    D = parse_gauss_set(args.D)
    value = gkf_predict(A, D, args.m)
    return [{"A": args.A, "D": args.D, "m": args.m, "prediction": value}], 0


def cmd_simulate(args) -> tuple[list[dict], int]:
    A = parse_unit_set(args.A)
    D = parse_gauss_set(args.D)
    rng = RngStream(args.seed, args.stream)
    m = args.m if args.m == "top" else int(args.m)
    law_n = None if args.law == "infinity" else int(args.law)
    report = estimate_lhs(
        A, D, m, args.samples, rng, law_n=law_n, n_points=args.points,
        workers=args.workers,
    )
    row = {
        "A": args.A,
        "D": args.D,
        "m": args.m,
        "law": args.law,
        "estimate": report.estimate,
        "stderr": report.stderr,
        "n_samples": report.n_samples,
        "prediction": report.prediction,
        "z_score": report.z_score,
        "gate": report.gate,
        "seed": report.seed,
        "stream_id": report.stream_id,
    }
    return [row], 1 if report.gate == "FAIL" else 0


def cmd_converge(args) -> tuple[list[dict], int]:
    n_list = tuple(int(x) for x in args.N_list.split(","))
    if args.mode == "nu":
        D = parse_gauss_set(args.D) if args.D else CenteredBall(2, 1.0)
        if not isinstance(D, CenteredBall):
            raise ValueError("nu convergence expects a ball descriptor")
        return nu_convergence(D.d, D.rho, args.k_max, n_list), 0
    if args.mode == "poincare":
        rows = []
        for N in n_list:
            rep = poincare_test(N, args.d, args.samples, RngStream(args.seed, args.stream))
            rows.append(
                {
                    "N": N,
                    "d": rep.d,
                    "n_samples": rep.n_samples,
                    "ks_statistic": rep.ks_statistic,
                    "second_moment": rep.second_moment,
                }
            )
        return rows, 0
    if args.mode == "law":
        A = parse_unit_set(args.A)
        D = parse_gauss_set(args.D) if args.D else CenteredBall(2, 1.0)
        rows = []
        runs = [(None, args.stream)]
        runs += [(N, args.stream + 1 + i) for i, N in enumerate(n_list)]
        for law_n, stream in runs:
            rep = estimate_lhs(
                A, D, 0, args.samples, RngStream(args.seed, stream), law_n=law_n
            )
            rows.append(
                {
                    "law": "infinity" if law_n is None else str(law_n),
                    "estimate": rep.estimate,
                    "stderr": rep.stderr,
                    "prediction": rep.prediction,
                    "z_score": rep.z_score,
                    "gate": rep.gate,
                }
            )
        return rows, 0
    raise ValueError(f"unknown converge mode {args.mode!r}")


def cmd_check(args) -> tuple[list[dict], int]:
    """Exact-identity suite: basis round trips, the defining identity of the
    dual family, operator-normalization consistency, the tube identity at
    three parameter points, and the derivative oracle."""
    rows = []

    def record(name: str, passed: bool, detail: str = ""):
        rows.append({"check": name, "status": "ok" if passed else "FAIL", "detail": detail})

    rng = random.Random(0)
    ok = True
    for N in (5, 9):
        for src in Basis:
            for dst in Basis:
                coeffs = [PiScalar.zero()] * (N + 1)
                for _ in range(2):
                    coeffs[rng.randint(0, N)] = PiScalar.from_rational(
                        Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                    )
                v = ValuationVector(N, src, tuple(coeffs))
                if change_basis(change_basis(v, dst), src).coeffs != v.coeffs:
                    ok = False
    record("basis-round-trips", ok)

    record(
        "nu-defining-identity",
        all(nu_defining_identity_holds(N) for N in (1, 2, 3, 5, 8, 13)),
    )

    ok = True
    for N in (4, 9):
        for k in range(N + 1):
            via_tau = p_tau(k, N).convert_left(Basis.SIGMA).convert_right(Basis.SIGMA)
            via_sigma = p_sigma(N - k, N).scale(sqrt_pow(4 * N, k))
            if via_tau.rows != via_sigma.rows:
                ok = False
    record("operator-normalization", ok)

    ok = True
    worst = 0.0
    for (N, d, s, r) in ((20, 2, 1.0, 0.2), (20, 2, 1.0, 0.5), (30, 3, 0.8, 0.5)):
        lhs, rhs = tube_volume_identity(N, d, s, r)
        rel = abs(lhs - rhs) / lhs
        worst = max(worst, rel)
        if rel > 1e-8:
            ok = False
    record("tube-identity", ok, f"worst relative difference {float(worst)!r}")

    ok = True
    worst = 0.0
    for D in (HalfSpace(1, 0.0), HalfSpace(1, 1.0), CenteredBall(2, 1.0), Origin(2)):
        g = gamma(D, 4)
        for k in range(5):
            err = abs(g[k] - gamma_fd_oracle(D, k))
            worst = max(worst, err)
            if err > 1e-6:
                ok = False
    record("gamma-derivative-oracle", ok, f"worst absolute difference {float(worst)!r}")

    failed = any(row["status"] == "FAIL" for row in rows)
    return rows, 1 if failed else 0


# -- document assembly -----------------------------------------------------------


def build_document(command: str, args_echo: dict, rows: list[dict], seed: int, t0: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": {"name": command, **args_echo},
        "results": rows,
        "provenance": {
            "seed": seed,
            "build_id": f"gkf-{__version__}",
            "wall_time_s": time.monotonic() - t0,
        },
    }


def render(document: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        rows = document["results"]
        buffer = io.StringIO()
        if rows:
            fieldnames = list(rows[0].keys())
            writer = csv.DictWriter(buffer, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow(
                    {
                        k: repr(float(v)) if isinstance(v, float) else v
                        for k, v in row.items()
                    }
                )
        return buffer.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkf",
        description="Spherical valuation workbench: exact tables, kinematic "
        "identities, Gaussian predictions, and seeded Monte Carlo checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", help="write the report to a file instead of stdout")
    common.add_argument(
        "--seed", type=int, default=None, help="base seed (GKF_SEED overrides)"
    )
    common.add_argument("--stream", type=int, default=0, help="stream id")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="exact constant grids", parents=[common])
    p.add_argument("--what", choices=("omega", "alpha", "gkf", "mu_ball"), required=True)
    p.add_argument("--max", type=int, default=10)
    p.add_argument("--N", type=int, default=None)
    p.set_defaults(handler=cmd_tables)

    p = sub.add_parser("convert", parents=[common], help="exact change of basis")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--source", required=True, help="phi|t|u|mu|tau|sigma|nu")
    p.add_argument("--target", required=True)
    p.add_argument("--coeffs", required=True, help="comma-separated rationals")
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("nu", parents=[common], help="dual-family rows and evaluations")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--D", default=None, help="euclidean set pulled back onto the sphere")
    p.set_defaults(handler=cmd_nu)

    p = sub.add_parser("predict", parents=[common], help="closed-form excursion expectation")
    p.add_argument("--A", required=True)
    p.add_argument("--D", required=True)
    p.add_argument("--m", type=int, default=0)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo estimate vs prediction")
    p.add_argument("--A", required=True)
    p.add_argument("--D", required=True)
    p.add_argument("--m", default="0", help="0 or top")
    p.add_argument("--law", default="infinity", help="'infinity' or a block dimension N")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--points", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("converge", parents=[common], help="convergence sweeps")
    p.add_argument("--mode", choices=("nu", "poincare", "law"), required=True)
    p.add_argument("--N-list", dest="N_list", default="100,400,1600")
    p.add_argument("--k-max", dest="k_max", type=int, default=2)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--A", default="sphere:2")
    p.add_argument("--D", default=None)
    p.add_argument("--samples", type=int, default=100000)
    p.set_defaults(handler=cmd_converge)

    p = sub.add_parser(
        "check", parents=[common],
        help="exact-identity suite (nonzero exit on failure)",
    )
    p.set_defaults(handler=cmd_check)

    return parser


def main(argv=None) -> int:
    t0 = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    env_seed = os.environ.get("GKF_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"invalid GKF_SEED {env_seed!r}", file=sys.stderr)
            return 2
    elif args.seed is None:
        args.seed = DEFAULT_SEED

    try:
        rows, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    echo = {
        k: v
        for k, v in vars(args).items()
        if k not in ("handler", "out", "format", "command") and v is not None
    }
    document = build_document(args.command, echo, rows, args.seed, t0)
    text = render(document, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
