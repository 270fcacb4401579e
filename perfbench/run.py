"""Benchmark of gkf: three seeded workloads, end-to-end and per-layer metrics.

Run from the root of a gkf checkout:

    python3 perfbench/run.py --workload identity_suite --seed 1 --seconds 25 --trace 0

Set-up is measured in several fresh interpreters that import `gkf` and
generate the inputs; the timed rounds then run in one more (`worker.py`).
Every child's environment drops GKF_SEED, pins the BLAS thread pools to
one thread and puts the checkout's `src` first on the path.  The inputs
come from `--seed` alone and are the same in every round; each round
empties the program's caches and issues the whole job list.  Rounds
repeat until `--seconds` are spent, and at least two run.  The last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  With `--trace 1` untraced and traced rounds alternate;
the answers of every round must agree bit for bit with the first.
The whole record, with the environment, goes to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("identity_suite", "mc_finite_n", "gaussian_limit")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# a run must end within 180 s; its children are stopped well before
RUN_LIMIT_S = 165.0
# set-up is measured in this many fresh interpreters, besides the timed one
SETUP_PROBES = 4

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "bases.build_s": "s", "bases.matrices_built": "count", "bases.matrix_nonzeros": "count",
    "series.self_s": "s", "bases.apply_s": "s", "bases.conversions": "count",
    "kinematics.self_s": "s", "bases.nu_columns_s": "s", "bases.nu_columns": "count",
    "scalars.binomial_s": "s", "scalars.binomials": "count", "evaluate.self_s": "s",
    "evaluate.calls": "count", "gauss.self_s": "s", "gauss.predictions": "count",
    "functionals.mesh_s": "s", "functionals.icosphere_s": "s",
    "functionals.mesh_levels": "count", "functionals.mesh_mismatches": "count",
    "functionals.self_s": "s", "functionals.maps_scored": "count",
    "sampling.self_s": "s", "sampling.maps": "count", "sampling.maps_per_s": "1/s",
    "sampling.bytes_drawn": "B", "drivers.self_s": "s", "drivers.chunks": "count",
    "drivers.samples_per_s": "1/s", "rng.self_s": "s", "rng.generators": "count",
    "cli.self_s": "s", "cli.commands": "count", "scalars.self_s": "s",
    "model_sets.self_s": "s", "bases.self_s": "s",
    "bases.build_s.N10": "s", "bases.build_s.N40": "s", "bases.build_s.N64": "s",
    "sampling.pi_n_batch_s.N50": "s", "sampling.pi_n_batch_s.N200": "s",
    "sampling.pi_n_batch_s.N1000": "s",
    "functionals.icosphere_s.depth6": "s", "functionals.icosphere_s.depth7": "s",
    "drivers.estimate_lhs_s.law_inf": "s", "drivers.estimate_lhs_s.law_N": "s",
    "mc_time_to_target_s": "s", "failed_ratio": "ratio",
    "host.slowdown": "ratio", "wall_unadjusted_s": "s",
    "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
}


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "GKF_SEED"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args, env: dict, out_dir: str, tag: str, timeout: float, extra=()) -> dict:
    out = os.path.join(out_dir, f"{tag}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--out", out, *extra, "--t-spawn", repr(time.time()),
    ]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{tag} exceeded the run's time limit")
    finally:
        # on every way out, no child is left running
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{tag} exited with code {code}")
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    return result


def environment(root: str, env: dict) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "gkf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        probe = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def adjusted_wall(times: list, slowdowns: list) -> float:
    """The job list's time at the host's nominal speed: every job's time
    divided by the host's slowdown around it, median over the rounds.

    On a shared host the speed of one process swings by up to a half, for
    seconds to minutes at a time.  Dividing by the slowdown the speed probe
    measured removes most of that; the median over rounds removes what is
    left of short disturbances and of the probe's own noise."""
    return sum(
        statistics.median(t / f for t, f in zip(job_times, job_slowdowns))
        for job_times, job_slowdowns in zip(zip(*times), zip(*slowdowns))
    )


def unadjusted_wall(times: list) -> float:
    """The same estimate without the speed correction."""
    return sum(statistics.median(job_times) for job_times in zip(*times))


def host_slowdowns(probed: list) -> list:
    """Per round and job, the host's slowdown: the mean of the probe's
    pure-Python and numpy halves, weighted equally."""
    return [[0.5 * (py + np) for py, np in round_] for round_ in probed]


def median_slowdown(main: dict) -> float:
    return statistics.median(f for round_ in host_slowdowns(main["slowdown"]) for f in round_)


def summarize(args, main: dict, setups: list) -> dict:
    attempted = len(main["jobs"]) * len(main["job_s"])
    failed = len(main["failed_jobs"]) * len(main["job_s"])
    correct = not (main["exact_failed"] or main["nondeterministic"] or main["leftover_wrappers"])
    if not args.trace:
        values = {
            # set-up at the host's nominal speed, like wall_s; it is too
            # short to bracket with probes, so the run's median slowdown
            # stands for the host's speed
            "setup_s": statistics.median(setups) / median_slowdown(main),
            "wall_s": adjusted_wall(main["job_s"], host_slowdowns(main["slowdown"])),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        layers = main["layers"]
        values = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        values["functionals.mesh_mismatches"] = main["mesh_mismatches"]
        values["mc_time_to_target_s"] = main["mc_time_to_target_s"]
        values["failed_ratio"] = failed / attempted
        values["host.slowdown"] = median_slowdown(main)
        values["wall_unadjusted_s"] = unadjusted_wall(main["job_s"])
        values["trace.untraced_wall_s"] = adjusted_wall(
            main["job_s"], host_slowdowns(main["slowdown"])
        )
        values["trace.overhead_s"] = (
            adjusted_wall(main["traced_job_s"], host_slowdowns(main["traced_slowdown"]))
            - values["trace.untraced_wall_s"]
        )
        units = PER_LAYER
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced job lists for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gkf", "__init__.py")):
        print("error: run from the root of a gkf checkout (src/gkf is missing)", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)
    start = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [
            run_child(args, env, out_dir, f"{tag}-setup{i}", RUN_LIMIT_S, ["--setup-only"])
            for i in range(SETUP_PROBES)
        ]
        extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", os.path.join(out_dir, f"{tag}.spans.json.gz")]
        left = RUN_LIMIT_S - (time.monotonic() - start)
        main_run = run_child(args, env, out_dir, tag + "-rounds", left, extra)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [p["setup_s"] for p in setups + [main_run]]

    result = summarize(args, main_run, setups)
    path = os.path.join(out_dir, f"{tag}.json")
    info = {
        "environment": environment(root, env),
        "versions": main_run["versions"],
        "rounds": len(main_run["job_s"]),
        "failed_jobs": main_run["failed_jobs"],
        "record": os.path.relpath(path, root),
    }
    if args.trace:
        # traced numbers by the size that drives them, medians over rounds
        sizes = main_run["sizes"]
        keys = sorted({key for p in sizes for key in p})
        info["sizes"] = {key: statistics.median(p.get(key, 0.0) for p in sizes) for key in keys}
    with open(path, "w") as fh:
        json.dump({"args": vars(args), **info, "setup_s": setups, "run": main_run,
                   "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
