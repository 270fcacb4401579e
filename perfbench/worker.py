"""The timed rounds of one benchmark run, in one fresh interpreter.

Started by `run.py`, never by hand.  It imports `gkf`, generates the
run's inputs from the seed, and then repeats rounds until its time budget
is spent.  A round empties every `lru_cache` of `gkf`, so each round starts
as cold as a fresh process, and issues the whole job list once, one job
after another (a closed loop with one client).  Every round runs the same
inputs, so a job's times over the rounds are samples of one piece of work.

With `--setup-only` it stops after generating the inputs: `run.py` starts
several of these to measure set-up time.

After each round the answers are checked outside the timed region: every
job against its reference in the first round, and every round against the
first bit for bit.  With `--trace 1` untraced and traced rounds alternate;
the traced rounds also yield the per-layer metrics and their spans.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import platform
import resource
import sys
import time
import traceback

MIN_ROUNDS = 2
# the host's speed is probed before a job when this long has passed since
# the last probe, and once more after the last job of a round
PROBE_EVERY_S = 0.5
# nominal times of the probe's two halves on a quiet core of the host the
# benchmark was tuned on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4); only
# their ratio to the times measured during a run matters
NOMINAL_PY_S = 0.0025
NOMINAL_NP_S = 0.0035


class SpeedProbe:
    """A fixed reference kernel that measures how fast the host runs now.

    On a shared host the speed of a process swings by up to a half, for
    seconds to minutes at a time, and pure-Python and numpy code slow down
    together.  The kernel is half pure-Python arithmetic (integers and
    fractions, like the exact algebra) and half numpy streaming over 8 MB
    (like the samplers); it never calls `gkf`.  `slowdowns()` gives each
    half's time over its nominal time: 1.0 on a quiet core, 1.5 when
    everything runs half again as long.  `run.py` averages the two."""

    def __init__(self):
        import numpy

        self._data = numpy.linspace(0.0, 1.0, 1 << 20)

    @staticmethod
    def _py():
        from fractions import Fraction

        total, acc = 0, Fraction(0)
        for i in range(18000):
            total += i * i % 7
        for i in range(1, 360):
            acc += Fraction(1, i)
        return total, acc

    def _np(self):
        data = self._data
        return float((data * 1.5 + data).sum())

    def slowdowns(self) -> tuple[float, float]:
        """The slowdown of each half of the kernel, best of three."""
        clock = time.perf_counter
        best_py = best_np = float("inf")
        for _ in range(3):
            t0 = clock()
            self._py()
            t1 = clock()
            self._np()
            t2 = clock()
            best_py, best_np = min(best_py, t1 - t0), min(best_np, t2 - t1)
        return best_py / NOMINAL_PY_S, best_np / NOMINAL_NP_S


def cached_functions() -> list:
    """Every lru-cached function in a `gkf` module namespace, private ones
    included, found before any tracing wrapper is installed."""
    from tracer import LAYERS

    found = {}
    for layer in LAYERS:
        for obj in vars(sys.modules[f"gkf.{layer}"]).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def run_round(jobs, cached, probe, tracer=None) -> tuple[list, list]:
    """One cold pass over the job list.  Returns (answer, error, seconds)
    per job and the two slowdowns of the speed probe around each job: the
    mean of the probes taken just before and just after it."""
    for fn in cached:
        fn.cache_clear()
    probes = []  # (index of the job that followed the probe, slowdowns)
    last = -PROBE_EVERY_S
    answers = []
    for index, job in enumerate(jobs):
        if time.perf_counter() - last >= PROBE_EVERY_S:
            probes.append((index, probe.slowdowns()))
            last = time.perf_counter()
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            answer, error = job.call(), None
        except Exception:  # a job that raises is a failed job, not a crash
            answer, error = None, traceback.format_exc(limit=3)
        answers.append((answer, error, time.perf_counter() - t0))
        if tracer is not None:
            tracer.job = None
    probes.append((len(jobs), probe.slowdowns()))
    slowdowns, k = [], 0
    for index in range(len(jobs)):
        while probes[k + 1][0] <= index:
            k += 1
        before, after = probes[k][1], probes[k + 1][1]
        slowdowns.append([0.5 * (a + b) for a, b in zip(before, after)])
    return answers, slowdowns


def digests(answers) -> list:
    from jobs import digest_of

    out = []
    for answer, error, _ in answers:
        text = error if error is not None else digest_of(answer)
        out.append(hashlib.sha256(text.encode()).hexdigest())
    return out


def check_round(jobs, answers) -> dict:
    """The reference checks of one round's answers."""
    failed, exact_failed, errors, mc_target = [], [], {}, 0.0
    mesh_mismatches = 0
    for job, (answer, error, seconds) in zip(jobs, answers):
        try:
            ok = error is None and bool(job.check(answer))
            errs = job.stderrs(answer) if job.stderrs and error is None else []
        except Exception:
            ok, errs, error = False, [], traceback.format_exc(limit=3)
        if error is not None:
            errors[job.name] = error
        if errs:
            # projected time for every estimate of the job to reach a
            # standard error of 1e-3 at the rate this job ran
            mc_target += seconds * max((e / 1e-3) ** 2 for e in errs)
        if not ok:
            failed.append(job.name)
            mesh_mismatches += job.mesh
            if job.kind == "exact":
                exact_failed.append(job.name)
    return {
        "failed_jobs": failed,
        "exact_failed": exact_failed,
        "errors": errors,
        "mc_time_to_target_s": mc_target,
        "mesh_mismatches": mesh_mismatches,
    }


def run(args) -> dict:
    import numpy
    import scipy

    import gkf
    import gkf.cli  # noqa: F401

    from jobs import build_jobs

    jobs = build_jobs(args.workload, args.seed, args.size)
    setup_s = time.time() - args.t_spawn
    if args.setup_only:
        return {"setup_s": setup_s}

    from tracer import Tracer, layer_metrics, leftover_wrappers

    cached = cached_functions()
    probe = SpeedProbe()
    start = time.perf_counter()
    deadline = start + args.seconds
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "setup_s": setup_s,
        "jobs": [job.name for job in jobs],
        "job_s": [],
        "slowdown": [],
        "traced_job_s": [],
        "traced_slowdown": [],
        "layers": [],
        "sizes": [],
        "nondeterministic": [],
        "leftover_wrappers": [],
    }
    reference = None
    longest = 0.0
    while True:
        t_round = time.perf_counter()
        answers, slowdowns = run_round(jobs, cached, probe)
        result["job_s"].append([s for _, _, s in answers])
        result["slowdown"].append(slowdowns)
        found = digests(answers)
        if reference is None:
            reference = found
            result.update(check_round(jobs, answers))
        rounds = [found]
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                # a job holds the functions it calls, so the traced round's
                # jobs are built, on the same inputs, with the wrappers in place
                traced, slowdowns = run_round(
                    build_jobs(args.workload, args.seed, args.size), cached, probe, tracer
                )
            finally:
                tracer.restore()
            result["leftover_wrappers"] += leftover_wrappers()
            result["traced_job_s"].append([s for _, _, s in traced])
            result["traced_slowdown"].append(slowdowns)
            rounds.append(digests(traced))
            layers, sizes = layer_metrics(tracer.spans)
            result["layers"].append(layers)
            result["sizes"].append(sizes)
            if args.spans:
                with gzip.open(args.spans, "wt") as fh:
                    json.dump(
                        {"fields": ["name", "layer", "start", "end", "parent", "job", "extra"],
                         "jobs": [job.name for job in jobs],
                         "spans": tracer.spans},
                        fh,
                    )
            del tracer
        for found in rounds:
            result["nondeterministic"] += [
                job.name for job, a, b in zip(jobs, reference, found) if a != b
            ]
        del answers
        now = time.perf_counter()
        longest = max(longest, now - t_round)
        if len(result["job_s"]) >= MIN_ROUNDS and now + longest > deadline:
            break
    result["measured_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gkf": gkf.__version__,
        "gkf_path": gkf.__file__,
    }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", action="store_true")
    parser.add_argument("--t-spawn", dest="t_spawn", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    result = run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
