"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest -q perfbench

They use the reduced `--size smoke` job lists, so each run takes seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc, time.monotonic() - start


@pytest.fixture(scope="module")
def smoke_runs():
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, seconds = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            results[workload, trace] = (json.loads(proc.stdout.splitlines()[-1]), seconds)
    return results


def test_spec_names_and_units_match_the_code():
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_every_metric_is_present_for_every_workload(smoke_runs):
    spec = load_spec()
    for (workload, trace), (result, _) in smoke_runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload
        assert result["attempted"] >= 1
        wanted = spec["per_layer"] if trace else spec["end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            entry = result["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_answers_are_bit_identical_and_wrappers_restored(smoke_runs):
    for workload in WORKLOADS:
        with open(os.path.join(HERE, "out", f"{workload}-seed5-trace1.json")) as fh:
            run = json.load(fh)["run"]
        assert run["job_s"] and len(run["job_s"]) == len(run["traced_job_s"])
        # every round, traced or not, is compared bit for bit with the first
        assert run["nondeterministic"] == [], workload
        assert run["leftover_wrappers"] == []
        assert os.path.getsize(os.path.join(HERE, "out", f"{workload}-seed5-trace1.spans.json.gz"))


def test_tracer_is_transparent_in_process():
    import gkf.bases
    import gkf.drivers
    from gkf.bases import Basis, conversion_matrix
    from gkf.sampling import pi_n_batch

    from tracer import Tracer, layer_metrics, leftover_wrappers

    expected = conversion_matrix(6, Basis.NU, Basis.PHI)
    tracer = Tracer()
    tracer.install()
    try:
        assert gkf.drivers.pi_n_batch is not pi_n_batch
        tracer.job = 0
        assert gkf.bases.conversion_matrix(6, Basis.NU, Basis.PHI) == expected
        assert gkf.bases.conversion_matrix(7, Basis.NU, Basis.PHI)
    finally:
        tracer.restore()
    assert leftover_wrappers() == []
    assert gkf.drivers.pi_n_batch is pi_n_batch
    assert gkf.bases.conversion_matrix is conversion_matrix
    metrics, sizes = layer_metrics(tracer.spans)
    assert metrics["bases.matrices_built"] == 1
    assert metrics["bases.build_s"] > 0


def test_every_round_starts_with_empty_caches():
    import gkf.bases
    import gkf.cli  # noqa: F401
    import gkf.functionals

    from worker import cached_functions

    cached = cached_functions()
    assert gkf.bases.conversion_matrix in cached
    assert gkf.functionals.icosphere in cached
    assert all(hasattr(fn, "cache_clear") for fn in cached)


def test_adjusted_wall_divides_by_slowdown_and_takes_the_median_round():
    from run import adjusted_wall, unadjusted_wall

    times = [[2.0, 1.0], [3.0, 0.5], [4.0, 0.6]]  # rounds x jobs
    slowdowns = [[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]]
    assert adjusted_wall(times, slowdowns) == 2.0 + 0.5
    assert unadjusted_wall(times) == 3.0 + 0.6


def test_smoke_runs_finish_in_seconds(smoke_runs):
    assert all(seconds < 60 for _, seconds in smoke_runs.values())


def test_refuses_to_run_outside_a_checkout():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc, _ = run_bench("gaussian_limit", 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare)
