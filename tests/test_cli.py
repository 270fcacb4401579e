"""Command-line surface: descriptors, documents, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gkf import cli, drivers
from gkf.cli import GAUSS_SETS, UNIT_SETS, build_parser, main, parse_set, render
from gkf.evaluate import t_power_unit
from gkf.gauss import CenteredBall, FullSpace, HalfSpace, Origin
from gkf.model_sets import UnitCap, UnitGreatSubsphere, UnitSphere
from gkf.rng import RngStream
from gkf.scalars import float_of, omega


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def run_json(argv, capsys):
    """Run the CLI and parse its document as strict JSON: the bare tokens
    Infinity, -Infinity and NaN are refused."""
    code, out = run_cli(argv, capsys)
    return code, json.loads(out, parse_constant=_refuse_constant) if out else None


def canonical(document):
    doc = json.loads(json.dumps(document))
    doc["provenance"].pop("wall_time_s")
    return json.dumps(doc, sort_keys=True)


class TestDescriptors:
    def test_unit_sets(self):
        assert parse_set("sphere:3", UNIT_SETS) == UnitSphere(3)
        assert parse_set("cap:2:0.7", UNIT_SETS) == UnitCap(2, 0.7)
        assert parse_set("subsphere:5:2", UNIT_SETS) == UnitGreatSubsphere(5, 2)

    def test_gauss_sets(self):
        assert parse_set("halfspace:1:0.5", GAUSS_SETS) == HalfSpace(1, 0.5)
        assert parse_set("ball:2:1.0", GAUSS_SETS) == CenteredBall(2, 1.0)
        assert parse_set("origin:3", GAUSS_SETS) == Origin(3)
        assert parse_set("fullspace:2", GAUSS_SETS) == FullSpace(2)

    def test_bad_descriptors(self):
        unit = "(expected sphere:n, cap:n:theta, subsphere:n:m)"
        gauss = "(expected halfspace:d:u, ball:d:rho, origin:d, fullspace:d)"
        for text, family, message in [
            ("sphere", UNIT_SETS, f"unknown set descriptor 'sphere' {unit}"),
            ("cap:2", UNIT_SETS, f"unknown set descriptor 'cap:2' {unit}"),
            ("blob:1", GAUSS_SETS, f"unknown set descriptor 'blob:1' {gauss}"),
            ("origin:2:3", GAUSS_SETS, f"unknown set descriptor 'origin:2:3' {gauss}"),
            ("ball:x:1", GAUSS_SETS,
             "bad set descriptor 'ball:x:1': invalid literal for int() with base 10: 'x'"),
            ("cap:2:9", UNIT_SETS,
             "bad set descriptor 'cap:2:9': cap angle must lie in (0, pi/2]"),
            ("ball:2:-1", GAUSS_SETS,
             "bad set descriptor 'ball:2:-1': radius must be positive and finite"),
        ]:
            with pytest.raises(ValueError) as info:
                parse_set(text, family)
            assert str(info.value) == message


class TestTables:
    def test_omega_values(self, capsys):
        code, doc = run_json(["tables", "--what", "omega", "--max", "4"], capsys)
        assert code == 0
        values = [row["value"] for row in doc["results"]]
        assert values[0] == 1.0
        assert values[1] == 2.0
        assert values[2] == pytest.approx(3.141592653589793)
        assert values[3] == pytest.approx(4.1887902047863905)
        assert values[4] == pytest.approx(4.934802200544679)
        assert doc["results"][2]["symbolic"] == "1*pi"

    def test_gkf_grid(self, capsys):
        code, doc = run_json(["tables", "--what", "gkf", "--max", "2"], capsys)
        assert code == 0
        assert doc["results"][0]["value"] == 1.0
        assert doc["results"][2]["value"] == 0.25

    def test_mu_ball_exact_cells(self, capsys):
        N = 10
        code, doc = run_json(["tables", "--what", "mu_ball", "--N", str(N)], capsys)
        assert code == 0
        assert [row["k"] for row in doc["results"]] == list(range(N + 1))
        for k, row in enumerate(doc["results"]):
            exact = omega(N) * omega(N - k).reciprocal() * math.comb(N, k)
            assert row["symbolic"] == str(exact)
            assert row["value"] == float_of(exact)

    def test_mu_ball_above_exact_cap(self, capsys):
        # above N = 64 the cells are floats from the log-scale route
        N = 70
        code, doc = run_json(["tables", "--what", "mu_ball", "--N", str(N)], capsys)
        assert code == 0
        assert [row["k"] for row in doc["results"]] == list(range(11))
        for k, row in enumerate(doc["results"]):
            exact = float_of(omega(N) * omega(N - k).reciprocal() * math.comb(N, k))
            assert row["symbolic"] == ""
            assert row["value"] == pytest.approx(exact, rel=1e-12)

    def test_mu_ball_requires_n(self, capsys):
        code, _ = run_cli(["tables", "--what", "mu_ball"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--what", "omega", "--max", "-2"], "--max"),
            (["--what", "mu_ball", "--N", "-1"], "--N"),
        ],
    )
    def test_negative_sizes_exit_two(self, capsys, argv, flag):
        code = main(["tables", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert flag in captured.err


class TestConvert:
    def test_round_trip(self, capsys):
        argv = [
            "convert", "--N", "4", "--source", "t", "--target", "sigma",
            "--coeffs", "1,0,0,0,0",
        ]
        code, doc = run_json(argv, capsys)
        assert code == 0
        back = [
            "convert", "--N", "4", "--source", "sigma", "--target", "t",
            "--coeffs", ",".join("1" if i == 0 else "0" for i in range(5)),
        ]
        assert run_json(back, capsys)[0] == 0

    def test_chi_to_mu(self, capsys):
        argv = [
            "convert", "--N", "3", "--source", "t", "--target", "mu",
            "--coeffs", "1,0,0,0",
        ]
        code, doc = run_json(argv, capsys)
        assert code == 0
        assert [row["value"] for row in doc["results"]] == [1.0, 0.0, 0.0, 0.0]

    def test_leading_negative_coefficient(self, capsys):
        # "--coeffs -5/1,2" reads as an option; the "=" form takes the list
        argv = [
            "convert", "--N", "1", "--source", "t", "--target", "t", "--coeffs=-5/1,2",
        ]
        code, doc = run_json(argv, capsys)
        assert code == 0
        assert doc["command"]["coeffs"] == "-5/1,2"
        assert [row["value"] for row in doc["results"]] == [-5.0, 2.0]

    def test_length_mismatch(self, capsys):
        code, _ = run_cli(
            ["convert", "--N", "3", "--source", "t", "--target", "u", "--coeffs", "1"],
            capsys,
        )
        assert code == 2

    def test_above_exact_cap_exit_two(self, capsys):
        argv = [
            "convert", "--N", "70", "--source", "t", "--target", "phi",
            "--coeffs", ",".join(["1"] * 71),
        ]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "capped at N = 64" in captured.err

    def test_value_past_the_float_range_exit_two(self, capsys):
        argv = [
            "convert", "--N", "2", "--source", "nu", "--target", "mu",
            "--coeffs", "1,1e400,2",
        ]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        # the message names the exact value, 2.5e399 sqrt(2) / pi
        assert captured.err == f"error: 25{'0' * 398}*pi^-1*sqrt(2) is past the float range\n"

    def test_zero_dimension_exit_two(self, capsys):
        argv = ["convert", "--N", "0", "--source", "t", "--target", "phi", "--coeffs", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "dimension must be positive" in captured.err


class TestColdStart:
    def test_exact_algebra_commands_load_no_special_functions(self):
        # tables and convert are exact algebra: in a fresh interpreter they
        # answer without ever loading scipy.special
        probe = (
            "import sys; from gkf.cli import main; "
            "codes = [main(['tables', '--what', what, '--max', '3', '--N', '10', "
            "'--out', sys.argv[1]]) for what in ('omega', 'alpha', 'gkf', 'mu_ball')]; "
            "codes.append(main(['convert', '--N', '4', '--source', 't', '--target', 'mu', "
            "'--coeffs', '1,0,0,0,0', '--out', sys.argv[1]])); "
            "print(codes, 'scipy.special' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, os.devnull], capture_output=True, text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert result.stdout.strip() == "[0, 0, 0, 0, 0] False"

    def test_no_process_pool_is_loaded(self):
        # chunks run on threads: neither the import nor a run on two
        # threads loads multiprocessing or the process pool
        probe = (
            "import sys; from gkf import drivers; from gkf.cli import main; "
            "loaded = lambda: [name for name in ('multiprocessing', "
            "'concurrent.futures.process') if name in sys.modules]; "
            "cold = loaded(); drivers._usable_cores = lambda: 2; "
            "code = main(['simulate', '--A', 'sphere:2', '--D', 'ball:2:1.0', "
            "'--samples', '20000', '--out', sys.argv[1]]); "
            "print(cold, code, loaded())"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, os.devnull], capture_output=True, text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert result.stdout.strip() == "[] 0 []"


class TestNu:
    def test_rows(self, capsys):
        code, doc = run_json(["nu", "--N", "6", "--k-max", "3"], capsys)
        assert code == 0
        assert doc["results"][0]["sigma_expansion"] == "1/2*sigma_0"
        assert doc["results"][3]["sigma_expansion"] == "-1/4*sigma_1 + 1/2*sigma_3"

    def test_trace_evaluations(self, capsys):
        code, doc = run_json(
            ["nu", "--N", "100", "--k-max", "1", "--D", "ball:2:1.0"], capsys
        )
        assert code == 0
        assert doc["results"][0]["value_on_trace"] == pytest.approx(0.392, abs=0.01)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--N", "-3"], "--N must be nonnegative"),
            (["--N", "10", "--k-max", "-2"], "--k-max must be nonnegative"),
            (["--N", "2", "--D", "ball:3:1.0"], "codimension"),
            (["--N", "0", "--D", "ball:2:1.0"], "ball must fit"),
            (["--N", "10", "--D", "halfspace:1:5.0"], "|u| < sqrt(N)"),
            (["--N", "10", "--D", "origin:2"], "no sphere-side trace for Origin"),
        ],
    )
    def test_bad_input_exit_two(self, capsys, argv, message):
        code = main(["nu", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err


class TestPredict:
    def test_halfspace_prediction(self, capsys):
        code, doc = run_json(
            ["predict", "--A", "sphere:2", "--D", "halfspace:1:0.0", "--m", "0"],
            capsys,
        )
        assert code == 0
        assert doc["results"][0]["prediction"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("D", ["ball:2:nan", "ball:2:inf", "halfspace:1:nan"])
    def test_non_finite_set_exit_two(self, capsys, D):
        code, out = run_cli(["predict", "--A", "sphere:2", "--D", D], capsys)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "A, D",
        [
            ("sphere:300", "ball:3:2.0"),
            ("sphere:400", "halfspace:1:0.5"),
            ("sphere:1000", "halfspace:1:0.5"),
        ],
    )
    def test_large_spheres_finite(self, capsys, A, D):
        # the float sum printed NaN at n = 400 and overflowed at 1000; the
        # float radial polynomials overflowed at n = 300
        code, doc = run_json(["predict", "--A", A, "--D", D], capsys)
        assert code == 0
        assert math.isfinite(doc["results"][0]["prediction"])

    def test_ill_conditioned_cap_exit_two(self, capsys):
        code, out = run_cli(
            ["predict", "--A", "cap:200:1.0", "--D", "halfspace:1:0.5"], capsys
        )
        assert code == 2
        assert out == ""

    def test_degree_too_large(self, capsys):
        code, _ = run_cli(
            ["predict", "--A", "sphere:2", "--D", "fullspace:1", "--m", "5"], capsys
        )
        assert code == 2


class TestSimulate:
    def test_small_run_passes(self, capsys):
        argv = [
            "simulate", "--A", "sphere:2", "--D", "halfspace:1:0.5",
            "--samples", "20000", "--seed", "7",
        ]
        code, doc = run_json(argv, capsys)
        assert code == 0
        row = doc["results"][0]
        assert row["gate"] in ("PASS", "WARN")
        assert abs(row["estimate"] - row["prediction"]) < 5 * max(row["stderr"], 1e-9)

    def test_env_seed_override(self, capsys, monkeypatch):
        argv = [
            "simulate", "--A", "sphere:2", "--D", "halfspace:1:1.0",
            "--samples", "2000", "--seed", "1",
        ]
        monkeypatch.setenv("GKF_SEED", "99")
        code, doc = run_json(argv, capsys)
        assert code == 0
        assert doc["provenance"]["seed"] == 99
        assert doc["results"][0]["seed"] == 99

    def test_invalid_env_seed_is_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("GKF_SEED", "abc")
        argv = ["simulate", "--A", "sphere:2", "--D", "halfspace:1:1.0", "--samples", "100"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "invalid GKF_SEED 'abc'" in captured.err
        assert captured.out == ""

    def test_failed_gate_exits_one(self, capsys, monkeypatch):
        # a prediction far from every estimate: |z| is past the FAIL band
        monkeypatch.setattr(drivers, "gkf_predict", lambda *args: 10.0)
        argv = ["simulate", "--A", "sphere:2", "--D", "halfspace:1:1.0", "--samples", "2000"]
        code, doc = run_json(argv, capsys)
        assert code == 1
        row = doc["results"][0]
        assert (row["prediction"], row["gate"]) == (10.0, "FAIL")
        assert row["z_score"] < -4

    def test_euler_characteristic_of_a_cap_is_exact(self, capsys):
        # every sample is chi = 1 and so is the prediction: no spread, z = 0
        argv = ["simulate", "--A", "cap:2:1.0", "--D", "fullspace:1", "--samples", "100"]
        code, doc = run_json(argv, capsys)
        assert code == 0
        row = doc["results"][0]
        assert (row["estimate"], row["prediction"], row["z_score"]) == (1.0, 1.0, 0.0)

    def test_zero_spread_far_from_a_tiny_prediction_passes(self, capsys):
        # every sample misses the far half-space: stderr 0 against a
        # prediction of 9e-19, gated at the float resolution of the mean
        argv = ["simulate", "--A", "cap:2:0.3", "--D", "halfspace:1:9.0", "--samples", "100"]
        code, doc = run_json(argv, capsys)
        assert code == 0
        row = doc["results"][0]
        assert (row["estimate"], row["stderr"], row["gate"]) == (0.0, 0.0, "PASS")
        assert 0 < row["prediction"] < 1e-18
        assert abs(row["z_score"]) < 1e-3

    def test_float_noise_spread_passes(self, capsys):
        # every map scores t^top times a hit fraction of 1; the summed
        # values differ from the prediction by rounding alone
        argv = [
            "simulate", "--A", "cap:2:1.0", "--D", "fullspace:1", "--m", "top",
            "--samples", "100",
        ]
        code, doc = run_json(argv, capsys)
        assert code == 0
        row = doc["results"][0]
        assert row["gate"] == "PASS"
        assert 0 < row["stderr"] < 1e-15
        assert abs(row["estimate"] - row["prediction"]) < 1e-14
        assert abs(row["z_score"]) < 0.1

    def test_non_finite_floats_are_strings(self):
        # the document stays strict JSON
        document = {"results": [{"z_score": -math.inf, "ratio": math.inf, "gap": math.nan}]}
        text = render(document, "json")
        assert json.loads(text, parse_constant=_refuse_constant) == {
            "results": [{"z_score": "-inf", "ratio": "inf", "gap": "nan"}]
        }

    def test_invalid_law_combination(self, capsys):
        argv = [
            "simulate", "--A", "cap:2:0.5", "--D", "ball:2:1.0",
            "--samples", "100",
        ]
        code, _ = run_cli(argv, capsys)
        assert code == 2

    def test_unsupported_finite_law_exits_before_drawing(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("pi_n_batch called")

        monkeypatch.setattr("gkf.drivers.pi_n_batch", no_draws)
        argv = [
            "simulate", "--A", "cap:2:1.0", "--D", "halfspace:1:0.5",
            "--law", "1000", "--samples", "16384",
        ]
        code, _ = run_cli(argv, capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "A, D, message",
        [
            ("sphere:2", "halfspace:2:0.5", "half-space intersections require a 1-D map"),
            ("sphere:2", "origin:2", "unsupported pair (UnitSphere, Origin)"),
            ("cap:2:1.0", "ball:2:1.0", "quadratic sublevel base must be the sphere"),
            ("subsphere:3:2", "halfspace:1:0.5", "half-space base must be the sphere or a cap"),
            ("subsphere:3:2", "ball:2:1.0", "quadratic sublevel base must be the sphere"),
        ],
    )
    def test_unsupported_euler_pair_exits_before_drawing(
        self, capsys, monkeypatch, A, D, message
    ):
        # gkf_predict has a formula for each pair, chi_values no count
        def no_draws(*args):
            raise AssertionError("pi_infinity_batch called")

        monkeypatch.setattr("gkf.drivers.pi_infinity_batch", no_draws)
        code = main(["simulate", "--A", A, "--D", D, "--samples", "16384"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "A, D", [("cap:2:1e-300", "halfspace:1:0"), ("cap:300:0.01", "fullspace:3")]
    )
    def test_top_degree_underflow_exits_before_drawing(self, capsys, monkeypatch, A, D):
        # t^top(A) reads 0.0, so every value and the z floor would be 0
        def no_draws(*args):
            raise AssertionError("pi_infinity_batch called")

        monkeypatch.setattr("gkf.drivers.pi_infinity_batch", no_draws)
        code = main(["simulate", "--A", A, "--D", D, "--m", "top", "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "below the normal float range" in captured.err

    def test_ball_past_the_float_square(self, capsys):
        # rho**2 overflows; every image point lies in the ball
        argv = ["simulate", "--A", "sphere:1", "--D", "ball:3:1e300", "--m", "top",
                "--samples", "3"]
        code, doc = run_json(argv, capsys)
        assert code == 0
        assert doc["results"][0]["estimate"] == float_of(t_power_unit(UnitSphere(1), 1))

    def test_law_past_the_prediction_cap_exit_two(self, capsys):
        argv = ["simulate", "--A", "sphere:2", "--D", "ball:2:1.0", "--samples", "3",
                "--law", "100000000000000000000"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "finite-N prediction loses its digits past N = 1000000" in captured.err

    def test_top_degree_by_number(self, capsys):
        argv = ["simulate", "--A", "sphere:2", "--D", "ball:2:1.0", "--samples", "4096"]
        _, by_name = run_json([*argv, "--m", "top"], capsys)
        _, by_number = run_json([*argv, "--m", "2"], capsys)
        keys = ("estimate", "prediction", "z_score")
        assert [by_number["results"][0][k] for k in keys] == [
            by_name["results"][0][k] for k in keys
        ]

    def test_no_points_exit_two(self, capsys):
        argv = [
            "simulate", "--A", "sphere:2", "--D", "ball:2:1.0", "--m", "top",
            "--points", "0", "--samples", "64",
        ]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "n_points" in captured.err

    def test_default_workers_give_the_serial_results(self, capsys, monkeypatch):
        # one usable core, as under `taskset -c 0`, runs the chunks serially
        argv = [
            "simulate", "--A", "sphere:2", "--D", "ball:2:1.0", "--m", "top",
            "--points", "4", "--samples", "20000",
        ]
        _, default = run_json(argv, capsys)
        monkeypatch.setattr(drivers, "_usable_cores", lambda: 1)
        _, serial = run_json(argv, capsys)
        assert default["results"] == serial["results"]
        assert default["command"] == serial["command"]

    def test_a_failed_chunk_on_a_worker_exits_two(self, capsys, monkeypatch):
        failing = RngStream(5).child(2).generator().bit_generator.state
        real = drivers.pi_infinity_batch

        def draw(n, d, size, gen):
            if gen.bit_generator.state == failing:
                raise ValueError("chunk 2 failed")
            return real(n, d, size, gen)

        monkeypatch.setattr(drivers, "pi_infinity_batch", draw)
        monkeypatch.setattr(drivers, "_usable_cores", lambda: 2)
        argv = [
            "simulate", "--A", "sphere:2", "--D", "ball:2:1.0", "--samples", "40000",
            "--seed", "5",
        ]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "chunk 2 failed" in captured.err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--law", "abc"], "invalid literal"),
            (["--m", "abc"], "invalid literal"),
            (["--workers", "2"], "unrecognized arguments: --workers 2"),
        ],
    )
    def test_bad_option_exit_two(self, capsys, flags, message):
        argv = ["simulate", "--A", "sphere:2", "--D", "ball:2:1.0", "--samples", "64"]
        code = main(argv + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err


class TestConverge:
    def test_nu_mode(self, capsys):
        code, doc = run_json(
            ["converge", "--mode", "nu", "--N-list", "50,100", "--k-max", "1",
             "--D", "ball:2:1.0"],
            capsys,
        )
        assert code == 0
        assert len(doc["results"]) == 4

    def test_nu_mode_on_a_halfspace(self, capsys):
        # any set with a sphere-side trace converges, here at O(1/N)
        code, doc = run_json(["converge", "--mode", "nu", "--D", "halfspace:1:0.5"], capsys)
        assert code == 0
        by_k = {}
        for row in doc["results"]:
            by_k.setdefault(row["k"], []).append(row["abs_err"])
        assert sorted(by_k) == [0, 1, 2]
        for errs in by_k.values():
            assert len(errs) == 3 and errs[0] > errs[1] > errs[2]

    def test_nu_mode_without_a_trace_exit_two(self, capsys):
        code = main(["converge", "--mode", "nu", "--D", "origin:2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "no sphere-side trace for Origin" in captured.err

    def test_nu_mode_negative_n_exit_two(self, capsys):
        code = main(["converge", "--mode", "nu", "--N-list=-5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "N must be non-negative, got -5" in captured.err

    def test_nu_mode_k_max_zero(self, capsys):
        code, doc = run_json(
            ["converge", "--mode", "nu", "--N-list", "50,100", "--k-max", "0"], capsys
        )
        assert code == 0
        assert [row["k"] for row in doc["results"]] == [0, 0]

    def test_nu_mode_clamps_k_max_to_n(self, capsys):
        # as `gkf nu` does, each N reports the degrees k <= N only
        code, doc = run_json(
            ["converge", "--mode", "nu", "--N-list", "4,8", "--k-max", "6"], capsys
        )
        assert code == 0
        rows = [(row["N"], row["k"]) for row in doc["results"]]
        assert rows == [(4, k) for k in range(5)] + [(8, k) for k in range(7)]

    def test_poincare_mode(self, capsys):
        code, doc = run_json(
            ["converge", "--mode", "poincare", "--N-list", "200", "--samples",
             "20000", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert doc["results"][0]["ks_statistic"] < 0.02

    def test_law_mode(self, capsys):
        code, doc = run_json(
            ["converge", "--mode", "law", "--A", "sphere:2", "--D", "ball:2:1.0",
             "--N-list", "50", "--samples", "5000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        assert [row["law"] for row in doc["results"]] == ["infinity", "50"]

    def test_law_mode_far_out(self, capsys):
        code, doc = run_json(
            ["converge", "--mode", "law", "--N-list", "100000", "--samples", "2048"],
            capsys,
        )
        assert code == 0
        assert [row["law"] for row in doc["results"]] == ["infinity", "100000"]

    @pytest.mark.parametrize("flags", [["--d", "0"], ["--d", "-1"], ["--samples", "0"]])
    def test_poincare_bad_size_exit_two(self, capsys, flags):
        argv = ["converge", "--mode", "poincare", "--N-list", "50", *flags]
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert out == ""

    def test_poincare_bad_n_exit_two_before_drawing(self, capsys, monkeypatch):
        def no_draw(self):
            raise AssertionError("drew before validating the N list")

        monkeypatch.setattr(RngStream, "generator", no_draw)
        argv = ["converge", "--mode", "poincare", "--N-list", "400,1"]
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--A", "cap:2:1.0", "--D", "halfspace:1:0.5", "--N-list", "50"],
             "spheres and subspheres"),
            (["--A", "sphere:2", "--N-list", "1"], "does not embed in S^1"),
        ],
    )
    def test_law_mode_refuses_before_drawing(self, capsys, monkeypatch, flags, message):
        def no_draw(self):
            raise AssertionError("drew before checking the finite-N predictions")

        monkeypatch.setattr(RngStream, "generator", no_draw)
        code = main(["converge", "--mode", "law", "--samples", "100000", *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("samples", ["0", "1"])
    def test_too_few_samples_exit_two(self, capsys, samples):
        argv = ["converge", "--mode", "law", "--N-list", "50", "--samples", samples]
        code, out = run_cli(argv, capsys)
        assert code == 2
        assert out == ""


class TestCheckCommand:
    def test_clean_build_exit_zero(self, capsys):
        code, doc = run_json(["check"], capsys)
        assert code == 0
        assert all(row["status"] == "ok" for row in doc["results"])

    @pytest.mark.parametrize(
        "name, row",
        [
            ("change_basis", "basis-round-trips"),
            ("nu_defining_identity_holds", "nu-defining-identity"),
            ("p_sigma", "operator-normalization"),
            ("tube_volume_identity", "tube-identity"),
            ("gamma_fd_oracle", "gamma-derivative-oracle"),
        ],
    )
    def test_each_failed_check_exit_one(self, capsys, monkeypatch, name, row):
        # a broken input to one check fails that row alone
        real = getattr(cli, name)
        broken = {
            "change_basis": lambda v, target: real(v, target).scale(2),
            "nu_defining_identity_holds": lambda N: False,
            "p_sigma": lambda k, N: real(k, N).scale(2),
            "tube_volume_identity": lambda *args: (1.0, 2.0),
            "gamma_fd_oracle": lambda D, k: real(D, k) + 1.0,
        }[name]
        monkeypatch.setattr(cli, name, broken)
        code, doc = run_json(["check"], capsys)
        assert code == 1
        failed = [r["check"] for r in doc["results"] if r["status"] == "FAIL"]
        assert failed == [row]


class TestDocumentContract:
    def test_byte_identical_modulo_wall_time(self, capsys):
        argv = [
            "simulate", "--A", "sphere:2", "--D", "ball:2:1.0",
            "--samples", "4000", "--seed", "12",
        ]
        _, doc_a = run_json(argv, capsys)
        _, doc_b = run_json(argv, capsys)
        assert canonical(doc_a) == canonical(doc_b)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            ["tables", "--what", "alpha", "--max", "2", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["results"][1]["value"] == pytest.approx(6.283185307179586)

    def test_unwritable_out_file_exit_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code = main(["tables", "--what", "omega", "--max", "2", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cannot write report" in captured.err
        assert not target.exists()

    def test_csv_format(self, capsys):
        code, out = run_cli(
            ["tables", "--what", "omega", "--max", "2", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,symbolic,value"
        assert lines[3].startswith("2,1*pi,3.141592653589793")

    def test_schema_and_provenance(self, capsys):
        _, doc = run_json(["tables", "--what", "omega", "--max", "1"], capsys)
        assert doc["schema_version"] == "1"
        assert doc["provenance"]["build_id"].startswith("gkf-")
        assert "wall_time_s" in doc["provenance"]

    def test_unknown_command_exit_two(self, capsys):
        assert main(["no-such-command"]) == 2


class TestParserReuse:
    COMMANDS = [
        ["simulate", "--A", "sphere:2", "--D", "ball:2:1.0", "--samples", "2000", "--seed", "3"],
        ["converge", "--mode", "law", "--N-list", "50", "--samples", "2000", "--seed", "4"],
        ["check"],
    ]

    def test_documents_match_a_fresh_parser(self, capsys):
        fresh = []
        for argv in self.COMMANDS:
            build_parser.cache_clear()
            fresh.append(canonical(run_json(argv, capsys)[1]))
        build_parser.cache_clear()
        assert main(["simulate", "--A"]) == 2
        reused = [canonical(run_json(argv, capsys)[1]) for argv in self.COMMANDS]
        assert reused == fresh
        assert build_parser.cache_info().misses == 1

    def test_seed_override_and_help_on_a_reused_parser(self, capsys, monkeypatch):
        argv = self.COMMANDS[0]
        monkeypatch.setenv("GKF_SEED", "99")
        _, doc = run_json(argv, capsys)
        assert doc["provenance"]["seed"] == doc["results"][0]["seed"] == 99
        monkeypatch.delenv("GKF_SEED")
        _, doc = run_json(argv, capsys)
        assert doc["provenance"]["seed"] == doc["results"][0]["seed"] == 3
        assert main(["--help"]) == 0
        assert main(["simulate", "--help"]) == 0
        capsys.readouterr()
        _, doc = run_json(argv, capsys)
        assert doc["results"][0]["seed"] == 3
