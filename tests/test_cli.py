"""Command-line surface: descriptors, documents, determinism, exit codes."""

import json
import math

import pytest

from gkf.cli import main, parse_gauss_set, parse_unit_set
from gkf.gauss import CenteredBall, FullSpace, HalfSpace, Origin
from gkf.model_sets import UnitCap, UnitGreatSubsphere, UnitSphere


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out) if out else None


def canonical(document):
    doc = json.loads(json.dumps(document))
    doc["provenance"].pop("wall_time_s")
    return json.dumps(doc, sort_keys=True)


class TestDescriptors:
    def test_unit_sets(self):
        assert parse_unit_set("sphere:3") == UnitSphere(3)
        assert parse_unit_set("cap:2:0.7") == UnitCap(2, 0.7)
        assert parse_unit_set("subsphere:5:2") == UnitGreatSubsphere(5, 2)

    def test_gauss_sets(self):
        assert parse_gauss_set("halfspace:1:0.5") == HalfSpace(1, 0.5)
        assert parse_gauss_set("ball:2:1.0") == CenteredBall(2, 1.0)
        assert parse_gauss_set("origin:3") == Origin(3)
        assert parse_gauss_set("fullspace:2") == FullSpace(2)

    def test_bad_descriptors(self):
        for text in ("sphere", "cap:2", "blob:1", "ball:x:1"):
            with pytest.raises(ValueError):
                parse_gauss_set(text) if text.startswith(("ball", "blob")) else parse_unit_set(text)


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

    def test_zero_dimension_exit_two(self, capsys):
        argv = ["convert", "--N", "0", "--source", "t", "--target", "phi", "--coeffs", "1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "dimension must be positive" in captured.err


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

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--law", "abc"], "invalid literal"),
            (["--m", "abc"], "invalid literal"),
            (["--workers", "0"], "workers must be at least 1"),
            (["--workers", "-2"], "workers must be at least 1"),
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

    def test_nu_mode_k_max_zero(self, capsys):
        code, doc = run_json(
            ["converge", "--mode", "nu", "--N-list", "50,100", "--k-max", "0"], capsys
        )
        assert code == 0
        assert [row["k"] for row in doc["results"]] == [0, 0]

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
