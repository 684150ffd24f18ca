import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from cyclovision.cli import main
from cyclovision.gaze import GazeState, eye_azimuths
from cyclovision.records import ExperimentRecord, dumps

from helpers import random_gaze


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


class TestFixate:
    def test_symmetric_report(self, runner):
        report = json.loads(run_ok(runner, ["fixate", "--beta", "0", "--rho", "1"]))
        assert report["vergence"] == pytest.approx(0.9272952180016122, abs=1e-12)
        assert report["circle"]["zeta"] == pytest.approx(0.375, abs=1e-12)
        assert report["circle"]["eta"] == pytest.approx(0.625, abs=1e-12)
        assert report["azimuths"]["beta_l"] == pytest.approx(math.atan(0.5), abs=1e-12)

    def test_cartesian_point(self, runner):
        report = json.loads(run_ok(runner, ["fixate", "--point", "0,0,2"]))
        assert report["gaze"] == {"alpha": 0.0, "beta": 0.0, "rho": 2.0}

    def test_degrees_flag(self, runner):
        rad = json.loads(run_ok(runner, ["fixate", "--beta", "0.2", "--rho", "2"]))
        deg = json.loads(run_ok(
            runner, ["fixate", "--beta", str(math.degrees(0.2)), "--rho", "2", "--degrees"]
        ))
        assert deg["gaze"]["beta"] == pytest.approx(rad["gaze"]["beta"], abs=1e-15)

    def test_rho_bound_violation_exits_2(self, runner):
        result = runner.invoke(main, ["fixate", "--rho", "0"])
        assert result.exit_code == 2
        assert "0.75" in result.output

    def test_missing_rho_exits_2(self, runner):
        result = runner.invoke(main, ["fixate", "--beta", "0.1"])
        assert result.exit_code == 2


class TestHoropter:
    def test_first_circle_row_is_circle_top(self, runner):
        out = run_ok(runner, ["horopter", "--beta", "0", "--rho", "1", "--samples", "16"])
        lines = out.splitlines()
        assert lines[0] == "component,x,y,z"
        first = lines[1].split(",")
        assert first[0] == "circle"
        assert float(first[1]) == pytest.approx(0.0, abs=1e-15)
        assert float(first[3]) == pytest.approx(1.0, abs=1e-12)

    def test_circle_rows_satisfy_circle_equation(self, runner):
        out = run_ok(runner, ["horopter", "--beta", "0.2", "--rho", "2", "--samples", "32"])
        gaze = GazeState(beta=0.2, rho=2.0)
        az = eye_azimuths(gaze)
        delta = az.beta_l - az.beta_r
        zeta, eta = 0.5 / math.tan(delta), 0.5 / math.sin(delta)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        circle_rows = [r for r in rows if r[0] == "circle"]
        assert len(circle_rows) == 63  # two half-sweeps sharing the apex
        for _, x, y, z in circle_rows:
            x, y, z = float(x), float(y), float(z)
            assert y == 0.0
            assert abs(x * x + (z - zeta) ** 2 - eta * eta) < 1e-9
            assert z >= -1e-12

    def test_midline_rows_are_vertical_axis(self, runner):
        out = run_ok(runner, ["horopter", "--beta", "0.2", "--rho", "2", "--samples", "8"])
        gaze = GazeState(beta=0.2, rho=2.0)
        az = eye_azimuths(gaze)
        delta = az.beta_l - az.beta_r
        apex_z = 0.5 / math.tan(delta / 2)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        midline_rows = [r for r in rows if r[0] == "midline"]
        assert len(midline_rows) == 8
        for _, x, _y, z in midline_rows:
            assert float(x) == 0.0
            assert abs(float(z) - apex_z) < 1e-9

    def test_too_few_samples_exits_2(self, runner):
        result = runner.invoke(main, ["horopter", "--rho", "1", "--samples", "1"])
        assert result.exit_code == 2


class TestEssential:
    def test_report_structure_and_values(self, runner):
        report = json.loads(run_ok(runner, ["essential", "--beta", "0", "--rho", "1"]))
        e = np.array(report["E"])
        s = 1 / math.sqrt(5)
        c = 2 / math.sqrt(5)
        expected = np.array([[0, s, 0], [s, 0, -c], [0, c, 0]])
        assert np.abs(e - expected).max() < 1e-12
        assert report["singular_values"][0] == pytest.approx(1.0, abs=1e-12)
        assert report["singular_values"][1] == pytest.approx(1.0, abs=1e-12)
        assert report["singular_values"][2] == pytest.approx(0.0, abs=1e-12)
        assert report["epipoles"]["e_l"][1] == 0.0


class TestSynthesize:
    def test_same_seed_byte_identical(self, runner, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run_ok(runner, ["synthesize", "--beta", "0.2", "--rho", "2",
                            "--count", "30", "--sigma", "1e-3", "--seed", "9",
                            "--out", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_noiseless_rows_satisfy_epipolar_constraint(self, runner, tmp_path):
        from cyclovision.epipolar import epipolar_residual, essential_closed_form

        path = tmp_path / "c.json"
        run_ok(runner, ["synthesize", "--beta", "0.1", "--rho", "1.5",
                        "--count", "50", "--out", str(path)])
        data = json.loads(path.read_text())
        assert data["schema"] == "cyclovision/1"
        gaze = GazeState(beta=data["gaze"]["beta"], rho=data["gaze"]["rho"])
        e = essential_closed_form(eye_azimuths(gaze))
        for row in data["records"]:
            residual = epipolar_residual(e, np.array(row["q_l"]), np.array(row["q_r"]))
            assert abs(residual) < 1e-9

    def test_plane_patch_has_zero_depths(self, runner, tmp_path):
        path = tmp_path / "p.json"
        run_ok(runner, ["synthesize", "--beta", "0", "--rho", "1",
                        "--scene", "fixation-plane-patch", "--count", "20",
                        "--out", str(path)])
        data = json.loads(path.read_text())
        assert all(row["s"] == 0.0 for row in data["records"])

    def test_skipped_points_counted_in_header(self, runner, tmp_path):
        path = tmp_path / "s.json"
        run_ok(runner, ["synthesize", "--beta", "0.1", "--rho", "1.5",
                        "--count", "200", "--region", "-0.5,0.5,-0.5,0.5,-1,1",
                        "--out", str(path)])
        data = json.loads(path.read_text())
        assert data["skipped"] > 0
        assert data["skipped"] + len(data["records"]) == 200

    def test_write_read_write_byte_identical(self, runner, tmp_path):
        path = tmp_path / "rt.json"
        run_ok(runner, ["synthesize", "--beta", "0.2", "--rho", "2",
                        "--count", "10", "--out", str(path)])
        text = path.read_text()
        assert dumps(json.loads(text)) == text


def synthesize_file(runner, tmp_path, name="corr.json", sigma=0.0, beta=0.2,
                    rho=2.0, count=50, seed=21, scene="random-box"):
    path = tmp_path / name
    run_ok(runner, ["synthesize", "--beta", str(beta), "--rho", str(rho),
                    "--scene", scene, "--count", str(count),
                    "--sigma", str(sigma), "--seed", str(seed), "--out", str(path)])
    return path


class TestReconstruct:
    def test_noiseless_round_trip_rms(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path)
        report = json.loads(run_ok(runner, ["reconstruct", str(corr)]))
        assert report["kind"] == "depth-map"
        assert report["stats"]["failed"] == 0
        assert report["stats"]["rms_error"] < 1e-9
        for row in report["records"]:
            assert abs(row["s_est"] - row["s_true"]) < 1e-9

    def test_noisy_rms_is_reported_nonzero(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, sigma=1e-3)
        report = json.loads(run_ok(runner, ["reconstruct", str(corr)]))
        assert report["stats"]["rms_error"] > 0.0

    def test_gaze_flags_override_header(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path)
        report = json.loads(run_ok(
            runner, ["reconstruct", str(corr), "--beta", "0.25", "--rho", "2.2"]
        ))
        assert report["gaze"]["beta"] == 0.25
        assert report["stats"]["rms_error"] > 1e-3  # wrong gaze, wrong depths

    def test_missing_truth_omits_stats(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path)
        data = json.loads(corr.read_text())
        for row in data["records"]:
            row.pop("p_c")
            row.pop("s")
        corr.write_text(dumps(data))
        report = json.loads(run_ok(runner, ["reconstruct", str(corr)]))
        assert "stats" not in report

    def test_schema_mismatch_exits_3(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path)
        data = json.loads(corr.read_text())
        data["schema"] = "cyclovision/2"
        corr.write_text(dumps(data))
        result = runner.invoke(main, ["reconstruct", str(corr)])
        assert result.exit_code == 3


class TestEstimate:
    def test_noiseless_recovery(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path)
        report = json.loads(run_ok(runner, ["estimate", str(corr)]))
        assert abs(report["deltas"]["beta"]) < 1e-6
        assert abs(report["deltas"]["beta_l"]) < 1e-6
        assert report["gaze_estimate"]["converged"] is True

    def test_report_parses_as_experiment_record(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path)
        text = run_ok(runner, ["estimate", str(corr)])
        record = ExperimentRecord.from_dict(json.loads(text))
        assert record.gaze_truth is not None
        assert record.timings["estimate_s"] >= 0.0
        # lossless re-serialization
        assert dumps(record.to_dict()) == text

    def test_meridian_only_data_exits_4(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, scene="horopter-samples")
        result = runner.invoke(main, ["estimate", str(corr)])
        assert result.exit_code == 4

    def test_missing_file_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["estimate", str(tmp_path / "nope.json")])
        assert result.exit_code != 0

    def test_fit_leaving_the_fixation_domain_exits_4(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, sigma=1e-2, beta=0.6, rho=40.0, seed=0)
        result = runner.invoke(main, ["estimate", str(corr)])
        assert result.exit_code == 4, result.output


def _corrupted_file(runner, tmp_path, edit):
    corr = synthesize_file(runner, tmp_path, count=20)
    data = json.loads(corr.read_text())
    edit(data["records"][3])
    corr.write_text(json.dumps(data))
    return corr


class TestMalformedPoints:
    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    def test_two_component_point_exits_3(self, runner, tmp_path, command):
        corr = _corrupted_file(runner, tmp_path, lambda row: row["q_l"].pop())
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    def test_nan_coordinate_exits_3(self, runner, tmp_path, command):
        corr = _corrupted_file(runner, tmp_path,
                               lambda row: row["q_r"].__setitem__(0, math.nan))
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, result.output


class TestPipeline:
    def test_end_to_end_over_seeded_configurations(self, runner, tmp_path):
        # fixate -> synthesize -> estimate -> reconstruct, noiseless:
        # gaze azimuths to 1e-6 rad, depths to 1e-9
        rng = np.random.default_rng(99)
        for trial in range(20):
            gaze = random_gaze(rng, beta=(-0.5, 0.5), rho=(1.0, 6.0))
            corr = synthesize_file(
                runner, tmp_path, name=f"t{trial}.json", beta=gaze.beta,
                rho=gaze.rho, seed=trial, count=40,
            )
            estimate_report = json.loads(run_ok(runner, ["estimate", str(corr)]))
            true_az = eye_azimuths(gaze)
            assert abs(estimate_report["gaze_estimate"]["beta_l"]
                       - true_az.beta_l) < 1e-6
            assert abs(estimate_report["gaze_estimate"]["beta_r"]
                       - true_az.beta_r) < 1e-6
            reconstruct_report = json.loads(run_ok(runner, ["reconstruct", str(corr)]))
            assert reconstruct_report["stats"]["rms_error"] < 1e-9
