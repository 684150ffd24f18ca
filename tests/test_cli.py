import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cyclovision.cli import main
from cyclovision.disparity import decompose, synthesize_correspondence
from cyclovision.estimation import estimate_depth_map, estimate_gaze
from cyclovision.gaze import GazeState, eye_azimuths
from cyclovision.geometry import normalize_point
from cyclovision.records import (
    _BLOCK_ROWS,
    ExperimentRecord,
    dumps,
    experiment_file,
    load_json,
    parse_correspondence_file,
)
from cyclovision.simulate import GENERATORS

from helpers import TRUTH_PROBES, break_truth, random_gaze

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


def test_help_lists_every_subcommand(runner):
    out = run_ok(runner, ["--help"])
    for command in ("fixate", "horopter", "essential", "synthesize", "reconstruct", "estimate"):
        assert f"  {command} " in out


class TestFixate:
    def test_symmetric_report(self, runner):
        report = json.loads(run_ok(runner, ["fixate", "--beta", "0", "--rho", "1"]))
        assert report["vergence"] == pytest.approx(0.9272952180016122, abs=1e-12)
        assert report["circle"]["zeta"] == pytest.approx(0.375, abs=1e-12)
        assert report["circle"]["eta"] == pytest.approx(0.625, abs=1e-12)
        assert report["azimuths"]["beta_l"] == pytest.approx(math.atan(0.5), abs=1e-12)

    @pytest.mark.parametrize("point", ["0,0,2", "-0,-0,2"])
    def test_cartesian_point(self, runner, point):
        # the bytes, since -0.0 == 0.0 but the report would read "-0"
        assert (run_ok(runner, ["fixate", "--point", point])
                == run_ok(runner, ["fixate", "--rho", "2"]))

    @pytest.mark.parametrize("point", ["2,0,0", "2,0,-0"])
    def test_a_point_on_the_interocular_axis_exits_4(self, runner, point):
        result = runner.invoke(main, ["fixate", "--point", point])
        assert result.exit_code == 4, result.output

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

    def test_overflowing_point_exits_2_without_a_warning(self):
        # a fresh interpreter, so that the default warning filters apply
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "cyclovision", "fixate", "--point", "1e308,1e308,1e308"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 2, run.stderr
        assert "RuntimeWarning" not in run.stderr


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
        assert "Invalid value for '--samples'" in result.output


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

    @pytest.mark.parametrize("scene", GENERATORS)
    def test_every_generator_is_byte_identical_for_a_seed(self, runner, tmp_path, scene):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run_ok(runner, ["synthesize", "--beta", "0.2", "--rho", "2", "--alpha", "0.1",
                            "--scene", scene, "--seed", "5", "--out", str(path)])
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

    def test_a_point_whose_cyclopean_ray_meets_the_plane_behind_an_eye_is_kept(
            self, runner, tmp_path):
        # These points lie in front of both eyes and the Cyclopean eye, but
        # their Cyclopean rays meet the fixation plane z = 2 near x = -100,
        # behind the left eye: the parallax model still reproduces each image.
        path = tmp_path / "side.json"
        run_ok(runner, ["synthesize", "--beta", "0", "--rho", "2", "--count", "20",
                        "--region", "-0.26,-0.24,-0.01,0.01,0.004,0.006", "--out", str(path)])
        data = json.loads(path.read_text())
        assert data["skipped"] == 0
        p_c, s = (np.array([row[key] for row in data["records"]]) for key in ("p_c", "s"))
        gaze = GazeState(beta=0.0, rho=2.0)
        left = decompose(gaze, p_c)[0]
        assert (left.lam * gaze.rho + left.mu < 0.0).all()  # the plane points' left depths
        model = synthesize_correspondence(gaze, p_c, s)
        for key, images in (("q_l", model.q_l), ("q_r", model.q_r)):
            written = np.array([row[key] for row in data["records"]])
            assert np.abs(images - written).max() < 1e-9 * np.abs(written).max()
        depths = json.loads(run_ok(runner, ["reconstruct", str(path)]))["records"]
        assert len(depths) == 20
        assert max(abs(row["s_est"] - row["s_true"]) for row in depths) < 1e-9

    def test_write_read_write_byte_identical(self, runner, tmp_path):
        path = tmp_path / "rt.json"
        run_ok(runner, ["synthesize", "--beta", "0.2", "--rho", "2",
                        "--count", "10", "--out", str(path)])
        text = path.read_text()
        assert dumps(json.loads(text)) == text

    @pytest.mark.parametrize("flags,name", [
        (["--sigma", "nan"], "sigma"),
        (["--sigma", "inf"], "sigma"),
        (["--sigma", "1e308", "--count", "50"], "sigma"),
        (["--region", "-1e308,1e308,-1,1,1,3"], "region"),
        (["--region", "0,1,0,1,1,inf"], "region"),
        (["--rho", "1.7e308"], "rho"),
        (["--point", "1,2"], "--point"),
        (["--region", "a,b,c,d,e,f"], "--region"),
        (["--seed", "-1"], "seed"),
        (["--scene", "horopter-samples", "--region", "100,101,100,101,100,101"], "region"),
        (["--scene", "fixation-plane-patch", "--region", "0,1,0,1,1,2"], "region"),
    ])
    def test_overflowing_flags_exit_2_naming_the_flag(self, runner, flags, name):
        result = runner.invoke(main, ["synthesize", "--beta", "0.2", "--rho", "2", *flags])
        assert result.exit_code == 2, (result.output, result.exception)
        assert f"Error: {name}" in result.output

    def test_a_range_too_large_for_the_default_box_is_told_to_give_a_region(self, runner):
        # unlike scripts/noise_sweep.py, the command has --region, so the advice holds
        result = runner.invoke(main, ["synthesize", "--rho", "1.5e308", "--count", "3"])
        assert result.exit_code == 2, (result.output, result.exception)
        assert ("Error: rho 1.5e+308 is too large for the default region; give a region"
                in result.output)
        text = run_ok(runner, ["synthesize", "--rho", "1.5e308", "--count", "3",
                               "--region", "-1,1,-1,1,1,2"])
        assert json.loads(text)["gaze"]["rho"] == 1.5e308


def synthesize_file(runner, tmp_path, name="corr.json", sigma=0.0, beta=0.2,
                    rho=2.0, count=50, seed=21, scene="random-box"):
    path = tmp_path / name
    run_ok(runner, ["synthesize", "--beta", str(beta), "--rho", str(rho),
                    "--scene", scene, "--count", str(count),
                    "--sigma", str(sigma), "--seed", str(seed), "--out", str(path)])
    return path


class TestUnallocatableSizes:
    # 10^15 rows exceed the 47-bit address space, so numpy refuses the array
    # before it maps, let alone fills, any memory
    @pytest.mark.parametrize("args", [
        ["synthesize", "--rho", "2", "--count", "1000000000000000"],
        ["horopter", "--rho", "2", "--samples", "1000000000000000"],
    ], ids=["synthesize-count", "horopter-samples"])
    def test_exits_2_with_a_one_line_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (result.output, result.exception)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "Unable to allocate" in errors[0], result.output


class TestStreamedOutput:
    """Records longer than one block of rows reach stdout and ``--out`` alike."""

    # a block and a half of rows, and about three blocks
    @pytest.mark.parametrize("count,seed", [(3 * _BLOCK_ROWS // 2, 5), (3000, 7)],
                             ids=["1536-rows", "3000-rows"])
    def test_stdout_and_out_carry_the_same_bytes(self, runner, tmp_path, count, seed):
        corr, depth = tmp_path / "corr.json", tmp_path / "depth.json"
        synthesize = ["synthesize", "--beta", "0.2", "--rho", "2", "--count", str(count),
                      "--sigma", "1e-3", "--seed", str(seed)]
        run_ok(runner, [*synthesize, "--out", str(corr)])
        # at a wrong gaze, failed rows among the rest in every block of rows
        reconstruct = ["reconstruct", str(corr), "--beta", "1.3", "--rho", "0.9"]
        run_ok(runner, [*reconstruct, "--out", str(depth)])
        for args, path in ((synthesize, corr), (reconstruct, depth)):
            assert runner.invoke(main, args).stdout_bytes == path.read_bytes()
        report = json.loads(depth.read_bytes())
        rows = report["records"]
        blocks = [rows[start:start + _BLOCK_ROWS] for start in range(0, count, _BLOCK_ROWS)]
        assert len(blocks) > 1 and [{tuple(row) for row in block} for block in blocks] == [
            {("p_c", "s_est", "z_c_est", "s_true"), ("s_true",)}] * len(blocks)
        assert report["stats"]["failed"] == sum("s_est" not in row for row in rows)


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

    def test_elevation_changes_no_depth(self, runner, tmp_path):
        # The images cannot see the elevation: gazes that differ only in
        # alpha give the same records and statistics.
        corr = synthesize_file(runner, tmp_path, sigma=1e-3, seed=7)
        level, raised = (json.loads(run_ok(runner, ["reconstruct", str(corr), "--beta", "0.2",
                                                    "--rho", "2", "--alpha", alpha]))
                         for alpha in ("0", "0.7"))
        assert raised["gaze"]["alpha"] == 0.7
        assert level["records"] == raised["records"]
        assert level["stats"] == raised["stats"]

    def test_points_kept_around_the_eyes_all_reconstruct(self, runner, tmp_path):
        corr = tmp_path / "around.json"
        run_ok(runner, ["synthesize", "--beta", "0.2", "--rho", "2", "--count", "200",
                        "--region", "-0.5,0.5,-0.5,0.5,-1,1", "--seed", "13",
                        "--out", str(corr)])
        assert json.loads(corr.read_text())["skipped"] > 0
        stats = json.loads(run_ok(runner, ["reconstruct", str(corr)]))["stats"]
        assert stats["failed"] == 0 and stats["max_abs_error"] < 1e-9, stats

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

    def test_failing_rows_write_read_write_byte_identical(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path)
        text = run_ok(runner, ["reconstruct", str(corr), "--beta", "1.3", "--rho", "0.9"])
        report = json.loads(text)
        assert report["stats"]["failed"] > 0
        assert any("s_est" not in row for row in report["records"])
        assert dumps(report) == text

    def test_nothing_recovered_omits_error_stats(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, count=1, seed=1)
        report = json.loads(run_ok(runner, ["reconstruct", str(corr), "--beta", "-1.5",
                                            "--rho", "5"]))
        assert report["stats"] == {"count": 1, "failed": 1}

    def test_far_header_gaze_fails_every_row_without_a_warning(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, count=20)
        data = json.loads(corr.read_text())
        data["gaze"]["rho"] = 1e300  # rho + s cancels to 0 in each row in front of the eye
        corr.write_text(dumps(data))
        report = json.loads(run_ok(runner, ["reconstruct", str(corr)]))
        count = len(data["records"])
        assert report["stats"] == {"count": count, "failed": count}
        assert not any({"p_c", "s_est", "z_c_est"} & row.keys() for row in report["records"])

    @pytest.mark.parametrize("flags", [
        ["--beta", "0.9"],
        ["--alpha", "0.1"],
        ["--degrees"],
        ["--alpha", "0", "--beta", "10", "--degrees"],
    ])
    def test_gaze_flags_without_rho_or_point_exit_2_naming_them(self, runner, tmp_path, flags):
        corr = synthesize_file(runner, tmp_path, count=20)
        result = runner.invoke(main, ["reconstruct", str(corr), *flags])
        assert result.exit_code == 2, result.output
        assert all(flag in result.output for flag in flags if flag.startswith("--"))

    def test_no_gaze_header_and_no_gaze_flags_exit_2(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, count=20)
        data = json.loads(corr.read_text())
        del data["gaze"]
        corr.write_text(dumps(data))
        result = runner.invoke(main, ["reconstruct", str(corr)])
        assert result.exit_code == 2, result.output
        assert "no gaze header" in result.output


def failed_rows(rows, estimates, inputs=()):
    """How many rows hold none of the ``estimates`` keys, asserting that each
    row holds all of them or none, and that a row holding none holds nothing
    but ``s_true`` and the ``inputs``."""
    held = [set(estimates) & row.keys() for row in rows]
    assert all(keys in (set(), set(estimates)) for keys in held)
    failed = [row for row, keys in zip(rows, held) if not keys]
    assert all(row.keys() <= {"s_true", *inputs} for row in failed)
    return len(failed)


class TestFailedPoints:
    """Every record marks a failed point one way: its estimates are absent."""

    @pytest.mark.parametrize("flags", [["--beta", "1.3", "--rho", "0.9"], ["--rho", "1e300"]],
                             ids=["wrong-gaze", "far-gaze"])
    def test_a_depth_map_row_holds_every_estimate_or_none(self, runner, tmp_path, flags):
        corr = synthesize_file(runner, tmp_path)
        report = json.loads(run_ok(runner, ["reconstruct", str(corr), *flags]))
        failed = failed_rows(report["records"], ("p_c", "s_est", "z_c_est"))
        assert report["stats"]["failed"] == failed > 0

    def test_an_experiment_point_holds_both_estimates_or_neither(self, runner, tmp_path):
        records = parse_correspondence_file(load_json(synthesize_file(runner, tmp_path))).records
        depth = estimate_depth_map(records, GazeState(beta=1.3, rho=0.9))  # some rows fail
        record = experiment_file(estimate_gaze(records), records, depth, None)
        points = json.loads(dumps(record))["points"]
        assert failed_rows(points, ("p_c", "s_est"), ("q_l", "q_r")) > 0


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

    def test_the_record_is_the_same_bytes_on_stdout_in_out_and_on_a_second_run(
            self, runner, tmp_path):
        corr = str(Path(__file__).resolve().parent / "golden" / "synthesize-random-box.json")
        out = tmp_path / "experiment.json"
        first = run_ok(runner, ["estimate", corr])
        run_ok(runner, ["estimate", corr, "--out", str(out)])
        assert "timings" not in json.loads(first)
        assert out.read_text() == first == run_ok(runner, ["estimate", corr])

    def test_write_read_write_byte_identical(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, sigma=1e-3)
        text = run_ok(runner, ["estimate", str(corr)])
        assert dumps(json.loads(text)) == text

    def test_meridian_only_data_exits_4(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, scene="horopter-samples")
        result = runner.invoke(main, ["estimate", str(corr)])
        assert result.exit_code == 4
        assert result.stdout == ""

    def test_a_refused_fit_opens_no_out_file(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, scene="horopter-samples")
        out = tmp_path / "never.json"
        result = runner.invoke(main, ["estimate", str(corr), "--out", str(out)])
        assert result.exit_code == 4 and not out.exists()

    def test_iteration_cap_bounds_the_iterations(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, sigma=1e-3)
        report = json.loads(run_ok(runner, ["estimate", str(corr), "--max-iterations", "1"]))
        assert report["gaze_estimate"]["iterations"] <= 1

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_iteration_cap_below_one_exits_2_naming_the_flag(self, runner, tmp_path, cap):
        corr = synthesize_file(runner, tmp_path, count=20)
        result = runner.invoke(main, ["estimate", str(corr), "--max-iterations", cap])
        assert result.exit_code == 2, result.output
        assert "--max-iterations" in result.output

    def test_missing_file_fails(self, runner, tmp_path):
        result = runner.invoke(main, ["estimate", str(tmp_path / "nope.json")])
        assert result.exit_code == 3, (result.output, result.exception)

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

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    def test_non_numeric_depth_exits_3(self, runner, tmp_path, command):
        corr = _corrupted_file(runner, tmp_path, lambda row: row.__setitem__("s", "deep"))
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    @pytest.mark.parametrize("edit", [lambda row: row.__setitem__("s", True),
                                      lambda row: row["q_l"].__setitem__(2, True)],
                             ids=["s", "q_l"])
    def test_boolean_among_numbers_exits_3(self, runner, tmp_path, command, edit):
        corr = _corrupted_file(runner, tmp_path, edit)
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    def test_integer_depth_beyond_64_bits_is_read(self, runner, tmp_path, command):
        corr = _corrupted_file(runner, tmp_path, lambda row: row.__setitem__("s", 10**20))
        assert '"s": 100000000000000000000' in corr.read_text()
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["points" if command == "estimate" else "records"]
        assert rows[3]["s_true"] == 1e20

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    @pytest.mark.parametrize("probe", TRUTH_PROBES)
    def test_malformed_truth_exits_3(self, runner, tmp_path, command, probe):
        corr = synthesize_file(runner, tmp_path, count=20)
        corr.write_text(json.dumps(break_truth(json.loads(corr.read_text()), probe)))
        gaze = ["--rho", "2"] if command == "reconstruct" else []  # the header may be gone
        result = runner.invoke(main, [command, str(corr), *gaze])
        assert result.exit_code == 3, result.output


@pytest.fixture(scope="module")
def twenty_rows():
    """A noiseless 20-row random-box file at beta 0.2, rho 2, as parsed JSON."""
    return json.loads(run_ok(CliRunner(), ["synthesize", "--beta", "0.2", "--rho", "2",
                                           "--count", "20", "--seed", "21"]))


def _third_components(runner, tmp_path, data, edits):
    """Run estimate and reconstruct, warnings as errors, on ``data`` with the
    third components of each row ``i`` in ``edits`` set to ``edits[i]``
    (q_l's, q_r's); also the rows whose images ``normalize_point`` marks."""
    data = json.loads(json.dumps(data))
    for i, (left, right) in edits.items():
        data["records"][i]["q_l"][2], data["records"][i]["q_r"][2] = left, right
    corr = tmp_path / "thirds.json"
    corr.write_text(json.dumps(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = parse_correspondence_file(data).records
        marked = np.isnan(normalize_point(np.stack([records.q_l, records.q_r]))).any(axis=(0, 2))
        fit, depth = (runner.invoke(main, [command, str(corr)])
                      for command in ("estimate", "reconstruct"))
    return fit, depth, marked


def _failed_and_counted(depth, rows):
    """Whether each of ``rows`` lacks its estimates and ``stats.failed`` counts every failure."""
    report = json.loads(depth.output)
    failed = ["s_est" not in row for row in report["records"]]
    return report["stats"]["failed"] == sum(failed) and all(failed[i] for i in rows)


class TestPointAtInfinity:
    """A zero third component is read; ``normalize_point`` alone decides an
    image point at infinity: the fit refuses the set (exit 4) and the depth
    map fails the row."""

    @pytest.mark.parametrize("third", [0, 1e-300])
    def test_estimate_exits_4_and_reconstruct_fails_the_row(self, runner, tmp_path,
                                                           twenty_rows, third):
        fit, depth, marked = _third_components(runner, tmp_path, twenty_rows, {0: (third, 1)})
        assert np.flatnonzero(marked).tolist() == [0]
        assert fit.exit_code == 4, (fit.output, fit.exception)
        assert fit.output == "Error: cannot normalize an image point at infinity\n"
        assert depth.exit_code == 0, (depth.output, depth.exception)
        assert json.loads(depth.output)["stats"]["failed"] == 1
        assert _failed_and_counted(depth, [0])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.dictionaries(
        st.integers(0, 19),
        st.tuples(*[st.sampled_from([0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 2])] * 2),
        max_size=20))
    @example(edits={})
    @example(edits={0: (0.5, 2), 7: (-5e-324, 0.5)})
    def test_every_marked_row_is_refused_by_the_fit_and_failed_by_the_depth_map(
            self, runner, tmp_path, twenty_rows, edits):
        fit, depth, marked = _third_components(runner, tmp_path, twenty_rows, edits)
        assert fit.exit_code in ((4,) if marked.any() else (0, 4)), (fit.output, fit.exception)
        assert depth.exit_code == 0, (depth.output, depth.exception)
        assert _failed_and_counted(depth, np.flatnonzero(marked))


class TestHeaderFaults:
    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    @pytest.mark.parametrize("section,key,value", [
        ("gaze", "rho", math.nan),
        ("gaze", "rho", 0.5),
        ("gaze", "beta", "left"),
        (None, "sigma", "small"),
        (None, "records", "none"),
        (None, "seed", -5),
        (None, "skipped", "x"),
        (None, "generator", 3),
    ])
    def test_malformed_header_exits_3(self, runner, tmp_path, command, section, key, value):
        corr = synthesize_file(runner, tmp_path, count=20)
        data = json.loads(corr.read_text())
        (data[section] if section else data)[key] = value
        corr.write_text(json.dumps(data))
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, result.output


    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    def test_gaze_header_that_is_not_an_object_exits_3_naming_it(self, runner, tmp_path,
                                                                 command):
        corr = synthesize_file(runner, tmp_path, count=20)
        data = json.loads(corr.read_text())
        data["gaze"] = [1, 2]
        corr.write_text(json.dumps(data))
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, result.output
        assert "'gaze' must be an object" in result.output

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    def test_gaze_along_the_baseline_exits_4(self, runner, tmp_path, command):
        # |beta| = pi/2 is a valid gaze whose eye azimuths are unbounded
        corr = synthesize_file(runner, tmp_path, count=20)
        data = json.loads(corr.read_text())
        data["gaze"]["beta"] = math.pi / 2
        corr.write_text(json.dumps(data))
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 4, result.output


class TestUnreadableFiles:
    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000, b"[]"],
                             ids=["not-utf8", "nested-too-deep", "top-level-array"])
    def test_unreadable_file_exits_3(self, runner, tmp_path, command, content):
        corr = tmp_path / "bad.json"
        corr.write_bytes(content)
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, (result.output, result.exception)

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    def test_empty_object_exits_3(self, runner, tmp_path, command):
        corr = tmp_path / "empty.json"
        corr.write_text("{}")
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, (result.output, result.exception)

    @pytest.mark.parametrize("command", ["estimate", "reconstruct"])
    def test_read_failure_exits_3_naming_the_file(self, runner, tmp_path, monkeypatch, command):
        missing, directory = tmp_path / "nope.json", tmp_path / "directory"
        directory.mkdir()
        for path, reason in ((missing, "No such file or directory"), (directory, "Is a directory")):
            result = runner.invoke(main, [command, str(path)])
            assert result.exit_code == 3, (result.output, result.exception)
            assert result.output == f"Error: {path}: cannot be read ({reason})\n"
        corr = synthesize_file(runner, tmp_path, count=20)

        def refuse(self, *args, **kwargs):
            raise OSError("device not ready")

        monkeypatch.setattr(Path, "read_text", refuse)
        result = runner.invoke(main, [command, str(corr)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.output == f"Error: {corr}: cannot be read (device not ready)\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("out", [[], ["--out", "/dev/full"]], ids=["stdout", "out"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device_exits_3_with_one_error_line(self, out, unbuffered):
        # A buffered stdout keeps what it could not write and is flushed
        # again at exit, so both buffering modes are run.
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            run = subprocess.run(
                [sys.executable, "-m", "cyclovision", "fixate", "--rho", "2", *out],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        target = out[1] if out else "stdout"
        assert run.returncode == 3, run.stderr
        assert run.stderr == f"Error: {target}: cannot be written (No space left on device)\n"

    def test_unwritable_out_exits_3_naming_the_path(self, runner, tmp_path):
        out = tmp_path / "missing" / "fixation.json"
        result = runner.invoke(main, ["fixate", "--rho", "2", "--out", str(out)])
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.output == f"Error: {out}: cannot be written (No such file or directory)\n"
        corr, directory = synthesize_file(runner, tmp_path, count=20), tmp_path / "directory"
        directory.mkdir()
        for args in (["fixate", "--rho", "2"], ["horopter", "--rho", "2"],
                     ["essential", "--rho", "2"], ["synthesize", "--rho", "2"],
                     ["reconstruct", str(corr)], ["estimate", str(corr)]):
            result = runner.invoke(main, [*args, "--out", str(directory)])
            assert result.exit_code == 3, (args, result.output, result.exception)
            assert result.output == f"Error: {directory}: cannot be written (Is a directory)\n"
            assert not any(directory.iterdir())


class TestTooFewPoints:
    def test_two_row_file_exits_4(self, runner, tmp_path):
        corr = synthesize_file(runner, tmp_path, count=20)
        data = json.loads(corr.read_text())
        data["records"] = data["records"][:2]
        corr.write_text(dumps(data))
        result = runner.invoke(main, ["estimate", str(corr)])
        assert result.exit_code == 4, result.output


# Any finite float in +-1e3, mixed with the valid gaze domain and with
# ordinary image points so that the accepting paths are reached too.
finite = st.floats(-1e3, 1e3)
angle = st.one_of(finite, st.floats(-1.5, 1.5))
fixation_range = st.one_of(finite, st.floats(0.75, 50.0))
triple = st.one_of(st.lists(finite, min_size=3, max_size=3),
                   st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.just(1.0)).map(list))
rows = st.lists(
    st.fixed_dictionaries({"q_l": triple, "q_r": triple},
                          optional={"p_c": triple, "s": finite}),
    max_size=20,
)


class TestAnyFiniteFile:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=rows, alpha=angle, beta=angle, rho=fixation_range, sigma=finite)
    def test_exits_with_a_result_or_a_typed_error(self, runner, tmp_path, rows, alpha, beta,
                                                 rho, sigma):
        data = {"schema": "cyclovision/1", "kind": "correspondences",
                "gaze": {"alpha": alpha, "beta": beta, "rho": rho}, "sigma": sigma,
                "records": rows}
        corr = tmp_path / "any.json"
        corr.write_text(json.dumps(data))
        for command in ("estimate", "reconstruct"):
            result = runner.invoke(main, [command, str(corr)])
            assert result.exit_code in (0, 3, 4), (command, result.output, result.exception)


# Flags from the valid gaze domain, ordinary values and extremes up to
# +-1.7e308, so that both the accepting paths and the overflows are reached.
extreme = st.one_of(st.floats(-1.7e308, 1.7e308),
                    st.sampled_from([-1.7e308, -1e308, -1e300, 1e300, 1e308, 1.7e308]))


def mixed(typical):
    return st.one_of(typical, finite, extreme)


def joined(values):
    return ",".join(map(repr, values))


def angular_flags(alpha, beta, rho):
    return st.tuples(alpha, beta, rho, st.booleans()).map(
        lambda t: ["--alpha", repr(t[0]), "--beta", repr(t[1]), "--rho", repr(t[2])]
        + ["--degrees"] * t[3])


valid_angle = st.floats(-math.pi / 2, math.pi / 2)
valid_range = st.one_of(st.floats(0.75, 50.0), st.floats(1e308, 1.7e308))
gaze_flags = st.one_of(
    angular_flags(valid_angle, valid_angle, valid_range),
    angular_flags(mixed(valid_angle), mixed(valid_angle), mixed(valid_range)),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 10.0)).map(
        lambda p: ["--point", joined(p)]),
    st.lists(mixed(st.floats(-3.0, 3.0)), min_size=3, max_size=3).map(
        lambda p: ["--point", joined(p)]),
)
coordinate = mixed(st.floats(-3.0, 3.0))
region = st.one_of(
    st.lists(st.tuples(coordinate, coordinate).map(sorted), min_size=3, max_size=3).map(
        lambda box: joined(bound for pair in box for bound in pair)),
    st.lists(coordinate, min_size=6, max_size=6).map(joined),
)
synthesize_flags = st.tuples(
    st.integers(1, 20),
    mixed(st.one_of(st.floats(0.0, 1e-2), st.floats(1e308, 1.7e308))),
    st.one_of(st.none(), region),
).map(lambda t: ["--count", str(t[0]), "--sigma", repr(t[1])]
      + ["--region", t[2]] * (t[2] is not None))


class TestAnyFiniteFlags:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gaze=gaze_flags, samples=st.integers(-5, 100), synthesize=synthesize_flags)
    @example(gaze=["--alpha", "0.0", "--beta", "0.0", "--rho", "0.75"], samples=2,
             synthesize=["--count", "2", "--sigma", "0.0", "--region", "0,1,0,1,0,1.7e308"])
    def test_exits_with_a_result_or_a_typed_error(self, runner, gaze, samples, synthesize):
        commands = [["fixate"], ["essential"], ["horopter", "--samples", str(samples)]]
        commands += [["synthesize", "--scene", scene, *synthesize] for scene in GENERATORS]
        for command in commands:
            result = runner.invoke(main, [*command, *gaze])
            assert result.exit_code in (0, 2, 4), (command, gaze, result.output, result.exception)
            assert "cannot be serialized" not in result.output, (command, gaze, result.output)


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
