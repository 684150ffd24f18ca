import json

import numpy as np
import pytest

from cyclovision.errors import SchemaError
from cyclovision.estimation import estimate_gaze
from cyclovision.gaze import GazeState
from cyclovision.records import (
    SCHEMA_VERSION,
    ExperimentRecord,
    correspondence_file,
    csv_rows,
    dumps,
    float_repr,
    gaze_from_dict,
    gaze_to_dict,
    load_json,
    parse_correspondence_file,
    require_schema,
)
from cyclovision.simulate import SceneSpec, synthesize_scene

GAZE = GazeState(beta=0.2, rho=2.0)


def sample_file_dict(seed=0, sigma=0.0, count=20):
    spec = SceneSpec(count=count, seed=seed, sigma=sigma)
    result = synthesize_scene(GAZE, spec)
    return correspondence_file(
        GAZE, result.records, result.skipped, spec.generator, sigma, seed
    )


class TestFloatFormatting:
    def test_seventeen_digits_round_trip(self):
        values = [1 / 3, 0.1, 1e-300, 123456.789, np.pi, 2 / np.sqrt(5)]
        for x in values:
            assert float(float_repr(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            float_repr(float("nan"))
        with pytest.raises(ValueError):
            dumps({"x": float("inf")})

    def test_dumps_uses_formatter(self):
        text = dumps({"x": 0.1})
        assert "0.10000000000000001" in text


class TestRoundTrips:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        data = sample_file_dict(seed=3)
        path = tmp_path / "corr.json"
        path.write_text(dumps(data), encoding="utf-8")
        first = path.read_text(encoding="utf-8")
        reparsed = json.loads(first)
        assert dumps(reparsed) == first

    def test_same_seed_identical_bytes(self):
        assert dumps(sample_file_dict(seed=7, sigma=1e-3)) == dumps(
            sample_file_dict(seed=7, sigma=1e-3)
        )

    def test_different_seed_differs(self):
        assert dumps(sample_file_dict(seed=1)) != dumps(sample_file_dict(seed=2))

    def test_gaze_dict_round_trip(self):
        gaze = GazeState(beta=-0.13, rho=3.7, alpha=0.21)
        assert gaze_from_dict(gaze_to_dict(gaze)) == gaze


class TestCorrespondenceFiles:
    def test_parse_recovers_truth(self):
        parsed = parse_correspondence_file(sample_file_dict(seed=5))
        assert parsed.gaze == GAZE
        assert parsed.has_truth
        assert parsed.seed == 5
        for rec in parsed.records:
            assert rec.truth is not None
            assert rec.truth.z_c == pytest.approx(GAZE.rho + rec.truth.s)

    def test_truthless_records_flagged(self):
        data = sample_file_dict()
        for row in data["records"]:
            row.pop("p_c")
            row.pop("s")
        parsed = parse_correspondence_file(data)
        assert not parsed.has_truth
        assert all(rec.truth is None for rec in parsed.records)

    def test_schema_version_checked(self):
        data = sample_file_dict()
        data["schema"] = "cyclovision/999"
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    def test_kind_checked(self):
        data = sample_file_dict()
        data["kind"] = "depth-map"
        with pytest.raises(SchemaError):
            require_schema(data, "correspondences")

    def test_malformed_row_rejected(self):
        data = sample_file_dict()
        del data["records"][0]["q_l"]
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("key,value", [
        ("q_l", [0.1, 0.2]),
        ("q_r", [0.1, float("nan"), 1.0]),
        ("q_l", [0.1, 0.2, 0.0]),
        ("p_c", [0.1, 0.2, 1.0, 1.0]),
        ("p_c", [0.1, float("inf"), 1.0]),
        ("s", float("nan")),
    ])
    def test_invalid_point_rejected(self, key, value):
        data = sample_file_dict()
        data["records"][2][key] = value
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    def test_points_and_partial_truth_stay_with_their_rows(self):
        data = sample_file_dict()
        del data["records"][4]["s"]
        parsed = parse_correspondence_file(data)
        assert not parsed.has_truth
        for row, rec in zip(data["records"], parsed.records):
            assert rec.q_l.tolist() == row["q_l"] and rec.q_r.tolist() == row["q_r"]
            if "s" in row:
                assert rec.truth.cyclopean_dir.tolist() == row["p_c"]
                assert rec.truth.s == row["s"]
            else:
                assert rec.truth is None

    def test_load_json_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_json(path)


class TestExperimentRecord:
    def make_record(self):
        records = synthesize_scene(GAZE, SceneSpec(count=30, seed=11)).records
        fit = estimate_gaze(records)
        return ExperimentRecord(
            gaze_estimate=fit,
            gaze_truth=GAZE,
            deltas={"beta": fit.gaze.beta - GAZE.beta, "rho": fit.gaze.rho - GAZE.rho},
            points=[{"q_l": [0.0, 0.1, 1.0], "q_r": [0.2, 0.1, 1.0]}],
            residual_stats={"rms_residual": fit.rms_residual},
            timings={"estimate_s": 0.125},
        )

    def test_lossless_round_trip(self):
        record = self.make_record()
        data = record.to_dict()
        assert data["schema"] == SCHEMA_VERSION
        again = ExperimentRecord.from_dict(json.loads(dumps(data)))
        assert dumps(again.to_dict()) == dumps(data)
        assert again.gaze_truth == record.gaze_truth
        assert again.gaze_estimate.azimuths == record.gaze_estimate.azimuths
        assert again.gaze_estimate.rms_residual == record.gaze_estimate.rms_residual

    def test_truthless_record_omits_sections(self):
        record = self.make_record()
        record.gaze_truth = None
        record.deltas = None
        data = record.to_dict()
        assert "gaze_truth" not in data
        assert "deltas" not in data
        again = ExperimentRecord.from_dict(data)
        assert again.gaze_truth is None


class TestCsv:
    def test_rows_and_header(self):
        text = csv_rows("component,x,y,z", [["circle", 0.0, 0.5, 1.0]])
        lines = text.splitlines()
        assert lines[0] == "component,x,y,z"
        assert lines[1] == "circle,0,0.5,1"

    def test_floats_round_trip_via_repr(self):
        text = csv_rows("a,b", [[1 / 3, np.pi]])
        cells = text.splitlines()[1].split(",")
        assert float(cells[0]) == 1 / 3
        assert float(cells[1]) == np.pi
