import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclovision.errors import SchemaError
from cyclovision.estimation import estimate_depth_map, estimate_gaze
from cyclovision.gaze import GazeState
from cyclovision.records import (
    SCHEMA_VERSION,
    ExperimentRecord,
    Table,
    correspondence_file,
    csv_rows,
    depth_map_file,
    dumps,
    experiment_file,
    float_repr,
    gaze_from_dict,
    gaze_to_dict,
    load_json,
    parse_correspondence_file,
    require_schema,
)
from cyclovision.simulate import SceneSpec, synthesize_scene

from helpers import table_rows

GAZE = GazeState(beta=0.2, rho=2.0)


def sample_file_dict(seed=0, sigma=0.0, count=20):
    """A correspondence file as it reads back: plain JSON rows."""
    spec = SceneSpec(count=count, seed=seed, sigma=sigma)
    result = synthesize_scene(GAZE, spec)
    return json.loads(dumps(correspondence_file(
        GAZE, result.records, result.skipped, spec.generator, sigma, seed
    )))


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


def json_values(leaves, containers):
    return st.recursive(leaves, lambda children: st.one_of(
        *(container(children) for container in containers),
        st.dictionaries(st.text(), children)), max_leaves=30)


float_free = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
finite_float = st.floats(allow_nan=False, allow_infinity=False)


def float_tokens(value):
    """``value`` with each float as JSON reads back its float_repr text:
    a str where it parses as a float, an int where it has no point or
    exponent."""
    if isinstance(value, float):
        token = float_repr(value)
        return token if any(c in token for c in ".eE") else int(token)
    if isinstance(value, list):
        return [float_tokens(item) for item in value]
    if isinstance(value, dict):
        return {key: float_tokens(item) for key, item in value.items()}
    return value


class TestWriterProperties:
    @given(json_values(float_free, [st.lists, lambda c: st.lists(c).map(tuple)]))
    def test_layout_is_the_stdlib_indent_2_layout(self, value):
        assert dumps(value) == json.dumps(value, indent=2) + "\n"

    @given(json_values(st.one_of(float_free, finite_float), [st.lists]))
    def test_floats_round_trip_as_float_repr_prints_them(self, value):
        text = dumps(value)
        assert json.loads(text) == value
        assert json.loads(text, parse_float=str) == float_tokens(value)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            dumps({1: 2.0})


# Finite floats with the edge cases of the 17-digit format, and NaN for a
# missing value.
table_float = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                     1.7e308, -1.7e308, 0.1, 1 / 3]),
    st.just(math.nan),
)
# text rich in what the writer must escape: %, quotes, control and non-ASCII
table_text = st.text(st.one_of(st.sampled_from('%"\\\n\x00\x1fé€'), st.characters()), max_size=6)


@st.composite
def table_columns(draw, cell=table_float):
    """1-5 columns of 0-30 rows: (N,) and (N, 3) floats, object str/None."""
    n = draw(st.integers(0, 30))
    columns = {}
    for name in draw(st.lists(table_text, min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(["scalar", "vector", "object"]))
        if kind == "object":
            cells = draw(st.lists(st.one_of(st.none(), table_text), min_size=n, max_size=n))
            column = np.empty(n, dtype=object)
            column[:] = cells
        else:
            k = 1 if kind == "scalar" else 3
            rows = draw(st.lists(st.one_of(
                st.lists(cell, min_size=k, max_size=k), st.just([math.nan] * k)),
                min_size=n, max_size=n))
            column = np.array(rows, dtype=float).reshape(n, k)
            column = column[:, 0] if kind == "scalar" else column
        columns[name] = column
    return columns


def written(rows):
    """dumps of a table at the nesting the records use, or the error it raises."""
    try:
        return dumps({"t": rows})
    except ValueError as err:
        return ValueError, str(err)


class TestTableWriter:
    @settings(max_examples=200, deadline=None)
    @given(table_columns())
    def test_same_bytes_as_the_rows_it_holds(self, columns):
        assert written(Table(columns)) == written(table_rows(columns))

    @settings(max_examples=50, deadline=None)
    @given(table_columns(st.one_of(table_float, st.sampled_from([math.inf, -math.inf]))))
    def test_a_present_infinity_raises_where_the_rows_do(self, columns):
        assert written(Table(columns)) == written(table_rows(columns))

    @pytest.mark.parametrize("row", [[0.5, math.nan, 1.0], [math.inf, 0.0, 1.0]])
    def test_partly_finite_vector_row_raises(self, row):
        columns = {"s": np.array([1.0, 2.0]), "q": np.array([[0.0, 0.0, 1.0], row])}
        with pytest.raises(ValueError, match="cannot be serialized"):
            dumps(Table(columns))
        assert written(Table(columns)) == written(table_rows(columns))

    def test_empty_table_writes_an_empty_array(self):
        assert dumps(Table({"s": np.empty(0), "q": np.empty((0, 3))})) == "[]\n"
        assert dumps(Table({})) == "[]\n"


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
        data = sample_file_dict(seed=5)
        parsed = parse_correspondence_file(data)
        assert parsed.gaze == GAZE
        assert np.isfinite(parsed.records.s).all()
        assert data["seed"] == 5
        assert parsed.records.p_c.tolist() == [row["p_c"] for row in data["records"]]
        assert parsed.records.s.tolist() == [row["s"] for row in data["records"]]

    def test_truthless_records_flagged(self):
        data = sample_file_dict()
        for row in data["records"]:
            row.pop("p_c")
            row.pop("s")
        parsed = parse_correspondence_file(data)
        assert len(parsed.records) == len(data["records"])
        assert np.isnan(parsed.records.s).all() and np.isnan(parsed.records.p_c).all()

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
        ("s", [1.0]),
        ("q_r", [[0.1, 0.2, 1.0]]),
        ("p_c", [0.1, 0.2, 0.0]),
        ("q_l", ["0.1", "0.2", "1"]),
        ("q_r", [0.1, 0.2, "1"]),
        ("p_c", [0.1, None, 1.0]),
        ("s", "0.5"),
        ("s", None),
    ])
    def test_invalid_point_rejected(self, key, value):
        data = sample_file_dict()
        data["records"][2][key] = value
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("rows", [1, 20])
    def test_boolean_column_rejected(self, rows):
        data = sample_file_dict()
        data["records"] = data["records"][:rows]
        for row in data["records"]:
            row["s"] = True
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    def test_points_and_partial_truth_stay_with_their_rows(self):
        data = sample_file_dict()
        del data["records"][4]["s"]
        parsed = parse_correspondence_file(data)
        records = parsed.records
        assert np.isnan(records.s).sum() == 1
        for i, row in enumerate(data["records"]):
            assert records.q_l[i].tolist() == row["q_l"] and records.q_r[i].tolist() == row["q_r"]
            if "s" in row:
                assert records.p_c[i].tolist() == row["p_c"]
                assert records.s[i] == row["s"]
            else:
                assert np.isnan(records.p_c[i]).all() and np.isnan(records.s[i])

    def test_partial_truth_round_trips(self):
        data = sample_file_dict()
        for i in (0, 4, 5):
            del data["records"][i]["s"]
            del data["records"][i]["p_c"]
        parsed = parse_correspondence_file(json.loads(dumps(data)))
        again = correspondence_file(GAZE, parsed.records, data["skipped"], data["generator"],
                                    data["sigma"], data["seed"])
        assert dumps(again) == dumps(data)

    def test_empty_file_parses_to_an_empty_set(self):
        data = sample_file_dict()
        data["records"] = []
        parsed = parse_correspondence_file(data)
        assert len(parsed.records) == 0 and parsed.records.q_l.shape == (0, 3)
        assert parsed.records.s.shape == (0,)

    @pytest.mark.parametrize("gaze", [
        {"beta": 0.2, "rho": float("nan")},
        {"beta": 0.2, "rho": 0.5},
        {"beta": 0.2, "rho": "far"},
        {"beta": 2.0, "rho": 2.0},
        {"beta": 0.2},
        [0.2, 2.0],
        {"beta": "0.2", "rho": "2"},
        {"beta": 0.2, "rho": True},
        {"beta": False, "rho": 2.0},
        {"beta": 0.2, "rho": 2.0, "alpha": None},
        {"beta": 0.2, "rho": 2.0, "alpha": "0"},
        None,
    ])
    def test_malformed_gaze_header_rejected(self, gaze):
        data = sample_file_dict()
        data["gaze"] = gaze
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    def test_non_numeric_sigma_rejected(self):
        data = sample_file_dict()
        data["sigma"] = "small"
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("sigma", [True, None, "1e-3", [1e-3]])
    def test_quoted_null_or_boolean_sigma_rejected(self, sigma):
        data = sample_file_dict()
        data["sigma"] = sigma
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    def test_integer_fields_are_read_as_numbers(self):
        data = sample_file_dict()
        data["gaze"] = {"beta": 0, "rho": 2, "alpha": 0}
        data["sigma"] = 0
        data["records"][0]["q_l"] = [0, 0, 1]
        parsed = parse_correspondence_file(data)
        assert parsed.gaze == GazeState(beta=0.0, rho=2.0)
        assert parsed.records.q_l[0].tolist() == [0.0, 0.0, 1.0]
        assert parsed.records.q_l.dtype == float

    def test_load_json_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_json(path)

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_load_json_rejects_non_utf8_and_deep_nesting(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError):
            load_json(path)


class TestDepthMapFile:
    @pytest.mark.parametrize("rows,unknown,has_stats", [
        (20, (), True),
        (20, (4,), False),
        (20, range(20), False),
        (0, (), False),
    ], ids=["all-known", "one-unknown", "none-known", "no-rows"])
    def test_stats_exactly_when_every_true_depth_is_known(self, rows, unknown, has_stats):
        data = sample_file_dict()
        for i in unknown:
            del data["records"][i]["s"]
        data["records"] = data["records"][:rows]
        records = parse_correspondence_file(data).records
        written = depth_map_file(GAZE, records, estimate_depth_map(records, GAZE))
        assert ("stats" in written) == has_stats


class TestExperimentRecord:
    def make_file(self, truth=GAZE):
        records = synthesize_scene(GAZE, SceneSpec(count=30, seed=11)).records
        fit = estimate_gaze(records)
        depth = estimate_depth_map(records, fit.gaze)
        return fit, depth, records, experiment_file(fit, records, depth, truth,
                                                    {"estimate_s": 0.125})

    def test_lossless_round_trip(self):
        fit, depth, records, data = self.make_file()
        assert data["schema"] == SCHEMA_VERSION
        again = ExperimentRecord.from_dict(json.loads(dumps(data)))
        assert again.gaze_estimate == fit
        assert again.gaze_truth == GAZE
        assert again.deltas == data["deltas"]
        assert again.deltas["rho"] == fit.gaze.rho - GAZE.rho
        assert again.points == table_rows({"p_c": depth.p_c, "s_est": depth.s,
                                           "s_true": records.s, "q_l": records.q_l,
                                           "q_r": records.q_r})
        assert again.residual_stats == data["residual_stats"]
        assert again.timings == {"estimate_s": 0.125}

    @pytest.mark.parametrize("key,value", [
        ("rho", "far"),
        ("rho", math.nan),
        ("beta_r", 1.0),  # beyond beta_l
        ("iterations", "x"),
        ("converged", "false"),
        ("iterations", 2.7),
        ("rho", "2"),
        ("rms_residual", True),
        ("alpha", None),
        pytest.param(None, None, id="no-block"),
    ])
    def test_malformed_estimate_raises_schema_error(self, key, value):
        data = json.loads(dumps(self.make_file()[-1]))
        if key is None:
            del data["gaze_estimate"]
        else:
            data["gaze_estimate"][key] = value
        with pytest.raises(SchemaError):
            ExperimentRecord.from_dict(data)

    @pytest.mark.parametrize("key,value", [
        ("points", "abc"),
        ("points", [{"q_l": [0, 0]}]),
        ("deltas", [1]),
        ("deltas", {"rho": "x"}),
        ("timings", "abc"),
        ("timings", {"estimate_s": "x"}),
        ("residual_stats", [1]),
        ("residual_stats", {"rms_residual": None}),
    ])
    def test_malformed_points_or_deltas_raise_schema_error(self, key, value):
        data = json.loads(dumps(self.make_file()[-1]))
        data[key] = value
        with pytest.raises(SchemaError):
            ExperimentRecord.from_dict(data)

    @pytest.mark.parametrize("section,key,value", [
        ("deltas", "rho", True),
        ("deltas", "beta", "0.1"),
        ("deltas", "beta_l", None),
        ("gaze_truth", "rho", "2"),
        ("gaze_truth", "beta", True),
    ])
    def test_quoted_null_or_boolean_values_raise_schema_error(self, section, key, value):
        data = json.loads(dumps(self.make_file()[-1]))
        data[section][key] = value
        with pytest.raises(SchemaError):
            ExperimentRecord.from_dict(data)

    def test_truthless_record_omits_sections(self):
        data = self.make_file(truth=None)[-1]
        assert "gaze_truth" not in data
        assert "deltas" not in data
        again = ExperimentRecord.from_dict(json.loads(dumps(data)))
        assert again.gaze_truth is None
        assert again.deltas is None


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
