import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cyclovision.errors import DegenerateConfigurationError, SchemaError
from cyclovision.estimation import estimate_depth_map, estimate_gaze
from cyclovision.gaze import GazeState
from cyclovision.records import (
    _BLOCK_ROWS,
    SCHEMA_VERSION,
    ExperimentRecord,
    Table,
    _numbers,
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
    text_pieces,
    write_json,
)
from cyclovision.simulate import SceneSpec, synthesize_scene

from helpers import TRUTH_PROBES, break_truth, reference_numbers, table_rows

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
# key names rich in what the writer must escape: %, quotes, control and non-ASCII
table_text = st.text(st.one_of(st.sampled_from('%"\\\n\x00\x1fé€'), st.characters()), max_size=6)


@st.composite
def table_columns(draw, cell=table_float):
    """1-5 columns of 0-30 drawn rows: (N,) and (N, 3) floats, taken as they
    are or stretched to up to 2.5 blocks, where a run of NaN cells can cross
    a block edge."""
    n = draw(st.integers(0, 30))
    columns = {}
    for name in draw(st.lists(table_text, min_size=1, max_size=5, unique=True)):
        k = draw(st.sampled_from([1, 3]))
        rows = draw(st.lists(st.one_of(
            st.lists(cell, min_size=k, max_size=k), st.just([math.nan] * k)),
            min_size=n, max_size=n))
        column = np.array(rows, dtype=float).reshape(n, k)
        columns[name] = column[:, 0] if k == 1 else column
    # stretched around the block edges, each row repeated in one run
    length = draw(st.sampled_from([n, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 7,
                                   5 * _BLOCK_ROWS // 2])) if n else 0
    rows = np.arange(length) * n // max(length, 1)
    return {name: c[rows] for name, c in columns.items()}


def written(rows):
    """dumps of a table at the nesting the records use, or the error it raises."""
    try:
        return dumps({"t": rows})
    except ValueError as err:
        return ValueError, str(err)


def assert_same_text(actual, expected, context=3):
    """``actual == expected`` for two record texts or error tuples, asserted on
    the lines around the first that differs: pytest's diff of two whole texts
    of thousands of rows takes minutes."""
    if actual == expected:
        return
    actual_lines, expected_lines = (
        v.splitlines(keepends=True) if isinstance(v, str) else [repr(v)]
        for v in (actual, expected))
    first = next((i for i, (a, e) in enumerate(zip(actual_lines, expected_lines)) if a != e),
                 min(len(actual_lines), len(expected_lines)))
    window = slice(max(first - context, 0), first + context + 1)
    assert "".join(actual_lines[window]) == "".join(expected_lines[window]), (
        f"first difference at line {first + 1}; "
        f"{len(actual_lines)} lines against {len(expected_lines)} expected")


EARLIER = b"earlier bytes\n"


def streamed(rows, path):
    """:func:`written` through write_json to ``path``, read back; a record it
    refuses must leave the file's earlier bytes as they were."""
    path.write_bytes(EARLIER)
    try:
        write_json(path, {"t": rows})
    except ValueError as err:
        assert path.read_bytes() == EARLIER
        return ValueError, str(err)
    return path.read_bytes().decode("utf-8")


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return tmp_path_factory.mktemp("streamed") / "table.json"


def experiment_record(count):
    records = synthesize_scene(GAZE, SceneSpec(count=count, sigma=1e-3, seed=0)).records
    fit = estimate_gaze(records)
    return experiment_file(fit, records, estimate_depth_map(records, fit.gaze), GAZE)


def runs_across_block_edges(n):
    """Two columns, each with one run of NaN rows across a block edge."""
    s = np.linspace(-1.0, 1.0, n)
    s[_BLOCK_ROWS - 20:_BLOCK_ROWS + 80] = np.nan
    q = np.column_stack([np.linspace(2.0, 3.0, n), np.full(n, 0.25), np.ones(n)])
    q[2 * _BLOCK_ROWS - 5:2 * _BLOCK_ROWS + 5] = np.nan
    return {"s": s, "q": q}


def key_set_of_every_row(n):
    """Three columns whose NaN rows cycle through all 8 key sets, row by row:
    row i leaves out column j where bit j of i is set."""
    held = (np.arange(n)[:, None] >> np.arange(3) & 1) == 0
    s = np.where(held[:, 0], np.linspace(-1.0, 1.0, n), np.nan)
    q = np.where(held[:, 1:2], np.column_stack([np.linspace(2.0, 3.0, n), np.full(n, 0.25),
                                                np.ones(n)]), np.nan)
    t = np.where(held[:, 2], np.geomspace(1e-3, 1e3, n), np.nan)
    return {"s": s, "q": q, "t": t}


# A drawn table of 2560 rows takes about 0.2 s to write all three ways, so
# shrinking a failing one runs into Hypothesis's five-minute cap. The first
# failing example is reported as drawn, at its first differing line.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate)


class TestTableWriter:
    @settings(max_examples=200, deadline=None, phases=UNSHRUNK)
    @given(table_columns())
    def test_same_bytes_as_the_rows_it_holds(self, out_path, columns):
        expected = written(table_rows(columns))
        assert_same_text(written(Table(columns)), expected)
        assert_same_text(streamed(Table(columns), out_path), expected)

    @settings(max_examples=50, deadline=None, phases=UNSHRUNK)
    @given(table_columns(st.one_of(table_float, st.sampled_from([math.inf, -math.inf]))))
    def test_a_present_infinity_raises_where_the_rows_do(self, out_path, columns):
        expected = written(table_rows(columns))
        assert_same_text(written(Table(columns)), expected)
        assert_same_text(streamed(Table(columns), out_path), expected)

    @pytest.mark.parametrize("row", [[0.5, math.nan, 1.0], [math.inf, 0.0, 1.0]],
                             ids=["nan-cell", "inf-cell"])
    def test_partly_finite_vector_row_raises(self, row):
        columns = {"s": np.array([1.0, 2.0]), "q": np.array([[0.0, 0.0, 1.0], row])}
        with pytest.raises(ValueError, match="cannot be serialized"):
            dumps(Table(columns))
        assert_same_text(written(Table(columns)), written(table_rows(columns)))

    def test_empty_table_writes_an_empty_array(self):
        assert dumps(Table({"s": np.empty(0), "q": np.empty((0, 3))})) == "[]\n"
        assert dumps(Table({})) == "[]\n"

    @pytest.mark.parametrize("make_columns", [runs_across_block_edges, key_set_of_every_row],
                             ids=["runs-across-block-edges", "key-set-of-every-row"])
    def test_groups_that_cross_block_edges_keep_their_bytes(self, tmp_path, make_columns):
        columns = make_columns(5 * _BLOCK_ROWS // 2)
        pieces = list(text_pieces({"t": Table(columns)}))
        # head, one piece per block of rows, the table's close, the record's close
        assert len(pieces) == 3 + 3 and max(p.count("\n    {") for p in pieces) == _BLOCK_ROWS
        expected = written(table_rows(columns))
        assert_same_text("".join(pieces), expected)
        assert_same_text(written(Table(columns)), expected)
        assert_same_text(streamed(Table(columns), tmp_path / "t.json"), expected)

    @pytest.mark.parametrize("record,error,message", [
        pytest.param({"t": "cells"}, ValueError, "non-finite value inf", id="cell-in-last-block"),
        pytest.param({"t": "rows", "x": math.nan}, ValueError, "non-finite value nan",
                     id="scalar-after-a-table"),
        pytest.param({"t": "rows", "more": {1: 2.0}}, TypeError, "keys must be str",
                     id="key-after-a-table"),
    ])
    def test_a_refused_record_leaves_the_file_as_it_was(self, tmp_path, record, error, message):
        n = 5 * _BLOCK_ROWS // 2
        s = np.linspace(0.0, 1.0, n)
        if record["t"] == "cells":
            s[-1] = math.inf
        record = {**record, "t": Table({"s": s})}
        path, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        path.write_bytes(EARLIER)
        for target in (path, absent):
            with pytest.raises(error, match=message):
                write_json(target, record)
        assert path.read_bytes() == EARLIER and not absent.exists()

    def test_peak_memory_stays_below_the_bytes_written(self, tmp_path):
        # The whole text and its copies peaked at 3.65 times the bytes written.
        data = experiment_record(10_000)
        path = tmp_path / "experiment.json"
        tracemalloc.start()
        try:
            write_json(path, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


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

    def test_a_single_correspondence_is_refused(self):
        single = synthesize_scene(GAZE, SceneSpec(count=5, seed=1)).records[0]
        with pytest.raises(DegenerateConfigurationError, match="got a single one"):
            correspondence_file(GAZE, single, 0, "random-box", 0.0, 1)

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
        ("p_c", [0.1, 0.2, 1.0, 1.0]),
        ("p_c", [0.1, float("inf"), 1.0]),
        ("s", float("nan")),
        ("s", [1.0]),
        ("q_r", [[0.1, 0.2, 1.0]]),
        ("q_l", ["0.1", "0.2", "1"]),
        ("q_r", [0.1, 0.2, "1"]),
        ("p_c", [0.1, None, 1.0]),
        ("s", "0.5"),
        ("s", None),
        ("s", True),
        ("s", False),
        ("q_l", [0.1, 0.2, True]),
        ("q_r", [0.1, True, 1.0]),
        ("p_c", [False, 0.2, 1.0]),
    ], ids=["q_l-two-numbers", "q_r-nan", "p_c-four-numbers", "p_c-inf", "s-nan", "s-array",
            "q_r-nested", "q_l-quoted-numbers", "q_r-one-quoted-number", "p_c-null",
            "s-quoted-number", "s-null", "s-true", "s-false", "q_l-true", "q_r-true",
            "p_c-false"])
    def test_invalid_point_rejected(self, key, value):
        data = sample_file_dict()
        data["records"][2][key] = value
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("key", ["q_l", "q_r", "p_c"])
    def test_zero_third_component_is_read(self, key):
        """A point at infinity is the library's to refuse, not the reader's."""
        data = sample_file_dict()
        data["records"][2][key] = [0.1, 0.2, 0]
        read = getattr(parse_correspondence_file(data).records, key)[2]
        assert read.tolist() == [0.1, 0.2, 0.0]

    @pytest.mark.parametrize("probe", TRUTH_PROBES)
    def test_truth_is_checked_in_every_row_that_holds_it(self, probe):
        with pytest.raises(SchemaError):
            parse_correspondence_file(break_truth(sample_file_dict(), probe))

    @pytest.mark.parametrize("rows", [1, 20])
    def test_boolean_column_rejected(self, rows):
        data = sample_file_dict()
        data["records"] = data["records"][:rows]
        for row in data["records"]:
            row["s"] = True
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("key,number,boolean", [("s", 1, True),
                                                    ("q_l", [0, 1, 1], [0, True, 1])])
    def test_boolean_among_integers_rejected(self, key, number, boolean):
        data = sample_file_dict()
        for row in data["records"]:
            row[key] = number
        data["records"][2][key] = boolean
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("key,value", [("s", 10**20), ("s", -2**63 - 1),
                                           ("q_l", [10**20, 0, 1])])
    def test_integer_beyond_64_bits_is_read_as_a_float(self, key, value):
        data = sample_file_dict()
        data["records"][2][key] = value
        read = getattr(parse_correspondence_file(data).records, key)[2]
        assert read.tolist() == (list(map(float, value)) if key == "q_l" else float(value))

    @pytest.mark.parametrize("key,value,message", [
        ("s", 10**400, "every 's' must be a finite number"),
        ("q_r", [0, -10**400, 1], "every 'q_r' must be 3 finite numbers"),
    ])
    def test_integer_beyond_the_doubles_is_refused(self, key, value, message):
        data = sample_file_dict()
        data["records"][2][key] = value
        with pytest.raises(SchemaError, match=f"^{message}$"):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("number", [np.float64(0.2), np.int64(1)])
    def test_numpy_scalar_is_refused(self, number):
        with pytest.raises(SchemaError, match="every 'beta' must be a finite number"):
            gaze_from_dict({"beta": number, "rho": 2.0})

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
    ], ids=["rho-nan", "rho-below-range", "rho-string", "beta-out-of-range", "rho-missing",
            "array", "quoted-numbers", "rho-true", "beta-false", "alpha-null",
            "alpha-quoted-number", "null"])
    def test_malformed_gaze_header_rejected(self, gaze):
        data = sample_file_dict()
        data["gaze"] = gaze
        with pytest.raises(SchemaError):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("gaze", [[1, 2], None, "up", 2.0])
    def test_gaze_header_that_is_not_an_object_is_named(self, gaze):
        data = sample_file_dict()
        data["gaze"] = gaze
        with pytest.raises(SchemaError, match="'gaze' must be an object"):
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

    @pytest.mark.parametrize("sigma", [-1, -1e-3])
    def test_negative_sigma_rejected(self, sigma):
        data = sample_file_dict()
        data["sigma"] = sigma
        with pytest.raises(SchemaError, match="'sigma' must be nonnegative"):
            parse_correspondence_file(data)

    @pytest.mark.parametrize("key,value", [
        ("seed", -5), ("seed", 1.0), ("seed", True), ("seed", "3"), ("seed", None),
        ("skipped", "x"), ("skipped", -1), ("skipped", 0.5), ("skipped", False),
        ("generator", 3), ("generator", None), ("generator", ["random-box"]),
    ])
    def test_malformed_seed_skipped_or_generator_rejected(self, key, value):
        data = sample_file_dict()
        data[key] = value
        with pytest.raises(SchemaError, match=repr(key)):
            parse_correspondence_file(data)

    def test_absent_seed_skipped_and_generator_parse(self):
        data = sample_file_dict()
        for key in ("seed", "skipped", "generator"):
            del data[key]
        parsed, whole = parse_correspondence_file(data), parse_correspondence_file(sample_file_dict())
        assert parsed.gaze == whole.gaze
        assert np.array_equal(parsed.records.q_l, whole.records.q_l)

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


# Integers at the edges of numpy's inferred int64 and uint64 dtypes and of
# the doubles, beside the 0 and 1 that numpy would promote a boolean to.
edge_int = st.sampled_from([0, 1, -1, 2**53 + 1, 2**63 - 1, 2**63, -2**63, -2**63 - 1,
                            2**64 - 1, 2**64, -2**64, 10**20, 2**1023, 2**1024, -10**400])
finite_number = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(),
                          edge_int)
zero_or_one = st.sampled_from([0, 1, 0.0, -0.0, 1.0])
not_number = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.just("1"),
                       st.sampled_from([math.nan, math.inf, -math.inf]))
malformed_cell = st.one_of(
    not_number,
    finite_number,
    st.lists(finite_number, max_size=2),
    st.lists(finite_number, min_size=4, max_size=5),
    st.lists(st.lists(finite_number, max_size=3), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=1), finite_number, max_size=2),
)


@st.composite
def number_rows(draw):
    """A width, 0 or 3, and 0-6 rows of cells of that width under 'v', all
    finite numbers or all 0 and 1, then up to two faults: a non-number in
    place of a number, a cell of another form, or a row without 'v'."""
    width = draw(st.sampled_from([0, 3]))
    number = draw(st.sampled_from([finite_number, zero_or_one]))
    cell = st.lists(number, min_size=3, max_size=3) if width else number
    rows = [{"v": value} for value in draw(st.lists(cell, max_size=6))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        fault = draw(st.sampled_from(["number", "cell", "key"]))
        if fault == "key":
            row.pop("v", None)
        elif fault == "cell" or not isinstance(row.get("v"), list) or not row["v"]:
            row["v"] = draw(not_number if fault == "number" else malformed_cell)
        else:
            row["v"][draw(st.integers(0, len(row["v"]) - 1))] = draw(not_number)
    return width, rows


def read_numbers(reader, rows, width):
    try:
        return reader(rows, "v", width)
    except SchemaError as err:
        return f"SchemaError: {err}"


def json_ints(value):
    """Every int (not bool) in a value of nested lists and dicts."""
    if type(value) is int:
        yield value
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from json_ints(item)


class TestNumberReader:
    @settings(max_examples=500, deadline=None)
    @given(number_rows())
    def test_same_result_as_the_numpy_inferred_reader(self, width_rows):
        """The same float64 bits or the same refusal as inferring the dtype and
        rescanning for booleans, except that an integer outside [-2**63, 2**64),
        which numpy holds as an object, is read as the double nearest it."""
        width, rows = width_rows
        new, ref = read_numbers(_numbers, rows, width), read_numbers(reference_numbers, rows, width)
        if isinstance(ref, str) and isinstance(new, str):
            assert new == ref
            return
        assert isinstance(new, np.ndarray) and new.dtype == np.float64
        if isinstance(ref, np.ndarray):
            assert new.shape == ref.shape and new.tobytes() == ref.tobytes()
            return
        assert any(not -2**63 <= i < 2**64 for i in json_ints(rows))
        doubles = [list(map(float, row["v"])) if width else float(row["v"]) for row in rows]
        assert new.tobytes() == np.array(doubles, dtype=float).tobytes()


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

    def test_a_single_correspondence_is_refused(self):
        single = parse_correspondence_file(sample_file_dict()).records[0]
        with pytest.raises(DegenerateConfigurationError, match="got a single one"):
            depth_map_file(GAZE, single, estimate_depth_map(single, GAZE))


class TestExperimentRecord:
    def make_file(self, truth=GAZE):
        records = synthesize_scene(GAZE, SceneSpec(count=30, seed=11)).records
        fit = estimate_gaze(records)
        depth = estimate_depth_map(records, fit.gaze)
        return fit, depth, records, experiment_file(fit, records, depth, truth)

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

    @pytest.mark.parametrize("timings", [{"estimate_s": 0.125}, "abc"])
    def test_a_timings_block_is_ignored_like_any_unknown_key(self, timings):
        data = json.loads(dumps(self.make_file()[-1]))
        assert "timings" not in data
        again = ExperimentRecord.from_dict({**data, "timings": timings})
        assert vars(again) == vars(ExperimentRecord.from_dict(data))

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

    def test_estimate_gaze_is_read_as_a_gaze_header(self):
        fit, _, _, data = self.make_file()
        data = json.loads(dumps(data))
        del data["gaze_estimate"]["alpha"]
        assert ExperimentRecord.from_dict(data).gaze_estimate == fit
        data["gaze_estimate"]["rho"] = 0.5
        with pytest.raises(SchemaError, match="malformed gaze record"):
            ExperimentRecord.from_dict(data)

    @pytest.mark.parametrize("key,value", [
        ("points", "abc"),
        ("points", [{"q_l": [0, 0]}]),
        ("deltas", [1]),
        ("deltas", {"rho": "x"}),
        ("residual_stats", [1]),
        ("residual_stats", {"rms_residual": None}),
    ], ids=["points-string", "points-short-q_l", "deltas-array", "deltas-string-value",
            "residual_stats-array",
            "residual_stats-null-value"])
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

    @pytest.mark.parametrize("key", ["gaze_estimate", "gaze_truth", "deltas",
                                     "residual_stats"])
    def test_block_that_is_not_an_object_is_named(self, key):
        data = json.loads(dumps(self.make_file()[-1]))
        data[key] = [1, 2]
        with pytest.raises(SchemaError, match=f"'{key}' must be an object"):
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
