"""Bit-stable JSON and CSV serialization of simulation records.

Floats are printed with 17 significant digits, enough to reproduce the
exact double on parsing, so write -> read -> write is byte-identical.
Dictionaries are built in fixed key order and never sorted.

:func:`dumps` is a short recursive writer over the values records hold:
dicts with str keys, lists and tuples, floats (through :func:`float_repr`),
str, int, bool and None (through ``json.dumps``) and :class:`Table`. Its
layout is that of ``json.dumps(obj, indent=2)`` plus a final newline.

A :class:`Table` is an array of row objects held as columns, the form in
which the correspondence, depth-map and experiment records are built. It
is written straight from its arrays, with the bytes the same rows would
get as dicts: the rows that keep the same keys share one ``%``-template
with ``%.17g`` in each float slot (``'%.17g' % x == format(x, '.17g')``,
so :func:`float_repr` stays the one formatting rule), and each such group
is rendered by one ``template % row`` per row of its stacked float columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cyclovision.disparity import Correspondences
from cyclovision.errors import SchemaError
from cyclovision.estimation import DepthMap, GazeEstimate
from cyclovision.gaze import EyeAzimuths, GazeState, eye_azimuths, vergence_version

SCHEMA_VERSION = "cyclovision/1"

#: what a malformed value raises on conversion to float
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def float_repr(x: float) -> str:
    """17-significant-digit decimal form of a finite float."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


@dataclass(frozen=True, eq=False)
class Table:
    """Rows held as columns: name -> float (N,) or (N, k) array, or an
    object (N,) array of str or None.

    Written as an array of N objects with the keys in column order. A row
    leaves out a key whose value there is NaN (all k of an (N, k) row: a
    failed or unknown value) or None; any other non-finite value raises
    ``ValueError``.
    """

    columns: dict[str, np.ndarray]


def _block(items: list[str], brackets: str, indent: str) -> str:
    """A JSON array or object of the item texts, closing at ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _table_text(columns: dict[str, np.ndarray], indent: str) -> str:
    """JSON text of a :class:`Table`'s rows nested at ``indent``."""
    rows_at = indent + "  "
    cells_at = rows_at + "  "
    n = len(next(iter(columns.values()), ()))
    if n == 0:
        return "[]"
    # Per column: a code for each row, and for each code the cell text
    # (float slots as %.17g), or None where the row leaves the key out.
    codes, cells = [], []
    bad = np.zeros(n, dtype=bool)
    for c in columns.values():
        if c.dtype == object:
            distinct: dict = {}
            codes.append([distinct.setdefault(v, len(distinct)) for v in c.tolist()])
            cells.append([None if v is None else _encode(v, cells_at).replace("%", "%%")
                          for v in distinct])
            continue
        inner = tuple(range(1, c.ndim))
        present = ~np.isnan(c).all(axis=inner)
        bad |= present & ~np.isfinite(c).all(axis=inner)
        codes.append(present)
        slots = "%.17g" if c.ndim == 1 else _block(["%.17g"] * c.shape[1], "[]", cells_at)
        cells.append([None, slots])
    codes = np.array(codes, dtype=np.intp)
    if bad.any():  # the first row with a non-finite value, written cell by cell, raises there
        row = int(np.argmax(bad))
        _encode({name: c[row:row + 1].tolist()[0] for (name, c), text, code
                 in zip(columns.items(), cells, codes[:, row]) if text[code] is not None}, indent)

    # Rows with equal codes share one template; the stable sort keeps each
    # group in row order.
    names = [json.dumps(name).replace("%", "%%") for name in columns]
    order = np.lexsort(codes)
    grouped = codes[:, order]
    changes = np.flatnonzero((grouped[:, 1:] != grouped[:, :-1]).any(axis=0)) + 1
    out = [""] * n
    for rows in np.split(order, changes):
        kept = [(f"{name}: {text[code]}", c) for name, text, code, c
                in zip(names, cells, codes[:, rows[0]], columns.values()) if text[code] is not None]
        template = _block([item for item, _ in kept], "{}", rows_at)
        floats = [c[rows] for _, c in kept if c.dtype != object]
        if floats:
            texts = [template % tuple(v) for v in np.column_stack(floats).tolist()]
        else:
            texts = [template % ()] * len(rows)
        for i, text in zip(rows.tolist(), texts):
            out[i] = text
    return _block(out, "[]", indent)


def _encode(value, indent: str) -> str:
    """JSON text of ``value`` nested at ``indent``, laid out as ``indent=2``."""
    if isinstance(value, float):
        return float_repr(value)
    if isinstance(value, Table):
        return _table_text(value.columns, indent)
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"JSON object keys must be str, got {list(value)!r}")
        return _block([f"{json.dumps(key)}: {_encode(item, inner)}" for key, item in value.items()],
                      "{}", indent)
    if isinstance(value, (list, tuple)):
        return _block([_encode(item, inner) for item in value], "[]", indent)
    return json.dumps(value)


def dumps(obj) -> str:
    """Serialize a record dictionary to canonical JSON text."""
    return _encode(obj, "") + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load_json(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text ({err})") from err
    except OSError as err:
        raise SchemaError(f"{path}: cannot be read ({err.strerror or err})") from err
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:  # nested too deep to parse
        raise SchemaError(f"{path}: not valid JSON ({err})") from err
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return data


def require_schema(data: dict, kind: str) -> None:
    """Check the schema version and record kind of a parsed file."""
    if data.get("schema") != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema {data.get('schema')!r}, expected {SCHEMA_VERSION!r}"
        )
    if data.get("kind") != kind:
        raise SchemaError(f"expected a {kind!r} file, got kind {data.get('kind')!r}")


def gaze_to_dict(gaze: GazeState) -> dict:
    return {"alpha": float(gaze.alpha), "beta": float(gaze.beta), "rho": float(gaze.rho)}


def gaze_from_dict(data: dict) -> GazeState:
    beta, rho = (_numbers([data], key, 0).item() for key in ("beta", "rho"))
    alpha = _numbers([data], "alpha", 0).item() if "alpha" in data else 0.0
    try:
        return GazeState(beta=beta, rho=rho, alpha=alpha)
    except ValueError as err:
        raise SchemaError(f"malformed gaze record {data!r}: {err}") from err


def correspondence_file(
    gaze: GazeState,
    records: Correspondences,
    skipped: int,
    generator: str,
    sigma: float,
    seed: int,
) -> dict:
    """Header plus one record per correspondence, truth included when known."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "correspondences",
        "gaze": gaze_to_dict(gaze),
        "generator": generator,
        "sigma": float(sigma),
        "seed": int(seed),
        "skipped": int(skipped),
        "records": Table({"p_c": records.p_c, "s": records.s,
                          "q_l": records.q_l, "q_r": records.q_r}),
    }


@dataclass(eq=False)
class ParsedCorrespondences:
    gaze: GazeState | None
    records: Correspondences


def _numbers(rows: list, key: str, width: int) -> np.ndarray:
    """The numbers under ``key`` in every row, as (N, width), or as (N,) for
    width 0. Each must be a finite JSON number, not a string, null or a
    boolean, and a point (width 3) needs a nonzero third component;
    anything else raises :class:`SchemaError`. A boolean among numbers is
    promoted to 0 or 1, as numpy's inferred dtype does."""
    if not isinstance(rows, list):
        raise SchemaError(f"expected an array of rows holding {key!r}")
    shape = (len(rows), width) if width else (len(rows),)
    what = "3 finite numbers, the third nonzero" if width == 3 else "a finite number"
    try:
        values = np.array([row[key] for row in rows]) if rows else np.empty(shape)
    except _MALFORMED as err:
        raise SchemaError(f"every {key!r} must be {what}") from err
    if (values.dtype.kind not in "fiu" or values.shape != shape
            or not np.isfinite(values).all() or width == 3 and not values[:, 2].all()):
        raise SchemaError(f"every {key!r} must be {what}")
    return values.astype(float, copy=False)


def parse_correspondence_file(data: dict) -> ParsedCorrespondences:
    require_schema(data, "correspondences")
    gaze = gaze_from_dict(data["gaze"]) if "gaze" in data else None
    if "sigma" in data:
        _numbers([data], "sigma", 0)
    rows = data.get("records")
    records = Correspondences(_numbers(rows, "q_l", 3), _numbers(rows, "q_r", 3))
    known = np.array([gaze is not None and "p_c" in row and "s" in row for row in rows], dtype=bool)
    truth_rows = [row for row, k in zip(rows, known) if k]
    records.p_c[known] = _numbers(truth_rows, "p_c", 3)
    records.s[known] = _numbers(truth_rows, "s", 0)
    return ParsedCorrespondences(gaze, records)


def _depth_errors(depth: DepthMap, records: Correspondences) -> np.ndarray:
    """Estimated minus true depth, in the rows where both are known."""
    errors = depth.s - records.s
    return errors[~np.isnan(errors)]


def _rms(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def depth_map_file(gaze: GazeState, records: Correspondences, depth: DepthMap) -> dict:
    """Depth-map records at ``gaze``, with error statistics when the file
    has rows and every true depth is known."""
    failed = np.isnan(depth.s)
    out = {
        "schema": SCHEMA_VERSION,
        "kind": "depth-map",
        "gaze": gaze_to_dict(gaze),
        "records": Table({
            "error": np.where(failed, "unrecoverable (behind an eye or at infinity)", None),
            "p_c": depth.p_c,
            "s_est": depth.s,
            "z_c_est": gaze.rho + depth.s,
            "s_true": records.s,
        }),
    }
    if len(records) and not np.isnan(records.s).any():
        stats = out["stats"] = {"count": len(records), "failed": int(failed.sum())}
        errors = _depth_errors(depth, records)
        if errors.size:  # left out when no row was recovered
            stats["rms_error"] = _rms(errors)
            stats["max_abs_error"] = float(np.max(np.abs(errors)))
    return out


def experiment_file(fit: GazeEstimate, records: Correspondences, depth: DepthMap,
                    truth: GazeState | None, timings: dict) -> dict:
    """The experiment record of a fit and the depth map at its gaze, with
    the truth and the deltas from it when the gaze is known."""
    errors = _depth_errors(depth, records)
    out: dict = {"schema": SCHEMA_VERSION, "kind": "experiment"}
    if truth is not None:
        out["gaze_truth"] = gaze_to_dict(truth)
    vv = vergence_version(fit.azimuths)
    out["gaze_estimate"] = {
        "beta_l": float(fit.azimuths.beta_l),
        "beta_r": float(fit.azimuths.beta_r),
        "delta": float(vv.delta),
        "epsilon": float(vv.epsilon),
        **gaze_to_dict(fit.gaze),
        "rms_residual": float(fit.rms_residual),
        "iterations": int(fit.iterations),
        "converged": bool(fit.converged),
    }
    if truth is not None:
        true_az = eye_azimuths(truth)
        out["deltas"] = {
            "beta_l": fit.azimuths.beta_l - true_az.beta_l,
            "beta_r": fit.azimuths.beta_r - true_az.beta_r,
            "beta": fit.gaze.beta - truth.beta,
            "rho": fit.gaze.rho - truth.rho,
        }
    out["points"] = Table({"p_c": depth.p_c, "s_est": depth.s, "s_true": records.s,
                           "q_l": records.q_l, "q_r": records.q_r})
    stats = out["residual_stats"] = {"rms_residual": fit.rms_residual}
    if errors.size:
        stats["rms_depth_error"] = _rms(errors)
    out["timings"] = timings
    return out


def _number_object(data: dict, key: str) -> dict:
    """``data[key]``, empty when absent: an object whose every value is a
    finite number, as :func:`_numbers` reads it, or :class:`SchemaError`."""
    block = data.get(key, {})
    if not isinstance(block, dict):
        raise SchemaError(f"{key!r} must be an object of numbers")
    return {name: _numbers([block], name, 0).item() for name in block}


@dataclass(eq=False)
class ExperimentRecord:
    """An experiment file as :meth:`from_dict` reads it back."""

    gaze_estimate: GazeEstimate
    gaze_truth: GazeState | None
    deltas: dict | None                  # truth-vs-estimate differences
    points: list[dict]                   # the file's rows: p_c, s_est, s_true, q_l, q_r
    residual_stats: dict
    timings: dict                        # seconds, by stage

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRecord":
        require_schema(data, "experiment")
        block = data.get("gaze_estimate")
        beta_l, beta_r, beta, rho, alpha, rms_residual = (
            _numbers([block], key, 0).item()
            for key in ("beta_l", "beta_r", "beta", "rho", "alpha", "rms_residual"))
        iterations, converged = block.get("iterations"), block.get("converged")
        if type(iterations) is not int or type(converged) is not bool:
            raise SchemaError("'iterations' must be an integer and 'converged' a boolean")
        try:
            estimate = GazeEstimate(EyeAzimuths(beta_l, beta_r), GazeState(beta, rho, alpha),
                                    rms_residual, iterations, converged)
        except ValueError as err:
            raise SchemaError(f"malformed gaze estimate {block!r}: {err}") from err
        deltas = data.get("deltas")
        if deltas is not None:
            deltas = {key: _numbers([deltas], key, 0).item()
                      for key in ("beta_l", "beta_r", "beta", "rho")}
        points = data.get("points", [])
        _numbers(points, "q_l", 3)
        _numbers(points, "q_r", 3)
        for key, width in (("p_c", 3), ("s_est", 0), ("s_true", 0)):  # only where a row has it
            _numbers([row for row in points if key in row], key, width)
        return cls(
            gaze_estimate=estimate,
            gaze_truth=gaze_from_dict(data["gaze_truth"]) if "gaze_truth" in data else None,
            deltas=deltas,
            points=points,
            residual_stats=_number_object(data, "residual_stats"),
            timings=_number_object(data, "timings"),
        )


def csv_rows(header: str, rows: list[list]) -> str:
    """Small CSV writer with the same float formatting as the JSON files."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else float_repr(cell) for cell in row
        ))
    return "\n".join(lines) + "\n"
