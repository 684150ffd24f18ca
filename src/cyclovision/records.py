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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cyclovision.disparity import Correspondences
from cyclovision.errors import SchemaError
from cyclovision.estimation import GazeEstimate
from cyclovision.gaze import EyeAzimuths, GazeState, vergence_version

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
    try:
        return GazeState(beta=float(data["beta"]), rho=float(data["rho"]),
                         alpha=float(data.get("alpha", 0.0)))
    except _MALFORMED as err:
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
    sigma: float
    seed: int | None
    has_truth: bool


def _image_points(rows: list, key: str) -> np.ndarray:
    """(N, 3) points under ``key``, each finite with a nonzero third component."""
    if not rows:
        return np.empty((0, 3))
    try:
        points = np.array([row[key] for row in rows], dtype=float)
    except _MALFORMED as err:
        raise SchemaError(f"every row needs {key!r} as three numbers") from err
    if points.shape != (len(rows), 3) or not np.isfinite(points).all() or not points[:, 2].all():
        raise SchemaError(f"every {key!r} must be 3 finite numbers, the third nonzero")
    return points


def parse_correspondence_file(data: dict) -> ParsedCorrespondences:
    require_schema(data, "correspondences")
    gaze = gaze_from_dict(data["gaze"]) if "gaze" in data else None
    rows = data.get("records")
    if not isinstance(rows, list):
        raise SchemaError("correspondence file has no 'records' array")
    records = Correspondences(_image_points(rows, "q_l"), _image_points(rows, "q_r"))
    known = np.array([gaze is not None and "p_c" in row and "s" in row for row in rows], dtype=bool)
    truth_rows = [row for row, k in zip(rows, known) if k]
    try:
        depths = np.array([row["s"] for row in truth_rows], dtype=float)
    except _MALFORMED as err:
        raise SchemaError("every 's' must be a number") from err
    if depths.shape != (len(truth_rows),) or not np.isfinite(depths).all():
        raise SchemaError("every 's' must be a finite number")
    records.p_c[known] = _image_points(truth_rows, "p_c")
    records.s[known] = depths
    try:
        sigma = float(data.get("sigma", 0.0))
    except _MALFORMED as err:
        raise SchemaError(f"'sigma' must be a number, got {data.get('sigma')!r}") from err
    return ParsedCorrespondences(
        gaze=gaze,
        records=records,
        sigma=sigma,
        seed=data.get("seed"),
        has_truth=bool(rows) and bool(known.all()),
    )


def depth_map_file(gaze: GazeState, rows: Table, stats: dict | None) -> dict:
    """Depth-map records plus optional error statistics."""
    out = {
        "schema": SCHEMA_VERSION,
        "kind": "depth-map",
        "gaze": gaze_to_dict(gaze),
        "records": rows,
    }
    if stats is not None:
        out["stats"] = stats
    return out


def estimate_to_dict(estimate: GazeEstimate) -> dict:
    vv = vergence_version(estimate.azimuths)
    return {
        "beta_l": float(estimate.azimuths.beta_l),
        "beta_r": float(estimate.azimuths.beta_r),
        "delta": float(vv.delta),
        "epsilon": float(vv.epsilon),
        "alpha": float(estimate.gaze.alpha),
        "beta": float(estimate.gaze.beta),
        "rho": float(estimate.gaze.rho),
        "rms_residual": float(estimate.rms_residual),
        "iterations": int(estimate.iterations),
        "converged": bool(estimate.converged),
    }


def estimate_from_dict(data: dict) -> GazeEstimate:
    try:
        azimuths = EyeAzimuths(float(data["beta_l"]), float(data["beta_r"]))
        gaze = GazeState(
            beta=float(data["beta"]), rho=float(data["rho"]), alpha=float(data["alpha"])
        )
        return GazeEstimate(
            azimuths=azimuths,
            gaze=gaze,
            rms_residual=float(data["rms_residual"]),
            iterations=int(data["iterations"]),
            converged=bool(data["converged"]),
        )
    except _MALFORMED as err:
        raise SchemaError(f"malformed gaze estimate {data!r}: {err}") from err


@dataclass(eq=False)
class ExperimentRecord:
    """Everything one estimation run produced, serializable losslessly."""

    gaze_estimate: GazeEstimate
    gaze_truth: GazeState | None = None
    deltas: dict | None = None           # truth-vs-estimate differences
    # p_c, s_est, s_true, q_l, q_r: a Table when built, JSON rows when read
    points: Table | list[dict] = field(default_factory=list)
    residual_stats: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)       # seconds, by stage

    def to_dict(self) -> dict:
        out: dict = {"schema": SCHEMA_VERSION, "kind": "experiment"}
        if self.gaze_truth is not None:
            out["gaze_truth"] = gaze_to_dict(self.gaze_truth)
        out["gaze_estimate"] = estimate_to_dict(self.gaze_estimate)
        if self.deltas is not None:
            out["deltas"] = self.deltas
        out["points"] = self.points
        out["residual_stats"] = self.residual_stats
        out["timings"] = self.timings
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRecord":
        require_schema(data, "experiment")
        truth = gaze_from_dict(data["gaze_truth"]) if "gaze_truth" in data else None
        return cls(
            gaze_estimate=estimate_from_dict(data["gaze_estimate"]),
            gaze_truth=truth,
            deltas=data.get("deltas"),
            points=data.get("points", []),
            residual_stats=data.get("residual_stats", {}),
            timings=data.get("timings", {}),
        )


def csv_rows(header: str, rows: list[list]) -> str:
    """Small CSV writer with the same float formatting as the JSON files."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else float_repr(cell) for cell in row
        ))
    return "\n".join(lines) + "\n"
