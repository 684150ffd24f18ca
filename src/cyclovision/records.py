"""Bit-stable JSON and CSV serialization of simulation records.

Floats are printed with 17 significant digits, enough to reproduce the
exact double on parsing, so write -> read -> write is byte-identical.
Dictionaries are built in fixed key order and never sorted.

:func:`dumps` is a short recursive writer over the values records hold:
dicts with str keys, lists and tuples, floats (through :func:`float_repr`)
and str, int, bool and None (through ``json.dumps``). Its layout is that
of ``json.dumps(obj, indent=2)`` plus a final newline.
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


def _encode(value, indent: str) -> str:
    """JSON text of ``value`` nested at ``indent``, laid out as ``indent=2``."""
    if isinstance(value, float):
        return float_repr(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"JSON object keys must be str, got {list(value)!r}")
        items = [f"{json.dumps(key)}: {_encode(item, inner)}" for key, item in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_encode(item, inner) for item in value]
        brackets = "[]"
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def dumps(obj) -> str:
    """Serialize a record dictionary to canonical JSON text."""
    return _encode(obj, "") + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load_json(path: str | Path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
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


def table_rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """One record per row from (N,) and (N, 3) columns, keys in column order.

    A row leaves out a key whose value there is NaN (a failed or unknown
    value) or None (in an object column).
    """
    present = [np.not_equal(c, None) if c.dtype == object
               else ~np.isnan(c).all(axis=tuple(range(1, c.ndim))) for c in columns.values()]
    return [
        {key: value for key, value, keep in zip(columns, row, keeps) if keep}
        for row, keeps in zip(zip(*(c.tolist() for c in columns.values())),
                              zip(*(p.tolist() for p in present)))
    ]


def correspondence_file(
    gaze: GazeState,
    records: Correspondences,
    skipped: int,
    generator: str,
    sigma: float,
    seed: int,
) -> dict:
    """Header plus one record per correspondence, truth included when known."""
    rows = table_rows({"p_c": records.p_c, "s": records.s, "q_l": records.q_l, "q_r": records.q_r})
    return {
        "schema": SCHEMA_VERSION,
        "kind": "correspondences",
        "gaze": gaze_to_dict(gaze),
        "generator": generator,
        "sigma": float(sigma),
        "seed": int(seed),
        "skipped": int(skipped),
        "records": rows,
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


def depth_map_file(gaze: GazeState, rows: list[dict], stats: dict | None) -> dict:
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
    points: list[dict] = field(default_factory=list)  # p_c, s_true, s_est, q_l, q_r
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
