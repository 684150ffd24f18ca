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
get as dicts: each row is given the ``%``-template of the keys it holds,
with ``%.17g`` in each float slot (``'%.17g' % x == format(x, '.17g')``,
so :func:`float_repr` stays the one formatting rule), and each block of
rows is formatted once, by its row templates joined ``%`` its finite cells.

:func:`text_pieces` gives the same text as an iterator of pieces, each
table in blocks of a fixed number of rows, so :func:`write_json` and the
CLI never hold a record's whole text. Everything that can refuse a record
is checked before the first piece.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cyclovision.disparity import Correspondences
from cyclovision.errors import SchemaError
from cyclovision.estimation import DepthMap, GazeEstimate, _require_set
from cyclovision.gaze import EyeAzimuths, GazeState, eye_azimuths, vergence_version

SCHEMA_VERSION = "cyclovision/1"

#: rows of a :class:`Table` formatted as one piece of text: about 0.37 MB at
#: the 11 floats of an experiment record's row
_BLOCK_ROWS = 1024
#: where a table's rows go in the text around them; json.dumps escapes every
#: control character, so a NUL never occurs in the text itself
_TABLE = "\0"


def float_repr(x: float) -> str:
    """17-significant-digit decimal form of a finite float."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(float(x), ".17g")


@dataclass(frozen=True, eq=False)
class Table:
    """Rows held as columns: name -> float (N,) or (N, k) array.

    Written as an array of N objects with the keys in column order. A row
    leaves out a key whose value there is NaN (all k of an (N, k) row: a
    failed or unknown value); any other non-finite value raises
    ``ValueError``.
    """

    columns: dict[str, np.ndarray]


def _block(items: list[str], brackets: str, indent: str) -> str:
    """A JSON array or object of the item texts, closing at ``indent``."""
    if not items:
        return brackets
    inner = indent + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _table_blocks(columns: dict[str, np.ndarray], indent: str):
    """JSON text of a :class:`Table`'s rows nested at ``indent``, as an
    iterator that gives it out in blocks of :data:`_BLOCK_ROWS` rows.

    Every cell is checked here, before the first block is made: a row with a
    non-finite value raises as the same row written as a dict would.
    """
    rows_at = indent + "  "
    cells_at = rows_at + "  "
    n = len(next(iter(columns.values()), ()))
    if n == 0:
        return iter(("[]",))
    # Per column: whether each row holds it (0 where the row leaves the key
    # out), and its cell text, with %.17g in each float slot.
    present, cells = [], []
    bad = np.zeros(n, dtype=bool)
    for c in columns.values():
        inner = tuple(range(1, c.ndim))
        held = ~np.isnan(c).all(axis=inner)
        bad |= held & ~np.isfinite(c).all(axis=inner)
        present.append(held)
        cells.append("%.17g" if c.ndim == 1 else _block(["%.17g"] * c.shape[1], "[]", cells_at))
    present = np.array(present, dtype=np.intp)
    if bad.any():  # the first row with a non-finite value, written cell by cell, raises there
        row = int(np.argmax(bad))
        _encode({name: c[row:row + 1].tolist()[0]
                 for (name, c), held in zip(columns.items(), present[:, row]) if held},
                indent, [])
    names = [json.dumps(name).replace("%", "%%") for name in columns]
    # One integer per row for the set of keys it holds, one template per set.
    _, first, codes = np.unique(np.ravel_multi_index(present, (2,) * len(present)),
                                return_index=True, return_inverse=True)
    templates = [_block([f"{name}: {cell}" for name, cell, held
                         in zip(names, cells, present[:, row]) if held], "{}", rows_at)
                 for row in first.tolist()]
    return _row_blocks(list(columns.values()), [templates[i] for i in codes.tolist()], indent)


def _row_blocks(columns: list[np.ndarray], templates: list[str], indent: str):
    """The checked rows' text, one block of :data:`_BLOCK_ROWS` rows at a time.

    A held cell is finite and a left-out key NaN in all its cells, so a block's
    non-NaN cells, row by row, fill its row templates' slots in order."""
    rows_at = indent + "  "
    for start in range(0, len(templates), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        cells = np.column_stack([c[start:stop] for c in columns])
        rows = templates[start:stop]  # led by the block's opening, so its text is made once
        rows[0] = ("[\n" if start == 0 else ",\n") + rows_at + rows[0]
        yield f",\n{rows_at}".join(rows) % tuple(cells[~np.isnan(cells)].tolist())
    yield f"\n{indent}]"


def _encode(value, indent: str, tables: list) -> str:
    """JSON text of ``value`` nested at ``indent``, laid out as ``indent=2``.

    A table is written as :data:`_TABLE`, and the iterator of its text is
    appended to ``tables``.
    """
    if isinstance(value, float):
        return float_repr(value)
    if isinstance(value, Table):
        tables.append(_table_blocks(value.columns, indent))
        return _TABLE
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError(f"JSON object keys must be str, got {list(value)!r}")
        return _block([f"{json.dumps(key)}: {_encode(item, inner, tables)}"
                       for key, item in value.items()], "{}", indent)
    if isinstance(value, (list, tuple)):
        return _block([_encode(item, inner, tables) for item in value], "[]", indent)
    return json.dumps(value)


def text_pieces(obj) -> Iterator[str]:
    """The text of :func:`dumps` as an iterator of pieces.

    Everything is checked before this returns: the str keys, each float
    outside a table and every table's cells. Only the finite table rows are
    formatted as the pieces are taken, each table in blocks of
    :data:`_BLOCK_ROWS` rows.
    """
    tables: list = []
    text = _encode(obj, "", tables) + "\n"
    return _interleave(text.split(_TABLE), tables)


def _interleave(texts: list[str], tables: list) -> Iterator[str]:
    yield texts[0]
    for blocks, text in zip(tables, texts[1:]):
        yield from blocks
        yield text


def dumps(obj) -> str:
    """Serialize a record dictionary to canonical JSON text."""
    return "".join(text_pieces(obj))


def write_json(path: str | Path, obj) -> None:
    """Write ``dumps(obj)`` to ``path`` piece by piece. A record that cannot be
    written raises before the file is opened, so the file is left as it was."""
    pieces = text_pieces(obj)
    with Path(path).open("w", encoding="utf-8") as fp:
        fp.writelines(pieces)


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
    return {"alpha": gaze.alpha, "beta": gaze.beta, "rho": gaze.rho}


def record_head(kind: str, gaze: GazeState) -> dict:
    """Schema, kind and gaze: how every record at one gaze starts."""
    return {"schema": SCHEMA_VERSION, "kind": kind, "gaze": gaze_to_dict(gaze)}


def _object(data: dict, key: str) -> dict:
    """``data[key]``, which must be a JSON object, or :class:`SchemaError` naming it."""
    if not isinstance(data.get(key), dict):
        raise SchemaError(f"{key!r} must be an object")
    return data[key]


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
    """Header plus one record per correspondence, truth included when known.
    A single correspondence raises ``DegenerateConfigurationError``."""
    _require_set(records)
    return {
        **record_head("correspondences", gaze),
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
    """The numbers under ``key`` in every row: (N, width) from cells that are
    lists of ``width`` numbers, or (N,) from one number a cell at width 0.
    A number is an ``int`` or ``float`` as JSON parses it, of any size a
    double holds finitely, so a string, null or a boolean fails by its
    type, and so does a numpy scalar or a float subclass. Anything else
    raises :class:`SchemaError`."""
    if not isinstance(rows, list):
        raise SchemaError(f"expected an array of rows holding {key!r}")
    what = f"{width} finite numbers" if width else "a finite number"
    refused = SchemaError(f"every {key!r} must be {what}")
    try:
        cells = [row[key] for row in rows]
    except (KeyError, TypeError) as err:
        raise refused from err
    if width and not ({list}.issuperset(map(type, cells)) and {width}.issuperset(map(len, cells))):
        raise refused
    flat = itertools.chain.from_iterable if width else iter
    if not {int, float}.issuperset(map(type, flat(cells))):
        raise refused
    try:
        values = np.fromiter(flat(cells), float, len(cells) * max(width, 1))
    except OverflowError as err:  # an integer beyond the largest double
        raise refused from err
    if width:
        values = values.reshape(-1, width)
    if not np.isfinite(values).all():
        raise refused
    return values


def _held_numbers(rows: list, key: str, width: int) -> np.ndarray:
    """:func:`_numbers` over the rows that hold ``key``, NaN in the others."""
    held = [key in row for row in rows]
    if all(held):
        return _numbers(rows, key, width)
    values = np.full((len(rows), width) if width else len(rows), np.nan)
    values[held] = _numbers([row for row, h in zip(rows, held) if h], key, width)
    return values


def parse_correspondence_file(data: dict) -> ParsedCorrespondences:
    require_schema(data, "correspondences")
    gaze = gaze_from_dict(_object(data, "gaze")) if "gaze" in data else None
    if "sigma" in data and _numbers([data], "sigma", 0).item() < 0.0:
        raise SchemaError(f"'sigma' must be nonnegative, got {data['sigma']!r}")
    for key in ("seed", "skipped"):
        if key in data and not (type(data[key]) is int and data[key] >= 0):
            raise SchemaError(f"{key!r} must be a nonnegative integer, got {data[key]!r}")
    if "generator" in data and type(data["generator"]) is not str:
        raise SchemaError(f"'generator' must be a string, got {data['generator']!r}")
    rows = data.get("records")
    q_l, q_r = _numbers(rows, "q_l", 3), _numbers(rows, "q_r", 3)
    p_c, s = _held_numbers(rows, "p_c", 3), _held_numbers(rows, "s", 0)
    # a row's truth counts where it holds both p_c and s and the gaze is known
    unknown = np.isnan(p_c[:, 0]) | np.isnan(s) | (gaze is None)
    p_c[unknown], s[unknown] = np.nan, np.nan
    return ParsedCorrespondences(gaze, Correspondences(q_l, q_r, p_c, s))


def _depth_errors(depth: DepthMap, records: Correspondences) -> np.ndarray:
    """Estimated minus true depth, in the rows where both are known."""
    errors = depth.s - records.s
    return errors[~np.isnan(errors)]


def _rms(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(errors))))


def depth_map_file(gaze: GazeState, records: Correspondences, depth: DepthMap) -> dict:
    """Depth-map records at ``gaze``, with error statistics when the file
    has rows and every true depth is known. A row the depth map failed holds
    no estimate, as in :func:`experiment_file`, and ``stats.failed`` counts it.
    A single correspondence raises ``DegenerateConfigurationError``."""
    _require_set(records)
    out = {
        **record_head("depth-map", gaze),
        "records": Table({
            "p_c": depth.p_c,
            "s_est": depth.s,
            "z_c_est": gaze.rho + depth.s,
            "s_true": records.s,
        }),
    }
    if len(records) and not np.isnan(records.s).any():
        stats = out["stats"] = {"count": len(records), "failed": int(np.isnan(depth.s).sum())}
        errors = _depth_errors(depth, records)
        if errors.size:  # left out when no row was recovered
            stats["rms_error"] = _rms(errors)
            stats["max_abs_error"] = float(np.max(np.abs(errors)))
    return out


def experiment_file(fit: GazeEstimate, records: Correspondences, depth: DepthMap,
                    truth: GazeState | None) -> dict:
    """The experiment record of a fit and the depth map at its gaze, with
    the truth and the deltas from it when the gaze is known."""
    errors = _depth_errors(depth, records)
    out: dict = {"schema": SCHEMA_VERSION, "kind": "experiment"}
    if truth is not None:
        out["gaze_truth"] = gaze_to_dict(truth)
    vv = vergence_version(fit.azimuths)
    out["gaze_estimate"] = {
        "beta_l": fit.azimuths.beta_l,
        "beta_r": fit.azimuths.beta_r,
        "delta": vv.delta,
        "epsilon": vv.epsilon,
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
    return out


def _number_object(data: dict, key: str) -> dict:
    """``data[key]``, empty when absent: an object whose every value is a
    finite number, as :func:`_numbers` reads it, or :class:`SchemaError`."""
    block = _object(data, key) if key in data else {}
    return {name: _numbers([block], name, 0).item() for name in block}


@dataclass(eq=False)
class ExperimentRecord:
    """An experiment file as :meth:`from_dict` reads it back."""

    gaze_estimate: GazeEstimate
    gaze_truth: GazeState | None
    deltas: dict | None                  # truth-vs-estimate differences
    points: list[dict]                   # the file's rows: p_c, s_est, s_true, q_l, q_r
    residual_stats: dict

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRecord":
        require_schema(data, "experiment")
        block = _object(data, "gaze_estimate")
        beta_l, beta_r, rms_residual = (_numbers([block], key, 0).item()
                                        for key in ("beta_l", "beta_r", "rms_residual"))
        gaze = gaze_from_dict(block)
        iterations, converged = block.get("iterations"), block.get("converged")
        if type(iterations) is not int or type(converged) is not bool:
            raise SchemaError("'iterations' must be an integer and 'converged' a boolean")
        try:
            estimate = GazeEstimate(EyeAzimuths(beta_l, beta_r), gaze, rms_residual,
                                    iterations, converged)
        except ValueError as err:
            raise SchemaError(f"malformed gaze estimate {block!r}: {err}") from err
        deltas = _object(data, "deltas") if "deltas" in data else None
        if deltas is not None:
            deltas = {key: _numbers([deltas], key, 0).item()
                      for key in ("beta_l", "beta_r", "beta", "rho")}
        points = data.get("points", [])
        _numbers(points, "q_l", 3)
        _numbers(points, "q_r", 3)
        for key, width in (("p_c", 3), ("s_est", 0), ("s_true", 0)):
            _held_numbers(points, key, width)
        return cls(
            gaze_estimate=estimate,
            gaze_truth=(gaze_from_dict(_object(data, "gaze_truth"))
                        if "gaze_truth" in data else None),
            deltas=deltas,
            points=points,
            residual_stats=_number_object(data, "residual_stats"),
        )


def csv_rows(header: str, rows: list[list]) -> str:
    """Small CSV writer with the same float formatting as the JSON files."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else float_repr(cell) for cell in row
        ))
    return "\n".join(lines) + "\n"
