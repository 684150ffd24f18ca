"""Simulation command line.

Subcommands report fixation parameters, sample the horopter, emit the
Essential matrix, synthesize noisy correspondences, reconstruct depth
maps and estimate gaze from image data.

Exit codes: 0 success, 2 input validation (a size that cannot be
allocated among it), 3 file or schema error, 4 degenerate geometry.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from cyclovision.epipolar import epipoles, essential_closed_form
from cyclovision.errors import DegenerateGeometryError, SchemaError
from cyclovision.estimation import (
    EstimationConfig,
    estimate_depth_map,
    estimate_gaze,
)
from cyclovision.gaze import (
    GazeState,
    eye_azimuths,
    helmholtz_from_point,
    vergence_version,
    vieth_muller,
)
from cyclovision.geometry import rot_x, transform
from cyclovision.horopter import forward_arc_limit, midline, vm_point
from cyclovision.records import (
    correspondence_file,
    csv_rows,
    depth_map_file,
    dumps,
    experiment_file,
    load_json,
    parse_correspondence_file,
    record_head,
    text_pieces,
)
from cyclovision.simulate import GENERATORS, SceneSpec, synthesize_scene


_GAZE_OPTIONS = (
    click.option("--alpha", type=float, default=0.0, show_default=True,
                 help="Fixation elevation (radians unless --degrees)."),
    click.option("--beta", type=float, default=0.0, show_default=True,
                 help="Cyclopean azimuth (radians unless --degrees)."),
    click.option("--rho", type=float, default=None,
                 help="Fixation range in baseline units."),
    click.option("--point", type=str, default=None, metavar="X,Y,Z",
                 help="Cartesian fixation point; overrides the angular flags."),
    click.option("--degrees", is_flag=True,
                 help="Interpret --alpha and --beta in degrees."),
)

_CORR_FILE = click.argument("corr_file", type=click.Path(path_type=Path))

_OUT_OPTION = click.option("--out", type=click.Path(path_type=Path), default=None,
                           help="Output file (default: stdout).")


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != n:
        raise click.UsageError(f"{what} needs {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise click.UsageError(f"{what} needs numbers, got {text!r}") from None


def _gaze_from_flags(alpha, beta, rho, point, degrees) -> GazeState:
    if point is not None:
        return helmholtz_from_point(np.array(_parse_floats(point, 3, "--point")))
    if rho is None:
        raise click.UsageError("provide --rho (with optional --alpha/--beta) or --point")
    if degrees:
        alpha, beta = float(np.radians(alpha)), float(np.radians(beta))
    return GazeState(beta=beta, rho=rho, alpha=alpha)


@click.group()
def main():
    """Binocular fixation geometry simulator."""


def _failure(message: str, exit_code: int) -> click.ClickException:
    failure = click.ClickException(message)
    failure.exit_code = exit_code
    return failure


def _command(*params):
    """Register a subcommand: ``params``, then ``--out``, around a function
    that returns the output text or a record to write as JSON.

    The output goes to ``--out`` or stdout, a record piece by piece
    (``records.text_pieces``), which checks it whole first: a refused record
    writes nothing and leaves ``--out`` unopened. Library errors map to the
    documented exit codes with the library error as ``__cause__``:
    SchemaError (which an unreadable input file also raises) and an
    OSError from writing ``--out`` or stdout exit 3, DegenerateGeometryError
    4, any other ValueError 2, and so does a MemoryError from a size that
    cannot be allocated. A pipe closed on stdout is left to click, which
    ends quietly.
    """

    def register(f):
        @functools.wraps(f)
        def run(out, **kwargs):
            try:
                result = f(**kwargs)
                pieces = (result,) if isinstance(result, str) else text_pieces(result)
            except (ValueError, MemoryError) as err:
                if not isinstance(err, (SchemaError, DegenerateGeometryError)):
                    raise click.UsageError(str(err)) from err
                raise _failure(str(err), 3 if isinstance(err, SchemaError) else 4) from err
            try:
                with (nullcontext(sys.stdout) if out is None
                      else out.open("w", encoding="utf-8")) as fp:
                    fp.writelines(pieces)
                    fp.flush()
            except OSError as err:
                if out is None and isinstance(err, BrokenPipeError):
                    raise  # click ends a closed pipe quietly
                if out is None:
                    # A buffered stdout keeps what it could not write, and its
                    # flush at exit would fail again and exit 120: send that
                    # flush to the null device.
                    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                target = "stdout" if out is None else out
                raise _failure(f"{target}: cannot be written ({err.strerror or err})", 3) from err

        for param in reversed((*params, _OUT_OPTION)):
            run = param(run)
        return main.command()(run)

    return register


def _report_head(kind: str, gaze: GazeState, az) -> dict:
    """Schema, kind, gaze and eye azimuths: how fixate and essential start."""
    return {**record_head(kind, gaze), "azimuths": {"beta_l": az.beta_l, "beta_r": az.beta_r}}


def _epipoles_block(az) -> dict:
    epi = epipoles(az)
    return {"e_l": epi.e_l.tolist(), "e_r": epi.e_r.tolist()}


@_command(*_GAZE_OPTIONS)
def fixate(alpha, beta, rho, point, degrees):
    """Report azimuths, vergence/version, circle parameters and epipoles."""
    gaze = _gaze_from_flags(alpha, beta, rho, point, degrees)
    az = eye_azimuths(gaze)
    vv = vergence_version(az)
    circle = vieth_muller(vv)
    return dumps({
        **_report_head("fixation", gaze, az),
        "vergence": vv.delta,
        "version": vv.epsilon,
        "circle": {
            "zeta": circle.zeta,
            "eta": circle.eta,
            "back_point": circle.back_point.tolist(),
        },
        "epipoles": _epipoles_block(az),
    })


@_command(*_GAZE_OPTIONS,
          click.option("--samples", type=click.IntRange(min=2), default=64,
                       show_default=True, help="Points per polyline."))
def horopter(alpha, beta, rho, point, degrees, samples):
    """Sample the iso-vergence circle and midline as CSV (component,x,y,z)."""
    gaze = _gaze_from_flags(alpha, beta, rho, point, degrees)
    vv = vergence_version(eye_azimuths(gaze))
    circle = vieth_muller(vv)
    tilt = rot_x(gaze.alpha)

    # Right half-sweep starts at theta = 0 (the circle's top), then the
    # mirrored left half, so the full forward arc is covered.
    sweep = np.linspace(0.0, forward_arc_limit(circle), samples)
    arc = transform(tilt, vm_point(circle, np.concatenate([sweep, -sweep[1:]])))
    heights = np.outer(np.linspace(-1.0, 1.0, samples), [0.0, 1.0, 0.0])
    axis = transform(tilt, midline(vv).scene_base + heights)
    rows = [["circle", *p] for p in arc.tolist()] + [["midline", *p] for p in axis.tolist()]
    return csv_rows("component,x,y,z", rows)


@_command(*_GAZE_OPTIONS)
def essential(alpha, beta, rho, point, degrees):
    """Emit the Essential matrix, epipoles and singular values."""
    gaze = _gaze_from_flags(alpha, beta, rho, point, degrees)
    az = eye_azimuths(gaze)
    matrix = essential_closed_form(az)
    return dumps({
        **_report_head("essential", gaze, az),
        "E": matrix.tolist(),
        "epipoles": _epipoles_block(az),
        "singular_values": np.linalg.svd(matrix, compute_uv=False).tolist(),
    })


@_command(*_GAZE_OPTIONS,
          click.option("--scene", type=click.Choice(GENERATORS), default="random-box",
                       show_default=True, help="Scene generator."),
          click.option("--count", type=int, default=50, show_default=True,
                       help="Number of scene points to draw."),
          click.option("--sigma", type=float, default=0.0, show_default=True,
                       help="Image noise standard deviation (image units)."),
          click.option("--seed", type=int, default=0, show_default=True, help="RNG seed."),
          click.option("--region", type=str, default=None, metavar="X0,X1,Y0,Y1,Z0,Z1",
                       help="Random-box bounds in baseline units "
                            "(default: around the fixation point)."))
def synthesize(alpha, beta, rho, point, degrees, scene, count, sigma, seed, region):
    """Project a synthetic scene to a correspondence file."""
    gaze = _gaze_from_flags(alpha, beta, rho, point, degrees)
    bounds = None
    if region is not None:
        x0, x1, y0, y1, z0, z1 = _parse_floats(region, 6, "--region")
        bounds = ((x0, x1), (y0, y1), (z0, z1))
    spec = SceneSpec(generator=scene, count=count, sigma=sigma, seed=seed, region=bounds)
    result = synthesize_scene(gaze, spec)
    return correspondence_file(gaze, result.records, result.skipped, scene, sigma, seed)


@_command(_CORR_FILE, *_GAZE_OPTIONS)
def reconstruct(corr_file, alpha, beta, rho, point, degrees):
    """Recover plane-relative depths from a correspondence file.

    Uses the gaze flags when given, otherwise the file's gaze header.
    """
    parsed = parse_correspondence_file(load_json(corr_file))
    source = click.get_current_context().get_parameter_source
    lone = [f"--{name}" for name in ("alpha", "beta", "degrees")
            if source(name) is not ParameterSource.DEFAULT]
    if rho is not None or point is not None:
        gaze = _gaze_from_flags(alpha, beta, rho, point, degrees)
    elif lone:
        raise click.UsageError(f"{', '.join(lone)} given without --rho or --point")
    elif parsed.gaze is not None:
        gaze = parsed.gaze
    else:
        raise click.UsageError(
            f"{corr_file} has no gaze header; provide --rho/--beta or --point"
        )
    depth = estimate_depth_map(parsed.records, gaze)
    return depth_map_file(gaze, parsed.records, depth)


@_command(_CORR_FILE,
          click.option("--max-iterations", type=click.IntRange(min=1),
                       default=EstimationConfig.max_iterations, show_default=True,
                       help="Damped least-squares iteration cap."))
def estimate(corr_file, max_iterations):
    """Estimate gaze from correspondences, then reconstruct the depth map."""
    parsed = parse_correspondence_file(load_json(corr_file))
    records, truth = parsed.records, parsed.gaze
    started = time.perf_counter()
    fit = estimate_gaze(
        records,
        config=EstimationConfig(max_iterations=max_iterations),
        alpha=truth.alpha if truth is not None else 0.0,
    )
    fitted = time.perf_counter()
    depth = estimate_depth_map(records, fit.gaze)
    finished = time.perf_counter()
    timings = {"estimate_s": fitted - started, "depth_map_s": finished - fitted}
    return experiment_file(fit, records, depth, truth, timings)


if __name__ == "__main__":
    main()
