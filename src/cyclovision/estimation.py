"""Recovery of gaze parameters and plane-relative depths from correspondences.

The fixation constraint reduces the Essential matrix to two parameters,
the eye azimuths (beta_l, beta_r). Each normalized epipolar residual
q_r^T E q_l is linear in c = (sin beta_l, sin beta_r, cos beta_r, cos beta_l),
with features f = (x_l y_r, -x_r y_l, y_l, -y_r) / sqrt(2), so the objective
||F c||^2 over the N x 4 feature matrix F equals ||R c||^2 for the 4 x 4 R
factor of its QR (not F^T F, which squares the conditioning). A table of
64 x 64 azimuth pairs, a grid over vergence and version, seeds damped
least squares on R c, with its analytic Jacobian; (beta, rho) then follow
algebraically. The table and its coefficient vectors depend on no data, so
they are constants built once at import, and each fit only multiplies the
coefficients by R and takes the pair of the least residual. The fit needs a
Correspondences set of at least three points. Depths are recovered for
all points in one array pass, by projecting each observed offset onto its
epipolar direction and inverting the parallax map, independently in the
two eyes; a point that cannot be recovered reads NaN in the depth map.

Data lying entirely on the horizontal image meridian satisfies the
epipolar constraint for every azimuth pair, so such sets are rejected
as degenerate; the range rho is observable only through vertical and
perspective effects off the meridian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The LAPACK gufunc that np.linalg.solve dispatches to for a 1-D right-hand
# side. Each damped 2 x 2 step calls it directly: the same call gives the
# same bits, without solve's Python wrapper (1.5 us against 7 us a call on
# a 2-vCPU Xeon). It lives in numpy's private module, so this is its only
# import.
from numpy.linalg._umath_linalg import solve1 as _lapack_solve

from cyclovision.disparity import (
    Correspondences,
    decompose,
    project_parallax_scalar,
    ray_and_depth,
    recover_depth,
)
from cyclovision.errors import (
    BehindEyeError,
    DegenerateConfigurationError,
    PointAtInfinityError,
)
from cyclovision.gaze import (
    BinocularPoses,
    EyeAzimuths,
    GazeState,
    eye_poses,
    gaze_from_azimuths,
)
from cyclovision.geometry import (
    HomogPoint2,
    Vec3,
    inner,
    mark_failures,
    normalize_point,
    transform,
)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_SQRT2 = np.sqrt(2.0)
_EYE2 = _read_only(np.eye(2))

GRID_DELTA_MAX = 1.2
GRID_EPSILON_MAX = 0.8
GRID_SIZE = 64

INITIAL_DAMPING = 1e-3
DAMPING_FACTOR = 10.0           # multiplier on a rejected step, divisor on an accepted one
STEP_TOLERANCE = 1e-10          # radians; smaller steps mean convergence
OBJECTIVE_TOLERANCE = 1e-12     # relative objective decrease at convergence
MERIDIAN_TOLERANCE = 1e-9       # data is degenerate when sqrt(sum of all y^2) is below this


@dataclass(frozen=True)
class EstimationConfig:
    """Iteration cap of the damped least-squares fit."""

    max_iterations: int = 100


@dataclass(frozen=True)
class GazeEstimate:
    """Fitted azimuths and gaze, with fit diagnostics."""

    azimuths: EyeAzimuths
    gaze: GazeState
    rms_residual: float
    iterations: int
    converged: bool


class DepthMap(NamedTuple):
    """Recovered Cyclopean rays (N, 3) and plane depths (N,); NaN rows failed."""

    p_c: np.ndarray
    s: np.ndarray


def _r_factor(correspondences: Correspondences) -> np.ndarray:
    """R factor, min(N, 4) x 4, of the N x 4 feature matrix F: ||R c|| = ||F c||."""
    if not len(correspondences):
        raise DegenerateConfigurationError("no correspondences")
    q_l, q_r = normalize_point(correspondences.q_l), normalize_point(correspondences.q_r)
    if np.isnan(q_l).any() or np.isnan(q_r).any():
        raise PointAtInfinityError("cannot normalize an image point at infinity")
    (xl, yl), (xr, yr) = q_l[:, :2].T, q_r[:, :2].T
    features = np.column_stack([xl * yr, -xr * yl, yl, -yr])
    features /= _SQRT2
    return np.linalg.qr(features, mode="r")


def _coefficients(theta: np.ndarray) -> np.ndarray:
    """c of azimuths theta = (beta_l, beta_r), held along a leading axis."""
    c = np.empty((4,) + theta.shape[1:])
    np.sin(theta, out=c[:2])
    np.cos(theta[::-1], out=c[2:])
    return c


def _coefficient_jacobian(c: np.ndarray) -> np.ndarray:
    """(4, 2) derivative of c with respect to (beta_l, beta_r), read off c itself."""
    sl, sr, cr, cl = c.tolist()
    return np.array([[cl, 0.0], [0.0, cr], [0.0, -sr], [-sl, 0.0]])


# (beta_l, beta_r) = epsilon +- delta / 2 of the seed grid's cells; cell
# i * GRID_SIZE + j has vergence delta i in (0, 1.2], version epsilon j in [-0.8, 0.8]
_GRID_AZIMUTHS = _read_only(
    np.tile(np.linspace(-GRID_EPSILON_MAX, GRID_EPSILON_MAX, GRID_SIZE), GRID_SIZE)
    + np.outer([0.5, -0.5], np.repeat(GRID_DELTA_MAX * np.arange(1, GRID_SIZE + 1) / GRID_SIZE,
                                      GRID_SIZE)))
_GRID_COEFFICIENTS = _read_only(_coefficients(_GRID_AZIMUTHS))
# Cells per evaluation block: its (4, 1024) float64 temporaries are 32 KiB,
# far below glibc malloc's 128 KiB mmap and trim thresholds, so each fit
# reuses heap memory instead of mapping and faulting in fresh pages.
_GRID_BLOCK = 1024


def _grid(r_factor: np.ndarray, count: int) -> np.ndarray:
    """Mean squared residual of each grid cell, in the order of _GRID_AZIMUTHS."""
    mse = np.empty(GRID_SIZE ** 2)
    for start in range(0, GRID_SIZE ** 2, _GRID_BLOCK):
        block = r_factor @ _GRID_COEFFICIENTS[:, start:start + _GRID_BLOCK]
        np.add.reduce(np.square(block, out=block), axis=0, out=mse[start:start + _GRID_BLOCK])
    mse /= count
    return mse


def _grid_seed(r_factor: np.ndarray, count: int) -> EyeAzimuths:
    return EyeAzimuths(*_GRID_AZIMUTHS[:, np.argmin(_grid(r_factor, count))].tolist())


def _count(correspondences: Correspondences) -> int:
    """Number of correspondences in a set; a single one, of (3,) points, is no set."""
    if correspondences.q_l.ndim == 1:
        raise DegenerateConfigurationError("need a set of correspondences, got a single one")
    return len(correspondences)


def grid_init(correspondences: Correspondences) -> EyeAzimuths:
    """Azimuth seed at the minimum of the coarse grid objective.

    Total on any nonempty set; with fewer than three points the seed is
    returned but its quality is unguaranteed. A single correspondence
    raises DegenerateConfigurationError.
    """
    count = _count(correspondences)
    return _grid_seed(_r_factor(correspondences), count)


def estimate_gaze(
    correspondences: Correspondences,
    initial: EyeAzimuths | None = None,
    config: EstimationConfig = EstimationConfig(),
    alpha: float = 0.0,
) -> GazeEstimate:
    """Fit (beta_l, beta_r) to correspondences by damped least squares.

    ``initial`` defaults to the grid seed. ``alpha`` only orients the
    visual plane of the returned gaze; the image data cannot constrain it.
    Noiseless data from a true fixation is recovered to well below 1e-6 rad.
    Raises DegenerateConfigurationError for a single correspondence or
    fewer than three, when the data lie on the meridian or when the fit
    ends outside the domain of a fixation, and ValueError at once when
    ``alpha`` is not a finite angle in [-pi/2, pi/2].
    """
    if not (math.isfinite(alpha) and abs(alpha) <= math.pi / 2):
        raise ValueError(f"alpha must be finite and lie in [-pi/2, pi/2], got {alpha}")
    count = _count(correspondences)
    if count < 3:
        raise DegenerateConfigurationError(f"need at least 3 correspondences, got {count}")
    r_factor = _r_factor(correspondences)
    # ||R e_j|| = ||F e_j||: the y columns' norm is sqrt(sum y^2 / 2)
    y_columns = r_factor[:, 2:].ravel()
    if math.sqrt(y_columns.dot(y_columns)) * _SQRT2 < MERIDIAN_TOLERANCE:
        raise DegenerateConfigurationError(
            "all points lie on the horizontal meridian, which satisfies the "
            "epipolar constraint for every gaze"
        )
    if initial is None:
        initial = _grid_seed(r_factor, count)

    theta = np.array([initial.beta_l, initial.beta_r])
    c = _coefficients(theta)
    r = r_factor @ c
    objective = float(r @ r)
    damping = INITIAL_DAMPING
    iterations = 0
    converged = False

    # A singular damped system gives a NaN step, whose objective is not below
    # the current one, so it is rejected like any other failed step.
    with np.errstate(all="ignore"):
        while iterations < config.max_iterations and not converged:
            jac = r_factor @ _coefficient_jacobian(c)
            descent = -(jac.T @ r)
            normal = jac.T @ jac
            while damping < 1e15:
                step = _lapack_solve(normal + damping * _EYE2, descent, signature="dd->d")
                theta_new = theta + step
                c_new = _coefficients(theta_new)
                r_new = r_factor @ c_new
                objective_new = float(r_new @ r_new)
                if objective_new < objective:
                    break
                damping *= DAMPING_FACTOR
            else:
                # No step decreases the objective: numerical minimum.
                converged = True
                break

            converged = bool(
                math.sqrt(step.dot(step)) < STEP_TOLERANCE
                or objective - objective_new <= OBJECTIVE_TOLERANCE * objective
            )
            theta, c, r, objective = theta_new, c_new, r_new, objective_new
            damping /= DAMPING_FACTOR
            iterations += 1

    try:
        azimuths = EyeAzimuths(*theta.tolist())
        gaze = gaze_from_azimuths(azimuths, alpha)
    except ValueError as err:
        raise DegenerateConfigurationError(f"fit left the fixation domain: {err}") from err
    return GazeEstimate(
        azimuths=azimuths,
        gaze=gaze,
        rms_residual=math.sqrt(objective / count),
        iterations=iterations,
        converged=converged,
    )


def triangulate_midpoint(
    poses: BinocularPoses, q_l: HomogPoint2, q_r: HomogPoint2
) -> Vec3:
    """Midpoints of the closest points of the back-projected ray pairs."""
    d1 = transform(poses.left.rotation.T, normalize_point(q_l))
    d2 = transform(poses.right.rotation.T, normalize_point(q_r))
    w0 = poses.left.centre - poses.right.centre
    a, b, c = inner(d1, d1), inner(d1, d2), inner(d2, d2)
    det = b * b - a * c
    det = mark_failures(np.abs(det) <= 1e-15 * a * c, PointAtInfinityError,
                        "rays are parallel: triangulated point at infinity", det)
    rhs1, rhs2 = -inner(d1, w0), -inner(d2, w0)
    u = (-c * rhs1 + b * rhs2) / det
    v = (-b * rhs1 + a * rhs2) / det
    near_l = poses.left.centre + u[..., None] * d1
    near_r = poses.right.centre + v[..., None] * d2
    return 0.5 * (near_l + near_r)


@np.errstate(over="ignore", invalid="ignore")  # rows that overflow come out NaN
def estimate_depth_map(correspondences: Correspondences, gaze: GazeState) -> DepthMap:
    """Plane-relative depths of all points for a known (or estimated) gaze.

    Each point is triangulated to fix its Cyclopean direction, the
    parallax scalar is extracted in the two eyes independently, and the
    two recovered depths are averaged. Rows read NaN where the point is
    behind an eye or at infinity; such failures are not fatal.
    """
    poses = eye_poses(gaze)
    scene = triangulate_midpoint(poses, correspondences.q_l, correspondences.q_r)
    p_c, _ = ray_and_depth(gaze, scene)
    left, right = (
        recover_depth(dec, project_parallax_scalar(dec, observed)[0])
        for dec, observed in ((decompose(gaze, p_c, "left"), correspondences.q_l),
                              (decompose(gaze, p_c, "right"), correspondences.q_r))
    )
    s = 0.5 * (left + right)
    s = mark_failures(gaze.rho + s <= 0.0, BehindEyeError, "point lies behind the eyes", s)
    return DepthMap(p_c=np.where(np.isnan(s)[..., None], np.nan, p_c), s=s)
