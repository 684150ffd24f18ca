"""Recovery of gaze parameters and plane-relative depths from correspondences.

The fixation constraint reduces the Essential matrix to two parameters,
the eye azimuths (beta_l, beta_r). Each normalized epipolar residual
q_r^T E q_l is linear in c = (sin beta_l, sin beta_r, cos beta_r, cos beta_l),
with features f = (x_l y_r, -x_r y_l, y_l, -y_r) / sqrt(2), so the objective
||F c||^2 over the N x 4 feature matrix F equals ||R c||^2 for the 4 x 4 R
factor of its QR (not F^T F, which squares the conditioning). A constant
table of 64 x 64 azimuth pairs, a grid over vergence and version, seeds
the fit: each fit multiplies the table's coefficient vectors by R and takes
the pair of the least residual. Damped least squares then refines the pair
on Python floats, over R's 10 nonzero entries: the residual, the analytic
Jacobian and each damped 2 x 2 step, solved in closed form with no LAPACK
call; (beta, rho) follow algebraically. The fit needs a Correspondences set
of at least three points. Depths are recovered for all points in one array
pass: each point is triangulated, and its Cyclopean ray and plane depth
are those of the triangulated point; a point that cannot be recovered
reads NaN in the depth map.

Data lying entirely on the horizontal image meridian satisfies the
epipolar constraint for every azimuth pair, so such sets are rejected
as degenerate; the range rho is observable only through vertical and
perspective effects off the meridian.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cyclovision.disparity import Correspondences, ray_and_depth
from cyclovision.errors import (
    BehindEyeError,
    DegenerateConfigurationError,
    PointAtInfinityError,
)
from cyclovision.gaze import (
    BinocularPoses,
    EyeAzimuths,
    GazeState,
    _finite_numbers,
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


_SQRT2 = np.sqrt(2.0)

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
    """Iteration cap of the damped least-squares fit, an integer of at least 1."""

    max_iterations: int = 100

    def __post_init__(self):
        cap = self.max_iterations
        if isinstance(cap, bool) or not isinstance(cap, numbers.Integral):
            raise TypeError(f"max_iterations must be an integer, got {cap!r}")
        if cap < 1:
            raise ValueError(f"max_iterations must be at least 1, got {cap}")


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
    q_l, q_r = normalize_point(correspondences.q_l), normalize_point(correspondences.q_r)
    if np.isnan(q_l).any() or np.isnan(q_r).any():
        raise PointAtInfinityError("cannot normalize an image point at infinity")
    (xl, yl), (xr, yr) = q_l[:, :2].T, q_r[:, :2].T
    features = np.column_stack([xl * yr, -xr * yl, yl, -yr])
    features /= _SQRT2
    return np.linalg.qr(features, mode="r")


def _linearize(upper: tuple, beta_l: float, beta_r: float) -> tuple:
    """||R c||^2 at (beta_l, beta_r) for R's upper triangle, row by row, and the normal
    equations of J = R dc/dtheta: (a, b, d) of J^T J = [[a, b], [b, d]] and J^T R c."""
    r00, r01, r02, r03, r11, r12, r13, r22, r23, r33 = upper
    sl, sr, cr, cl = math.sin(beta_l), math.sin(beta_r), math.cos(beta_r), math.cos(beta_l)
    r0, r1, r2, r3 = (r00 * sl + r01 * sr + r02 * cr + r03 * cl,
                      r11 * sr + r12 * cr + r13 * cl, r22 * cr + r23 * cl, r33 * cl)
    # J's columns, from dc/dbeta_l = (cl, 0, 0, -sl) and dc/dbeta_r = (0, cr, -sr, 0)
    l0, l1, l2, l3 = r00 * cl - r03 * sl, -r13 * sl, -r23 * sl, -r33 * sl
    j0, j1, j2 = r01 * cr - r02 * sr, r11 * cr - r12 * sr, -r22 * sr
    return r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3, (
        l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3, l0 * j0 + l1 * j1 + l2 * j2,
        j0 * j0 + j1 * j1 + j2 * j2, l0 * r0 + l1 * r1 + l2 * r2 + l3 * r3,
        j0 * r0 + j1 * r1 + j2 * r2)


def _damped_step(a: float, b: float, d: float, g_l: float, g_r: float, damping: float) -> tuple:
    """s of [[a + damping, b], [b, d + damping]] s = -(g_l, g_r), by symmetric elimination
    (backward stable, unlike Cramer's rule); NaN unless the system is positive definite."""
    a += damping
    ratio = b / a if a > 0.0 else math.nan
    pivot = d + damping - ratio * b
    if not pivot > 0.0:
        return math.nan, math.nan
    step_r = (ratio * g_l - g_r) / pivot
    return (-g_l - b * step_r) / a, step_r


# (beta_l, beta_r) = epsilon +- delta / 2 of the seed grid's cells; cell
# i * GRID_SIZE + j has vergence delta i in (0, 1.2], version epsilon j in [-0.8, 0.8]
_GRID_AZIMUTHS = (
    np.tile(np.linspace(-GRID_EPSILON_MAX, GRID_EPSILON_MAX, GRID_SIZE), GRID_SIZE)
    + np.outer([0.5, -0.5], np.repeat(GRID_DELTA_MAX * np.arange(1, GRID_SIZE + 1) / GRID_SIZE,
                                      GRID_SIZE)))
# c = (sin beta_l, sin beta_r, cos beta_r, cos beta_l) of each cell
_GRID_COEFFICIENTS = np.concatenate([np.sin(_GRID_AZIMUTHS), np.cos(_GRID_AZIMUTHS)[::-1]])
_GRID_AZIMUTHS.flags.writeable = _GRID_COEFFICIENTS.flags.writeable = False


def _grid(r_factor: np.ndarray, count: int) -> np.ndarray:
    """Mean squared residual of each grid cell, in the order of _GRID_AZIMUTHS."""
    residuals = r_factor @ _GRID_COEFFICIENTS
    return np.square(residuals, out=residuals).sum(axis=0) / count


def _grid_seed(r_factor: np.ndarray, count: int) -> EyeAzimuths:
    return EyeAzimuths(*_GRID_AZIMUTHS[:, np.argmin(_grid(r_factor, count))].tolist())


def _fit_input(correspondences: Correspondences) -> tuple[np.ndarray, int]:
    """(R factor, size) of a set that determines a gaze. Refuses, in this order, a
    single correspondence, fewer than 3, a point at infinity and meridian-only data."""
    if correspondences.q_l.ndim == 1:
        raise DegenerateConfigurationError("need a set of correspondences, got a single one")
    count = len(correspondences)
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
    return r_factor, count


def grid_init(correspondences: Correspondences) -> EyeAzimuths:
    """Azimuth seed at the minimum of the coarse grid objective.

    Refuses the sets that estimate_gaze refuses, with the same errors.
    """
    return _grid_seed(*_fit_input(correspondences))


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
    ends outside the domain of a fixation, PointAtInfinityError for an
    image point at infinity, and at once ValueError when ``alpha`` is not
    a finite angle in [-pi/2, pi/2] and TypeError when it is a boolean.
    """
    _finite_numbers("alpha", alpha=alpha)
    if abs(alpha) > math.pi / 2:
        raise ValueError(f"alpha must lie in [-pi/2, pi/2], got {alpha}")
    r_factor, count = _fit_input(correspondences)
    if initial is None:
        initial = _grid_seed(r_factor, count)

    rows = r_factor.tolist() + [[0.0] * 4]  # a 3 x 4 factor (N = 3) reads a zero fourth row
    upper = (*rows[0], *rows[1][1:], *rows[2][2:], rows[3][3])
    theta_l, theta_r = float(initial.beta_l), float(initial.beta_r)
    objective, normal = _linearize(upper, theta_l, theta_r)
    damping, iterations, converged = INITIAL_DAMPING, 0, False

    while iterations < config.max_iterations and not converged:
        while damping < 1e15:
            # A system that is not positive definite gives a NaN step, and an
            # overflow an infinite one: each is rejected like a failed step.
            step_l, step_r = _damped_step(*normal, damping)
            new_l, new_r = theta_l + step_l, theta_r + step_r
            if math.isfinite(new_l) and math.isfinite(new_r):
                objective_new, normal_new = _linearize(upper, new_l, new_r)
                if objective_new < objective:
                    break
            damping *= DAMPING_FACTOR
        else:
            # No step decreases the objective: numerical minimum.
            converged = True
            break
        converged = (math.hypot(step_l, step_r) < STEP_TOLERANCE
                     or objective - objective_new <= OBJECTIVE_TOLERANCE * objective)
        theta_l, theta_r, objective, normal = new_l, new_r, objective_new, normal_new
        damping /= DAMPING_FACTOR
        iterations += 1

    try:
        azimuths = EyeAzimuths(theta_l, theta_r)
        gaze = gaze_from_azimuths(azimuths, alpha)
    except ValueError as err:
        raise DegenerateConfigurationError(f"fit left the fixation domain: {err}") from err
    return GazeEstimate(azimuths, gaze, rms_residual=math.sqrt(objective / count),
                        iterations=iterations, converged=converged)


def triangulate_midpoint(
    poses: BinocularPoses, q_l: HomogPoint2, q_r: HomogPoint2
) -> Vec3:
    """Midpoints of the closest points of the back-projected ray pairs.

    A pair fails where its rays are parallel, or where the closest point on
    either ray lies at or behind that eye: PointAtInfinityError or
    BehindEyeError for a single pair, NaN rows in a batch.
    """
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
    u = mark_failures(u <= 0.0, BehindEyeError, "point lies behind the left eye", u)
    v = mark_failures(v <= 0.0, BehindEyeError, "point lies behind the right eye", v)
    near_l = poses.left.centre + u[..., None] * d1
    near_r = poses.right.centre + v[..., None] * d2
    return 0.5 * (near_l + near_r)


@np.errstate(over="ignore", invalid="ignore")  # rows that overflow come out NaN
def estimate_depth_map(correspondences: Correspondences, gaze: GazeState) -> DepthMap:
    """Plane-relative depths of all points for a known (or estimated) gaze.

    Each point is triangulated, and its Cyclopean ray and fixation-plane
    depth are those of the triangulated point. Rows read NaN where the
    rays are parallel, or the point is not in front of both eyes and the
    Cyclopean eye; such failures are not fatal.
    """
    scene = triangulate_midpoint(eye_poses(gaze), correspondences.q_l, correspondences.q_r)
    p_c, s = ray_and_depth(gaze, scene)
    s = mark_failures(gaze.rho + s <= 0.0, BehindEyeError, "point lies behind the eyes", s)
    return DepthMap(p_c=np.where(np.isnan(s)[..., None], np.nan, p_c), s=s)
