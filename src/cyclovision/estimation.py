"""Recovery of gaze parameters and plane-relative depths from correspondences.

The fixation constraint reduces the Essential matrix to two parameters,
the eye azimuths (beta_l, beta_r). Each normalized epipolar residual
q_r^T E q_l is linear in c = (sin beta_l, sin beta_r, cos beta_r, cos beta_l),
with features f = (x_l y_r, -x_r y_l, y_l, -y_r) / sqrt(2), so the objective
||F c||^2 over the N x 4 feature matrix F equals ||R c||^2 for the 4 x 4 R
factor of its QR (not F^T F, which squares the conditioning). A grid over
vergence and version seeds damped least squares on R c, with its analytic
Jacobian; (beta, rho) then follow algebraically. The fit needs a
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

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

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
    q = normalize_point(np.stack([correspondences.q_l, correspondences.q_r], axis=1))
    if np.isnan(q).any():
        raise PointAtInfinityError("cannot normalize an image point at infinity")
    (xl, xr), (yl, yr) = q[..., 0].T, q[..., 1].T
    features = np.column_stack([xl * yr, -xr * yl, yl, -yr]) / _SQRT2
    return np.linalg.qr(features, mode="r")


def _coefficients(beta_l, beta_r) -> np.ndarray:
    """c(beta_l, beta_r), stacked along a last axis for array arguments."""
    return np.stack([np.sin(beta_l), np.sin(beta_r), np.cos(beta_r), np.cos(beta_l)], axis=-1)


def _coefficient_jacobian(theta: np.ndarray) -> np.ndarray:
    """(4, 2) derivative of c with respect to (beta_l, beta_r)."""
    (sl, sr), (cl, cr) = np.sin(theta), np.cos(theta)
    return np.array([[cl, 0.0], [0.0, cr], [0.0, -sr], [-sl, 0.0]])


def _grid(r_factor: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    deltas = GRID_DELTA_MAX * np.arange(1, GRID_SIZE + 1) / GRID_SIZE
    epsilons = np.linspace(-GRID_EPSILON_MAX, GRID_EPSILON_MAX, GRID_SIZE)
    dd, ee = np.meshgrid(deltas, epsilons, indexing="ij")
    c = _coefficients(ee + 0.5 * dd, ee - 0.5 * dd)
    return deltas, epsilons, np.sum(np.square(c @ r_factor.T), axis=-1) / count


def _grid_seed(r_factor: np.ndarray, count: int) -> EyeAzimuths:
    deltas, epsilons, mse = _grid(r_factor, count)
    i, j = np.unravel_index(np.argmin(mse), mse.shape)
    return EyeAzimuths(float(epsilons[j] + 0.5 * deltas[i]), float(epsilons[j] - 0.5 * deltas[i]))


def grid_objective(
    correspondences: Correspondences,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean squared residual over the (vergence, version) seed grid.

    Returns (deltas, epsilons, mse) with mse indexed [delta, epsilon];
    vergence spans (0, 1.2] and version [-0.8, 0.8] at 64 x 64 resolution.
    """
    return _grid(_r_factor(correspondences), len(correspondences))


def grid_init(correspondences: Correspondences) -> EyeAzimuths:
    """Azimuth seed at the minimum of the coarse grid objective.

    Total on any nonempty input; with fewer than three points the seed is
    returned but its quality is unguaranteed.
    """
    return _grid_seed(_r_factor(correspondences), len(correspondences))


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
    Raises DegenerateConfigurationError when the data lie on the meridian
    or the fit ends outside the domain of a fixation.
    """
    count = len(correspondences)
    if count < 3:
        raise DegenerateConfigurationError(f"need at least 3 correspondences, got {count}")
    r_factor = _r_factor(correspondences)
    # ||R e_j|| = ||F e_j||: the y columns' norm is sqrt(sum y^2 / 2)
    if np.linalg.norm(r_factor[:, 2:]) * _SQRT2 < MERIDIAN_TOLERANCE:
        raise DegenerateConfigurationError(
            "all points lie on the horizontal meridian, which satisfies the "
            "epipolar constraint for every gaze"
        )
    if initial is None:
        initial = _grid_seed(r_factor, count)

    theta = np.array([initial.beta_l, initial.beta_r])
    r = r_factor @ _coefficients(*theta)
    objective = float(r @ r)
    damping = INITIAL_DAMPING
    iterations = 0
    converged = False

    while iterations < config.max_iterations and not converged:
        jac = r_factor @ _coefficient_jacobian(theta)
        gradient = jac.T @ r
        normal = jac.T @ jac
        while damping < 1e15:
            step = np.linalg.solve(normal + damping * np.eye(2), -gradient)
            r_new = r_factor @ _coefficients(*(theta + step))
            objective_new = float(r_new @ r_new)
            if objective_new < objective:
                break
            damping *= DAMPING_FACTOR
        else:
            # No step decreases the objective: numerical minimum.
            converged = True
            break

        converged = bool(
            np.linalg.norm(step) < STEP_TOLERANCE
            or objective - objective_new <= OBJECTIVE_TOLERANCE * objective
        )
        theta, r, objective = theta + step, r_new, objective_new
        damping /= DAMPING_FACTOR
        iterations += 1

    try:
        azimuths = EyeAzimuths(float(theta[0]), float(theta[1]))
        gaze = gaze_from_azimuths(azimuths)
    except ValueError as err:
        raise DegenerateConfigurationError(f"fit left the fixation domain: {err}") from err
    return GazeEstimate(
        azimuths=azimuths,
        gaze=replace(gaze, alpha=alpha),
        rms_residual=float(np.sqrt(objective / count)),
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
        recover_depth(dec, project_parallax_scalar(dec, observed)[0], gaze.rho)
        for dec, observed in ((decompose(gaze, p_c, "left"), correspondences.q_l),
                              (decompose(gaze, p_c, "right"), correspondences.q_r))
    )
    s = 0.5 * (left + right)
    s = mark_failures(gaze.rho + s <= 0.0, BehindEyeError, "point lies behind the eyes", s)
    return DepthMap(p_c=np.where(np.isnan(s)[..., None], np.nan, p_c), s=s)
