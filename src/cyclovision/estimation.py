"""Recovery of gaze parameters and plane-relative depths from correspondences.

The fixation constraint reduces the Essential matrix to two parameters,
the eye azimuths (beta_l, beta_r). Each normalized epipolar residual
q_r^T E q_l is linear in c = (sin beta_l, sin beta_r, cos beta_r, cos beta_l),
with features f = (x_l y_r, -x_r y_l, y_l, -y_r) / sqrt(2), so the objective
||F c||^2 over the N x 4 feature matrix F equals ||R c||^2 for the 4 x 4 R
factor of its QR (not F^T F, which squares the conditioning). A 64 x 64
grid of azimuth pairs over vergence and version seeds the fit with its pair
of least residual; the grid is separable, so each fit reads every cell off
the 64 Gram matrices of R times a half-vergence turn (``_grid_seed``).
Damped least squares then refines the pair on Python floats, over R's 10
nonzero entries: the residual, the analytic Jacobian and each damped 2 x 2
step, solved in closed form with no LAPACK call; (beta, rho) follow
algebraically. The fit needs a Correspondences set
of at least three points. Depths are recovered for all points in one array
pass in the Cyclopean frame, where the elevation cancels: each point is the
closed-form midpoint of its two rays, and its Cyclopean ray and plane depth
are those of that point; a point that cannot be recovered reads NaN in the
depth map.

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

from cyclovision.disparity import Correspondences
from cyclovision.errors import (
    BehindEyeError,
    DegenerateConfigurationError,
    DegenerateGeometryError,
    PointAtInfinityError,
)
from cyclovision.gaze import (
    BASELINE,
    EyeAzimuths,
    GazeState,
    _finite_numbers,
    _integer,
    eye_azimuths,
    gaze_from_azimuths,
)
from cyclovision.geometry import (
    inner,
    mark_failures,
    normalize_in_front,
    normalize_point,
    rot_y,
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
        _integer("max_iterations", self.max_iterations)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


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
    images = normalize_point(np.array([correspondences.q_l, correspondences.q_r]))
    if np.isnan(images).any():
        raise PointAtInfinityError("cannot normalize an image point at infinity")
    (xl, yl), (xr, yr) = images[0, :, :2].T, images[1, :, :2].T
    features = np.empty((len(xl), 4))
    np.multiply(xl, yr, out=features[:, 0])
    np.multiply(xr, yl, out=features[:, 1])
    np.negative(features[:, 1], out=features[:, 1])
    features[:, 2] = yl
    np.negative(yr, out=features[:, 3])
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


# The seed grid's cell (i, j) is the azimuth pair epsilon_j +- delta_i / 2, with
# vergence delta_i in (0, 1.2] and version epsilon_j in [-0.8, 0.8]. Its c is
# T_i (sin epsilon_j, cos epsilon_j) for the 4 x 2 turn T_i by delta_i / 2, so its
# ||R c||^2 is the Gram matrix of R T_i read against the products (s^2, s c, c s, c^2).
_GRID_DELTAS = GRID_DELTA_MAX * np.arange(1, GRID_SIZE + 1) / GRID_SIZE
_GRID_EPSILONS = np.linspace(-GRID_EPSILON_MAX, GRID_EPSILON_MAX, GRID_SIZE)
_ch, _sh = np.cos(0.5 * _GRID_DELTAS), np.sin(0.5 * _GRID_DELTAS)
_turns = np.array([[_ch, _sh], [_ch, -_sh], [_sh, _ch], [-_sh, _ch]])  # T_i = _turns[:, :, i]
# columns a and b of every T_i for the Gram entries (a, b) = 00, 01, 10, 11, side by side
_GRID_TURN_PAIRS = np.concatenate([_turns[:, [0, 0, 1, 1]], _turns[:, [0, 1, 0, 1]]],
                                  axis=1).reshape(4, 8 * GRID_SIZE)
_s, _c = np.sin(_GRID_EPSILONS), np.cos(_GRID_EPSILONS)
_GRID_PRODUCTS = np.array([_s * _s, _s * _c, _c * _s, _c * _c])
for _table in (_GRID_DELTAS, _GRID_EPSILONS, _GRID_TURN_PAIRS, _GRID_PRODUCTS):
    _table.flags.writeable = False
del _ch, _sh, _turns, _s, _c, _table


def _grid_seed(r_factor: np.ndarray) -> EyeAzimuths:
    """The azimuth pair of the seed grid's cell of least ||R c||^2."""
    columns = (r_factor @ _GRID_TURN_PAIRS).reshape(-1, 2, 4 * GRID_SIZE)
    gram = np.einsum("ke,ke->e", columns[:, 0], columns[:, 1]).reshape(4, GRID_SIZE)
    i, j = divmod(int((gram.T @ _GRID_PRODUCTS).argmin()), GRID_SIZE)
    delta, epsilon = float(_GRID_DELTAS[i]), float(_GRID_EPSILONS[j])
    return EyeAzimuths(epsilon + 0.5 * delta, epsilon - 0.5 * delta)


def _require_set(correspondences: Correspondences) -> None:
    """Refuse a single correspondence where a set of them is needed."""
    if correspondences.q_l.ndim == 1:
        raise DegenerateConfigurationError("need a set of correspondences, got a single one")


def _fit_input(correspondences: Correspondences) -> tuple[np.ndarray, int]:
    """(R factor, size) of a set that determines a gaze. Refuses, in this order, a
    single correspondence, fewer than 3, a point at infinity and meridian-only data."""
    _require_set(correspondences)
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
    return _grid_seed(_fit_input(correspondences)[0])


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
        initial = _grid_seed(r_factor)

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


@np.errstate(over="ignore", invalid="ignore")  # rows that overflow come out NaN
def estimate_depth_map(correspondences: Correspondences, gaze: GazeState) -> DepthMap:
    """Plane-relative depths of all points for a known (or estimated) gaze.

    Each pair of rays is turned into the Cyclopean frame, where the eyes sit
    at -b/2 and b/2 and the elevation cancels, and triangulated at the
    midpoint of its common perpendicular; the Cyclopean ray and plane depth
    are that point's image and depth less rho. Rows read NaN where an image
    is at infinity, the rays are parallel, the point is not in front of both
    eyes and the Cyclopean eye, or rho + s rounds to 0; none is fatal.
    """
    az = eye_azimuths(gaze)
    d1 = transform(rot_y(gaze.beta - az.beta_l), normalize_point(correspondences.q_l))
    d2 = transform(rot_y(gaze.beta - az.beta_r), normalize_point(correspondences.q_r))
    b = rot_y(gaze.beta) @ BASELINE
    n = np.cross(d1, d2)
    nn = inner(n, n)
    nn = mark_failures(nn <= 1e-15 * inner(d1, d1) * inner(d2, d2), PointAtInfinityError,
                       "rays are parallel: triangulated point at infinity", nn)
    # left eye + u d1 and right eye + v d2 are the ends of the common perpendicular
    u = inner(np.cross(b, d2), n) / nn
    v = inner(np.cross(b, d1), n) / nn
    u = mark_failures(u <= 0.0, BehindEyeError, "point lies behind the left eye", u)
    v = mark_failures(v <= 0.0, BehindEyeError, "point lies behind the right eye", v)
    p_c, depth = normalize_in_front(0.5 * (u[..., None] * d1 + v[..., None] * d2),
                                    "point lies behind the Cyclopean eye")
    s = depth - gaze.rho
    s = mark_failures(gaze.rho + s <= 0.0, DegenerateGeometryError,
                      "Cyclopean depth rho + s rounds to 0 at this range", s)
    return DepthMap(p_c=np.where(np.isnan(s)[..., None], np.nan, p_c), s=s)
