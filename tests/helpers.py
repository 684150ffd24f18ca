"""Shared test utilities: random gaze sampling, the projection oracle, the grid
objective and the reference formulations of the per-call fast paths."""

from __future__ import annotations

import numpy as np

from cyclovision.disparity import Correspondences, ParallaxDecomposition
from cyclovision.epipolar import epipoles
from cyclovision.errors import (
    BehindEyeError,
    DegenerateGeometryError,
    PointAtInfinityError,
    SchemaError,
)
from cyclovision.estimation import (
    GRID_DELTA_MAX,
    GRID_EPSILON_MAX,
    GRID_SIZE,
    _grid,
    _r_factor,
)
from cyclovision.gaze import GazeState, eye_azimuths, eye_poses, project
from cyclovision.geometry import inner, normalize_point, rot_y, transform


def random_gaze(rng, beta=(-0.8, 0.8), rho=(0.8, 50.0), alpha=None) -> GazeState:
    """Draw a valid gaze; alpha is zero unless a range is given."""
    return GazeState(
        beta=float(rng.uniform(*beta)),
        rho=float(rng.uniform(*rho)),
        alpha=float(rng.uniform(*alpha)) if alpha is not None else 0.0,
    )


def project_both(gaze: GazeState, scene_point) -> tuple[np.ndarray, np.ndarray]:
    """Left and right normalized pinhole images of a scene point.

    This is the brute-force oracle: rotate-and-translate projection only,
    independent of the parallax and epipolar constructions it validates.
    """
    poses = eye_poses(gaze)
    q_l = normalize_point(project(poses.left, scene_point))
    q_r = normalize_point(project(poses.right, scene_point))
    return q_l, q_r


def table_rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """One record per row from (N,) and (N, k) columns, keys in column order.

    A row leaves out a key whose value there is NaN (a failed or unknown
    value) or None (in an object column). This is the per-row reference
    that the columnar ``records.Table`` writer is checked against.
    """
    present = [np.not_equal(c, None) if c.dtype == object
               else ~np.isnan(c).all(axis=tuple(range(1, c.ndim))) for c in columns.values()]
    return [
        {key: value for key, value, keep in zip(columns, row, keeps) if keep}
        for row, keeps in zip(zip(*(c.tolist() for c in columns.values())),
                              zip(*(p.tolist() for p in present)))
    ]


def grid_objective(
    correspondences: Correspondences,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean squared residual over the (vergence, version) seed grid.

    Returns (deltas, epsilons, mse) with mse indexed [delta, epsilon];
    vergence spans (0, GRID_DELTA_MAX] and version [-GRID_EPSILON_MAX,
    GRID_EPSILON_MAX] at GRID_SIZE x GRID_SIZE resolution. Cell [i, j] is
    the estimator's azimuth pair epsilon_j +- delta_i / 2.
    """
    deltas = GRID_DELTA_MAX * np.arange(1, GRID_SIZE + 1) / GRID_SIZE
    epsilons = np.linspace(-GRID_EPSILON_MAX, GRID_EPSILON_MAX, GRID_SIZE)
    mse = _grid(_r_factor(correspondences), len(correspondences))
    return deltas, epsilons, mse.reshape(GRID_SIZE, GRID_SIZE)


# --------------------------------------------------------------------------
# Reference formulations. Each computes what a library function computes,
# the long way: every row through the failure pass and the division, each
# eye's decomposition on its own with its own sine and cosine, all three eye
# poses for the Cyclopean ray. The library's shortcuts must agree with them
# bit for bit, NaN rows included.


def reference_mark_failures(bad, error, message, values):
    """``mark_failures`` with ``np.where`` on every batch, failing rows or not."""
    if np.ndim(bad) == 0:
        if bad:
            raise error(message)
        return values
    return np.where(bad[..., None] if np.ndim(values) > np.ndim(bad) else bad, np.nan, values)


def reference_normalize_point(p):
    """``normalize_point`` as the at-infinity pass and the division, for every point."""
    p = np.asarray(p, dtype=float)
    p = reference_mark_failures(np.abs(p[..., 2]) <= 1e-12 * np.abs(p).max(axis=-1),
                                PointAtInfinityError, "cannot normalize a point at infinity", p)
    return p / p[..., 2:]


@np.errstate(over="ignore", invalid="ignore")
def reference_ray_and_depth(gaze: GazeState, scene):
    """``ray_and_depth`` through the Cyclopean pose of all three ``eye_poses``."""
    ray = project(eye_poses(gaze).cyclopean, scene)
    ray = reference_mark_failures(ray[..., 2] <= 1e-12, BehindEyeError,
                                  "point lies behind the Cyclopean eye", ray)
    return ray / ray[..., 2:], ray[..., 2] - gaze.rho


@np.errstate(over="ignore", invalid="ignore")
def reference_decompose(gaze: GazeState, p_c, eye: str) -> ParallaxDecomposition:
    """One eye of ``decompose``'s pair, with its own sin and cos for lam."""
    p_c = reference_normalize_point(p_c)
    az = eye_azimuths(gaze)
    epi = epipoles(az)
    beta_eye, e_half = (az.beta_l, 0.5 * epi.e_l) if eye == "left" else (az.beta_r, 0.5 * epi.e_r)
    u = gaze.rho * transform(rot_y(beta_eye - gaze.beta), p_c) + e_half
    u = reference_mark_failures(u[..., 2] <= 1e-12, BehindEyeError,
                                f"predicted point lies behind the {eye} eye", u)
    predicted = u / u[..., 2:]
    lam = p_c[..., 0] * np.sin(beta_eye - gaze.beta) + np.cos(beta_eye - gaze.beta)
    mu = float(e_half[2])
    kappa_vec = mu * predicted - e_half
    kappa = np.sqrt(inner(kappa_vec, kappa_vec))
    kappa = reference_mark_failures(
        kappa < 1e-12, DegenerateGeometryError,
        f"Cyclopean ray predicts the {eye} epipole: epipolar direction undefined", kappa)
    return ParallaxDecomposition(predicted, kappa_vec / kappa[..., None], kappa, lam, mu, gaze.rho, eye)


@np.errstate(over="ignore", invalid="ignore")
def reference_synthesize_correspondence(gaze: GazeState, p_c, s) -> Correspondences:
    """``synthesize_correspondence`` as both ``reference_decompose`` eyes, then both parallaxes."""
    s = np.asarray(s, dtype=float)
    depth = reference_mark_failures(gaze.rho + s <= 0.0, BehindEyeError,
                                    "Cyclopean depth rho + s is not positive", s)
    p_c = reference_normalize_point(p_c)
    pair = [reference_decompose(gaze, p_c, eye) for eye in ("left", "right")]
    images = []
    for dec in pair:
        denom = dec.lam * (gaze.rho + depth) + dec.mu
        denom = reference_mark_failures(denom <= 0.0, BehindEyeError,
                                        f"scene point lies behind the {dec.eye} eye", denom)
        t = dec.kappa * (depth / gaze.rho) / denom
        images.append(dec.predicted + t[..., None] * dec.direction)
    return Correspondences(*images, p_c=p_c, s=s)


def reference_r_factor(correspondences: Correspondences) -> np.ndarray:
    """``_r_factor`` from both images stacked and normalized together."""
    q = reference_normalize_point(np.stack([correspondences.q_l, correspondences.q_r], axis=1))
    if np.isnan(q).any():
        raise PointAtInfinityError("cannot normalize an image point at infinity")
    (xl, xr), (yl, yr) = q[..., 0].T, q[..., 1].T
    features = np.column_stack([xl * yr, -xr * yl, yl, -yr]) / np.sqrt(2.0)
    return np.linalg.qr(features, mode="r")


def _reference_holds_a_boolean(rows: list, key: str, values: np.ndarray) -> bool:
    """Whether a boolean sits among the numbers under ``key``: numpy's inferred
    dtype promotes one to exactly 0 or 1, so each component that holds such a
    value is scanned by exact type."""
    suspect = (values == 0.0) | (values == 1.0)
    if values.ndim == 1:
        return suspect.any() and bool in set(map(type, (row[key] for row in rows)))
    return any(bool in set(map(type, (row[key][j] for row in rows)))
               for j in np.flatnonzero(suspect.any(axis=0)).tolist())


def reference_numbers(rows: list, key: str, width: int) -> np.ndarray:
    """``records._numbers`` through numpy's inferred dtype and a boolean rescan.

    The one difference from the exact-type reader: numpy infers an object
    dtype for an integer outside [-2**63, 2**64), so such an integer is
    refused here even where a double holds it.
    """
    if not isinstance(rows, list):
        raise SchemaError(f"expected an array of rows holding {key!r}")
    shape = (len(rows), width) if width else (len(rows),)
    what = "3 finite numbers, the third nonzero" if width == 3 else "a finite number"
    try:
        values = np.array([row[key] for row in rows]) if rows else np.empty(shape)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise SchemaError(f"every {key!r} must be {what}") from err
    if (values.dtype.kind not in "fiu" or values.shape != shape
            or not np.isfinite(values).all() or width == 3 and not values[:, 2].all()
            or _reference_holds_a_boolean(rows, key, values)):
        raise SchemaError(f"every {key!r} must be {what}")
    return values.astype(float, copy=False)


#: (key, value, key removed from the row, whether the gaze header is removed):
#: a malformed truth field in a row, or a file, where it counts for nothing
TRUTH_PROBES = {
    "p_c-without-s": ("p_c", "garbage", "s", False),
    "s-string-without-p_c": ("s", "x", "p_c", False),
    "s-boolean-without-p_c": ("s", True, "p_c", False),
    "p_c-without-gaze": ("p_c", [1, 2], None, True),
}


def break_truth(data: dict, probe: str) -> dict:
    """A correspondence file's dict with the TRUTH_PROBES edit ``probe`` in row 3."""
    key, value, removed, headless = TRUTH_PROBES[probe]
    row = data["records"][3]
    row[key] = value
    if removed is not None:
        del row[removed]
    if headless:
        del data["gaze"]
    return data
