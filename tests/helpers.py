"""Shared test utilities: random gaze sampling, projective equality, the
inverse of vergence and version, the midline's image points, the projection
oracle, the brute-force grid objective and the reference formulations of the
per-call fast paths."""

from __future__ import annotations

import numpy as np

from cyclovision.disparity import Correspondences, ParallaxDecomposition
from cyclovision.epipolar import epipoles
from cyclovision.errors import (
    BehindEyeError,
    DegenerateGeometryError,
    DegenerateInputError,
    PointAtInfinityError,
    SchemaError,
)
from cyclovision.estimation import (
    GRID_DELTA_MAX,
    GRID_EPSILON_MAX,
    GRID_SIZE,
    _r_factor,
)
from cyclovision.gaze import (
    EYE_CENTRES,
    EyeAzimuths,
    GazeState,
    VergenceVersion,
    eye_azimuths,
    project,
)
from cyclovision.geometry import (
    _DEGENERATE_TOL,
    inner,
    normalize_point,
    rot_x,
    rot_y,
    transform,
)
from cyclovision.horopter import MidlineHoropter
from cyclovision.simulate import SceneSpec, default_region

#: tolerance for projective equality after normalizing by the largest entry
PROJECTIVE_TOL = 1e-9

#: values that are not integers: floats, even integral ones, bools, a string and None
NOT_INTEGERS = [2.5, 1.0, True, False, np.float64(3.0), np.bool_(True), "3", None]


def random_gaze(rng, beta=(-0.8, 0.8), rho=(0.8, 50.0), alpha=None) -> GazeState:
    """Draw a valid gaze; alpha is zero unless a range is given."""
    return GazeState(
        beta=float(rng.uniform(*beta)),
        rho=float(rng.uniform(*rho)),
        alpha=float(rng.uniform(*alpha)) if alpha is not None else 0.0,
    )


def proportional_form(a: np.ndarray) -> np.ndarray:
    """Canonical representative of a homogeneous array (point, line or matrix).

    Divides by the largest-magnitude entry and fixes the overall sign so
    that the first entry above noise level, in row-major order, is positive.
    """
    a = np.asarray(a, dtype=float)
    m = np.abs(a).max()
    if m == 0.0:
        raise DegenerateInputError("zero array has no projective representative")
    a = a / m
    flat = a.ravel()
    first = flat[np.abs(flat) > _DEGENERATE_TOL][0]
    return a if first > 0 else -a


def projectively_equal(a: np.ndarray, b: np.ndarray, tol: float = PROJECTIVE_TOL) -> bool:
    """Equality of homogeneous arrays up to a nonzero common scale, of either sign:
    ``proportional_form``'s sign flips where the first entry straddles its threshold."""
    try:
        a, b = proportional_form(a), proportional_form(b)
    except DegenerateInputError:
        return False
    return bool(min(np.abs(a - b).max(), np.abs(a + b).max()) <= tol)


def azimuths_from_vergence_version(vv: VergenceVersion) -> EyeAzimuths:
    """Inverse of ``vergence_version``: beta_l = epsilon + delta/2, beta_r = epsilon - delta/2."""
    return EyeAzimuths(vv.epsilon + 0.5 * vv.delta, vv.epsilon - 0.5 * vv.delta)


def midline_image_point(h: MidlineHoropter, y: float) -> np.ndarray:
    """Image of the midline point at height y, identical in both eyes."""
    return h.image_base + np.array([0.0, y, 0.0])


def project_both(gaze: GazeState, scene_point) -> tuple[np.ndarray, np.ndarray]:
    """Left and right normalized pinhole images of a scene point.

    This is the brute-force oracle: rotate-and-translate projection only,
    independent of the parallax and epipolar constructions it validates.
    """
    left, right, _ = project(gaze, scene_point)
    return normalize_point(left), normalize_point(right)


def midpoint_oracle(gaze: GazeState, q_l, q_r) -> tuple[np.ndarray, float, float]:
    """Head-frame midpoint of the common perpendicular of one pair's back-projected
    rays, with the rays' parameters u and v at its ends.

    The other oracle: each ray leaves its eye's centre in ``EYE_CENTRES`` along
    R^T q, and c_l + u d_l - (c_r + v d_r) is minimized by ``np.linalg.lstsq``,
    with no frame change, closed form or normal equations.
    """
    (c_l, c_r, _), (r_l, r_r, _) = EYE_CENTRES, gaze.rotations
    d_l = r_l.T @ normalize_point(q_l)
    d_r = r_r.T @ normalize_point(q_r)
    (u, v), *_ = np.linalg.lstsq(np.column_stack([d_l, -d_r]), c_r - c_l, rcond=None)
    near_l, near_r = c_l + u * d_l, c_r + v * d_r
    return 0.5 * (near_l + near_r), float(u), float(v)


def table_rows(columns: dict[str, np.ndarray]) -> list[dict]:
    """One record per row from (N,) and (N, k) columns, keys in column order.

    A row leaves out a key whose value there is NaN (a failed or unknown
    value). This is the per-row reference that the columnar
    ``records.Table`` writer is checked against.
    """
    present = [~np.isnan(c).all(axis=tuple(range(1, c.ndim))) for c in columns.values()]
    return [
        {key: value for key, value, keep in zip(columns, row, keeps) if keep}
        for row, keeps in zip(zip(*(c.tolist() for c in columns.values())),
                              zip(*(p.tolist() for p in present)))
    ]


def grid_objective(
    correspondences: Correspondences,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean squared residual over the (vergence, version) seed grid, the long way.

    Returns (deltas, epsilons, mse) with mse indexed [delta, epsilon];
    vergence spans (0, GRID_DELTA_MAX] and version [-GRID_EPSILON_MAX,
    GRID_EPSILON_MAX] at GRID_SIZE x GRID_SIZE resolution. Cell [i, j] is
    the estimator's azimuth pair epsilon_j +- delta_i / 2, and its value is
    ||R c||^2 / N from that pair's own c = (sin b_l, sin b_r, cos b_r, cos b_l):
    the brute-force reference for the separable seed of ``grid_init``.
    """
    deltas = GRID_DELTA_MAX * np.arange(1, GRID_SIZE + 1) / GRID_SIZE
    epsilons = np.linspace(-GRID_EPSILON_MAX, GRID_EPSILON_MAX, GRID_SIZE)
    dd, ee = np.meshgrid(deltas, epsilons, indexing="ij")
    beta_l, beta_r = ee + 0.5 * dd, ee - 0.5 * dd
    c = np.stack([np.sin(beta_l), np.sin(beta_r), np.cos(beta_r), np.cos(beta_l)], axis=-1)
    r_factor = _r_factor(correspondences)
    mse = np.sum(np.square(c @ r_factor.T), axis=-1) / len(correspondences)
    return deltas, epsilons, mse


# --------------------------------------------------------------------------
# Reference formulations. Each computes what a library function computes,
# the long way: every row through the failure pass and the division, each
# eye's decomposition on its own with its own sine and cosine. The library's
# shortcuts must agree with them bit for bit, NaN rows included.


def reference_eye_rotations(gaze: GazeState) -> np.ndarray:
    """``GazeState.rotations`` built one eye at a time, from each eye's own azimuth."""
    az = eye_azimuths(gaze)
    tilt = rot_x(-gaze.alpha)
    return np.array([rot_y(az.beta_l) @ tilt, rot_y(az.beta_r) @ tilt, rot_y(gaze.beta) @ tilt])


def reference_project(gaze: GazeState, points) -> np.ndarray:
    """``project``'s images one eye at a time: one ``transform`` per pose."""
    return np.stack([transform(gaze.rotations[eye], points - EYE_CENTRES[eye])
                     for eye in range(3)])


def reference_box(gaze: GazeState, spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    """The random box drawn by ``rng.uniform`` on the region's (low, high) pairs."""
    region = spec.region if spec.region is not None else default_region(gaze)
    lows, highs = np.array(region, dtype=float).T
    return rng.uniform(lows, highs, (spec.count, 3))


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
def reference_decompose(gaze: GazeState, p_c, eye: str) -> ParallaxDecomposition:
    """One eye of ``decompose``'s pair, with its own sin and cos for lam."""
    p_c = reference_normalize_point(p_c)
    az = eye_azimuths(gaze)
    epi = epipoles(az)
    beta_eye, e_half = (az.beta_l, 0.5 * epi.e_l) if eye == "left" else (az.beta_r, 0.5 * epi.e_r)
    predicted = reference_normalize_point(
        gaze.rho * transform(rot_y(beta_eye - gaze.beta), p_c) + e_half)
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
    depth = reference_mark_failures(gaze.rho + s <= 1e-12, BehindEyeError,
                                    "scene point lies behind the Cyclopean eye", s)
    p_c = reference_normalize_point(p_c)
    pair = [reference_decompose(gaze, p_c, eye) for eye in ("left", "right")]
    images = []
    for dec in pair:
        denom = dec.lam * (gaze.rho + depth) + dec.mu
        denom = reference_mark_failures(denom <= 1e-12, BehindEyeError,
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
    what = f"{width} finite numbers" if width else "a finite number"
    try:
        values = np.array([row[key] for row in rows]) if rows else np.empty(shape)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise SchemaError(f"every {key!r} must be {what}") from err
    if (values.dtype.kind not in "fiu" or values.shape != shape
            or not np.isfinite(values).all()
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
