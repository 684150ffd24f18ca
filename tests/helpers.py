"""Shared test utilities: random gaze sampling, the projection oracle and the grid objective."""

from __future__ import annotations

import numpy as np

from cyclovision.disparity import Correspondences
from cyclovision.estimation import (
    GRID_DELTA_MAX,
    GRID_EPSILON_MAX,
    GRID_SIZE,
    _grid,
    _r_factor,
)
from cyclovision.gaze import GazeState, eye_poses, project
from cyclovision.geometry import normalize_point


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
