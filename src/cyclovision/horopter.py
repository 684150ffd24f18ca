"""The horopter of a fixating system: scene points imaged identically by both eyes.

It has two components. The forward arc of the Vieth-Muller circle carries
points whose left and right images are projectively equal, and the midline,
the perpendicular to the visual plane through the top of that circle,
carries points whose full eye-frame coordinates coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyclovision.gaze import (
    GazeState,
    VergenceVersion,
    ViethMullerCircle,
    eye_azimuths,
    vergence_version,
    vieth_muller,
)
from cyclovision.geometry import HomogLine2, HomogPoint2, Vec3, rot_x

#: absolute membership tolerance, in scene units
HOROPTER_TOL = 1e-9

_FORWARD_TOL = 1e-12  # z == 0 (the optical centres) counts as forward


@dataclass(frozen=True, eq=False)
class MidlineHoropter:
    """Midline component in scene and (shared) image coordinates."""

    scene_base: Vec3        # intersection with the Vieth-Muller circle
    image_base: HomogPoint2  # common image of scene_base in both eyes
    image_line: HomogLine2   # vertical image line through every midline image


def vm_point(circle: ViethMullerCircle, theta) -> Vec3:
    """Points (eta sin t, 0, zeta + eta cos t) on the forward arc of the circle.

    theta = 0 is the top of the circle; a scalar theta gives one (3,)
    point, an array one row per angle. Parameters on the backward arc
    (z < 0) are rejected.
    """
    z = circle.zeta + circle.eta * np.cos(theta)
    if np.any(z < -_FORWARD_TOL):
        raise ValueError(f"theta={theta} lies on the backward arc (z < 0)")
    return np.stack([circle.eta * np.sin(theta), np.zeros_like(z), z], axis=-1)


def forward_arc_limit(circle: ViethMullerCircle) -> float:
    """Largest |theta| for which vm_point stays on the forward arc."""
    return float(np.arccos(np.clip(-circle.zeta / circle.eta, -1.0, 1.0)))


def midline(vv: VergenceVersion) -> MidlineHoropter:
    """Midline component for a given vergence and version.

    The scene base sits at (0, 0, zeta + eta); its common image is
    csc(delta/2)/2 * (-sin e, 0, cos e), and the image line (cos e, 0, sin e)
    is fixed by the version angle alone.
    """
    circle = vieth_muller(vv)
    se, ce = np.sin(vv.epsilon), np.cos(vv.epsilon)
    reach = 0.5 / np.sin(0.5 * vv.delta)  # distance from either eye to the base
    return MidlineHoropter(
        scene_base=np.array([0.0, 0.0, circle.zeta + circle.eta]),
        image_base=reach * np.array([-se, 0.0, ce]),
        image_line=np.array([ce, 0.0, se]),
    )


def horopter_component(q: Vec3, gaze: GazeState, tol: float = HOROPTER_TOL) -> str:
    """Which horopter component a scene point belongs to: 'circle', 'midline' or 'none'.

    The query point is first rotated into the visual-plane frame, so
    fixations with nonzero elevation are handled uniformly.
    """
    vv = vergence_version(eye_azimuths(gaze))
    circle = vieth_muller(vv)
    q0 = rot_x(-gaze.alpha) @ np.asarray(q, dtype=float)
    x, y, z = q0
    on_circle = (
        abs(y) <= tol
        and abs(x * x + (z - circle.zeta) ** 2 - circle.eta**2) <= tol
        and z >= -tol
    )
    if on_circle:
        return "circle"
    if abs(x) <= tol and abs(z - (circle.zeta + circle.eta)) <= tol:
        return "midline"
    return "none"
