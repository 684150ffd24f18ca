"""Oculomotor parameterization of binocular fixation.

Conventions used throughout the package:

- Scene coordinates are head-centric with origin at the Cyclopean point,
  the midpoint of the inter-ocular axis. Lengths are in units of the
  inter-ocular separation, so the optical centres sit at (-1/2, 0, 0)
  and (+1/2, 0, 0).
- The y axis points downward. Elevation ``alpha`` is positive for
  fixation points above the horizontal plane (y < 0); azimuth ``beta``
  is positive to the right (x > 0). Both lie in [-pi/2, pi/2], covering
  the forward hemifield z >= 0.
- ``rho`` is the range: the distance of the fixation point from the
  origin, in baseline units.
- Angles are radians everywhere; degrees exist only at the CLI boundary.
- Cyclo-rotation of each eye about its own line of sight is zero, so a
  binocular fixation has exactly the three degrees of freedom
  (alpha, beta, rho).

Eye orientations are world-to-eye maps: a scene point ``q`` appears in
the left image at ``R_l @ (q - c_l)``, read as homogeneous coordinates.
For elevation ``alpha`` each rotation is ``rot_y(azimuth) @ rot_x(-alpha)``;
the x-rotation maps the tilted visual plane back to y = 0, and with
``alpha = 0`` the poses reduce to pure azimuth turns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from cyclovision.errors import DegenerateGeometryError
from cyclovision.geometry import HomogPoint2, Rot3, Vec3, rot_x, rot_y, transform

#: smallest admissible fixation range, in baseline units; closer fixation
#: points fall inside the immediate inter-ocular region and are rejected
MIN_RANGE = 0.75

#: vergence below this is treated as parallel visual axes
PARALLEL_GAZE_TOL = 1e-12

_HALF_PI = np.pi / 2

#: optical centres of the left, right and Cyclopean eyes, as ``GazeState.rotations``;
#: each eye's centre is a read-only row, shared by every pose
EYE_CENTRES = np.array([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
EYE_CENTRES.flags.writeable = False
LEFT_CENTRE, RIGHT_CENTRE, CYCLOPEAN_CENTRE = EYE_CENTRES

#: baseline vector from the left to the right optical centre (unit length), read-only
BASELINE = RIGHT_CENTRE - LEFT_CENTRE
BASELINE.flags.writeable = False


def _is_number(value) -> bool:
    """A Python float or int but not a bool, or a numpy scalar or 0-d array of kind i, u or f."""
    return (isinstance(value, (float, int)) and not isinstance(value, bool)
            or getattr(value, "dtype", np.dtype("O")).kind in "iuf" and np.ndim(value) == 0)


def _integer(name: str, value) -> None:
    """TypeError "``name`` must be an integer" unless a ``numbers.Integral`` but not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _all_finite(*values) -> bool:
    """``math.isfinite`` of every value, reading an int too large for a float as infinite."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def _finite_numbers(what: str, **values) -> None:
    """TypeError "``name`` must be a number" unless ``_is_number(value)``;
    ValueError "``what`` must be finite" unless ``_all_finite``."""
    for name, value in values.items():
        if not _is_number(value):
            raise TypeError(f"{name} must be a number, got {value!r}")
    if not _all_finite(*values.values()):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class GazeState:
    """Helmholtz coordinates of the fixation point: azimuth, range, elevation."""

    beta: float
    rho: float
    alpha: float = 0.0

    def __post_init__(self):
        _finite_numbers("gaze parameters", beta=self.beta, rho=self.rho, alpha=self.alpha)
        if self.rho < MIN_RANGE:
            raise ValueError(
                f"rho must be at least {MIN_RANGE} baseline units, got {self.rho}"
            )
        if abs(self.beta) > _HALF_PI or abs(self.alpha) > _HALF_PI:
            raise ValueError("alpha and beta must lie in [-pi/2, pi/2]")

    @cached_property
    def rotations(self) -> np.ndarray:
        """World-to-eye rotations of the left, right and Cyclopean eyes, (3, 3, 3),
        built on first use and held read-only by this instance; ``eye_poses``
        returns views of them. Raises DegenerateGeometryError at |beta| = pi/2."""
        az = eye_azimuths(self)
        tilt = rot_x(-self.alpha)
        rotations = np.stack([rot_y(azimuth) @ tilt
                              for azimuth in (az.beta_l, az.beta_r, self.beta)])
        rotations.flags.writeable = False
        return rotations


@dataclass(frozen=True)
class EyeAzimuths:
    """Gaze azimuths of the two eyes, with beta_r <= beta_l."""

    beta_l: float
    beta_r: float

    def __post_init__(self):
        _finite_numbers("azimuths", beta_l=self.beta_l, beta_r=self.beta_r)
        if abs(self.beta_l) >= _HALF_PI or abs(self.beta_r) >= _HALF_PI:
            raise ValueError("azimuths must lie strictly inside (-pi/2, pi/2)")
        if self.beta_r > self.beta_l:
            raise ValueError(
                f"beta_r must not exceed beta_l, got {self.beta_r} > {self.beta_l}"
            )


@dataclass(frozen=True)
class VergenceVersion:
    """Vergence (angle between the lines of sight) and version (mean azimuth)."""

    delta: float
    epsilon: float

    def __post_init__(self):
        _finite_numbers("vergence and version", delta=self.delta, epsilon=self.epsilon)
        if not (0.0 <= self.delta <= np.pi):
            raise ValueError(f"vergence must lie in [0, pi], got {self.delta}")


@dataclass(frozen=True, eq=False)
class EyePose:
    """World-to-eye rotation (..., 3, 3) plus optical centre (..., 3) of one eye or a stack."""

    rotation: Rot3
    centre: Vec3


class BinocularPoses(NamedTuple):
    left: EyePose
    right: EyePose
    cyclopean: EyePose


@dataclass(frozen=True, eq=False)
class ViethMullerCircle:
    """Iso-vergence circle through both optical centres, in the visual plane.

    Centred at (0, 0, zeta) with radius eta; ``back_point`` is the point
    (0, 0, zeta - eta) on the backward arc, from which the fixation point
    subtends the version angle.
    """

    zeta: float
    eta: float
    back_point: Vec3


def direction_from_angles(alpha: float, beta: float) -> Vec3:
    """Unit gaze direction (sin b, -sin a cos b, cos a cos b)."""
    cb = np.cos(beta)
    return np.array([np.sin(beta), -np.sin(alpha) * cb, np.cos(alpha) * cb])


def fixation_point(gaze: GazeState) -> Vec3:
    """Scene coordinates of the fixation point, rho times the gaze direction."""
    return gaze.rho * direction_from_angles(gaze.alpha, gaze.beta)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing norm is inf: GazeState refuses it
def helmholtz_from_point(p: Vec3) -> GazeState:
    """Helmholtz coordinates of a scene point in the forward hemifield.

    Inverts ``fixation_point``: tan(alpha) = -y/z and sin(beta) = x/rho.
    """
    p = np.asarray(p, dtype=float)
    rho = float(np.linalg.norm(p))
    if rho == 0.0:
        raise ValueError("fixation point at the Cyclopean origin has no direction")
    if p[2] < 0.0:
        raise ValueError("fixation point must lie in the forward hemifield (z >= 0)")
    alpha = float(np.arctan2(-p[1], p[2]))
    beta = float(np.arcsin(np.clip(p[0] / rho, -1.0, 1.0)))
    return GazeState(beta=beta, rho=rho, alpha=alpha)


def eye_azimuths(gaze: GazeState) -> EyeAzimuths:
    """Azimuths of the two eyes fixating the given point.

    tan(beta_l) = tan(beta) + sec(beta) / (2 rho) and likewise with a
    minus sign for the right eye. Raises DegenerateGeometryError at
    |beta| = pi/2, where they are unbounded.
    """
    cb = np.cos(gaze.beta)
    if cb <= 1e-12:
        raise DegenerateGeometryError("eye azimuths are unbounded at |beta| = pi/2")
    tb, half_sec = np.tan(gaze.beta), 1.0 / (2.0 * gaze.rho * cb)
    return EyeAzimuths(float(np.arctan(tb + half_sec)), float(np.arctan(tb - half_sec)))


def vergence_version(az: EyeAzimuths) -> VergenceVersion:
    """Vergence delta = beta_l - beta_r and version epsilon = (beta_l + beta_r) / 2."""
    return VergenceVersion(az.beta_l - az.beta_r, 0.5 * (az.beta_l + az.beta_r))


def gaze_from_azimuths(az: EyeAzimuths, alpha: float = 0.0) -> GazeState:
    """Recover (beta, rho) from the two eye azimuths.

    Inverts ``eye_azimuths``; raises DegenerateGeometryError when the
    axes are parallel and the range is unbounded.
    """
    if az.beta_l - az.beta_r < PARALLEL_GAZE_TOL:
        raise DegenerateGeometryError("parallel visual axes: fixation range is unbounded")
    tl, tr = np.tan(az.beta_l), np.tan(az.beta_r)
    beta = float(np.arctan(0.5 * (tl + tr)))
    rho = float(1.0 / (np.cos(beta) * (tl - tr)))
    return GazeState(beta=beta, rho=rho, alpha=alpha)


def eye_poses(gaze: GazeState) -> BinocularPoses:
    """Left, right and Cyclopean eye poses for a fixation, whose rotations and
    centres are read-only views of ``gaze.rotations`` and ``EYE_CENTRES``."""
    left, right, cyclopean = gaze.rotations
    return BinocularPoses(
        left=EyePose(left, LEFT_CENTRE),
        right=EyePose(right, RIGHT_CENTRE),
        cyclopean=EyePose(cyclopean, CYCLOPEAN_CENTRE),
    )


def project(pose: EyePose, point: Vec3) -> HomogPoint2:
    """Pinhole images of scene points (..., 3): R @ (q - c), as homogeneous coordinates.
    A stacked pose, rotation (..., 3, 3) and centre (..., 3), broadcasts against them."""
    return transform(pose.rotation, np.asarray(point, dtype=float) - pose.centre)


def vieth_muller(vv: VergenceVersion) -> ViethMullerCircle:
    """Circle of iso-vergence: centre (0, 0, cot(delta)/2), radius csc(delta)/2."""
    if vv.delta < PARALLEL_GAZE_TOL:
        raise DegenerateGeometryError(
            "zero vergence: the iso-vergence circle has unbounded radius"
        )
    sd, cd = np.sin(vv.delta), np.cos(vv.delta)
    zeta = 0.5 * cd / sd
    eta = 0.5 / sd
    return ViethMullerCircle(zeta=zeta, eta=eta, back_point=np.array([0.0, 0.0, zeta - eta]))
