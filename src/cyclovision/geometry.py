"""Homogeneous 2-d image geometry and elementary 3-d rotations.

Image points and lines are 3-component numpy arrays of homogeneous
coordinates; two triples related by a nonzero scale denote the same
point or line. Scene vectors are plain 3-component arrays measured in
units of the inter-ocular baseline. Every function here is pure.
"""

from __future__ import annotations

import numpy as np

from cyclovision.errors import BehindEyeError, DegenerateInputError, PointAtInfinityError

# Type aliases carry shape and meaning only; there is no runtime wrapper.
Vec3 = np.ndarray         # shape (3,), finite Euclidean scene vector
HomogPoint2 = np.ndarray  # shape (3,), image point up to scale
HomogLine2 = np.ndarray   # shape (3,), image line up to scale
Rot3 = np.ndarray         # shape (3, 3), orthonormal with det +1

_DEGENERATE_TOL = 1e-12


def cross_matrix(w: Vec3) -> np.ndarray:
    """Antisymmetric matrix M with M @ p == cross(w, p) for every p."""
    x, y, z = np.asarray(w, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _guarded_cross(a: np.ndarray, b: np.ndarray, message: str) -> np.ndarray:
    """cross(a, b), or DegenerateInputError(message) when a and b coincide up to scale."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.cross(a, b)
    if np.abs(c).max() <= _DEGENERATE_TOL * np.abs(a).max() * np.abs(b).max():
        raise DegenerateInputError(message)
    return c


def join(p: HomogPoint2, q: HomogPoint2) -> HomogLine2:
    """Line through two distinct image points.

    Raises DegenerateInputError if the points coincide up to scale, so a
    zero triple never leaks into downstream incidence tests.
    """
    return _guarded_cross(p, q, "join of coincident points is undefined")


def meet(m: HomogLine2, n: HomogLine2) -> HomogPoint2:
    """Intersection point of two distinct image lines.

    Parallel distinct lines meet at a point at infinity (third component
    zero); identical lines raise DegenerateInputError.
    """
    return _guarded_cross(m, n, "meet of coincident lines is undefined")


def rot_y(angle: float) -> Rot3:
    """Rotation about the y axis (azimuth turn of an eye)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot_x(angle: float) -> Rot3:
    """Rotation about the x axis (elevation of the visual plane)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def transform(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``matrix @ p`` for each point p in (..., 3). Each row equals its own one-point
    call, not a left-to-right sum: its last bits are the host's OpenBLAS kernel's."""
    return (matrix @ points[..., None])[..., 0]


def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a @ b`` of (..., 3) arrays. Each row equals its own one-row call,
    not a left-to-right sum: its last bits are the host's OpenBLAS kernel's."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def mark_failures(bad, error: type[Exception], message: str, values):
    """NaN the rows of ``values`` where ``bad`` holds, or raise ``error(message)``.

    A single point or ray (0-d ``bad``) raises; a batch marks its failing
    rows, and every value computed from a marked row reads NaN in turn. A
    batch without a failing row returns ``values`` itself.
    """
    if np.ndim(bad) == 0:
        if bad:
            raise error(message)
        return values
    if not bad.any():
        return values
    return np.where(bad[..., None] if np.ndim(values) > np.ndim(bad) else bad, np.nan, values)


def normalize_point(p: HomogPoint2) -> HomogPoint2:
    """Scale homogeneous points (..., 3) so that the third component is exactly 1.

    A point at infinity raises PointAtInfinityError, or reads NaN in a batch.
    Every call returns a new array.
    """
    p = np.asarray(p, dtype=float)
    p = mark_failures(np.abs(p[..., 2]) <= _DEGENERATE_TOL * np.abs(p).max(axis=-1),
                      PointAtInfinityError, "cannot normalize a point at infinity", p)
    return p / p[..., 2:]


def in_front(depth, message: str, values):
    """The one visibility rule: a point is in front of an eye at a depth along its axis
    above 1e-12. Other rows of a batch's ``values`` read NaN; one point raises BehindEyeError."""
    return mark_failures(depth <= 1e-12, BehindEyeError, message, values)


def normalize_in_front(u: HomogPoint2, message: str) -> tuple[HomogPoint2, np.ndarray]:
    """Pinhole images u (..., 3) scaled to third component 1, and their depths u[..., 2],
    each kept by ``in_front``."""
    u = in_front(u[..., 2], message, u)
    return u / u[..., 2:], u[..., 2]
