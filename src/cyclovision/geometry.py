"""Homogeneous 2-d image geometry and elementary 3-d rotations.

Image points and lines are 3-component numpy arrays of homogeneous
coordinates; two triples related by a nonzero scale denote the same
point or line. Scene vectors are plain 3-component arrays measured in
units of the inter-ocular baseline. Every function here is pure.
"""

from __future__ import annotations

import numpy as np

from cyclovision.errors import DegenerateInputError, PointAtInfinityError

# Type aliases carry shape and meaning only; there is no runtime wrapper.
Vec3 = np.ndarray         # shape (3,), finite Euclidean scene vector
HomogPoint2 = np.ndarray  # shape (3,), image point up to scale
HomogLine2 = np.ndarray   # shape (3,), image line up to scale
Rot3 = np.ndarray         # shape (3, 3), orthonormal with det +1

#: tolerance for projective equality after normalizing by the largest entry
PROJECTIVE_TOL = 1e-9

_DEGENERATE_TOL = 1e-12


def cross_matrix(w: Vec3) -> np.ndarray:
    """Antisymmetric matrix M with M @ p == cross(w, p) for every p."""
    x, y, z = np.asarray(w, dtype=float)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def join(p: HomogPoint2, q: HomogPoint2) -> HomogLine2:
    """Line through two distinct image points.

    Raises DegenerateInputError if the points coincide up to scale, so a
    zero triple never leaks into downstream incidence tests.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = np.cross(p, q)
    if np.abs(n).max() <= _DEGENERATE_TOL * np.abs(p).max() * np.abs(q).max():
        raise DegenerateInputError("join of coincident points is undefined")
    return n


def meet(m: HomogLine2, n: HomogLine2) -> HomogPoint2:
    """Intersection point of two distinct image lines.

    Parallel distinct lines meet at a point at infinity (third component
    zero); identical lines raise DegenerateInputError.
    """
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    q = np.cross(m, n)
    if np.abs(q).max() <= _DEGENERATE_TOL * np.abs(m).max() * np.abs(n).max():
        raise DegenerateInputError("meet of coincident lines is undefined")
    return q


def rot_y(angle: float) -> Rot3:
    """Rotation about the y axis (azimuth turn of an eye)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot_x(angle: float) -> Rot3:
    """Rotation about the x axis (elevation of the visual plane)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def transform(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``matrix @ p`` for each point p in (..., 3), rounded as for one point alone."""
    return (matrix @ points[..., None])[..., 0]


def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a @ b`` of (..., 3) arrays, rounded as for one row alone."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def mark_failures(bad, error: type[Exception], message: str, values):
    """NaN the rows of ``values`` where ``bad`` holds, or raise ``error(message)``.

    A single point or ray (0-d ``bad``) raises; a batch marks its failing
    rows, and every value computed from a marked row reads NaN in turn.
    """
    if np.ndim(bad) == 0:
        if bad:
            raise error(message)
        return values
    return np.where(bad[..., None] if np.ndim(values) > np.ndim(bad) else bad, np.nan, values)


def normalize_point(p: HomogPoint2) -> HomogPoint2:
    """Scale homogeneous points (..., 3) so that the third component is exactly 1.

    A point at infinity raises PointAtInfinityError, or reads NaN in a batch.
    """
    p = np.asarray(p, dtype=float)
    p = mark_failures(np.abs(p[..., 2]) <= _DEGENERATE_TOL * np.abs(p).max(axis=-1),
                      PointAtInfinityError, "cannot normalize a point at infinity", p)
    return p / p[..., 2:]


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
    """Equality of homogeneous arrays up to a nonzero common scale."""
    try:
        return bool(np.abs(proportional_form(a) - proportional_form(b)).max() <= tol)
    except DegenerateInputError:
        return False
