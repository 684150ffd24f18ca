"""Epipolar geometry of the fixating system.

The Essential matrix is built three ways: as the product of cross-product
matrices of the epipoles and the midline image line, in closed form as
four entries read off the epipoles, and from the relative pose
R_r (b x) R_l^T. The three agree up to scale; the pose form serves as an
independent oracle for the other two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyclovision.errors import DegenerateGeometryError
from cyclovision.gaze import EyeAzimuths, EyePose
from cyclovision.geometry import (
    HomogLine2,
    HomogPoint2,
    cross_matrix,
    join,
    meet,
    normalize_point,
)

# A 3x3 homogeneous matrix of rank 2 whose two nonzero singular values
# are equal; represented as a plain array.
EssentialMatrix = np.ndarray


@dataclass(frozen=True, eq=False)
class Epipoles:
    """Each epipole is the image of the other eye's optical centre."""

    e_l: HomogPoint2
    e_r: HomogPoint2


def epipoles(az: EyeAzimuths) -> Epipoles:
    """Epipoles (cos b_l, 0, sin b_l) and (-cos b_r, 0, -sin b_r)."""
    return Epipoles(
        e_l=np.array([np.cos(az.beta_l), 0.0, np.sin(az.beta_l)]),
        e_r=np.array([-np.cos(az.beta_r), 0.0, -np.sin(az.beta_r)]),
    )


def essential_from_horopter(epi: Epipoles, a: HomogLine2) -> EssentialMatrix:
    """Essential matrix as (e_r x)(a x)(e_l x), a the midline image line."""
    return cross_matrix(epi.e_r) @ cross_matrix(np.asarray(a, dtype=float)) @ cross_matrix(epi.e_l)


def essential_closed_form(az: EyeAzimuths) -> EssentialMatrix:
    """Closed-form Essential matrix of a fixating system, read off the epipoles.

    Exactly four entries are nonzero:

        (1,2) -> e_r[2] = -sin(beta_r)   (2,1) -> e_l[2] = sin(beta_l)
        (2,3) -> -e_l[0] = -cos(beta_l)  (3,2) -> -e_r[0] = cos(beta_r)

    The Frobenius norm is sqrt(2) and the singular values are {1, 1, 0}
    for every fixation.
    """
    epi = epipoles(az)
    e = np.zeros((3, 3))
    e[0, 1] = epi.e_r[2]
    e[1, 0] = epi.e_l[2]
    e[1, 2] = -epi.e_l[0]
    e[2, 1] = -epi.e_r[0]
    return e


def essential_traditional(left: EyePose, right: EyePose) -> EssentialMatrix:
    """Essential matrix from the relative pose, R_r (b x) R_l^T.

    Not specific to fixation; used to cross-validate the other constructions.
    """
    b = right.centre - left.centre
    return right.rotation @ cross_matrix(b) @ left.rotation.T


def epipolar_line(E: EssentialMatrix, q: HomogPoint2) -> HomogLine2:
    """Line E q on which the correspondent of image point q must lie: the right
    image's line for E and a left point q_l, the left's for E^T and q_r."""
    q = np.asarray(q, dtype=float)
    u = E @ q
    if np.abs(u).max() <= 1e-12 * np.abs(E).max() * np.abs(q).max():
        raise DegenerateGeometryError("epipolar line undefined: point at the epipole")
    return u


def epipolar_residual(E: EssentialMatrix, q_l: HomogPoint2, q_r: HomogPoint2) -> float:
    """Normalized algebraic residual q_r^T E q_l.

    Both points are scaled to third component 1 and E to unit Frobenius
    norm, so magnitudes are comparable across gazes; the residual is zero
    exactly for true correspondences.
    """
    ql = normalize_point(q_l)
    qr = normalize_point(q_r)
    return float(qr @ (E / np.linalg.norm(E)) @ ql)


def construct_line_via_fixed_point(
    epi: Epipoles, a: HomogLine2, q_l: HomogPoint2
) -> HomogLine2:
    """Right epipolar line, ``epipolar_line(E, q_l)`` up to scale, built through the midline.

    Joins q_l to the left epipole, meets the result with the midline image
    line a (a fixed point, so its coordinates transfer unchanged to the
    right image), and joins with the right epipole.
    """
    u_l = join(epi.e_l, q_l)
    q_a = meet(np.asarray(a, dtype=float), u_l)
    return join(epi.e_r, q_a)
