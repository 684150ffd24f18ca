"""Symmetric Cyclopean parallax model of binocular disparity.

Depth is carried relative to the fixation plane: the plane through the
fixation point orthogonal to the Cyclopean gaze direction. A scene point
in Cyclopean direction ``p_c`` at signed plane distance ``s`` projects to

    q = p + t(s) d

in each image, where ``p`` is the projection the point would have if it
lay in the plane, ``d`` is a unit vector along the epipolar direction
(zero third component), and the scalar parallax

    t(s) = kappa (s / rho) / (lam (rho + s) + mu)

is a 1-d projective (Mobius) function of ``s``. All image points in this
module are normalized to third component 1; homogeneous scale freedom
lives in :mod:`cyclovision.geometry` and :mod:`cyclovision.epipolar`.

Every formula broadcasts over a leading axis: rays and points are (3,)
or (N, 3), depths and parallaxes scalars or (N,), and a correspondence
set is one :class:`Correspondences` of such arrays. A batch marks the
rows that fail (behind an eye, at the epipole, at infinity) with NaN and
goes on; a single ray raises the typed error instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cyclovision.epipolar import epipoles
from cyclovision.errors import (
    BehindEyeError,
    DegenerateGeometryError,
    PointAtInfinityError,
)
from cyclovision.gaze import (
    BASELINE,
    GazeState,
    direction_from_angles,
    eye_azimuths,
    eye_poses,
)
from cyclovision.geometry import (
    HomogPoint2,
    inner,
    mark_failures,
    normalize_in_front,
    normalize_point,
    rot_y,
    transform,
)


@dataclass(eq=False)
class Correspondences:
    """Left/right images of N scene points, optionally with their truth.

    ``q_l`` and ``q_r`` are (N, 3) homogeneous points of one shape, or (3,)
    for a single correspondence; any other shapes raise ``ValueError``.
    Synthesis gives them third component 1; a parsed file keeps whatever
    third component it holds, and every consumer normalizes them first
    (``normalize_point`` decides a point at infinity). The truth is ``p_c``
    (N, 3) and ``s`` (N,), the generating Cyclopean ray and plane depth,
    given together or not at all (half a truth, or one whose shapes do not
    match the points', raises ``ValueError``); it is NaN in the rows where
    it is unknown. Indexing selects rows as numpy does (a slice shares
    memory); a single correspondence has (3,) points, a scalar depth and no
    ``len()`` (Python's ``TypeError``). Each field may be any array-like of
    integers or floats and is held as a float array (a float64 array as
    itself); one of strings, bools, None or other objects raises
    ``TypeError`` naming the field.
    """

    q_l: np.ndarray
    q_r: np.ndarray
    p_c: np.ndarray | None = None
    s: np.ndarray | None = None

    def __post_init__(self):
        for name in ("q_l", "q_r", "p_c", "s"):
            value = getattr(self, name)
            if value is not None:
                array = np.asarray(value)
                if array.dtype.kind not in "iuf":
                    raise TypeError(f"{name} must hold numbers, got dtype {array.dtype}")
                setattr(self, name, array.astype(float, copy=False))
        shape = self.q_l.shape
        if shape != self.q_r.shape or shape[-1:] != (3,) or len(shape) > 2:
            raise ValueError(f"q_l and q_r must share one shape, (3,) or (N, 3), "
                             f"got {shape} and {self.q_r.shape}")
        if (self.p_c is None) != (self.s is None):
            raise ValueError("the truth p_c and s must be given together or not at all")
        if self.s is None:
            self.p_c = np.full(shape, np.nan)
            self.s = np.full(shape[:-1], np.nan)
        elif self.p_c.shape != shape or self.s.shape != shape[:-1]:
            raise ValueError(f"the truth p_c and s must have shapes {shape} and {shape[:-1]}, "
                             f"got {self.p_c.shape} and {self.s.shape}")

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, rows) -> "Correspondences":
        return Correspondences(self.q_l[rows], self.q_r[rows], self.p_c[rows], self.s[rows])


@dataclass(frozen=True, eq=False)
class ParallaxDecomposition:
    """Per-eye ingredients of the parallax model for Cyclopean rays.

    ``predicted`` is the image of the ray's intersection with the fixation
    plane; ``direction`` the unit epipolar direction with exactly zero
    third component; ``kappa`` its normalizing length. ``lam`` and ``mu``
    relate eye depths to Cyclopean depths affinely: z_eye = lam z_c + mu.
    All but ``mu``, ``eye`` and ``rho``, the gaze's range, have the rays' leading shape.
    """

    predicted: HomogPoint2
    direction: HomogPoint2
    kappa: np.ndarray
    lam: np.ndarray
    mu: float
    rho: float
    eye: str


@np.errstate(over="ignore", invalid="ignore")  # rows that overflow come out NaN
def decompose(
    gaze: GazeState, p_c: HomogPoint2
) -> tuple[ParallaxDecomposition, ParallaxDecomposition]:
    """Left and right parallax decompositions of the Cyclopean rays p_c.

    In each eye the predicted point is the normalized rho R_eye R^T p_c + e/2,
    where e/2, half the eye's epipole, is the image of the Cyclopean point in
    that eye. The epipolar direction is (mu p - e/2) / kappa rather than
    p - e/(2 mu), because mu vanishes whenever the eye looks straight
    ahead; the difference of third components cancels, so d always lies in
    the image plane. A single ray raises the left eye's error before the
    right eye's.
    """
    p_c = normalize_point(p_c)
    az = eye_azimuths(gaze)
    epi = epipoles(az)
    pair = []
    for eye, beta_eye, e in (("left", az.beta_l, epi.e_l), ("right", az.beta_r, epi.e_r)):
        e_half = 0.5 * e
        relative = rot_y(beta_eye - gaze.beta)  # R_eye R^T, elevation cancels
        u = gaze.rho * transform(relative, p_c) + e_half
        predicted, _ = normalize_in_front(u, f"predicted point lies behind the {eye} eye")
        lam = p_c[..., 0] * relative[2, 0] + relative[0, 0]  # sin, cos of the eye's turn
        mu = float(e_half[2])
        kappa_vec = mu * predicted - e_half
        kappa = np.sqrt(inner(kappa_vec, kappa_vec))
        kappa = mark_failures(
            kappa < 1e-12, DegenerateGeometryError,
            f"Cyclopean ray predicts the {eye} epipole: epipolar direction undefined", kappa,
        )
        pair.append(ParallaxDecomposition(
            predicted, kappa_vec / kappa[..., None], kappa, lam, mu, gaze.rho, eye))
    return tuple(pair)


@np.errstate(over="ignore", invalid="ignore")  # rows that overflow come out NaN
def parallax(dec: ParallaxDecomposition, s):
    """Scalar parallax t(s) = kappa (s/rho) / (lam (rho + s) + mu).

    The denominator is the scene point's depth along this eye's axis and
    must be positive.
    """
    denom = dec.lam * (dec.rho + s) + dec.mu
    denom = mark_failures(denom <= 0.0, BehindEyeError,
                          f"scene point lies behind the {dec.eye} eye", denom)
    return dec.kappa * (s / dec.rho) / denom


@np.errstate(over="ignore", invalid="ignore")  # rows that overflow come out NaN
def recover_depth(dec: ParallaxDecomposition, t):
    """Invert the parallax map: s = t rho (lam rho + mu) / (kappa - t lam rho)."""
    denom = dec.kappa - t * dec.lam * dec.rho
    denom = mark_failures(
        np.abs(denom) <= 1e-15 * (dec.kappa + np.abs(t * dec.lam * dec.rho)),
        PointAtInfinityError, "parallax corresponds to a point at infinite depth", denom,
    )
    return t * dec.rho * (dec.lam * dec.rho + dec.mu) / denom


def project_parallax_scalar(dec: ParallaxDecomposition, q_observed: HomogPoint2):
    """Parallax scalar of observed points, plus their off-epipolar residual.

    Returns (t, perpendicular): t is the least-squares projection of
    q - predicted onto the epipolar direction, and perpendicular is the
    length of the remainder, which is zero for noiseless observations and
    pure noise under the model otherwise.
    """
    offset = normalize_point(q_observed) - dec.predicted
    t = inner(dec.direction, offset)
    remainder = offset - t[..., None] * dec.direction
    perpendicular = np.sqrt(inner(remainder, remainder))
    return t, perpendicular


@np.errstate(over="ignore", invalid="ignore")  # rows that overflow come out NaN
def synthesize_correspondence(gaze: GazeState, p_c: HomogPoint2, s) -> Correspondences:
    """Left and right images of the scene points at rays p_c, plane depths s.

    This is the parallax model run forward: both points equal the direct
    pinhole projections of z_c R^T p_c, which the acceptance suite checks
    against projection. ``simulate.synthesize_scene`` does not call it; it
    projects its scene points through the eye poses. The truth of the
    result is (p_c, s); a scalar s is the depth of every ray.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim == 0:
        s = np.full(np.shape(p_c)[:-1], s)
    depth = mark_failures(gaze.rho + s <= 0.0, BehindEyeError,
                          "Cyclopean depth rho + s is not positive", s)
    p_c = normalize_point(p_c)
    images = [dec.predicted + parallax(dec, depth)[..., None] * dec.direction
              for dec in decompose(gaze, p_c)]
    return Correspondences(*images, p_c=p_c, s=s)


def plane_homography(gaze: GazeState) -> np.ndarray:
    """Homography induced by the fixation plane, mapping p_l to p_r.

    H = R_r (I - b v^T / w_l) R_l^T with w_l the perpendicular distance
    from the left optical centre to the plane. Composed with the right
    parallax term it reproduces the plane-plus-parallax form of q_r.
    """
    poses = eye_poses(gaze)
    v = direction_from_angles(gaze.alpha, gaze.beta)
    w_l = gaze.rho - float(v @ poses.left.centre)
    if w_l <= 0.0:
        raise BehindEyeError("fixation plane does not pass in front of the left eye")
    return (
        poses.right.rotation
        @ (np.eye(3) - np.outer(BASELINE, v) / w_l)
        @ poses.left.rotation.T
    )
