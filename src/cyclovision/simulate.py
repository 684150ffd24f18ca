"""Synthetic scenes and correspondence generation for the simulation CLI.

A scene is drawn, projected and perturbed in one array pass into a
Correspondences set whose truth is each point's clean (p_c, s), the Cyclopean
image and depth less rho that the depth map recovers in the Cyclopean frame.
The images are pinhole projections through the left, right and Cyclopean
poses at once, kept in front of each eye by ``geometry.in_front``, not the
parallax model, which reproduces every kept row and is what the acceptance
suite checks against projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cyclovision.disparity import Correspondences
from cyclovision.gaze import (
    EYE_CENTRES,
    EyePose,
    GazeState,
    _floats,
    _integer,
    eye_azimuths,
    fixation_point,
    project,
    vergence_version,
    vieth_muller,
)
from cyclovision.geometry import normalize_in_front, rot_x, transform
from cyclovision.horopter import forward_arc_limit, vm_point

GENERATORS = ("random-box", "fixation-plane-patch", "horopter-samples")

#: half-extent of the random box, as a fraction of the fixation range
BOX_HALF_EXTENT = 0.4

#: half-width of the fixation-plane patch, in Cyclopean image units
PATCH_HALF_WIDTH = 0.3

#: fraction of the forward arc sampled by the horopter generator
ARC_MARGIN = 0.9

Region = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class SceneSpec:
    """What to synthesize: generator kind, size, noise and seeding.

    ``region`` bounds random-box points as ((x0, x1), (y0, y1), (z0, z1))
    in baseline units; None means a box centred on the fixation point. The
    other generators refuse a region, which they would ignore.
    ``sigma`` is the standard deviation of isotropic Gaussian noise added
    to the inhomogeneous image coordinates, independently per eye.
    """

    generator: str = "random-box"
    count: int = 50
    sigma: float = 0.0
    seed: int = 0
    region: Region | None = None

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}, expected one of {GENERATORS}")
        pairs = []
        if self.region is not None:
            if self.generator != "random-box":
                raise ValueError(f"region bounds random-box points only, not {self.generator}")
            try:
                pairs = [(low, high) for low, high in self.region]
            except (TypeError, ValueError):  # not an iterable of pairs
                pass
            if len(pairs) != 3:
                raise ValueError(f"region must be three (low, high) pairs, got {self.region!r}")
        _integer("count", self.count)
        _integer("seed", self.seed)
        _floats("sigma", sigma=self.sigma)
        bounds = [_floats("region bounds and their width", **{"region bound": b})["region bound"]
                  for pair in pairs for b in pair]
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for low, high in zip(bounds[::2], bounds[1::2]):
            if not low < high:
                raise ValueError(f"region bounds must increase, got ({low}, {high})")
            if not math.isfinite(high - low):
                raise ValueError(
                    f"region bounds and their width must be finite, got ({low}, {high})")


class SynthesisResult(NamedTuple):
    records: Correspondences
    skipped: int  # candidates not in front of all three eyes, or whose images overflow


def default_region(gaze: GazeState) -> Region:
    """Axis-aligned box centred on the fixation point, scaled with range."""
    half = BOX_HALF_EXTENT * gaze.rho
    box = tuple((c - half, c + half) for c in fixation_point(gaze).tolist())
    if not all(math.isfinite(bound) for pair in box for bound in pair):
        raise ValueError(f"rho {gaze.rho} is too large for the default region; give a region")
    return box


def _scene_candidates(gaze: GazeState, spec: SceneSpec, rng: np.random.Generator) -> tuple:
    """The generator's scene points, and their exact truth (p_c, s) or None: the
    fixation-plane patch draws rays p_c at s = 0 and the points rho R_c^T p_c."""
    if spec.generator == "random-box":
        region = spec.region if spec.region is not None else default_region(gaze)
        lows, highs = np.array(region, dtype=float).T
        # rng.uniform(lows, highs, (count, 3))'s own low + range * next_double per
        # element, in the same stream order, without its broadcast path
        scene = rng.random((spec.count, 3))
        scene *= highs - lows
        scene += lows
        return scene, None
    if spec.generator == "fixation-plane-patch":
        offsets = rng.uniform(-PATCH_HALF_WIDTH, PATCH_HALF_WIDTH, (spec.count, 2))
        rays = np.column_stack([offsets, np.ones(spec.count)])
        return gaze.rho * transform(gaze.rotations[2].T, rays), (rays, np.zeros(spec.count))
    # horopter-samples: iso-vergence circle points, rotated into the visual plane
    circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
    limit = ARC_MARGIN * forward_arc_limit(circle)
    thetas = rng.uniform(-limit, limit, spec.count)
    return transform(rot_x(gaze.alpha), vm_point(circle, thetas)), None


def synthesize_scene(gaze: GazeState, spec: SceneSpec) -> SynthesisResult:
    """Generate correspondences for a scene, deterministically for a seed.

    Each candidate point X is projected through the left, right and
    Cyclopean poses in one ``project`` call on the stacked pose of
    ``gaze.rotations`` and ``EYE_CENTRES``; each image is R (X - c) divided
    by its third component. The left and right images are the correspondence, and
    the Cyclopean image and its depth minus rho are the truth (p_c, s), as
    the depth map reads them off its triangulated point, unless the generator
    drew its truth exactly. A candidate is skipped and counted unless
    ``geometry.in_front`` finds it in front of both eyes and the Cyclopean
    eye and its truth and q_l + q_r are finite: the same rows the parallax
    model sees. Noise is added after synthesis; the stored truth stays clean.
    """
    rng = np.random.default_rng(spec.seed)
    scene, truth = _scene_candidates(gaze, spec, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # a row that overflows is dropped
        images = project(EyePose(gaze.rotations[:, None], EYE_CENTRES[:, None]), scene)
        (q_l, q_r, p_c), depths = normalize_in_front(images, "point lies behind an eye")
        s = depths[2] - gaze.rho
        kept = np.isfinite(q_l + q_r).all(axis=1) & np.isfinite(p_c).all(axis=1)
    if truth is not None:
        p_c, s = truth
    records = Correspondences(q_l, q_r, p_c, s)
    if not kept.all():
        records = records[kept]
    if spec.sigma > 0.0:
        noise = rng.normal(0.0, spec.sigma, (len(records), 2, 2))  # per row: left, then right
        records.q_l[:, :2] += noise[:, 0]
        records.q_r[:, :2] += noise[:, 1]
        if not (np.isfinite(records.q_l).all() and np.isfinite(records.q_r).all()):
            raise ValueError(f"sigma {spec.sigma} makes image coordinates non-finite")
    return SynthesisResult(records=records, skipped=spec.count - len(records))
