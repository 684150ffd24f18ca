"""Synthetic scenes and correspondence generation for the simulation CLI.

A scene is drawn, projected and perturbed in one array pass into a
Correspondences set whose truth is each point's clean (p_c, s).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cyclovision.disparity import Correspondences, ray_and_depth, synthesize_correspondence
from cyclovision.gaze import (
    GazeState,
    eye_azimuths,
    fixation_point,
    vergence_version,
    vieth_muller,
)
from cyclovision.geometry import rot_x, transform
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
    in baseline units; None means a box centred on the fixation point.
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
            try:
                pairs = [(low, high) for low, high in self.region]
            except (TypeError, ValueError):  # not an iterable of pairs
                pass
            if len(pairs) != 3:
                raise ValueError(f"region must be three (low, high) pairs, got {self.region!r}")
        for name in ("count", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        bounds = [bound for pair in pairs for bound in pair]
        for name, value in [("sigma", self.sigma)] + [("region bound", b) for b in bounds]:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a real number, got {value!r}")
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.region is not None:
            for low, high in self.region:
                if not low < high:
                    raise ValueError(f"region bounds must increase, got ({low}, {high})")
                if not math.isfinite(high - low):
                    raise ValueError(
                        f"region bounds and their width must be finite, got ({low}, {high})")


class SynthesisResult(NamedTuple):
    records: Correspondences
    skipped: int  # candidates behind an eye or otherwise degenerate


def default_region(gaze: GazeState) -> Region:
    """Axis-aligned box centred on the fixation point, scaled with range."""
    half = BOX_HALF_EXTENT * gaze.rho
    box = tuple((c - half, c + half) for c in fixation_point(gaze).tolist())
    if not all(math.isfinite(bound) for pair in box for bound in pair):
        raise ValueError(f"rho {gaze.rho} is too large for the default region; give a region")
    return box


def _scene_candidates(gaze: GazeState, spec: SceneSpec, rng: np.random.Generator) -> np.ndarray:
    if spec.generator == "random-box":
        region = spec.region if spec.region is not None else default_region(gaze)
        lows, highs = np.array(region, dtype=float).T
        return rng.uniform(lows, highs, (spec.count, 3))
    # horopter-samples: iso-vergence circle points, rotated into the visual plane
    circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
    limit = ARC_MARGIN * forward_arc_limit(circle)
    thetas = rng.uniform(-limit, limit, spec.count)
    return transform(rot_x(gaze.alpha), vm_point(circle, thetas))


def synthesize_scene(gaze: GazeState, spec: SceneSpec) -> SynthesisResult:
    """Generate correspondences for a scene, deterministically for a seed.

    Candidates that land behind an eye, or whose Cyclopean ray is
    degenerate, are skipped and counted. Noise is added after synthesis;
    the stored truth (p_c, s) stays clean.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.generator == "fixation-plane-patch":
        offsets = rng.uniform(-PATCH_HALF_WIDTH, PATCH_HALF_WIDTH, (spec.count, 2))
        rays = np.column_stack([offsets, np.ones(spec.count)])
        depths = np.zeros(spec.count)
    else:
        rays, depths = ray_and_depth(gaze, _scene_candidates(gaze, spec, rng))

    records = synthesize_correspondence(gaze, rays, depths)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows drops its row
        kept = np.isfinite(records.q_l + records.q_r).all(axis=1)
    if not kept.all():
        records = records[kept]
    if spec.sigma > 0.0:
        noise = rng.normal(0.0, spec.sigma, (len(records), 2, 2))  # per row: left, then right
        records.q_l[:, :2] += noise[:, 0]
        records.q_r[:, :2] += noise[:, 1]
        if not (np.isfinite(records.q_l).all() and np.isfinite(records.q_r).all()):
            raise ValueError(f"sigma {spec.sigma} makes image coordinates non-finite")
    return SynthesisResult(records=records, skipped=spec.count - len(records))
