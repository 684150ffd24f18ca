"""Acceptance suite: one test per criterion, at the stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or
on failure), so the suite doubles as a checklist.
"""

import functools
import math

import numpy as np
import pytest

from cyclovision.disparity import (
    decompose,
    parallax,
    plane_homography,
    recover_depth,
    synthesize_correspondence,
)
from cyclovision.epipolar import (
    epipolar_residual,
    epipoles,
    essential_closed_form,
    essential_from_horopter,
    essential_traditional,
)
from cyclovision.errors import DegenerateConfigurationError
from cyclovision.estimation import estimate_gaze, grid_init
from cyclovision.gaze import (
    GazeState,
    eye_azimuths,
    eye_poses,
    fixation_point,
    project,
    vergence_version,
    vieth_muller,
)
from cyclovision.geometry import normalize_point, projectively_equal, proportional_form
from cyclovision.horopter import forward_arc_limit, horopter_component, midline, vm_point
from cyclovision.simulate import SceneSpec, synthesize_scene

from helpers import project_both, random_gaze


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {number:2d} ({name}): PASS")
        return run
    return wrap


def random_ray_and_depth(rng, gaze):
    ray = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 1.0])
    s = float(rng.uniform(-0.3 * gaze.rho, 1.5 * gaze.rho))
    return ray, s


@criterion(1, "foveation")
def test_criterion_01_foveation():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        gaze = random_gaze(rng, beta=(-0.8, 0.8), rho=(0.8, 50.0))
        poses = eye_poses(gaze)
        p0 = fixation_point(gaze)
        for pose in (poses.left, poses.right):
            image = normalize_point(project(pose, p0))
            assert np.abs(image - np.array([0.0, 0.0, 1.0])).max() < 1e-9


@criterion(2, "symmetric closed form")
def test_criterion_02_symmetric_case():
    az = eye_azimuths(GazeState(beta=0.0, rho=1.0))
    assert abs(az.beta_l - math.atan(0.5)) < 1e-12
    assert abs(az.beta_r + math.atan(0.5)) < 1e-12
    vv = vergence_version(az)
    assert abs(math.sin(vv.delta) - 0.8) < 1e-12
    circle = vieth_muller(vv)
    assert abs(circle.zeta - 0.375) < 1e-12
    assert abs(circle.eta - 0.625) < 1e-12


@criterion(3, "horopter fixed points")
def test_criterion_03_horopter_fixed_points():
    rng = np.random.default_rng(103)
    # forward circle points: projectively equal images
    for _ in range(1000):
        gaze = random_gaze(rng, rho=(0.8, 20.0))
        circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
        theta = float(rng.uniform(-0.95, 0.95)) * forward_arc_limit(circle)
        q_l, q_r = project_both(gaze, vm_point(circle, theta))
        assert projectively_equal(q_l, q_r, tol=1e-9)
    # midline points: full eye-frame equality
    for _ in range(1000):
        gaze = random_gaze(rng, rho=(0.8, 20.0))
        circle = vieth_muller(vergence_version(eye_azimuths(gaze)))
        scene = np.array([0.0, float(rng.uniform(-2.0, 2.0)),
                          circle.zeta + circle.eta])
        poses = eye_poses(gaze)
        left = project(poses.left, scene)
        right = project(poses.right, scene)
        assert np.abs(left - right).max() < 1e-9
    # generic points fail both equalities
    count = 0
    while count < 1000:
        gaze = random_gaze(rng, rho=(0.8, 5.0))
        scene = fixation_point(gaze) + rng.uniform(-0.6, 0.6, 3)
        if scene[2] <= 0.1 or horopter_component(scene, gaze, tol=1e-3) != "none":
            continue
        count += 1
        q_l, q_r = project_both(gaze, scene)
        assert not projectively_equal(q_l, q_r, tol=1e-9)
        poses = eye_poses(gaze)
        assert np.abs(project(poses.left, scene)
                      - project(poses.right, scene)).max() > 1e-9


@criterion(4, "Essential matrix triple agreement")
def test_criterion_04_essential_triple_agreement():
    rng = np.random.default_rng(104)
    for _ in range(1000):
        gaze = random_gaze(rng, rho=(0.8, 50.0))
        az = eye_azimuths(gaze)
        poses = eye_poses(gaze)
        mid = midline(vergence_version(az))
        forms = (
            essential_from_horopter(epipoles(az), mid.image_line),
            essential_closed_form(az),
            essential_traditional(poses.left, poses.right),
        )
        canonical = [proportional_form(e) for e in forms]
        assert np.abs(canonical[0] - canonical[1]).max() < 1e-9
        assert np.abs(canonical[0] - canonical[2]).max() < 1e-9
        for e in forms:
            sv = np.linalg.svd(e, compute_uv=False)
            assert abs(sv[1] / sv[0] - 1.0) < 1e-9
            assert sv[2] / sv[0] < 1e-9


@criterion(5, "epipolar constraint on synthesized pairs")
def test_criterion_05_epipolar_constraint():
    rng = np.random.default_rng(105)
    for _ in range(1000):
        gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
        e = essential_closed_form(eye_azimuths(gaze))
        ray, s = random_ray_and_depth(rng, gaze)
        corr = synthesize_correspondence(gaze, ray, s)
        predicted_l = decompose(gaze, ray, "left").predicted
        assert abs(epipolar_residual(e, corr.q_l, corr.q_r)) < 1e-9
        assert abs(epipolar_residual(e, predicted_l, corr.q_r)) < 1e-9


@criterion(6, "parallax matches pinhole projection")
def test_criterion_06_parallax_oracle():
    # hand-computed case, exact to 1e-12
    gaze = GazeState(beta=0.0, rho=1.0)
    dec = decompose(gaze, np.array([0.0, 0.0, 1.0]), "left")
    t = parallax(dec, 0.5)
    assert abs(t - 1.0 / 7.0) < 1e-12
    corr = synthesize_correspondence(gaze, np.array([0.0, 0.0, 1.0]), 0.5)
    assert np.abs(corr.q_l - np.array([-1.0 / 7.0, 0.0, 1.0])).max() < 1e-12

    rng = np.random.default_rng(106)
    for _ in range(10_000):
        gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
        ray, s = random_ray_and_depth(rng, gaze)
        corr = synthesize_correspondence(gaze, ray, s)
        poses = eye_poses(gaze)
        scene = (gaze.rho + s) * (poses.cyclopean.rotation.T @ ray)
        q_l, q_r = project_both(gaze, scene)
        assert np.abs(corr.q_l - q_l).max() < 1e-9
        assert np.abs(corr.q_r - q_r).max() < 1e-9


@criterion(7, "depth round trip")
def test_criterion_07_depth_round_trip():
    rng = np.random.default_rng(107)
    for _ in range(10_000):
        gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
        ray, s = random_ray_and_depth(rng, gaze)
        eye = "left" if rng.uniform() < 0.5 else "right"
        dec = decompose(gaze, ray, eye)
        t = parallax(dec, s)
        recovered = recover_depth(dec, t)
        assert abs(recovered - s) < 1e-9 * max(1.0, abs(s))
        assert parallax(dec, 0.0) == 0.0


@criterion(8, "plane homography and plane plus parallax")
def test_criterion_08_homography():
    rng = np.random.default_rng(108)
    gaze = random_gaze(rng, beta=(-0.4, 0.4), rho=(1.0, 5.0))
    h = plane_homography(gaze)
    poses = eye_poses(gaze)
    for _ in range(100):
        ray = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 1.0])
        s = float(rng.uniform(-0.3 * gaze.rho, 1.5 * gaze.rho))
        dec_l = decompose(gaze, ray, "left")
        dec_r = decompose(gaze, ray, "right")
        # plane points map left image to right image
        mapped = normalize_point(h @ dec_l.predicted)
        assert np.abs(mapped - dec_r.predicted).max() < 1e-9
        # plane-plus-parallax composition equals the direct projection
        composed = mapped + parallax(dec_r, s) * dec_r.direction
        scene = (gaze.rho + s) * (poses.cyclopean.rotation.T @ ray)
        expected = normalize_point(project(poses.right, scene))
        assert np.abs(composed - expected).max() < 1e-9


@criterion(9, "gaze estimation")
def test_criterion_09_gaze_estimation():
    truth = GazeState(beta=0.2, rho=2.0)
    true_az = eye_azimuths(truth)

    # noiseless grid-seeded recovery to 1e-6 rad
    records = synthesize_scene(truth, SceneSpec(count=50, seed=900)).records
    fit = estimate_gaze(records, initial=grid_init(records))
    assert abs(fit.azimuths.beta_l - true_az.beta_l) < 1e-6
    assert abs(fit.azimuths.beta_r - true_az.beta_r) < 1e-6

    # sigma = 1e-3: median relative range error below 5% over 100 trials
    errors = []
    for trial in range(100):
        noisy = synthesize_scene(
            truth, SceneSpec(count=50, seed=9000 + trial, sigma=1e-3)
        ).records
        noisy_fit = estimate_gaze(noisy)
        errors.append(abs(noisy_fit.gaze.rho - truth.rho) / truth.rho)
    assert float(np.median(errors)) < 0.05

    # meridian-only data is degenerate
    meridian = synthesize_scene(
        truth, SceneSpec(generator="horopter-samples", count=50, seed=901)
    ).records
    with pytest.raises(DegenerateConfigurationError):
        estimate_gaze(meridian)


@criterion(10, "parallel-gaze disparity limit")
def test_criterion_10_parallel_gaze_limit():
    gaze = GazeState(beta=0.0, rho=1e9)
    poses = eye_poses(gaze)
    rng = np.random.default_rng(110)
    for _ in range(200):
        scene = rng.uniform([-1.0, -1.0, 0.5], [1.0, 1.0, 4.0])
        ray_raw = poses.cyclopean.rotation @ scene
        ray = ray_raw / ray_raw[2]
        s = float(ray_raw[2]) - gaze.rho
        corr = synthesize_correspondence(gaze, ray, s)
        disparity = (corr.q_l - corr.q_r)[:2]
        assert abs(disparity[0] - 1.0 / scene[2]) < 1e-6
        assert abs(disparity[1]) < 1e-6


@criterion(11, "parallax is a 1-d projectivity")
def test_criterion_11_parallax_projectivity():
    def cross_ratio(a, b, c, d):
        return ((a - c) * (b - d)) / ((a - d) * (b - c))

    rng = np.random.default_rng(111)
    checked = 0
    while checked < 500:
        gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 10.0))
        ray, _ = random_ray_and_depth(rng, gaze)
        eye = "left" if rng.uniform() < 0.5 else "right"
        dec = decompose(gaze, ray, eye)
        depths = np.sort(rng.uniform(-0.3 * gaze.rho, 1.5 * gaze.rho, 4))
        if np.min(np.diff(depths)) < 0.05 * gaze.rho:
            continue
        checked += 1
        values = [parallax(dec, float(s)) for s in depths]
        expected = cross_ratio(*depths)
        got = cross_ratio(*values)
        assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
