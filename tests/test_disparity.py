import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cyclovision.disparity import (
    Correspondences,
    decompose,
    parallax,
    plane_homography,
    project_parallax_scalar,
    recover_depth,
    synthesize_correspondence,
)
from cyclovision.epipolar import epipolar_residual, essential_closed_form
from cyclovision.errors import BehindEyeError, DegenerateGeometryError, PointAtInfinityError
from cyclovision.gaze import (
    GazeState,
    eye_azimuths,
    eye_poses,
    fixation_point,
    project,
)
from cyclovision.estimation import estimate_depth_map, estimate_gaze
from cyclovision.geometry import normalize_point
from cyclovision.simulate import SceneSpec, synthesize_scene

from helpers import project_both, random_gaze

RUNNING_GAZE = GazeState(beta=0.0, rho=1.0)
RUNNING_RAY = np.array([0.0, 0.0, 1.0])
TYPES_GAZE = GazeState(beta=0.2, rho=2.0, alpha=0.1)


def random_ray_and_depth(rng, gaze):
    ray = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 1.0])
    s = float(rng.uniform(-0.3 * gaze.rho, 1.5 * gaze.rho))
    return ray, s


def cross_ratio(a, b, c, d):
    return ((a - c) * (b - d)) / ((a - d) * (b - c))


class TestPlaneDepth:
    """Plane depth s = v . q - rho of scene points, read back from their images."""

    @staticmethod
    def depth_of(gaze, scene_points):
        q_l, q_r = zip(*(project_both(gaze, q) for q in scene_points))
        return estimate_depth_map(Correspondences(np.array(q_l), np.array(q_r)), gaze)

    def test_fixation_point_has_zero_depth(self):
        gaze = GazeState(beta=0.3, rho=2.5, alpha=0.2)
        depth = self.depth_of(gaze, [fixation_point(gaze)])
        assert abs(depth.s[0]) < 1e-12
        assert_allclose(depth.p_c[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_on_axis_point(self):
        depth = self.depth_of(RUNNING_GAZE, [np.array([0.0, 0.0, 1.5])])
        assert depth.s[0] == pytest.approx(0.5, abs=1e-12)
        assert RUNNING_GAZE.rho + depth.s[0] == pytest.approx(1.5, abs=1e-12)

    def test_random_in_plane_points(self):
        rng = np.random.default_rng(3)
        gaze = GazeState(beta=0.4, rho=1.8)
        poses = eye_poses(gaze)
        rays = np.column_stack([rng.uniform(-1, 1, (100, 2)), np.ones(100)])
        depth = self.depth_of(gaze, gaze.rho * rays @ poses.cyclopean.rotation)
        assert np.abs(depth.s).max() < 1e-12


class TestDecompose:
    def test_running_example_values(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        assert_allclose(dec.predicted, [0.0, 0.0, 1.0], atol=1e-15)
        assert_allclose(dec.direction, [-1.0, 0.0, 0.0], atol=1e-15)
        assert dec.lam == pytest.approx(2 / np.sqrt(5), abs=1e-15)
        assert dec.mu == pytest.approx(1 / (2 * np.sqrt(5)), abs=1e-15)
        assert dec.kappa == pytest.approx(1 / np.sqrt(5), abs=1e-15)

    def test_mu_vanishes_when_eye_looks_straight_ahead(self):
        # beta = asin(-1/4) at rho = 2 puts the left azimuth at exactly zero
        gaze = GazeState(beta=float(np.arcsin(-0.25)), rho=2.0)
        az = eye_azimuths(gaze)
        assert abs(az.beta_l) < 1e-15
        dec = decompose(gaze, np.array([0.1, -0.2, 1.0]))[0]
        assert abs(dec.mu) < 1e-15
        assert abs(np.linalg.norm(dec.direction) - 1.0) < 1e-12

    def test_direction_third_component_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
            ray, _ = random_ray_and_depth(rng, gaze)
            for dec in decompose(gaze, ray):
                assert dec.direction[2] == 0.0
                assert dec.predicted[2] == 1.0
                assert abs(np.linalg.norm(dec.direction) - 1.0) < 1e-12

    def test_affine_depth_relations_against_projection(self):
        # rho_eye = lam rho + mu and z_eye = lam z_c + mu, with the
        # eye depths read off the third component of direct projections
        rng = np.random.default_rng(7)
        for _ in range(300):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
            ray, s = random_ray_and_depth(rng, gaze)
            poses = eye_poses(gaze)
            plane_point = gaze.rho * (poses.cyclopean.rotation.T @ ray)
            scene = (gaze.rho + s) * (poses.cyclopean.rotation.T @ ray)
            for dec, pose in zip(decompose(gaze, ray), (poses.left, poses.right)):
                rho_eye = project(pose, plane_point)[2]
                z_eye = project(pose, scene)[2]
                assert rho_eye == pytest.approx(dec.lam * gaze.rho + dec.mu, rel=1e-12)
                assert z_eye == pytest.approx(dec.lam * (gaze.rho + s) + dec.mu, rel=1e-12)
                if abs(s) > 1e-6:
                    mu_from_depths = (rho_eye * (gaze.rho + s) - gaze.rho * z_eye) / s
                    assert mu_from_depths == pytest.approx(dec.mu, abs=1e-9)

    def test_carries_the_range_of_its_gaze(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
            rays = np.column_stack([rng.uniform(-0.3, 0.3, (4, 2)), np.ones(4)])
            for dec in (*decompose(gaze, rays), *decompose(gaze, rays[0])):
                assert dec.rho == gaze.rho


class TestParallax:
    def test_zero_at_plane(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        assert parallax(dec, 0.0) == 0.0

    def test_running_example_is_one_seventh(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        t = parallax(dec, 0.5)
        assert t == pytest.approx(1.0 / 7.0, abs=1e-15)

    def test_strictly_monotone_in_depth(self):
        gaze = GazeState(beta=0.2, rho=2.0)
        dec = decompose(gaze, np.array([0.15, -0.1, 1.0]))[0]
        depths = np.linspace(-0.5, 3.0, 40)
        values = [parallax(dec, float(s)) for s in depths]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_point_behind_eye_rejected(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        with pytest.raises(BehindEyeError):
            parallax(dec, -2.0)

    def test_cross_ratio_is_preserved(self):
        # s -> t is a 1-d projective map, so cross-ratios carry over
        rng = np.random.default_rng(11)
        for _ in range(200):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 10.0))
            ray, _ = random_ray_and_depth(rng, gaze)
            dec = decompose(gaze, ray)[0 if rng.uniform() < 0.5 else 1]
            depths = np.sort(rng.uniform(-0.3 * gaze.rho, 1.5 * gaze.rho, 4))
            if np.min(np.diff(depths)) < 0.05 * gaze.rho:
                continue
            values = [parallax(dec, float(s)) for s in depths]
            expected = cross_ratio(*depths)
            got = cross_ratio(*values)
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))

    def test_mobius_three_point_fit_predicts_fourth(self):
        gaze = GazeState(beta=0.25, rho=1.6)
        dec = decompose(gaze, np.array([0.2, 0.3, 1.0]))[1]
        depths = np.array([-0.4, 0.0, 0.8, 1.9])
        values = np.array([parallax(dec, float(s)) for s in depths])
        # fit t = (a s + b) / (c s + 1) through the first three samples
        lhs = np.array([[s, 1.0, -t * s] for s, t in zip(depths[:3], values[:3])])
        a, b, c = np.linalg.solve(lhs, values[:3])
        predicted = (a * depths[3] + b) / (c * depths[3] + 1.0)
        assert predicted == pytest.approx(values[3], abs=1e-12)


class TestSynthesize:
    def test_running_example_images(self):
        corr = synthesize_correspondence(RUNNING_GAZE, RUNNING_RAY, 0.5)
        assert_allclose(corr.q_l, [-1.0 / 7.0, 0.0, 1.0], atol=1e-15)
        assert_allclose(corr.q_r, [1.0 / 7.0, 0.0, 1.0], atol=1e-15)
        assert corr.p_c.tolist() == RUNNING_RAY.tolist()
        assert corr.s == 0.5

    def test_matches_direct_projection(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0),
                               alpha=(-0.8, 0.8))
            ray, s = random_ray_and_depth(rng, gaze)
            corr = synthesize_correspondence(gaze, ray, s)
            poses = eye_poses(gaze)
            scene = (gaze.rho + s) * (poses.cyclopean.rotation.T @ ray)
            q_l, q_r = project_both(gaze, scene)
            assert np.abs(corr.q_l - q_l).max() < 1e-9
            assert np.abs(corr.q_r - q_r).max() < 1e-9

    def test_in_plane_points_predicted_exactly(self):
        rng = np.random.default_rng(17)
        gaze = GazeState(beta=0.3, rho=1.5)
        for _ in range(100):
            ray = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 1.0])
            corr = synthesize_correspondence(gaze, ray, 0.0)
            dec_l, dec_r = decompose(gaze, ray)
            assert np.array_equal(corr.q_l, dec_l.predicted)
            assert np.array_equal(corr.q_r, dec_r.predicted)

    def test_parallel_gaze_limit_recovers_simple_disparity(self):
        # at rho = 1e9 the disparity vector of (x, y, z) tends to (1/z, 0)
        gaze = GazeState(beta=0.0, rho=1e9)
        rng = np.random.default_rng(19)
        poses = eye_poses(gaze)
        for _ in range(100):
            scene = rng.uniform([-1.0, -1.0, 0.5], [1.0, 1.0, 4.0])
            ray_raw = poses.cyclopean.rotation @ scene
            ray = ray_raw / ray_raw[2]
            s = float(ray_raw[2]) - gaze.rho
            corr = synthesize_correspondence(gaze, ray, s)
            disparity = (corr.q_l - corr.q_r)[:2]
            assert_allclose(disparity, [1.0 / scene[2], 0.0], atol=1e-6)

    def test_epipolar_residuals_vanish(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
            e = essential_closed_form(eye_azimuths(gaze))
            ray, s = random_ray_and_depth(rng, gaze)
            corr = synthesize_correspondence(gaze, ray, s)
            dec_l = decompose(gaze, ray)[0]
            assert abs(epipolar_residual(e, corr.q_l, corr.q_r)) < 1e-9
            # the predicted point shares the epipolar line with the true one
            assert abs(epipolar_residual(e, dec_l.predicted, corr.q_r)) < 1e-9

    def test_cyclopean_point_behind_rejected(self):
        with pytest.raises(BehindEyeError):
            synthesize_correspondence(RUNNING_GAZE, RUNNING_RAY, -1.5)


class TestRecoverDepth:
    def test_zero_parallax_is_zero_depth(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        assert recover_depth(dec, 0.0) == 0.0

    def test_running_example(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        assert recover_depth(dec, 1.0 / 7.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_round_trip(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
            ray, s = random_ray_and_depth(rng, gaze)
            dec = decompose(gaze, ray)[0 if rng.uniform() < 0.5 else 1]
            t = parallax(dec, s)
            assert recover_depth(dec, t) == pytest.approx(
                s, rel=1e-9, abs=1e-9
            )

    def test_infinite_depth_rejected(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        t_at_infinity = dec.kappa / (dec.lam * RUNNING_GAZE.rho)
        with pytest.raises(PointAtInfinityError):
            recover_depth(dec, t_at_infinity)


class TestProjectParallaxScalar:
    def test_zero_for_predicted_point(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        t, perpendicular = project_parallax_scalar(dec, dec.predicted)
        assert t == 0.0
        assert perpendicular == 0.0

    def test_running_example(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        t, perpendicular = project_parallax_scalar(
            dec, np.array([-1.0 / 7.0, 0.0, 1.0])
        )
        assert t == pytest.approx(1.0 / 7.0, abs=1e-15)
        assert perpendicular < 1e-15

    def test_noiseless_points_have_no_perpendicular_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
            ray, s = random_ray_and_depth(rng, gaze)
            corr = synthesize_correspondence(gaze, ray, s)
            for dec, observed in zip(decompose(gaze, ray), (corr.q_l, corr.q_r)):
                t, perpendicular = project_parallax_scalar(dec, observed)
                assert perpendicular < 1e-12
                assert t == pytest.approx(parallax(dec, s), abs=1e-12)

    def test_noisy_offset_splits_into_parallel_and_perpendicular(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        observed = dec.predicted + 0.2 * dec.direction + np.array([0.0, 0.05, 0.0])
        t, perpendicular = project_parallax_scalar(dec, observed)
        assert t == pytest.approx(0.2, abs=1e-12)
        assert perpendicular == pytest.approx(0.05, abs=1e-12)


class TestPlaneHomography:
    def test_maps_plane_points_left_to_right(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0),
                               alpha=(-0.8, 0.8))
            h = plane_homography(gaze)
            ray = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 1.0])
            dec_l, dec_r = decompose(gaze, ray)
            mapped = normalize_point(h @ dec_l.predicted)
            assert np.abs(mapped - dec_r.predicted).max() < 1e-9

    def test_far_plane_kills_translation_term(self):
        h = plane_homography(GazeState(beta=0.0, rho=1e9))
        assert_allclose(h, np.eye(3), atol=1e-9)

    def test_fixes_the_principal_point(self):
        h = plane_homography(GazeState(beta=0.2, rho=2.0))
        image = normalize_point(h @ np.array([0.0, 0.0, 1.0]))
        assert_allclose(image, [0.0, 0.0, 1.0], atol=1e-12)

    def test_plane_plus_parallax_composition(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            gaze = random_gaze(rng, beta=(-0.6, 0.6), rho=(0.8, 20.0))
            h = plane_homography(gaze)
            ray, s = random_ray_and_depth(rng, gaze)
            dec_l, dec_r = decompose(gaze, ray)
            composed = normalize_point(h @ dec_l.predicted) + parallax(
                dec_r, s
            ) * dec_r.direction
            poses = eye_poses(gaze)
            scene = (gaze.rho + s) * (poses.cyclopean.rotation.T @ ray)
            expected = normalize_point(project(poses.right, scene))
            assert np.abs(composed - expected).max() < 1e-9


class TestBatches:
    """A batch runs the single-ray formulas row by row: same bits, failures marked."""

    def test_batch_rows_equal_single_rays(self):
        rng = np.random.default_rng(43)
        gaze = GazeState(beta=0.3, rho=2.5, alpha=-0.2)
        rays = np.column_stack([rng.uniform(-0.4, 0.4, (200, 2)), np.ones(200)])
        depths = rng.uniform(-0.3 * gaze.rho, 1.5 * gaze.rho, 200)
        batch = synthesize_correspondence(gaze, rays, depths)
        assert len(batch) == 200
        for side, images in enumerate((batch.q_l, batch.q_r)):
            dec = decompose(gaze, rays)[side]
            t, perpendicular = project_parallax_scalar(dec, images)
            recovered = recover_depth(dec, t)
            for i, ray in enumerate(rays):
                single = synthesize_correspondence(gaze, ray, depths[i])
                assert np.array_equal((single.q_l, single.q_r)[side], images[i])
                one = decompose(gaze, ray)[side]
                assert np.array_equal(one.direction, dec.direction[i])
                assert (one.kappa, one.lam) == (dec.kappa[i], dec.lam[i])
                assert parallax(one, depths[i]) == parallax(dec, depths)[i]
                one_t, one_perpendicular = project_parallax_scalar(one, images[i])
                assert (one_t, one_perpendicular) == (t[i], perpendicular[i])
                assert recover_depth(one, one_t) == recovered[i]

    def test_scalar_depth_is_the_depth_of_every_ray(self):
        gaze = GazeState(beta=0.2, rho=2.0)
        rays = np.column_stack([np.random.default_rng(5).uniform(-0.3, 0.3, (20, 2)),
                                np.ones(20)])
        records = synthesize_correspondence(gaze, rays, 0.0)
        broadcast = synthesize_correspondence(gaze, rays, np.zeros(20))
        assert len(records) == 20 and len(records[:3]) == 3
        for name in ("q_l", "q_r", "p_c", "s"):
            assert np.array_equal(getattr(records, name), getattr(broadcast, name))
        assert estimate_gaze(records).gaze.rho == pytest.approx(2.0)
        assert synthesize_correspondence(gaze, rays[0], 0.0).s.shape == ()

    def test_depth_behind_the_cyclopean_eye_marks_its_row(self):
        depths = np.array([0.5, -1.5, 0.0])
        batch = synthesize_correspondence(RUNNING_GAZE, np.tile(RUNNING_RAY, (3, 1)), depths)
        assert np.isnan(batch.q_l[1]).all() and np.isnan(batch.q_r[1]).all()
        assert np.isfinite(batch.q_l[[0, 2]]).all() and np.isfinite(batch.q_r[[0, 2]]).all()
        assert batch.s.tolist() == depths.tolist()

    def test_ray_behind_an_eye_marks_its_row(self):
        # a ray far off axis in a near fixation lands behind the left eye
        rays = np.array([[0.0, 0.0, 1.0], [-40.0, 0.0, 1.0]])
        with pytest.raises(BehindEyeError):
            decompose(RUNNING_GAZE, rays[1])
        dec = decompose(RUNNING_GAZE, rays)[0]
        assert np.isnan(dec.predicted[1]).all() and np.isnan(dec.kappa[1])
        assert np.isfinite(dec.predicted[0]).all() and np.isfinite(dec.kappa[0])

    def test_ray_behind_the_right_eye_alone_fails_the_pair_there(self):
        # at beta = 1.2, rho = 0.8 the ray (1, 0, 1) passes in front of the
        # left eye and behind the right one
        gaze = GazeState(beta=1.2, rho=0.8)
        rays = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        with pytest.raises(BehindEyeError, match="behind the right eye"):
            decompose(gaze, rays[1])
        left, right = decompose(gaze, rays)
        assert np.isfinite(left.predicted).all() and np.isfinite(left.kappa).all()
        assert np.isnan(right.predicted[1]).all() and np.isnan(right.kappa[1])
        assert np.isfinite(right.predicted[0]).all() and np.isfinite(right.kappa[0])
        # a batch of that ray alone still gives its left eye
        alone_left, alone_right = decompose(gaze, rays[1:])
        assert np.array_equal(alone_left.predicted[0], left.predicted[1])
        assert np.isnan(alone_right.kappa[0])

    def test_ray_at_the_epipole_marks_its_row(self):
        # the fixation plane of beta = 0.5, rho = 1 meets the baseline at
        # x = 1/sin(0.5), seen along the Cyclopean ray (cot(0.5), 0, 1)
        gaze = GazeState(beta=0.5, rho=1.0)
        on_baseline = np.array([1.0 / np.tan(0.5), 0.0, 1.0])
        with pytest.raises(DegenerateGeometryError, match="epipole"):
            decompose(gaze, on_baseline)
        dec = decompose(gaze, np.array([[0.1, 0.0, 1.0], on_baseline]))[0]
        assert np.isnan(dec.direction[1]).all() and np.isnan(dec.kappa[1])
        assert np.isfinite(dec.direction[0]).all() and np.isfinite(dec.kappa[0])

    @pytest.mark.parametrize("kernel,gaze,values", [
        (parallax, GazeState(beta=0.2, rho=0.75), [1.7e308, 1.0]),
        (recover_depth, GazeState(beta=0.2, rho=2.0), [1.7e308, 0.1]),
    ], ids=["parallax", "recover_depth"])
    def test_overflowing_row_reads_non_finite_without_a_warning(self, kernel, gaze, values):
        # the suite turns any RuntimeWarning into an error
        rays = np.array([[0.1, 0.2, 1.0], [0.0, 0.1, 1.0]])
        out = kernel(decompose(gaze, rays)[0], np.array(values))
        assert not np.isfinite(out[0])
        assert out[1] == kernel(decompose(gaze, rays[1])[0], values[1])

    def test_infinite_depth_and_behind_eye_mark_rows(self):
        dec = decompose(RUNNING_GAZE, RUNNING_RAY)[0]
        t_at_infinity = dec.kappa / (dec.lam * RUNNING_GAZE.rho)
        depths = recover_depth(dec, np.array([1.0 / 7.0, t_at_infinity]))
        assert depths[0] == pytest.approx(0.5, abs=1e-12) and np.isnan(depths[1])
        values = parallax(dec, np.array([0.5, -2.0]))
        assert values[0] == pytest.approx(1.0 / 7.0, abs=1e-15) and np.isnan(values[1])


class TestCorrespondences:
    @pytest.mark.parametrize("shapes", [
        ((5, 3), (4, 3)),
        ((5, 2), (5, 2)),
        ((3,), (1, 3)),
        ((2, 5, 3), (2, 5, 3)),
    ], ids=["lengths-differ", "two-component", "single-and-set", "three-axes"])
    def test_points_of_other_shapes_rejected(self, shapes):
        q_l, q_r = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError, match=re.escape(f"got {shapes[0]} and {shapes[1]}")):
            Correspondences(q_l, q_r)

    @pytest.mark.parametrize("truth", [{"p_c": np.ones((5, 3))}, {"s": np.zeros(5)}],
                             ids=["p_c-alone", "s-alone"])
    def test_half_a_truth_rejected(self, truth):
        with pytest.raises(ValueError, match="together"):
            Correspondences(np.ones((5, 3)), np.ones((5, 3)), **truth)

    @pytest.mark.parametrize("p_c,s", [
        ((4, 3), (5,)),
        ((5, 3), (7,)),
        ((5, 3), ()),
        ((5,), (5,)),
    ], ids=["rays-short", "depths-long", "scalar-depth", "flat-rays"])
    def test_truth_of_other_shapes_rejected(self, p_c, s):
        with pytest.raises(ValueError, match=re.escape(f"got {p_c} and {s}")):
            Correspondences(np.ones((5, 3)), np.ones((5, 3)), p_c=np.ones(p_c), s=np.ones(s))

    @staticmethod
    def assert_same_fit_and_depths(converted, expected):
        for name in ("q_l", "q_r", "p_c", "s"):
            value = getattr(converted, name)
            assert type(value) is np.ndarray and value.dtype == np.float64
            assert np.array_equal(value, getattr(expected, name), equal_nan=True)
        if expected.q_l.ndim == 2:
            assert estimate_gaze(converted) == estimate_gaze(expected)
        for got, want in zip(estimate_depth_map(converted, TYPES_GAZE),
                             estimate_depth_map(expected, TYPES_GAZE)):
            assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("convert", [
        lambda a: a.tolist(),
        lambda a: tuple(map(tuple, a.tolist())) if a.ndim == 2 else tuple(a.tolist()),
    ], ids=["lists", "tuples"])
    @pytest.mark.parametrize("truth", [True, False], ids=["truth", "no-truth"])
    def test_array_likes_give_the_fit_and_depths_of_float_arrays(self, convert, truth):
        records = synthesize_scene(TYPES_GAZE, SceneSpec(count=30, sigma=1e-3, seed=5)).records
        fields = [records.q_l, records.q_r] + ([records.p_c, records.s] if truth else [])
        self.assert_same_fit_and_depths(Correspondences(*map(convert, fields)),
                                        Correspondences(*fields))

    def test_an_int_array_gives_the_fit_and_depths_of_its_float_copy(self):
        records = synthesize_scene(TYPES_GAZE, SceneSpec(count=30, seed=5)).records
        # homogeneous points with third component 1000, rounded to integers
        q_l, q_r = (np.rint(1000.0 * q).astype(np.int64) for q in (records.q_l, records.q_r))
        self.assert_same_fit_and_depths(Correspondences(q_l, q_r),
                                        Correspondences(q_l.astype(float), q_r.astype(float)))

    def test_a_single_correspondence_takes_a_python_float_depth(self):
        records = synthesize_scene(TYPES_GAZE, SceneSpec(count=1, seed=5)).records
        q_l, q_r, p_c = (q[0].tolist() for q in (records.q_l, records.q_r, records.p_c))
        single = Correspondences(q_l, q_r, p_c=p_c, s=float(records.s[0]))
        assert single.s.shape == ()
        self.assert_same_fit_and_depths(single, records[0])

    def test_float_arrays_are_kept_as_they_are(self):
        q_l, q_r, p_c, s = np.ones((5, 3)), np.ones((5, 3)), np.ones((5, 3)), np.zeros(5)
        records = Correspondences(q_l, q_r, p_c, s)
        for got, want in zip((records.q_l, records.q_r, records.p_c, records.s), (q_l, q_r, p_c, s)):
            assert got is want

    @pytest.mark.parametrize("q_l", [
        [[0.1, 0.2, 1.0], [0.1, 1.0]],
        [[0.1, 0.2, 1.0], [0.1, 0.2, 1.0, 1.0]],
        [[0.1, 0.2, 1.0], 0.5],
    ], ids=["short-row", "long-row", "scalar-row"])
    def test_a_ragged_list_raises_a_value_error(self, q_l):
        with pytest.raises(ValueError):
            Correspondences(q_l, [[0.1, 0.2, 1.0]] * 2)

    @pytest.mark.parametrize("field,value", [
        ("q_l", [["0.1", "0.2", "1"]] * 5),
        ("q_l", [[0.1, None, 1.0]] * 5),
        ("q_l", [[True, False, True]] * 5),
        ("q_l", np.ones((5, 3), dtype=bool)),
        ("q_r", [[Fraction(1, 10), 0.2, 1.0]] * 5),
        ("q_r", np.full((5, 3), 1.0 + 0.0j)),
        ("p_c", [[0.0, None, 1.0]] * 5),
        ("s", ["0.5"] * 5),
        ("s", [None] * 5),
        ("s", np.zeros(5, dtype=bool)),
    ], ids=["str", "none", "bool-list", "bool-array", "fraction", "complex",
            "truth-none", "depth-str", "depth-none", "depth-bool"])
    def test_a_non_number_array_raises_a_type_error_naming_the_field(self, field, value):
        fields = dict(q_l=np.ones((5, 3)), q_r=np.ones((5, 3)), p_c=np.ones((5, 3)), s=np.zeros(5))
        fields[field] = value
        with pytest.raises(TypeError, match=f"^{field} must hold numbers"):
            Correspondences(**fields)
