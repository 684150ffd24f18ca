import numpy as np
import pytest

from cyclovision.epipolar import epipolar_residual, essential_closed_form
from cyclovision.gaze import GazeState, eye_azimuths, eye_poses, project
from cyclovision.simulate import SceneSpec, default_region, synthesize_scene

GAZE = GazeState(beta=0.1, rho=1.5)


class TestSceneSpec:
    def test_rejects_unknown_generator(self):
        with pytest.raises(ValueError):
            SceneSpec(generator="mystery")

    def test_rejects_bad_count_and_sigma(self):
        with pytest.raises(ValueError):
            SceneSpec(count=0)
        with pytest.raises(ValueError):
            SceneSpec(sigma=-1.0)

    def test_rejects_inverted_region(self):
        with pytest.raises(ValueError):
            SceneSpec(region=((1.0, -1.0), (-1.0, 1.0), (0.5, 2.0)))

    def test_default_region_brackets_fixation_point(self):
        region = default_region(GAZE)
        assert region[2][0] < GAZE.rho * np.cos(GAZE.beta) < region[2][1]


class TestFiniteScenes:
    """Inputs that would overflow the box draw or the noise fail early,
    with a ValueError that names the flag at fault."""

    @pytest.mark.parametrize("gaze,spec,name", [
        (GAZE, dict(sigma=float("nan")), "sigma"),
        (GAZE, dict(sigma=float("inf")), "sigma"),
        (GAZE, dict(sigma=1e308, count=50), "sigma"),
        (GAZE, dict(region=((-1e308, 1e308), (-1.0, 1.0), (1.0, 3.0))), "region"),
        (GAZE, dict(region=((0.0, 1.0), (0.0, 1.0), (1.0, float("inf")))), "region"),
        (GazeState(beta=0.0, rho=1.7e308), dict(), "rho"),
    ])
    def test_rejected_with_the_flag_named(self, gaze, spec, name):
        with pytest.raises(ValueError, match=f"^{name}"):
            synthesize_scene(gaze, SceneSpec(**spec))


class TestSynthesizeScene:
    def test_deterministic_for_seed(self):
        a = synthesize_scene(GAZE, SceneSpec(count=25, seed=3, sigma=1e-3))
        b = synthesize_scene(GAZE, SceneSpec(count=25, seed=3, sigma=1e-3))
        assert a.skipped == b.skipped
        assert np.array_equal(a.records.q_l, b.records.q_l)
        assert np.array_equal(a.records.q_r, b.records.q_r)

    def test_noiseless_records_satisfy_epipolar_constraint(self):
        result = synthesize_scene(GAZE, SceneSpec(count=100, seed=5))
        e = essential_closed_form(eye_azimuths(GAZE))
        for q_l, q_r in zip(result.records.q_l, result.records.q_r):
            assert abs(epipolar_residual(e, q_l, q_r)) < 1e-9

    def test_noise_perturbs_images_not_truth(self):
        clean = synthesize_scene(GAZE, SceneSpec(count=25, seed=7))
        noisy = synthesize_scene(GAZE, SceneSpec(count=25, seed=7, sigma=1e-3))
        rc, rn = clean.records, noisy.records
        assert len(rc) == len(rn)
        assert (rc.q_l != rn.q_l).any(axis=1).all()
        assert np.abs(rc.q_l - rn.q_l).max() < 0.01
        assert (rn.q_l[:, 2] == 1.0).all()
        assert np.array_equal(rc.p_c, rn.p_c)
        assert np.array_equal(rc.s, rn.s)

    def test_noise_is_drawn_per_row_left_then_right(self):
        # the noise stream follows the scene draw: two values for the left
        # image, then two for the right, row by row
        spec = SceneSpec(count=25, seed=7, sigma=1e-3)
        clean = synthesize_scene(GAZE, SceneSpec(count=25, seed=7)).records
        noisy = synthesize_scene(GAZE, spec).records
        rng = np.random.default_rng(7)
        rng.uniform(size=(25, 3))
        for i in range(len(noisy)):
            assert np.array_equal(noisy.q_l[i, :2], clean.q_l[i, :2] + rng.normal(0.0, 1e-3, 2))
            assert np.array_equal(noisy.q_r[i, :2], clean.q_r[i, :2] + rng.normal(0.0, 1e-3, 2))

    def test_plane_patch_depths_are_zero(self):
        result = synthesize_scene(GAZE, SceneSpec(generator="fixation-plane-patch",
                                                  count=40, seed=9))
        assert len(result.records) == 40
        assert (result.records.s == 0.0).all()

    def test_horopter_samples_lie_on_the_meridian(self):
        result = synthesize_scene(GAZE, SceneSpec(generator="horopter-samples",
                                                  count=40, seed=11))
        records = result.records
        assert np.abs(records.q_l[:, 1]).max() < 1e-12
        assert np.abs(records.q_r[:, 1]).max() < 1e-12
        # fixed points: both images coincide
        assert np.abs(records.q_l - records.q_r).max() < 1e-9

    def test_points_behind_eyes_are_skipped_and_counted(self):
        # a box straddling the baseline plane puts some points behind the eyes
        region = ((-0.5, 0.5), (-0.5, 0.5), (-1.0, 1.0))
        result = synthesize_scene(GAZE, SceneSpec(count=200, seed=13, region=region))
        assert result.skipped > 0
        assert len(result.records) + result.skipped == 200
        poses = eye_poses(GAZE)
        records = result.records
        for p_c, s in zip(records.p_c, records.s):
            scene = (GAZE.rho + s) * (poses.cyclopean.rotation.T @ p_c)
            assert project(poses.left, scene)[2] > 0
            assert project(poses.right, scene)[2] > 0

    def test_elevated_gaze_synthesis_matches_projection(self):
        gaze = GazeState(beta=0.2, rho=2.0, alpha=0.5)
        result = synthesize_scene(gaze, SceneSpec(count=30, seed=15))
        poses = eye_poses(gaze)
        records = result.records
        for p_c, s, q_l in zip(records.p_c, records.s, records.q_l):
            scene = (gaze.rho + s) * (poses.cyclopean.rotation.T @ p_c)
            left = project(poses.left, scene)
            assert np.abs(q_l - left / left[2]).max() < 1e-9
